//! Traced runs: the harness's own spans around every call it makes into
//! a layer, kept in memory and written out when the run ends, plus the
//! `xtalk-obs` span tree for the layers' internals.
//!
//! Tracing is off for every end-to-end measurement; `--trace 1` turns it
//! on for a separate run that reports per-layer metrics.

use crate::report::Report;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One closed span: a harness call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that was open on this thread when this one started
    /// (`0` at top level).
    pub parent: u64,
    /// The request (or circuit, or device-day) the span belongs to;
    /// spans of one request share it.
    pub req: u64,
    /// Layer boundary, e.g. `core.schedule`.
    pub name: &'static str,
    /// Start, nanoseconds since the first traced event.
    pub start_ns: u64,
    /// End, nanoseconds since the first traced event.
    pub end_ns: u64,
}

/// Turns harness spans and the `xtalk-obs` layer on or off together.
pub fn set_enabled(on: bool) {
    origin();
    ON.store(on, Ordering::SeqCst);
    xtalk_obs::set_enabled(on);
}

/// `true` while tracing.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span records when dropped"]
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` for request `req` under the thread's
/// current span. Costs one atomic load when tracing is off.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, _) = CURRENT.with(|c| c.replace((id, req)));
    Guard {
        open: Some((id, parent, req, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, req, name, start)) = self.open.take() {
            let end = Instant::now();
            let at = |t: Instant| t.duration_since(origin()).as_nanos() as u64;
            CURRENT.with(|c| c.set((parent, req)));
            let span = Span {
                id,
                parent,
                req,
                name,
                start_ns: at(start),
                end_ns: at(end),
            };
            SPANS.lock().expect("span list intact").push(span);
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list intact"))
}

/// Per-name totals over harness spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by child
    /// spans), ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64) / 1e6
    }
}

/// Aggregates spans by name, deriving self times from the parent links.
/// Children of one parent run on the parent's thread and never overlap,
/// so the covered part of a parent is the sum of its children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Total and count of every `xtalk-obs` span whose path ends in `leaf`
/// (whatever the enclosing spans), plus the total time of their direct
/// children whose own name starts with `child_prefix`.
pub fn obs_totals(snap: &xtalk_obs::Snapshot, leaf: &str, child_prefix: &str) -> ObsTotals {
    let mut out = ObsTotals::default();
    let suffix = format!("/{leaf}");
    for s in &snap.spans {
        if s.name == leaf || s.name.ends_with(&suffix) {
            out.count += s.count;
            out.total_ns += s.total_ns;
            let prefix = format!("{}/{child_prefix}", s.name);
            out.child_ns += snap
                .spans
                .iter()
                .filter(|c| c.name.starts_with(&prefix) && !c.name[prefix.len()..].contains('/'))
                .map(|c| c.total_ns)
                .sum::<u64>();
        }
    }
    out
}

/// Aggregate of one `xtalk-obs` span name across enclosing paths.
#[derive(Clone, Copy, Default, Debug)]
pub struct ObsTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration of the selected direct children, ns.
    pub child_ns: u64,
}

impl ObsTotals {
    /// Mean duration per span in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64) / 1e6
    }
}

/// Ends a traced run: counts the spans, writes them and the `xtalk-obs`
/// snapshot to `$CARGO_TARGET_DIR/perfbench/trace-<workload>.jsonl` (the
/// build directory, which holds nothing that is committed), and adds one
/// line per harness span name with its count, total and self time.
pub fn finish(workload: &str, spans: &[Span], snap: &xtalk_obs::Snapshot, report: &mut Report) {
    report.set("trace.spans", spans.len() as f64);
    for (name, t) in totals(spans) {
        report.line(format!(
            "  span {name}: {} spans, {:.3} ms total, {:.3} ms self",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let path = PathBuf::from(dir)
        .join("perfbench")
        .join(format!("trace-{workload}.jsonl"));
    match write(&path, spans, snap) {
        Ok(()) => report.line(format!("  trace written to {}", path.display())),
        Err(e) => report.line(format!("  trace not written: {e}")),
    }
}

/// Writes the spans (one JSON object per line) followed by the
/// `xtalk-obs` snapshot to `path`.
fn write(path: &Path, spans: &[Span], snap: &xtalk_obs::Snapshot) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "{}", snap.to_json())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                req: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                req: 0,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                req: 0,
                name: "inner",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["inner"].self_ns, 50);
    }
}
