//! `xtalk-obs` — lightweight tracing spans, counters and latency
//! histograms for the crosstalk-mitigation pipeline.
//!
//! The whole layer is gated by one process-global [`AtomicBool`]. While
//! profiling is disabled (the default) every entry point is a single
//! relaxed atomic load and returns without allocating, so instrumented
//! hot loops pay effectively nothing. When enabled:
//!
//! * [`span()`] returns an RAII guard that records wall time into a
//!   log-scale [`Histogram`] keyed by the span's hierarchical path.
//!   Nested spans join their names with `/` via a
//!   thread-local stack, so a `realize` span opened inside a
//!   `sched.xtalk` span shows up as `sched.xtalk/realize`.
//! * [`counter_add`] bumps a named monotonic counter.
//!
//! Metrics live in a sharded registry (name lookup under a brief
//! per-shard lock, updates as relaxed atomics) and are read out with
//! [`snapshot`], which renders to stable text or single-line JSON.
//!
//! ```
//! xtalk_obs::set_enabled(true);
//! {
//!     let _outer = xtalk_obs::span("transpile");
//!     let _inner = xtalk_obs::span("layout");
//!     xtalk_obs::counter_add("gates", 42);
//! }
//! let snap = xtalk_obs::snapshot();
//! assert!(snap.span("transpile/layout").is_some());
//! assert_eq!(snap.counter("gates"), Some(42));
//! xtalk_obs::set_enabled(false);
//! xtalk_obs::reset();
//! ```

mod hist;
mod registry;

pub mod export;

pub use export::{CounterStat, Snapshot, SpanStat};
pub use hist::Histogram;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Whether profiling is currently on. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records its wall time when dropped.
///
/// `None` when profiling was disabled at entry — dropping then is free.
#[must_use = "a span records time when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    open: Option<(String, Instant)>,
}

/// Opens a span named `name` under the spans already open on this
/// thread. Returns an inert guard (no allocation) when disabled.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name.to_string());
        stack.join("/")
    });
    SpanGuard { open: Some((path, Instant::now())) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((path, start)) = self.open.take() {
            let elapsed = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            registry::registry().hist(&path).record(elapsed);
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Adds `n` to the counter named `name`. No-op (and no allocation)
/// while disabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    if enabled() {
        registry::registry().counter(name).fetch_add(n, Ordering::Relaxed);
    }
}

/// Records a pre-measured duration into the span histogram `name`,
/// bypassing the thread-local stack. Useful when the measurement site
/// can't hold a guard across the region. No-op while disabled.
#[inline]
pub fn record_ns(name: &str, ns: u64) {
    if enabled() {
        registry::registry().hist(name).record(ns);
    }
}

/// Copies every span and counter into a [`Snapshot`], sorted by name.
pub fn snapshot() -> Snapshot {
    let reg = registry::registry();
    let spans = reg
        .hists()
        .into_iter()
        .map(|(name, h)| SpanStat {
            name,
            count: h.count(),
            total_ns: h.sum(),
            mean_ns: h.mean(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        })
        .collect();
    let counters = reg
        .counters()
        .into_iter()
        .map(|(name, value)| CounterStat { name, value })
        .collect();
    Snapshot { enabled: enabled(), spans, counters }
}

/// Discards every recorded metric (the enabled flag is left alone).
pub fn reset() {
    registry::registry().reset();
}

/// Opens a span for the rest of the enclosing scope:
/// `let _g = span!("layout");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Bumps a counter: `counter!("smt.leaves")` adds 1,
/// `counter!("sim.shots", n)` adds `n`. Arguments are not evaluated
/// while profiling is disabled, so `counter!(&format!(...), n)` costs
/// nothing on the hot path.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, 1);
        }
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, $n);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The registry and enable flag are process-global; serialize the
    /// tests that touch them.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock().unwrap()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span("quiet");
            counter_add("quiet.count", 5);
        }
        let snap = snapshot();
        assert!(!snap.enabled);
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        {
            let _top = span("inner");
        }
        let snap = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("outer/inner").unwrap().count, 2);
        assert_eq!(snap.span("inner").unwrap().count, 1);
    }

    #[test]
    fn counters_and_record_ns_accumulate() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter!("c");
        counter!("c", 4);
        record_ns("manual", 1_000);
        record_ns("manual", 3_000);
        let snap = snapshot();
        set_enabled(false);
        reset();
        assert_eq!(snap.counter("c"), Some(5));
        let manual = snap.span("manual").unwrap();
        assert_eq!(manual.count, 2);
        assert_eq!(manual.total_ns, 4_000);
    }

    #[test]
    fn toggling_mid_span_never_corrupts_the_stack() {
        let _g = lock();
        set_enabled(false);
        reset();
        // Opened disabled, closed enabled: guard is inert, must not pop.
        let disabled_guard = span("phantom");
        set_enabled(true);
        {
            let _live = span("live");
            drop(disabled_guard);
        }
        let snap = snapshot();
        set_enabled(false);
        reset();
        assert!(snap.span("phantom").is_none());
        assert_eq!(snap.span("live").unwrap().count, 1);
        SPAN_STACK.with(|s| assert!(s.borrow().is_empty()));
    }

    #[test]
    fn snapshot_roundtrips_through_its_own_json() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _s = span("roundtrip");
        }
        counter_add("roundtrip.n", 2);
        let json = snapshot().to_json();
        set_enabled(false);
        reset();
        assert!(json.contains("\"name\":\"roundtrip\""));
        assert!(json.contains("\"roundtrip.n\",\"value\":2"));
    }
}
