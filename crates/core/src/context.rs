//! Scheduler inputs: calibration + crosstalk characterization.

use std::sync::Arc;
use xtalk_charac::{CharacError, Characterization};
use xtalk_device::{Calibration, Device, Edge};
use xtalk_ir::{Gate, Qubit};
use xtalk_pass::{ContentHash, Fnv1a};

/// Everything a scheduler is allowed to know about the machine: the daily
/// calibration (gate durations, independent errors, coherence times) and
/// the crosstalk [`Characterization`] produced by `xtalk-charac`.
///
/// Crucially this does *not* expose the device's ground-truth
/// [`xtalk_device::CrosstalkMap`] — the compiler sees measurements, the
/// simulator sees truth (paper Figure 2).
///
/// A context is a handle: the model is built once and shared, so
/// `clone()` only bumps a reference count.
///
/// ```
/// use xtalk_core::SchedulerContext;
/// use xtalk_device::{Device, Edge};
/// let dev = Device::poughkeepsie(7);
/// let ctx = SchedulerContext::from_ground_truth(&dev);
/// // The 11x pair is visible as a high-crosstalk candidate.
/// assert!(ctx.is_high_pair(Edge::new(10, 15), Edge::new(11, 12)));
/// assert!(!ctx.is_high_pair(Edge::new(0, 1), Edge::new(2, 3)));
/// ```
#[derive(Clone, Debug)]
pub struct SchedulerContext {
    model: Arc<CrosstalkModel>,
}

impl PartialEq for SchedulerContext {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.model, &other.model) || self.model == other.model
    }
}

impl SchedulerContext {
    /// Builds a context from a device's calibration and a measured
    /// characterization, in O(entries).
    pub fn new(device: &Device, characterization: &Characterization) -> Self {
        SchedulerContext {
            model: Arc::new(CrosstalkModel::new(device.calibration(), characterization, 3.0)),
        }
    }

    /// A context with *perfect* crosstalk knowledge from the device's
    /// ground truth — the upper-bound configuration used in tests and
    /// optimality studies.
    pub fn from_ground_truth(device: &Device) -> Self {
        SchedulerContext::new(device, &Characterization::from_ground_truth(device))
    }

    /// Overrides the high-crosstalk threshold (default 3×, the paper's
    /// Figure 3 criterion).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "threshold below 1 is meaningless");
        Arc::make_mut(&mut self.model).set_threshold(threshold);
        self
    }

    /// `true` if both handles share one model, as a context and its
    /// clones do.
    pub fn ptr_eq(&self, other: &SchedulerContext) -> bool {
        Arc::ptr_eq(&self.model, &other.model)
    }

    /// The calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.model.calibration
    }

    /// The high-crosstalk threshold.
    pub fn threshold(&self) -> f64 {
        self.model.threshold
    }

    /// Duration of a gate under this calibration.
    pub fn duration_of(&self, gate: &Gate, qubits: &[Qubit]) -> u64 {
        self.model.calibration.duration_of(gate, qubits)
    }

    /// Usable coherence time `min(T1, T2)` of qubit `q`, in ns.
    pub fn coherence_ns(&self, q: u32) -> f64 {
        self.model.calibration.coherence_ns(q)
    }

    /// Independent CNOT error for an edge.
    ///
    /// # Panics
    ///
    /// Panics, with the characterization's message, if the edge has no
    /// independent rate.
    pub fn independent_error(&self, e: Edge) -> f64 {
        self.model.independent(self.model.named(e))
    }

    /// The conditional error `E(of | given)` the scheduler should assume
    /// when the two gates overlap: the measured rate, else the
    /// independent rate of `of`.
    pub fn conditional_error(&self, of: Edge, given: Edge) -> f64 {
        let m = &self.model;
        let of = m.named(of);
        m.id(given)
            .and_then(|given| m.measured(of, given))
            .unwrap_or_else(|| m.independent(of))
    }

    /// `true` if the pair's measured conditional error exceeds
    /// `threshold × independent` in either direction — i.e. the scheduler
    /// should consider serializing them.
    pub fn is_high_pair(&self, a: Edge, b: Edge) -> bool {
        let (a, b) = (self.edge_id(a), self.edge_id(b));
        self.model.is_high(a, b)
    }

    /// The crosstalk model, addressed by edge id.
    pub(crate) fn model(&self) -> &CrosstalkModel {
        &self.model
    }

    /// The id of an edge the scheduler must cost.
    ///
    /// # Panics
    ///
    /// Panics, with the characterization's message, if the edge has no
    /// independent rate.
    pub(crate) fn edge_id(&self, e: Edge) -> u32 {
        let id = self.model.named(e);
        self.model.independent(id);
        id
    }
}

/// A cache key for everything that steers scheduling: calibration,
/// characterization (hashed once, when the context is built) and the
/// high-pair threshold.
impl ContentHash for SchedulerContext {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.model.inputs_hash);
        h.write_f64(self.model.threshold);
    }
}

/// The characterization as sparse per-edge rows: what every scheduler
/// reads. An edge's id is its position among the edges the
/// characterization names, in edge order. The paper measures conditional
/// rates for nearby pairs only (Section 5), so a row holds a handful of
/// entries and any pair absent from it falls back to the independent
/// rate of the affected edge.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct CrosstalkModel {
    calibration: Calibration,
    threshold: f64,
    /// Every edge named by an independent or a conditional entry, sorted.
    edges: Vec<Edge>,
    /// CSR offsets of `edges` by lower endpoint: the ids of the edges
    /// whose lower endpoint is qubit `q`.
    by_lo: Vec<u32>,
    /// Independent rate by id; `None` for an edge named only by
    /// conditional entries.
    independent: Vec<Option<f64>>,
    /// Measured `E(of | given)`: row `of` is the CSR row `of` of `given`,
    /// sorted by given id, with the rates at the same positions of `rate`.
    rows: Vec<u32>,
    given: Vec<u32>,
    rate: Vec<f64>,
    /// High partners at `threshold`: those of `a` are the CSR row `a` of
    /// `high`, sorted.
    high_rows: Vec<u32>,
    high: Vec<u32>,
    /// Content hash of the calibration and the characterization.
    inputs_hash: u64,
}

impl CrosstalkModel {
    /// One pass over each characterization map plus a sort of the
    /// named edges.
    fn new(calibration: &Calibration, ch: &Characterization, threshold: f64) -> Self {
        let mut edges: Vec<Edge> = ch.independent_iter().map(|(e, _)| e).collect();
        edges.extend(ch.conditional_iter().flat_map(|((of, given), _)| [of, given]));
        edges.sort_unstable();
        edges.dedup();
        let id = |e: Edge| edges.binary_search(&e).expect("named edge") as u32;
        let qubits = edges.last().map_or(0, |e| e.lo() as usize + 1);
        let by_lo = offsets(qubits, edges.iter().map(|e| e.lo() as usize));

        let mut independent = vec![None; edges.len()];
        for (e, rate) in ch.independent_iter() {
            independent[id(e) as usize] = Some(rate);
        }
        // The conditional map iterates in `(of, given)` order, which is
        // id order: the entries arrive row by row, each row sorted.
        let rows = offsets(edges.len(), ch.conditional_iter().map(|((of, _), _)| id(of) as usize));
        let given = ch.conditional_iter().map(|((_, g), _)| id(g)).collect();
        let rate = ch.conditional_iter().map(|(_, r)| r).collect();

        let mut hash = Fnv1a::new();
        calibration.content_hash(&mut hash);
        ch.content_hash(&mut hash);
        let mut model = CrosstalkModel {
            calibration: calibration.clone(),
            threshold,
            edges,
            by_lo,
            independent,
            rows,
            given,
            rate,
            high_rows: Vec::new(),
            high: Vec::new(),
            inputs_hash: hash.finish(),
        };
        model.set_threshold(threshold);
        model
    }

    /// Recomputes the high-partner lists for a new threshold: a pair is
    /// high when a measured `E(of | given)` exceeds `threshold ×` the
    /// independent rate of `of`, in either direction.
    fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
        let mut pairs = Vec::new();
        for of in 0..self.edges.len() as u32 {
            let Some(ind) = self.independent[of as usize] else { continue };
            for (given, rate) in self.row(of) {
                if rate > threshold * ind {
                    pairs.extend([(of, given), (given, of)]);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        self.high_rows = offsets(self.edges.len(), pairs.iter().map(|&(a, _)| a as usize));
        self.high = pairs.into_iter().map(|(_, b)| b).collect();
    }

    /// Id of a named edge.
    pub(crate) fn id(&self, e: Edge) -> Option<u32> {
        if e.lo() as usize + 1 >= self.by_lo.len() {
            return None;
        }
        let span = span(&self.by_lo, e.lo());
        let k = self.edges[span.clone()].iter().position(|x| x.hi() == e.hi())?;
        Some((span.start + k) as u32)
    }

    /// Id of a named edge.
    ///
    /// # Panics
    ///
    /// Panics, with the characterization's message, if the
    /// characterization does not name the edge.
    fn named(&self, e: Edge) -> u32 {
        self.id(e).unwrap_or_else(|| panic!("{}", CharacError::Uncharacterized(e)))
    }

    /// Number of named edges (ids are `0..num_edges()`).
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Independent rate of an edge.
    ///
    /// # Panics
    ///
    /// Panics, with the characterization's message, if the edge has none.
    pub(crate) fn independent(&self, e: u32) -> f64 {
        self.independent[e as usize].unwrap_or_else(|| {
            panic!("{}", CharacError::Uncharacterized(self.edges[e as usize]))
        })
    }

    /// The measured `(given, rate)` entries of row `of`.
    pub(crate) fn row(&self, of: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let span = span(&self.rows, of);
        self.given[span.clone()].iter().copied().zip(self.rate[span].iter().copied())
    }

    /// Measured `E(of | given)`, if any.
    fn measured(&self, of: u32, given: u32) -> Option<f64> {
        let span = span(&self.rows, of);
        let k = self.given[span.clone()].binary_search(&given).ok()?;
        Some(self.rate[span.start + k])
    }

    /// `E(of | given)`, falling back to the independent rate of `of`.
    pub(crate) fn conditional(&self, of: u32, given: u32) -> f64 {
        self.measured(of, given).unwrap_or_else(|| self.independent(of))
    }

    /// High partners of `a`, sorted.
    pub(crate) fn high_partners(&self, a: u32) -> &[u32] {
        &self.high[span(&self.high_rows, a)]
    }

    pub(crate) fn is_high(&self, a: u32, b: u32) -> bool {
        self.high_partners(a).binary_search(&b).is_ok()
    }
}

/// CSR offsets over `len` rows of entries that arrive row by row, given
/// the row of each entry: row `r` holds entries `span(offsets, r)`.
fn offsets(len: usize, entry_rows: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut offsets = vec![0u32; len + 1];
    for r in entry_rows {
        offsets[r + 1] += 1;
    }
    for r in 1..offsets.len() {
        offsets[r] += offsets[r - 1];
    }
    offsets
}

/// The entries of row `r` under CSR `offsets`.
fn span(offsets: &[u32], r: u32) -> std::ops::Range<usize> {
    offsets[r as usize] as usize..offsets[r as usize + 1] as usize
}

/// Devices and measured characterizations shared by the crate's unit
/// tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use std::sync::OnceLock;
    use xtalk_charac::policy::TimeModel;
    use xtalk_charac::{characterize, Characterization, CharacterizationPolicy, RbConfig};
    use xtalk_device::Device;

    /// Calibration seed of the test devices (the serve fleet's default).
    const DEVICE_SEED: u64 = 7;

    /// The three IBMQ device models.
    pub(crate) fn devices() -> Vec<Device> {
        vec![
            Device::poughkeepsie(DEVICE_SEED),
            Device::johannesburg(DEVICE_SEED),
            Device::boeblingen(DEVICE_SEED),
        ]
    }

    /// Measured characterizations of [`devices`], in order, computed
    /// once: one-hop pairs, bin-packed, 3 sequences × 96 shots (the serve
    /// path's settings).
    pub(crate) fn measured() -> &'static [Characterization] {
        static MEASURED: OnceLock<Vec<Characterization>> = OnceLock::new();
        MEASURED.get_or_init(|| {
            let config = RbConfig {
                seqs_per_length: 3,
                shots: 96,
                seed: 1,
                ..Default::default()
            };
            let policy = CharacterizationPolicy::OneHopBinPacked { k_hops: 2 };
            devices()
                .iter()
                .map(|device| characterize(device, &policy, &config, &TimeModel::default()).0)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_context_exposes_estimates_only() {
        let dev = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        assert_eq!(ctx.independent_error(Edge::new(10, 15)), 0.01);
        assert!(
            (ctx.conditional_error(Edge::new(10, 15), Edge::new(11, 12)) - 0.11).abs() < 1e-12
        );
        // Unmeasured pair falls back to independent.
        assert_eq!(
            ctx.conditional_error(Edge::new(0, 1), Edge::new(17, 18)),
            ctx.independent_error(Edge::new(0, 1))
        );
    }

    #[test]
    fn threshold_tuning_changes_high_set() {
        let dev = Device::poughkeepsie(1);
        let strict = SchedulerContext::from_ground_truth(&dev).with_threshold(10.0);
        assert!(strict.is_high_pair(Edge::new(10, 15), Edge::new(11, 12)));
        assert!(!strict.is_high_pair(Edge::new(13, 14), Edge::new(18, 19)));
    }

    #[test]
    fn sparse_rows_match_the_characterization_maps() {
        let mut inputs: Vec<(Device, Characterization)> = Vec::new();
        for (device, measured) in fixtures::devices().into_iter().zip(fixtures::measured()) {
            inputs.push((device.clone(), Characterization::from_ground_truth(&device)));
            inputs.push((device, measured.clone()));
        }
        let grid = Device::synthetic_grid(32, 32, 0.08, 1);
        inputs.push((grid.clone(), Characterization::from_ground_truth(&grid)));

        let mut high = 0;
        for (device, ch) in &inputs {
            let ctx = SchedulerContext::new(device, ch);
            let edges = device.topology().edges();
            let independent: Vec<f64> = edges.iter().map(|&e| ch.independent(e)).collect();
            for ctx in [ctx.clone(), ctx.with_threshold(10.0)] {
                assert_eq!(ctx, ctx.clone());
                let t = ctx.threshold();
                for (&a, &ia) in edges.iter().zip(&independent) {
                    assert_eq!(ctx.independent_error(a).to_bits(), ia.to_bits());
                    for (&b, &ib) in edges.iter().zip(&independent) {
                        // The maps' answers: `conditional_or_independent`
                        // and the high-pair test, from one lookup each way.
                        let (ab, ba) = (ch.conditional(a, b), ch.conditional(b, a));
                        assert_eq!(
                            ctx.conditional_error(a, b).to_bits(),
                            ab.unwrap_or(ia).to_bits(),
                            "{} E({a} | {b})",
                            device.name()
                        );
                        let expected = ab.is_some_and(|c| c > t * ia) || ba.is_some_and(|c| c > t * ib);
                        assert_eq!(
                            ctx.is_high_pair(a, b),
                            expected,
                            "{} {a} {b}",
                            device.name()
                        );
                        high += usize::from(expected);
                    }
                }
            }
        }
        assert!(high > 50, "only {high} high pairs over the contexts");
    }

    #[test]
    fn a_1024_qubit_context_stores_only_the_measured_rates() {
        let grid = Device::synthetic_grid(32, 32, 0.08, 1);
        let ch = Characterization::from_ground_truth(&grid);
        let ctx = SchedulerContext::new(&grid, &ch);
        let m = ctx.model();
        let (k, entries) = (grid.topology().num_edges(), ch.num_conditional());
        assert_eq!(k, 1984);
        assert!(entries > 0);
        assert_eq!(m.num_edges(), k);
        // One rate per independent entry and one per measured conditional
        // entry; every other array is an id list or an offset table.
        assert_eq!(m.independent.len() + m.rate.len(), k + entries);
        assert!(m.independent.iter().all(Option::is_some));
        assert_eq!((m.rows.len(), m.given.len()), (k + 1, entries));
        assert!(m.by_lo.len() <= grid.topology().num_qubits() + 1);
        assert_eq!(m.high_rows.len(), k + 1);
        assert!(m.high.len() <= 2 * entries);
        // A clone shares the model.
        assert!(ctx.clone().ptr_eq(&ctx));
        assert!(!SchedulerContext::new(&grid, &ch).ptr_eq(&ctx));
    }

    /// The panic message of `f`.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        err.downcast::<String>()
            .map(|m| *m)
            .expect("formatted panic message")
    }

    #[test]
    fn uncharacterized_edges_keep_the_map_path_behaviour() {
        let dev = Device::poughkeepsie(1);
        let (missing, hot, other) = (Edge::new(10, 15), Edge::new(11, 12), Edge::new(0, 1));
        let mut ch = Characterization::new();
        for &e in dev.topology().edges() {
            if e != missing {
                ch.set_independent(e, dev.calibration().cx_error(e));
            }
        }
        ch.set_conditional(missing, hot, 0.2);
        ch.set_conditional(hot, missing, 0.3);
        let ctx = SchedulerContext::new(&dev, &ch);
        assert_eq!(ctx, ctx.clone());

        let off_device = Edge::new(0, 99);
        for e in [missing, off_device] {
            let expected = panic_message(|| {
                ch.independent(e);
            });
            assert_eq!(expected, format!("no independent rate for {e}"));
            assert_eq!(
                panic_message(|| {
                    ctx.independent_error(e);
                }),
                expected
            );
            assert_eq!(
                panic_message(|| {
                    ctx.conditional_error(e, other);
                }),
                expected
            );
            assert_eq!(
                panic_message(|| {
                    ctx.is_high_pair(e, other);
                }),
                expected
            );
            assert_eq!(
                panic_message(|| {
                    ctx.is_high_pair(other, e);
                }),
                expected
            );
        }
        // Measured rates and the fallback to a characterized edge's
        // independent rate still answer.
        assert_eq!(ctx.conditional_error(missing, hot), 0.2);
        assert_eq!(ctx.conditional_error(hot, missing), 0.3);
        assert_eq!(
            ctx.conditional_error(other, missing),
            ctx.independent_error(other)
        );
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn subunit_threshold_rejected() {
        let dev = Device::line(2, 0);
        let _ = SchedulerContext::from_ground_truth(&dev).with_threshold(0.5);
    }

    #[test]
    fn durations_delegate_to_calibration() {
        let dev = Device::line(3, 0);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let q = [Qubit::new(0), Qubit::new(1)];
        assert_eq!(
            ctx.duration_of(&Gate::Cx, &q),
            dev.calibration().duration_of(&Gate::Cx, &q)
        );
        assert!(ctx.coherence_ns(0) > 0.0);
    }
}
