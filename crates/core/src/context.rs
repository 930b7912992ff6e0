//! Scheduler inputs: calibration + crosstalk characterization.

use std::sync::Arc;
use xtalk_charac::{CharacError, Characterization};
use xtalk_device::{Calibration, Device, Edge};
use xtalk_ir::{Gate, Qubit};

/// Everything a scheduler is allowed to know about the machine: the daily
/// calibration (gate durations, independent errors, coherence times) and
/// the crosstalk [`Characterization`] produced by `xtalk-charac`.
///
/// Crucially this does *not* expose the device's ground-truth
/// [`xtalk_device::CrosstalkMap`] — the compiler sees measurements, the
/// simulator sees truth (paper Figure 2).
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
    calibration: Calibration,
    characterization: Characterization,
    threshold: f64,
    /// Dense lookups derived from `characterization` and `threshold`,
    /// shared between clones.
    tables: Arc<CrosstalkTables>,
}

/// Contexts are equal when their inputs are: the tables are derived.
impl PartialEq for SchedulerContext {
    fn eq(&self, other: &Self) -> bool {
        self.calibration == other.calibration
            && self.characterization == other.characterization
            && self.threshold == other.threshold
    }
}

impl SchedulerContext {
    /// Builds a context from a device's calibration and a measured
    /// characterization.
    pub fn new(device: &Device, characterization: Characterization) -> Self {
        let threshold = 3.0;
        SchedulerContext {
            calibration: device.calibration().clone(),
            tables: Arc::new(CrosstalkTables::new(
                &characterization,
                device.calibration().num_qubits(),
                threshold,
            )),
            characterization,
            threshold,
        }
    }

    /// A context with *perfect* crosstalk knowledge from the device's
    /// ground truth — the upper-bound configuration used in tests and
    /// optimality studies.
    pub fn from_ground_truth(device: &Device) -> Self {
        SchedulerContext::new(device, Characterization::from_ground_truth(device))
    }

    /// Overrides the high-crosstalk threshold (default 3×, the paper's
    /// Figure 3 criterion).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "threshold below 1 is meaningless");
        self.threshold = threshold;
        Arc::make_mut(&mut self.tables).set_threshold(&self.characterization, threshold);
        self
    }

    /// The calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The characterization.
    pub fn characterization(&self) -> &Characterization {
        &self.characterization
    }

    /// The high-crosstalk threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Duration of a gate under this calibration.
    pub fn duration_of(&self, gate: &Gate, qubits: &[Qubit]) -> u64 {
        self.calibration.duration_of(gate, qubits)
    }

    /// Usable coherence time `min(T1, T2)` of qubit `q`, in ns.
    pub fn coherence_ns(&self, q: u32) -> f64 {
        self.calibration.coherence_ns(q)
    }

    /// Independent CNOT error for an edge.
    pub fn independent_error(&self, e: Edge) -> f64 {
        match self.tables.id(e) {
            Some(id) => self.tables.independent(id),
            None => self.characterization.independent(e),
        }
    }

    /// The conditional error `E(of | given)` the scheduler should assume
    /// when the two gates overlap.
    pub fn conditional_error(&self, of: Edge, given: Edge) -> f64 {
        match (self.tables.id(of), self.tables.id(given)) {
            (Some(of), Some(given)) => self.tables.conditional(of, given),
            _ => self.characterization.conditional_or_independent(of, given),
        }
    }

    /// `true` if the pair's measured conditional error exceeds
    /// `threshold × independent` in either direction — i.e. the scheduler
    /// should consider serializing them.
    pub fn is_high_pair(&self, a: Edge, b: Edge) -> bool {
        match (self.tables.id(a), self.tables.id(b)) {
            (Some(a), Some(b)) => self.tables.is_high(a, b),
            // An edge without an independent rate: the map path panics
            // with the characterization's message.
            _ => {
                let ch = &self.characterization;
                let (ia, ib) = (ch.independent(a), ch.independent(b));
                ch.conditional(a, b).is_some_and(|c| c > self.threshold * ia)
                    || ch.conditional(b, a).is_some_and(|c| c > self.threshold * ib)
            }
        }
    }

    /// The dense crosstalk tables.
    pub(crate) fn tables(&self) -> &CrosstalkTables {
        &self.tables
    }

    /// The dense id of an edge the scheduler must cost.
    ///
    /// # Panics
    ///
    /// Panics, with the characterization's message, if the edge has no
    /// independent rate.
    pub(crate) fn edge_id(&self, e: Edge) -> u32 {
        self.tables
            .id(e)
            .unwrap_or_else(|| panic!("{}", CharacError::Uncharacterized(e)))
    }
}

/// End of the qubit-pair index: no characterized edge.
const NO_EDGE: u32 = u32::MAX;

/// The characterization as dense arrays over the device's edges with an
/// independent rate (ids in edge order): what the scheduler's inner loops
/// read, each lookup one load after the ids are known.
///
/// Built in O(entries) plus one `k × k` fill for `k` edges. Conditional
/// cells hold the measured rate, or the independent rate of the affected
/// edge when the pair was not measured — exactly
/// [`Characterization::conditional_or_independent`]. Queries about edges
/// outside the tables take the characterization's map path.
#[derive(Clone, Debug)]
pub(crate) struct CrosstalkTables {
    /// Side of the qubit-pair index: the device's qubit count.
    num_qubits: usize,
    /// `index[lo * num_qubits + hi]` is the id of edge `(lo, hi)`, or
    /// [`NO_EDGE`].
    index: Vec<u32>,
    independent: Vec<f64>,
    /// `conditional[of * k + given]`.
    conditional: Vec<f64>,
    /// `high[a * k + b]`: [`SchedulerContext::is_high_pair`] at the
    /// context's threshold.
    high: Vec<bool>,
}

impl CrosstalkTables {
    /// Tables over the characterized edges of a `num_qubits`-qubit
    /// device: one pass over each map plus the `k × k` fill.
    fn new(characterization: &Characterization, num_qubits: usize, threshold: f64) -> Self {
        let mut index = vec![NO_EDGE; num_qubits * num_qubits];
        let rates = characterization.independent_iter();
        let mut independent = Vec::with_capacity(rates.size_hint().0);
        for (e, rate) in rates {
            if (e.hi() as usize) < num_qubits {
                index[e.lo() as usize * num_qubits + e.hi() as usize] = independent.len() as u32;
                independent.push(rate);
            }
        }
        let k = independent.len();
        let mut conditional = vec![0.0; k * k];
        for (row, &ind) in conditional.chunks_exact_mut(k).zip(&independent) {
            row.fill(ind);
        }
        let mut tables = CrosstalkTables {
            num_qubits,
            index,
            independent,
            conditional,
            high: vec![false; k * k],
        };
        for ((of, given), rate) in characterization.conditional_iter() {
            if let (Some(of), Some(given)) = (tables.id(of), tables.id(given)) {
                tables.conditional[of as usize * k + given as usize] = rate;
                tables.mark_high(of, given, rate, threshold);
            }
        }
        tables
    }

    /// Recomputes the high-pair bits for a new threshold.
    fn set_threshold(&mut self, characterization: &Characterization, threshold: f64) {
        self.high.fill(false);
        for ((of, given), rate) in characterization.conditional_iter() {
            if let (Some(of), Some(given)) = (self.id(of), self.id(given)) {
                self.mark_high(of, given, rate, threshold);
            }
        }
    }

    /// Marks the pair high if the measured `E(of | given) = rate` exceeds
    /// `threshold ×` the independent rate of `of` — the map path's test,
    /// which only measured pairs can pass.
    fn mark_high(&mut self, of: u32, given: u32, rate: f64, threshold: f64) {
        if rate > threshold * self.independent(of) {
            let (k, of, given) = (self.num_edges(), of as usize, given as usize);
            self.high[of * k + given] = true;
            self.high[given * k + of] = true;
        }
    }

    /// Id of a characterized edge.
    pub(crate) fn id(&self, e: Edge) -> Option<u32> {
        let (lo, hi) = (e.lo() as usize, e.hi() as usize);
        if hi >= self.num_qubits {
            return None;
        }
        let id = self.index[lo * self.num_qubits + hi];
        (id != NO_EDGE).then_some(id)
    }

    /// Number of characterized edges (ids are `0..num_edges()`).
    pub(crate) fn num_edges(&self) -> usize {
        self.independent.len()
    }

    pub(crate) fn independent(&self, e: u32) -> f64 {
        self.independent[e as usize]
    }

    /// `E(of | given)`, falling back to the independent rate.
    pub(crate) fn conditional(&self, of: u32, given: u32) -> f64 {
        self.conditional[of as usize * self.independent.len() + given as usize]
    }

    pub(crate) fn is_high(&self, a: u32, b: u32) -> bool {
        self.high[a as usize * self.independent.len() + b as usize]
    }
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

    /// The map path of [`SchedulerContext::is_high_pair`].
    fn map_is_high_pair(ctx: &SchedulerContext, a: Edge, b: Edge) -> bool {
        let ch = ctx.characterization();
        let (ia, ib) = (ch.independent(a), ch.independent(b));
        ch.conditional(a, b)
            .is_some_and(|c| c > ctx.threshold() * ia)
            || ch
                .conditional(b, a)
                .is_some_and(|c| c > ctx.threshold() * ib)
    }

    #[test]
    fn dense_tables_match_the_characterization_maps() {
        let mut high = 0;
        for (device, measured) in fixtures::devices().iter().zip(fixtures::measured()) {
            let truth = SchedulerContext::from_ground_truth(device);
            let measured = SchedulerContext::new(device, measured.clone());
            let contexts = [
                truth.clone(),
                measured.clone(),
                truth.with_threshold(10.0),
                measured.with_threshold(10.0),
            ];
            let edges = device.topology().edges();
            for ctx in &contexts {
                assert_eq!(*ctx, ctx.clone());
                let ch = ctx.characterization();
                for &a in edges {
                    assert_eq!(
                        ctx.independent_error(a).to_bits(),
                        ch.independent(a).to_bits()
                    );
                    for &b in edges {
                        assert_eq!(
                            ctx.conditional_error(a, b).to_bits(),
                            ch.conditional_or_independent(a, b).to_bits(),
                            "{} E({a} | {b})",
                            device.name()
                        );
                        let expected = map_is_high_pair(ctx, a, b);
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
        let ctx = SchedulerContext::new(&dev, ch.clone());
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
