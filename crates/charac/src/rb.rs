//! Randomized benchmarking against the simulator. Isolated, single-qubit,
//! interleaved and simultaneous RB are one experiment on different lanes:
//! each lane runs its own random Clifford sequences in the same circuits,
//! and one loop (`survival_curves`) runs and scores them all.

use crate::fit::{error_per_clifford, fit_decay_fixed_offset, DecayFit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xtalk_clifford::group::{single_qubit_cliffords, two_qubit_cliffords, CliffordGroup, Templates};
use xtalk_clifford::random::uniform_element;
use xtalk_device::{Device, Edge};
use xtalk_ir::{Circuit, Qubit};
use xtalk_sim::{Executor, ExecutorConfig};

/// Randomized-benchmarking experiment parameters.
///
/// The paper's full scale (Section 8.1) is 100 random sequences of up to
/// 40 Cliffords with 1024 trials each; [`RbConfig::default`] is scaled
/// down so full-device characterization runs in seconds, and
/// [`RbConfig::paper_scale`] restores the published parameters.
#[derive(Clone, PartialEq, Debug)]
pub struct RbConfig {
    /// Clifford sequence lengths to sample.
    pub lengths: Vec<usize>,
    /// Random sequences per length.
    pub seqs_per_length: usize,
    /// Trials (shots) per sequence.
    pub shots: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for RbConfig {
    fn default() -> Self {
        RbConfig { lengths: vec![2, 6, 12, 20, 30], seqs_per_length: 4, shots: 128, seed: 0 }
    }
}

impl RbConfig {
    /// The paper's published parameters: 100 sequences (20 per length
    /// across 5 lengths up to 40), 1024 trials.
    pub fn paper_scale() -> Self {
        RbConfig {
            lengths: vec![2, 8, 16, 28, 40],
            seqs_per_length: 20,
            shots: 1024,
            seed: 0,
        }
    }

    /// Total circuit executions this configuration costs per benchmarked
    /// gate (sequences × shots).
    pub fn executions(&self) -> u64 {
        (self.lengths.len() * self.seqs_per_length) as u64 * self.shots
    }
}

/// The native-basis templates RB sequences on `physical` are emitted
/// through: each generator of `group` (and its inverse) lowered once by
/// the compiler's native lowering, so an emitted sequence is exactly its
/// raw gates lowered and needs no lowering pass.
pub fn native_templates(group: &CliffordGroup, physical: &[Qubit]) -> Templates {
    Templates::raw(group, physical).expand(|instr| {
        let width = instr.qubits().iter().map(|q| q.index() + 1).max().unwrap_or(0);
        let mut lowered = Circuit::new(width, 0);
        xtalk_pass::lower_instruction(&mut lowered, instr);
        lowered.instructions().to_vec()
    })
}

/// Appends one random Clifford sequence of `group` through `templates`:
/// `m` uniformly drawn elements, each followed by generator `interleave`
/// when given (interleaved RB), then the inverse of their whole product,
/// so a noiseless run returns to the initial state. The running product
/// goes through the group's successor table; the draws are `m` calls of
/// [`uniform_element`], in order.
pub fn clifford_sequence(
    circuit: &mut Circuit,
    group: &CliffordGroup,
    templates: &Templates,
    m: usize,
    interleave: Option<usize>,
    rng: &mut StdRng,
) {
    let mut total = CliffordGroup::IDENTITY;
    for _ in 0..m {
        let idx = uniform_element(group, rng);
        group.emit(idx, false, templates, circuit);
        total = group.compose(total, idx);
        if let Some(g) = interleave {
            for instr in templates.generator(g) {
                circuit.push(instr.clone());
            }
            total = group.then_generator(total, g);
        }
    }
    group.emit(total, true, templates, circuit);
}

/// The two-qubit RB lane on `edge`: the group's [`native_templates`] on
/// its qubits.
pub(crate) fn edge_lane(edge: Edge) -> Templates {
    native_templates(two_qubit_cliffords(), &edge.qubits())
}

/// One lane's survival curve and the gate accounting its fit needs.
#[derive(Default)]
pub(crate) struct Curve {
    /// Qubits of the lane: its group's width.
    width: usize,
    /// Mean survival probability per sequence length.
    pub(crate) survival: Vec<(usize, f64)>,
    /// Emitted non-virtual gates of the lane's width: CNOTs or 1q pulses.
    gates: usize,
    /// Emitted Cliffords, the inverse included.
    cliffords: usize,
}

impl Curve {
    /// The decay fit at offset `1/2ʷ`, the error per Clifford and the
    /// unclamped error per gate (EPC over the measured gates per Clifford).
    pub(crate) fn estimate(&self) -> (DecayFit, f64, f64) {
        let fit = fit_decay_fixed_offset(&self.survival, 1.0 / (1u64 << self.width) as f64);
        let epc = error_per_clifford(fit.alpha, self.width);
        let per_clifford = self.gates as f64 / self.cliffords as f64;
        (fit, epc, epc / per_clifford.max(1e-9))
    }

    /// The error per gate clamped to `[0, 1]`.
    pub(crate) fn gate_error(&self) -> f64 {
        self.estimate().2.clamp(0.0, 1.0)
    }
}

/// One circuit of the experiment: per lane, a random sequence of length
/// `m` ([`clifford_sequence`]) and the measures of its qubits into the
/// next clbits. Charges each lane's curve its gates and `m + 1` Cliffords.
fn emit(
    num_qubits: usize,
    lanes: &[Templates],
    curves: &mut [Curve],
    m: usize,
    interleave: Option<usize>,
    rng: &mut StdRng,
) -> Circuit {
    let mut c = Circuit::new(num_qubits, curves.iter().map(|curve| curve.width).sum());
    let mut clbit = 0u32;
    for (lane, curve) in lanes.iter().zip(curves) {
        let start = c.len();
        let group = if curve.width == 1 { single_qubit_cliffords() } else { two_qubit_cliffords() };
        clifford_sequence(&mut c, group, lane, m, interleave, rng);
        curve.gates += c.instructions()[start..]
            .iter()
            .filter(|instr| !instr.gate().is_virtual() && instr.gate().num_qubits() == curve.width)
            .count();
        curve.cliffords += m + 1;
        for &q in lane.physical() {
            c.measure(q, clbit);
            clbit += 1;
        }
    }
    c
}

/// The survival loop of every RB flavour: `config.seqs_per_length`
/// circuits per length `m`, each running one random sequence per lane
/// (every Clifford followed by generator `interleave` when given), drawn
/// from `rng` in lane order, ASAP-scheduled and run with executor seed
/// `run_seed(m, s)` for sequence `s`. A lane survives a shot when all its
/// clbits read 0. Returns one curve per lane, in order.
///
/// # Panics
///
/// Panics if a two-qubit lane is not on an edge of the device or two lanes
/// share a qubit.
pub(crate) fn survival_curves(
    device: &Device,
    lanes: &[Templates],
    interleave: Option<usize>,
    config: &RbConfig,
    rng: &mut StdRng,
    run_seed: impl Fn(u64, u64) -> u64,
) -> Vec<Curve> {
    let topo = device.topology();
    let mut used: Vec<Qubit> = Vec::new();
    for lane in lanes {
        if let &[a, b] = lane.physical() {
            let edge = Edge::new(a.raw(), b.raw());
            assert!(topo.has_edge(edge), "edge {edge} not in topology");
        }
        for &q in lane.physical() {
            assert!(!used.contains(&q), "qubit {q} reused across the bin");
            used.push(q);
        }
    }
    let mut curves: Vec<Curve> = lanes
        .iter()
        .map(|lane| Curve { width: lane.physical().len(), ..Curve::default() })
        .collect();
    for &m in &config.lengths {
        let mut means = vec![0.0f64; lanes.len()];
        for s in 0..config.seqs_per_length {
            let c = emit(topo.num_qubits(), lanes, &mut curves, m, interleave, rng);
            let sched = Executor::asap_schedule(&c, device.calibration());
            let cfg = ExecutorConfig {
                shots: config.shots,
                seed: run_seed(m as u64, s as u64),
                ..Default::default()
            };
            let counts = Executor::with_config(device, cfg).run(&sched);
            let mut clbit = 0;
            for (mean, curve) in means.iter_mut().zip(&curves) {
                let mask = ((1u64 << curve.width) - 1) << clbit;
                clbit += curve.width;
                let survived = counts
                    .iter()
                    .filter(|&(outcome, _)| outcome & mask == 0)
                    .fold(0.0, |p, (_, cnt)| p + cnt as f64);
                // An empty run survives with probability 0, as in `Counts::probability`.
                *mean += survived / counts.shots().max(1) as f64;
            }
        }
        for (curve, mean) in curves.iter_mut().zip(means) {
            curve.survival.push((m, mean / config.seqs_per_length as f64));
        }
    }
    curves
}

/// Runs single-qubit RB on `q`, estimating its 1q gate error rate.
///
/// The paper ignores single-qubit conditional errors because standalone
/// 1q error rates are ~10× below CNOT rates (Section 7.2); this measures
/// exactly that ratio on our devices. Sequences are native gates, as
/// hardware executes them: virtual gates (S, Z, …) are error-free frame
/// changes, so the error is charged to physical pulses only.
pub fn run_rb_1q(device: &Device, q: u32, config: &RbConfig) -> f64 {
    let lane = native_templates(single_qubit_cliffords(), &[Qubit::new(q)]);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1111 ^ u64::from(q));
    let run_seed = |m: u64, s: u64| config.seed ^ (m << 16) ^ s ^ 0x11;
    survival_curves(device, &[lane], None, config, &mut rng, run_seed)[0].gate_error()
}

/// Outcome of an RB run on one edge.
#[derive(Clone, PartialEq, Debug)]
pub struct RbOutcome {
    /// The benchmarked edge.
    pub edge: Edge,
    /// Decay fit of the survival curve.
    pub fit: DecayFit,
    /// Error per Clifford `(1−α)·3/4`.
    pub epc: f64,
    /// Estimated CNOT error: EPC divided by the measured mean CX count
    /// per Clifford (≈1.5).
    pub cnot_error: f64,
    /// Mean survival probability per sequence length.
    pub survival: Vec<(usize, f64)>,
}

/// Runs standard (isolated) two-qubit RB on `edge`, estimating its
/// independent CNOT error rate `E(g)`.
///
/// # Panics
///
/// Panics if `edge` is not in the device topology.
pub fn run_rb(device: &Device, edge: Edge, config: &RbConfig) -> RbOutcome {
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ 0xda7a ^ ((edge.lo() as u64) << 32) ^ edge.hi() as u64,
    );
    let run_seed = |m: u64, s: u64| config.seed ^ (m << 20) ^ s;
    let curve = survival_curves(device, &[edge_lane(edge)], None, config, &mut rng, run_seed)
        .remove(0);
    let (fit, epc, cnot_error) = curve.estimate();
    RbOutcome { edge, fit, epc, cnot_error, survival: curve.survival }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_clifford::group::LocalGate;
    use xtalk_clifford::{instantiate, CliffordTableau};

    /// One RB lane's sequence and measures as they were when the running
    /// product composed every generator gate's tableau, with raw gates and
    /// a lookup of the product's tableau for the inverse: the oracle for
    /// the table path.
    fn rb_sequence_per_gate(
        circuit: &mut Circuit,
        qa: Qubit,
        qb: Qubit,
        m: usize,
        clbit_base: u32,
        rng: &mut StdRng,
    ) -> usize {
        let group = two_qubit_cliffords();
        let mut total = CliffordTableau::identity(2);
        let mut cx = 0usize;
        let phys = [qa, qb];
        let emit = |circuit: &mut Circuit, gates: &[LocalGate], cx: &mut usize| {
            for instr in instantiate(gates, &phys) {
                if instr.gate().is_two_qubit() {
                    *cx += 1;
                }
                circuit.push(instr);
            }
        };
        for _ in 0..m {
            let idx = uniform_element(group, rng);
            let gates = group.decomposition(idx);
            emit(circuit, &gates, &mut cx);
            for (g, qs) in &gates {
                total.apply_gate(g, qs);
            }
        }
        let inv = group
            .inverse_decomposition(&total)
            .expect("product of group elements is in the group");
        emit(circuit, &inv, &mut cx);
        circuit.measure(qa, clbit_base).measure(qb, clbit_base + 1);
        cx
    }

    /// `run_rb_1q`'s sequence as it was: raw gates, a running tableau
    /// product per Clifford, the inverse looked up by tableau, then the
    /// whole circuit lowered to native gates.
    fn one_qubit_sequence_per_clifford(q: u32, m: usize, rng: &mut StdRng) -> Circuit {
        let group = single_qubit_cliffords();
        let mut c = Circuit::new(q as usize + 1, 1);
        let mut total = CliffordTableau::identity(1);
        let phys = [Qubit::new(q)];
        for _ in 0..m {
            let idx = uniform_element(group, rng);
            for instr in instantiate(&group.decomposition(idx), &phys) {
                c.push(instr);
            }
            total = total.then(group.tableau(idx));
        }
        for instr in instantiate(&group.inverse_decomposition(&total).unwrap(), &phys) {
            c.push(instr);
        }
        xtalk_pass::lower_to_native(&c)
    }

    fn curves(widths: &[usize]) -> Vec<Curve> {
        widths
            .iter()
            .map(|&width| Curve { width, ..Curve::default() })
            .collect()
    }

    #[test]
    fn table_sequences_emit_the_tableau_oracle_circuits() {
        // Two lanes, so the second one's clbits and RNG draws follow the
        // first's.
        let pairs = [(Qubit::new(3), Qubit::new(1)), (Qubit::new(0), Qubit::new(2))];
        let lanes: Vec<Templates> = pairs
            .iter()
            .map(|&(qa, qb)| native_templates(two_qubit_cliffords(), &[qa, qb]))
            .collect();
        for seed in 0..40u64 {
            for m in [0usize, 1, 2, 5, 12, 30] {
                let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut charged = curves(&[2, 2]);
                let a = emit(4, &lanes, &mut charged, m, None, &mut ra);
                let mut b = Circuit::new(4, 4);
                let cx: Vec<usize> = pairs
                    .iter()
                    .zip([0, 2])
                    .map(|(&(qa, qb), base)| rb_sequence_per_gate(&mut b, qa, qb, m, base, &mut rb))
                    .collect();
                let b = xtalk_pass::lower_to_native(&b);
                assert_eq!(a, b, "seed {seed}, length {m}");
                assert_eq!(ra, rb, "seed {seed}, length {m}: RNG positions differ");
                for (curve, cx) in charged.iter().zip(cx) {
                    assert_eq!((curve.gates, curve.cliffords), (cx, m + 1), "seed {seed}, m {m}");
                }
            }
        }
    }

    #[test]
    fn one_qubit_table_sequences_emit_the_tableau_oracle_circuits() {
        let lanes = [native_templates(single_qubit_cliffords(), &[Qubit::new(2)])];
        for seed in 0..40u64 {
            for m in [0usize, 1, 3, 16, 40] {
                let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let mut charged = curves(&[1]);
                let a = emit(3, &lanes, &mut charged, m, None, &mut ra);
                let mut b = one_qubit_sequence_per_clifford(2, m, &mut rb);
                let pulses = b.iter().filter(|instr| !instr.gate().is_virtual()).count();
                b.measure(2, 0);
                assert_eq!(a, b, "seed {seed}, length {m}");
                assert_eq!(ra, rb, "seed {seed}, length {m}: RNG positions differ");
                assert_eq!((charged[0].gates, charged[0].cliffords), (pulses, m + 1));
            }
        }
    }

    #[test]
    fn sequence_inverts_to_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let lanes = [Templates::raw(two_qubit_cliffords(), &[Qubit::new(0), Qubit::new(1)])];
        let c = emit(2, &lanes, &mut curves(&[2]), 6, None, &mut rng);
        // Strip measurements, check the unitary is identity.
        let mut unitary_only = Circuit::new(2, 0);
        for instr in c.iter().filter(|i| !i.gate().is_measurement()) {
            unitary_only.push(instr.clone());
        }
        assert!(CliffordTableau::from_circuit(&unitary_only).is_identity());
    }

    #[test]
    fn noiseless_rb_survival_is_one() {
        let device = Device::line(2, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let lanes = [edge_lane(Edge::new(0, 1))];
        let c = emit(2, &lanes, &mut curves(&[2]), 10, None, &mut rng);
        let sched = Executor::asap_schedule(&c, device.calibration());
        let cfg = ExecutorConfig {
            shots: 64,
            gate_noise: false,
            crosstalk: false,
            decoherence: false,
            readout_noise: false,
            seed: 0,
        };
        let counts = Executor::with_config(&device, cfg).run(&sched);
        assert_eq!(counts.probability(0b00), 1.0);
    }

    #[test]
    fn rb_recovers_injected_cnot_error() {
        // Inject a known CNOT error on an isolated pair and check RB
        // estimates it within a loose tolerance. Decoherence/readout are
        // enabled, so expect some upward bias.
        let mut device = Device::line(2, 6);
        let mut cal = device.calibration().clone();
        cal.set_cx_error(Edge::new(0, 1), 0.03);
        device = device.with_calibration(cal);
        let config = RbConfig { seqs_per_length: 6, shots: 256, ..Default::default() };
        let out = run_rb(&device, Edge::new(0, 1), &config);
        assert!(
            (out.cnot_error - 0.03).abs() < 0.015,
            "estimated {} vs injected 0.03",
            out.cnot_error
        );
        // Survival decays with length.
        assert!(out.survival.first().unwrap().1 > out.survival.last().unwrap().1);
    }

    #[test]
    fn zero_shot_runs_survive_with_probability_zero() {
        // A lane's survival is `Counts::probability(0)` when it is alone,
        // down to a run with no shots.
        let config = RbConfig { shots: 0, ..Default::default() };
        let out = run_rb(&Device::line(2, 0), Edge::new(0, 1), &config);
        assert!(out.survival.iter().all(|&(_, p)| p == 0.0), "{:?}", out.survival);
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn foreign_edge_rejected() {
        let device = Device::line(3, 0);
        run_rb(&device, Edge::new(0, 2), &RbConfig::default());
    }

    #[test]
    fn one_qubit_rb_confirms_ten_x_gap() {
        // The paper's premise for pruning CanOlp to 2q gates: 1q error
        // rates sit ~10x below CNOT rates.
        let device = Device::line(2, 6);
        let config = RbConfig {
            lengths: vec![4, 16, 40, 80],
            seqs_per_length: 5,
            shots: 256,
            seed: 2,
        };
        let e1 = run_rb_1q(&device, 0, &config);
        let e2 = run_rb(&device, Edge::new(0, 1), &config).cnot_error;
        assert!(e1 > 0.0, "1q error should be measurable");
        assert!(
            e1 * 3.0 < e2,
            "1q error {e1} should sit well below CNOT error {e2}"
        );
    }

    #[test]
    fn executions_accounting() {
        let c = RbConfig::paper_scale();
        assert_eq!(c.executions(), 100 * 1024);
    }
}
