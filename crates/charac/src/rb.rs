//! Two-qubit randomized benchmarking against the simulator.

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

/// One random RB sequence on the pair of physical qubits of `templates`
/// (two-qubit group templates, see [`native_templates`]): `m` uniform
/// two-qubit Cliffords followed by the inverse of their product, ending
/// with measurement of both qubits into clbits
/// `(clbit_base, clbit_base+1)`.
///
/// Returns the number of CNOTs the fragment contains.
pub fn rb_sequence(
    circuit: &mut Circuit,
    templates: &Templates,
    m: usize,
    clbit_base: u32,
    rng: &mut StdRng,
) -> usize {
    let start = circuit.len();
    clifford_sequence(circuit, two_qubit_cliffords(), templates, m, None, rng);
    let cx = circuit.instructions()[start..]
        .iter()
        .filter(|instr| instr.gate().is_two_qubit())
        .count();
    let [qa, qb] = [templates.physical()[0], templates.physical()[1]];
    circuit.measure(qa, clbit_base).measure(qb, clbit_base + 1);
    cx
}

/// Runs single-qubit RB on `q`, estimating its 1q gate error rate.
///
/// The paper ignores single-qubit conditional errors because standalone
/// 1q error rates are ~10× below CNOT rates (Section 7.2); this measures
/// exactly that ratio on our devices.
pub fn run_rb_1q(device: &Device, q: u32, config: &RbConfig) -> f64 {
    let n = device.topology().num_qubits();
    let group = single_qubit_cliffords();
    let templates = native_templates(group, &[Qubit::new(q)]);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1111 ^ u64::from(q));
    let mut data = Vec::new();
    let mut total_gates = 0usize;
    let mut total_cliffords = 0usize;
    for &m in &config.lengths {
        let mut mean = 0.0;
        for s in 0..config.seqs_per_length {
            // Native gates, as hardware executes them: one physical pulse
            // per non-virtual Clifford generator, so EPC accounting is
            // that of the raw gates. Virtual gates (S, Z, …) are
            // error-free frame changes; only physical pulses carry error.
            let mut c = Circuit::new(n, 1);
            clifford_sequence(&mut c, group, &templates, m, None, &mut rng);
            total_gates += c.iter().filter(|instr| !instr.gate().is_virtual()).count();
            total_cliffords += m + 1;
            c.measure(q, 0);
            let sched = Executor::asap_schedule(&c, device.calibration());
            let cfg = ExecutorConfig {
                shots: config.shots,
                seed: config.seed ^ ((m as u64) << 16) ^ s as u64 ^ 0x11,
                ..Default::default()
            };
            let counts = Executor::with_config(device, cfg).run(&sched);
            mean += counts.probability(0);
        }
        data.push((m, mean / config.seqs_per_length as f64));
    }
    let fit = fit_decay_fixed_offset(&data, 0.5);
    let epc = error_per_clifford(fit.alpha, 1);
    let gates_per_clifford = (total_gates as f64 / total_cliffords as f64).max(1e-9);
    (epc / gates_per_clifford).clamp(0.0, 1.0)
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
    assert!(device.topology().has_edge(edge), "edge {edge} not in topology");
    let n = device.topology().num_qubits();
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ 0xda7a ^ ((edge.lo() as u64) << 32) ^ edge.hi() as u64,
    );
    let templates = native_templates(two_qubit_cliffords(), &edge.qubits());

    let mut survival = Vec::new();
    let mut data = Vec::new();
    let mut total_cx = 0usize;
    let mut total_cliffords = 0usize;
    for &m in &config.lengths {
        let mut mean = 0.0;
        for s in 0..config.seqs_per_length {
            let mut c = Circuit::new(n, 2);
            total_cx += rb_sequence(&mut c, &templates, m, 0, &mut rng);
            total_cliffords += m + 1;
            let sched = Executor::asap_schedule(&c, device.calibration());
            let cfg = ExecutorConfig {
                shots: config.shots,
                seed: config.seed ^ (m as u64) << 20 ^ s as u64,
                ..Default::default()
            };
            let counts = Executor::with_config(device, cfg).run(&sched);
            mean += counts.probability(0b00);
        }
        mean /= config.seqs_per_length as f64;
        survival.push((m, mean));
        data.push((m, mean));
    }
    let fit = fit_decay_fixed_offset(&data, 0.25);
    let epc = error_per_clifford(fit.alpha, 2);
    let cx_per_clifford = total_cx as f64 / total_cliffords as f64;
    RbOutcome {
        edge,
        fit,
        epc,
        cnot_error: epc / cx_per_clifford.max(1e-9),
        survival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_clifford::group::LocalGate;
    use xtalk_clifford::{instantiate, CliffordTableau};

    /// `rb_sequence` as it was when the running product composed every
    /// generator gate's tableau, with raw gates and a lookup of the
    /// product's tableau for the inverse: the oracle for the table path.
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

    #[test]
    fn table_sequences_emit_the_tableau_oracle_circuits() {
        let (qa, qb) = (Qubit::new(3), Qubit::new(1));
        let templates = native_templates(two_qubit_cliffords(), &[qa, qb]);
        for seed in 0..40u64 {
            for m in [0usize, 1, 2, 5, 12, 30] {
                let (mut a, mut b) = (Circuit::new(4, 4), Circuit::new(4, 4));
                let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let cx_a = rb_sequence(&mut a, &templates, m, 2, &mut ra);
                let cx_b = rb_sequence_per_gate(&mut b, qa, qb, m, 2, &mut rb);
                let b = xtalk_pass::lower_to_native(&b);
                assert_eq!((cx_a, &a), (cx_b, &b), "seed {seed}, length {m}");
                assert_eq!(ra, rb, "seed {seed}, length {m}: RNG positions differ");
            }
        }
    }

    #[test]
    fn one_qubit_table_sequences_emit_the_tableau_oracle_circuits() {
        let group = single_qubit_cliffords();
        let templates = native_templates(group, &[Qubit::new(2)]);
        for seed in 0..40u64 {
            for m in [0usize, 1, 3, 16, 40] {
                let mut a = Circuit::new(3, 1);
                let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                clifford_sequence(&mut a, group, &templates, m, None, &mut ra);
                let b = one_qubit_sequence_per_clifford(2, m, &mut rb);
                assert_eq!(a, b, "seed {seed}, length {m}");
                assert_eq!(ra, rb, "seed {seed}, length {m}: RNG positions differ");
            }
        }
    }

    #[test]
    fn sequence_inverts_to_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Circuit::new(2, 2);
        let templates = Templates::raw(two_qubit_cliffords(), &[Qubit::new(0), Qubit::new(1)]);
        rb_sequence(&mut c, &templates, 6, 0, &mut rng);
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
        let mut c = Circuit::new(2, 2);
        let templates = native_templates(two_qubit_cliffords(), &[Qubit::new(0), Qubit::new(1)]);
        rb_sequence(&mut c, &templates, 10, 0, &mut rng);
        let sched = Executor::asap_schedule(&c, device.calibration());
        let cfg = ExecutorConfig {
            shots: 64,
            gate_noise: false,
            crosstalk: false,
            decoherence: false,
            readout_noise: false,
            compound_crosstalk: false,
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
