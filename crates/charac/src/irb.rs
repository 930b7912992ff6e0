//! Interleaved randomized benchmarking (IRB).
//!
//! Standard RB estimates the *average* error of the Clifford set; IRB
//! isolates one specific gate by interleaving it between the random
//! Cliffords of a second sequence set. The ratio of the two decay
//! constants bounds that gate's error:
//! `r_gate = (d−1)/d · (1 − α_int/α_ref)`.
//!
//! The paper itself uses plain SRB, but IRB is the natural refinement for
//! per-gate conditional errors and ships in the same Ignis toolbox the
//! paper builds on, so the reproduction carries it too.

use crate::fit::DecayFit;
use crate::rb::{survival_curves, RbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xtalk_clifford::group::{two_qubit_cliffords, Templates};
use xtalk_device::{Device, Edge};
use xtalk_ir::Gate;

/// Result of an interleaved-RB experiment on one CNOT.
#[derive(Clone, PartialEq, Debug)]
pub struct IrbOutcome {
    /// The benchmarked edge.
    pub edge: Edge,
    /// Reference (plain RB) decay.
    pub reference: DecayFit,
    /// Interleaved decay.
    pub interleaved: DecayFit,
    /// The IRB estimate of the CNOT's error rate.
    pub gate_error: f64,
}

/// Runs interleaved RB for the CNOT on `edge`: a reference sequence set
/// of `m` random two-qubit Cliffords, and an interleaved set where the
/// target CNOT follows every random Clifford. Both end with the exact
/// inverse, so noiseless survival is 1. The two sets are one lane run
/// twice, drawing from one stream: reference first.
///
/// # Panics
///
/// Panics if `edge` is not in the topology.
pub fn run_irb(device: &Device, edge: Edge, config: &RbConfig) -> IrbOutcome {
    let group = two_qubit_cliffords();
    // Raw gates: the interleaved CNOT must reach the executor as itself.
    let lane = [Templates::raw(group, &edge.qubits())];
    let cx = group.generator_index(&(Gate::Cx, vec![0, 1])).expect("CX(0,1) generates the group");
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ 0x12b ^ ((edge.lo() as u64) << 32) ^ edge.hi() as u64,
    );
    let mut fit = |interleave, salt| {
        let seeds = |m: u64, s: u64| config.seed ^ (m << 24) ^ (s << 8) ^ salt;
        survival_curves(device, &lane, interleave, config, &mut rng, seeds)[0].estimate().0
    };
    let reference = fit(None, 0);
    let interleaved = fit(Some(cx), 1);
    let ratio = (interleaved.alpha / reference.alpha.max(1e-9)).clamp(0.0, 1.0);
    let gate_error = (0.75 * (1.0 - ratio)).clamp(0.0, 1.0);
    IrbOutcome { edge, reference, interleaved, gate_error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rb::clifford_sequence;
    use xtalk_ir::Circuit;

    fn config() -> RbConfig {
        RbConfig { lengths: vec![2, 6, 12, 20], seqs_per_length: 5, shots: 192, seed: 4 }
    }

    /// `run_irb`'s sequence as it was: raw gates, a running tableau built
    /// gate by gate (the interleaved CNOT included), the inverse looked up
    /// by tableau: the oracle for the table path.
    fn irb_sequence_per_gate(
        c: &mut Circuit,
        phys: [xtalk_ir::Qubit; 2],
        m: usize,
        interleave: bool,
        rng: &mut StdRng,
    ) {
        use xtalk_clifford::random::uniform_element;
        use xtalk_clifford::{instantiate, CliffordTableau};
        let group = two_qubit_cliffords();
        let mut total = CliffordTableau::identity(2);
        for _ in 0..m {
            let idx = uniform_element(group, rng);
            for instr in instantiate(&group.decomposition(idx), &phys) {
                c.push(instr);
            }
            for (g, qs) in group.decomposition(idx) {
                total.apply_gate(&g, &qs);
            }
            if interleave {
                c.push(xtalk_ir::Instruction::two_qubit(Gate::Cx, phys[0], phys[1]));
                total.apply_gate(&Gate::Cx, &[0, 1]);
            }
        }
        for instr in instantiate(&group.inverse_decomposition(&total).unwrap(), &phys) {
            c.push(instr);
        }
    }

    #[test]
    fn table_sequences_emit_the_tableau_oracle_circuits() {
        let group = two_qubit_cliffords();
        let phys = Edge::new(1, 4).qubits();
        let templates = Templates::raw(group, &phys);
        let cx = group.generator_index(&(Gate::Cx, vec![0, 1])).unwrap();
        for seed in 0..30u64 {
            for m in [0usize, 1, 4, 13, 25] {
                for interleave in [false, true] {
                    let (mut a, mut b) = (Circuit::new(5, 2), Circuit::new(5, 2));
                    let mut ra = StdRng::seed_from_u64(seed);
                    let mut rb = StdRng::seed_from_u64(seed);
                    let interleave_cx = interleave.then_some(cx);
                    clifford_sequence(&mut a, group, &templates, m, interleave_cx, &mut ra);
                    irb_sequence_per_gate(&mut b, phys, m, interleave, &mut rb);
                    assert_eq!(a, b, "seed {seed}, length {m}, interleave {interleave}");
                    assert_eq!(ra, rb, "seed {seed}, length {m}: RNG positions differ");
                }
            }
        }
    }

    #[test]
    fn irb_recovers_injected_cnot_error() {
        let mut device = Device::line(2, 9);
        let mut cal = device.calibration().clone();
        cal.set_cx_error(Edge::new(0, 1), 0.04);
        device = device.with_calibration(cal);
        let out = run_irb(&device, Edge::new(0, 1), &config());
        // IRB subtracts the reference decay, so the estimate should land
        // near the injected rate (tolerances loose at this budget).
        assert!(
            (out.gate_error - 0.04).abs() < 0.02,
            "estimated {} vs injected 0.04",
            out.gate_error
        );
        // Interleaving a noisy gate must accelerate the decay.
        assert!(out.interleaved.alpha < out.reference.alpha);
    }

    #[test]
    fn irb_ranks_gate_quality() {
        let mut results = Vec::new();
        for err in [0.01, 0.06] {
            let mut device = Device::line(2, 10);
            let mut cal = device.calibration().clone();
            cal.set_cx_error(Edge::new(0, 1), err);
            device = device.with_calibration(cal);
            results.push(run_irb(&device, Edge::new(0, 1), &config()).gate_error);
        }
        assert!(
            results[0] < results[1],
            "IRB must rank 1% below 6%: {results:?}"
        );
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn foreign_edge_rejected() {
        run_irb(&Device::line(3, 0), Edge::new(0, 2), &config());
    }
}
