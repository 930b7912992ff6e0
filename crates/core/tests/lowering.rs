//! Statevector equivalence of lowering to the IBMQ native gate set
//! (`u1`/`u2`/`u3` + `cx`): every lowered circuit prepares the same state
//! as its source up to global phase. Lowering lives in `xtalk-pass`, below
//! the simulator, so its semantic checks live here.

use xtalk_ir::Circuit;
use xtalk_pass::lower::{is_native, lower_to_native};
use xtalk_sim::{ideal, StateVector};

/// Fidelity between the final states of two measurement-free
/// circuits (global phase insensitive).
fn state_fidelity(a: &Circuit, b: &Circuit) -> f64 {
    ideal::final_state(a).fidelity(&ideal::final_state(b))
}

type GateApplier = Box<dyn Fn(&mut Circuit)>;

#[test]
fn every_gate_lowers_equivalently() {
    let gates: Vec<GateApplier> = vec![
        Box::new(|c| {
            c.x(0);
        }),
        Box::new(|c| {
            c.y(0);
        }),
        Box::new(|c| {
            c.z(0);
        }),
        Box::new(|c| {
            c.h(0);
        }),
        Box::new(|c| {
            c.s(0);
        }),
        Box::new(|c| {
            c.sdg(0);
        }),
        Box::new(|c| {
            c.t(0);
        }),
        Box::new(|c| {
            c.tdg(0);
        }),
        Box::new(|c| {
            c.rx(0.7, 0);
        }),
        Box::new(|c| {
            c.ry(-1.3, 0);
        }),
        Box::new(|c| {
            c.rz(2.1, 0);
        }),
        Box::new(|c| {
            c.cz(0, 1);
        }),
        Box::new(|c| {
            c.swap(0, 1);
        }),
    ];
    for (k, apply) in gates.iter().enumerate() {
        // Start from a non-trivial entangled state so phases matter.
        let mut original = Circuit::new(2, 0);
        original.u3(0.9, 0.3, -0.2, 0).u3(-0.5, 0.1, 0.4, 1).cx(0, 1);
        apply(&mut original);
        let lowered = lower_to_native(&original);
        assert!(is_native(&lowered), "gate case {k} not native");
        let f = state_fidelity(&original, &lowered);
        assert!(f > 1.0 - 1e-9, "gate case {k}: fidelity {f}");
    }
}

#[test]
fn identity_is_dropped() {
    let mut c = Circuit::new(1, 0);
    c.id(0).h(0);
    let lowered = lower_to_native(&c);
    assert_eq!(lowered.len(), 1);
}

#[test]
fn measures_and_barriers_preserved() {
    let mut c = Circuit::new(2, 2);
    c.h(0).barrier_all().measure_all();
    let lowered = lower_to_native(&c);
    assert_eq!(lowered.count_gate("barrier"), 1);
    assert_eq!(lowered.count_gate("measure"), 2);
    // Measured distribution unchanged.
    let a = ideal::distribution(&c);
    let b = ideal::distribution(&lowered);
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-12);
    }
}

#[test]
fn lowering_is_idempotent() {
    let mut c = Circuit::new(3, 0);
    c.h(0).cz(0, 1).swap(1, 2).t(2);
    let once = lower_to_native(&c);
    let twice = lower_to_native(&once);
    assert_eq!(once, twice);
}

#[test]
fn bell_state_survives_lowering() {
    let mut c = Circuit::new(2, 0);
    c.h(0).cx(0, 1);
    let lowered = lower_to_native(&c);
    let mut s = StateVector::new(2);
    for ins in lowered.iter() {
        let qs: Vec<usize> = ins.qubits().iter().map(|q| q.index()).collect();
        s.apply_gate(ins.gate(), &qs);
    }
    let p = s.probabilities();
    assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
}
