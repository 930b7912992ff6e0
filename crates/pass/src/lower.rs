//! Basis translation: lowering circuits to the IBMQ native gate set
//! (`u1`/`u2`/`u3` + `cx`), the form the paper's hardware executes.
//!
//! Lives in `xtalk-pass` (the bottom of the compile spine) so every
//! consumer — the core pipeline's `LowerPass`, the characterization
//! crate's RB/SRB circuit builders, the CLI — lowers through one
//! implementation. The statevector-equivalence tests live in
//! `xtalk-core`'s `tests/lowering.rs` (the sim crate is above this one).

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use xtalk_ir::{Circuit, Gate, Instruction};

/// Rewrites every gate into the IBMQ native basis
/// `{u1, u2, u3, cx, measure, barrier}`:
///
/// * phase-family gates become `u1` (equal up to global phase),
/// * one-pulse gates become `u2`, generic rotations `u3`,
/// * `cz` becomes `h; cx; h` on the target, `swap` three CNOTs,
/// * explicit identities are dropped.
///
/// The result is unitarily equivalent up to global phase (verified by the
/// statevector-equivalence tests in `xtalk-core`'s `tests/lowering.rs`).
///
/// ```
/// use xtalk_pass::lower_to_native;
/// use xtalk_ir::Circuit;
/// let mut c = Circuit::new(2, 0);
/// c.h(0).s(1).cz(0, 1).swap(0, 1);
/// let native = lower_to_native(&c);
/// let ops = native.count_ops();
/// assert_eq!(ops.keys().cloned().collect::<Vec<_>>(), vec!["cx", "u1", "u2"]);
/// assert_eq!(ops["cx"], 4); // 1 (from cz) + 3 (from swap)
/// ```
pub fn lower_to_native(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
    for instr in circuit.iter() {
        lower_instruction(&mut out, instr);
    }
    out
}

/// Lowers one instruction, appending its native expansion to `out`.
pub fn lower_instruction(out: &mut Circuit, instr: &Instruction) {
    let qs = instr.qubits();
    match *instr.gate() {
        Gate::I => {}
        Gate::X => {
            out.u3(PI, 0.0, PI, qs[0]);
        }
        Gate::Y => {
            out.u3(PI, FRAC_PI_2, FRAC_PI_2, qs[0]);
        }
        Gate::Z => {
            out.u1(PI, qs[0]);
        }
        Gate::H => {
            out.u2(0.0, PI, qs[0]);
        }
        Gate::S => {
            out.u1(FRAC_PI_2, qs[0]);
        }
        Gate::Sdg => {
            out.u1(-FRAC_PI_2, qs[0]);
        }
        Gate::T => {
            out.u1(FRAC_PI_4, qs[0]);
        }
        Gate::Tdg => {
            out.u1(-FRAC_PI_4, qs[0]);
        }
        Gate::U1(l) => {
            out.u1(l, qs[0]);
        }
        Gate::U2(p, l) => {
            out.u2(p, l, qs[0]);
        }
        Gate::U3(t, p, l) => {
            out.u3(t, p, l, qs[0]);
        }
        // rz differs from u1 only by a global phase.
        Gate::Rz(a) => {
            out.u1(a, qs[0]);
        }
        Gate::Rx(a) => {
            out.u3(a, -FRAC_PI_2, FRAC_PI_2, qs[0]);
        }
        Gate::Ry(a) => {
            out.u3(a, 0.0, 0.0, qs[0]);
        }
        Gate::Cx => {
            out.cx(qs[0], qs[1]);
        }
        Gate::Cz => {
            out.u2(0.0, PI, qs[1]);
            out.cx(qs[0], qs[1]);
            out.u2(0.0, PI, qs[1]);
        }
        Gate::Swap => {
            out.cx(qs[0], qs[1]);
            out.cx(qs[1], qs[0]);
            out.cx(qs[0], qs[1]);
        }
        Gate::Measure => {
            out.push(instr.clone());
        }
        Gate::Barrier => {
            out.push(instr.clone());
        }
    }
}

/// `true` if the circuit only uses the IBMQ native basis.
pub fn is_native(circuit: &Circuit) -> bool {
    circuit.iter().all(|i| {
        matches!(
            i.gate(),
            Gate::U1(_) | Gate::U2(_, _) | Gate::U3(_, _, _) | Gate::Cx | Gate::Measure
                | Gate::Barrier
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_dropped() {
        let mut c = Circuit::new(1, 0);
        c.id(0).h(0);
        let lowered = lower_to_native(&c);
        assert_eq!(lowered.len(), 1);
    }

    #[test]
    fn lowering_is_idempotent() {
        let mut c = Circuit::new(3, 0);
        c.h(0).cz(0, 1).swap(1, 2).t(2);
        let once = lower_to_native(&c);
        let twice = lower_to_native(&once);
        assert_eq!(once, twice);
        assert!(is_native(&once));
    }
}
