//! Schedule realization: ASAP solve + IBM right-alignment.

use crate::timeline::Timeline;
use crate::{CoreError, SchedulerContext};
use xtalk_ir::{Circuit, Instruction, Qubit, ScheduledCircuit};

/// Realizes a concrete timed schedule for `circuit` under the hardware
/// timing model:
///
/// 1. compute the earliest (ASAP) start times subject to the data
///    dependencies *plus* the given `serializations` (pairs `(i, j)`
///    forcing instruction `j` to start after `i` finishes), then
/// 2. right-align everything as late as possible within the resulting
///    makespan — IBMQ control executes gates late and fires all readouts
///    simultaneously at the end (paper Figure 1c), and the paper's
///    lifetime model (Eq. 9) assumes exactly this alignment.
///
/// # Errors
///
/// [`CoreError::CyclicConstraints`] if the serialization pairs contradict
/// the dependency order.
///
/// This is a one-shot use of the schedule timeline that XtalkSched's
/// search reuses across its branch-and-bound nodes.
pub fn realize(
    circuit: &Circuit,
    ctx: &SchedulerContext,
    serializations: &[(usize, usize)],
) -> Result<ScheduledCircuit, CoreError> {
    let _span = xtalk_obs::span("realize");
    let mut timeline = Timeline::new(circuit, ctx);
    timeline.solve(serializations)?;
    Ok(timeline.into_schedule())
}

/// Rewrites a realized schedule as an *executable circuit with barriers*:
/// instructions in start-time order, with a barrier spanning the union of
/// each serialized pair's qubits inserted between them — the
/// post-processing step the paper uses to enforce orderings through
/// Qiskit's circuit-level ISA (Section 6).
pub fn to_barriered_circuit(
    sched: &ScheduledCircuit,
    serializations: &[(usize, usize)],
) -> Circuit {
    let circuit = sched.circuit();
    let mut order: Vec<usize> = (0..circuit.len()).collect();
    order.sort_by_key(|&i| (sched.slot(i).start, i));
    let position: Vec<usize> = {
        let mut pos = vec![0; circuit.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        pos
    };

    // barrier_before[p] = set of qubits a barrier must span just before
    // output position p.
    let mut barrier_before: Vec<Vec<Qubit>> = vec![Vec::new(); circuit.len() + 1];
    for &(i, j) in serializations {
        let p = position[j];
        let spot = &mut barrier_before[p];
        for q in circuit.instructions()[i].qubits().iter().chain(circuit.instructions()[j].qubits()) {
            if !spot.contains(q) {
                spot.push(*q);
            }
        }
    }

    let mut out = Circuit::new(circuit.num_qubits(), circuit.num_clbits());
    for (p, &i) in order.iter().enumerate() {
        if !barrier_before[p].is_empty() {
            let mut qs = barrier_before[p].clone();
            qs.sort_unstable();
            out.push(Instruction::barrier(qs));
        }
        out.push(circuit.instructions()[i].clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_device::Device;
    use xtalk_ir::Qubit;

    fn ctx() -> SchedulerContext {
        SchedulerContext::from_ground_truth(&Device::line(6, 3))
    }

    #[test]
    fn parallel_gates_align_right() {
        let ctx = ctx();
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3).cx(0, 1);
        let sched = realize(&c, &ctx, &[]).unwrap();
        // The lone cx(2,3) is right-aligned to finish at the makespan.
        assert_eq!(sched.slot(1).finish(), sched.makespan());
        // The dependent chain is tight.
        assert_eq!(sched.slot(2).start, sched.slot(0).finish());
    }

    #[test]
    fn serialization_orders_independent_gates() {
        let ctx = ctx();
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3);
        let sched = realize(&c, &ctx, &[(0, 1)]).unwrap();
        assert!(sched.slot(1).start >= sched.slot(0).finish());
        assert!(sched.overlapping_two_qubit_pairs().is_empty());
    }

    #[test]
    fn conflicting_serializations_detected() {
        let ctx = ctx();
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3);
        assert_eq!(
            realize(&c, &ctx, &[(0, 1), (1, 0)]),
            Err(CoreError::CyclicConstraints)
        );
    }

    #[test]
    fn serialization_against_program_order_is_fine() {
        // Serialize instruction 1 *before* instruction 0 (they are
        // independent), which reverses program order.
        let ctx = ctx();
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3);
        let sched = realize(&c, &ctx, &[(1, 0)]).unwrap();
        assert!(sched.slot(0).start >= sched.slot(1).finish());
    }

    #[test]
    fn readouts_simultaneous_at_end() {
        let ctx = ctx();
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = realize(&c, &ctx, &[]).unwrap();
        let m = sched.makespan();
        for (i, ins) in c.iter().enumerate() {
            if ins.gate().is_measurement() {
                assert_eq!(sched.slot(i).finish(), m, "measure {i} not right-aligned");
            }
        }
        // All readouts start together (equal durations).
        let starts: Vec<u64> = c
            .iter()
            .enumerate()
            .filter(|(_, ins)| ins.gate().is_measurement())
            .map(|(i, _)| sched.slot(i).start)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn barriered_circuit_reproduces_order() {
        let ctx = ctx();
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3);
        let sched = realize(&c, &ctx, &[(0, 1)]).unwrap();
        let barriered = to_barriered_circuit(&sched, &[(0, 1)]);
        assert_eq!(barriered.count_gate("barrier"), 1);
        // Barrier spans all four qubits of the pair.
        let b = barriered
            .iter()
            .find(|i| i.gate().is_barrier())
            .expect("barrier present");
        assert_eq!(b.qubits().len(), 4);
        // In the barriered circuit, the serialized gates cannot overlap:
        // its own DAG orders them.
        let dag = barriered.dag();
        let cx_positions: Vec<usize> = barriered
            .iter()
            .enumerate()
            .filter(|(_, i)| i.gate().is_two_qubit())
            .map(|(i, _)| i)
            .collect();
        assert!(!dag.can_overlap(cx_positions[0], cx_positions[1]));
    }

    #[test]
    fn zero_duration_gates_fit_anywhere() {
        let ctx = ctx();
        let mut c = Circuit::new(2, 0);
        c.rz(0.3, 0).cx(0, 1).rz(0.4, 1);
        let sched = realize(&c, &ctx, &[]).unwrap();
        assert_eq!(sched.slot(0).duration, 0);
        sched.validate().unwrap();
    }

    #[test]
    fn makespan_matches_critical_path() {
        let ctx = ctx();
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).cx(1, 2);
        let sched = realize(&c, &ctx, &[]).unwrap();
        let d0 = ctx.duration_of(&xtalk_ir::Gate::Cx, &[Qubit::new(0), Qubit::new(1)]);
        let d1 = ctx.duration_of(&xtalk_ir::Gate::Cx, &[Qubit::new(1), Qubit::new(2)]);
        assert_eq!(sched.makespan(), d0 + d1);
    }
}
