//! The harness's own schedule checker: independent of
//! `ScheduledCircuit::validate`, so a scheduler bug cannot hide behind
//! the library's own validation.

use xtalk_device::{Edge, Topology};
use xtalk_ir::{Circuit, ScheduledCircuit};

/// Checks that `sched` is a legal timing of exactly `routed` on `topo`:
/// the scheduled circuit is the routed one, every two-qubit gate sits on
/// a coupling edge, and on every qubit each instruction starts no
/// earlier than the previous instruction on that qubit ends. The last
/// condition is both "each instruction starts after its DAG predecessors
/// end" (a predecessor is the previous instruction on a shared qubit)
/// and "no two instructions share a qubit in time".
pub fn check_schedule(
    sched: &ScheduledCircuit,
    routed: &Circuit,
    topo: &Topology,
) -> Result<(), String> {
    let circuit = sched.circuit();
    if circuit.instructions() != routed.instructions() {
        return Err("scheduled circuit differs from the routed circuit".to_string());
    }
    if sched.slots().len() != circuit.len() {
        return Err(format!(
            "{} slots for {} instructions",
            sched.slots().len(),
            circuit.len()
        ));
    }
    let mut free_at = vec![0u64; circuit.num_qubits()];
    for (i, (ins, slot)) in circuit.iter().zip(sched.slots()).enumerate() {
        if ins.gate().is_two_qubit() {
            let q = ins.qubits();
            if !topo.has_edge(Edge::new(q[0].raw(), q[1].raw())) {
                return Err(format!("instruction {i} is off the coupling map"));
            }
        }
        for q in ins.qubits() {
            let at = &mut free_at[q.index()];
            if slot.start < *at {
                return Err(format!(
                    "instruction {i} starts at {} ns on qubit {} before its predecessor ends at {} ns",
                    slot.start,
                    q.index(),
                    *at
                ));
            }
            *at = slot.finish();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_ir::ScheduleSlot;

    fn two_cx() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).cx(1, 2);
        c
    }

    #[test]
    fn accepts_sequential_and_rejects_overlap() {
        let topo = Topology::line(3);
        let c = two_cx();
        let ok = ScheduledCircuit::new(
            c.clone(),
            vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(300, 300)],
        )
        .unwrap();
        assert!(check_schedule(&ok, &c, &topo).is_ok());
        let overlapping = ScheduledCircuit::new(
            c.clone(),
            vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(200, 300)],
        )
        .unwrap();
        assert!(check_schedule(&overlapping, &c, &topo).is_err());
    }

    #[test]
    fn rejects_off_map_gates_and_foreign_circuits() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 2);
        let sched = ScheduledCircuit::new(c.clone(), vec![ScheduleSlot::new(0, 300)]).unwrap();
        assert!(check_schedule(&sched, &c, &Topology::line(3)).is_err());
        assert!(check_schedule(&sched, &two_cx(), &Topology::grid(2, 2)).is_err());
    }
}
