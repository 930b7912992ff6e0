//! The schedule timeline: what realizing and costing schedules of one
//! `(circuit, ctx)` needs, computed once, plus the buffers the work
//! reuses.
//!
//! XtalkSched's search realizes one schedule per branch-and-bound node,
//! each differing from the last only in its serialization edges. A
//! [`Timeline`] holds the gate durations and the base dependency edges in
//! compressed (CSR) arrays, and evaluates each node into reused buffers:
//! a Kahn order over base plus serialization edges, ASAP times, then
//! right-aligned ALAP slots. The overlap sweep and the Eq. 17 cost run
//! directly on those slots ([`CostModel`]); a [`ScheduledCircuit`] (and
//! the circuit clone it owns) is only built for the schedule returned.
//! [`crate::realize`] and [`crate::sched::schedule_cost`] are thin
//! wrappers over the same code.

use crate::{CoreError, SchedulerContext};
use xtalk_device::Edge;
use xtalk_ir::{Circuit, OverlapSweep, ScheduleSlot, ScheduledCircuit};

/// End of a serialization-edge list.
const NIL: u32 = u32::MAX;

/// Realizes schedules of one circuit under one context (see the module
/// docs).
pub(crate) struct Timeline<'a> {
    circuit: &'a Circuit,
    ctx: &'a SchedulerContext,
    durations: Vec<u64>,
    /// Base dependency edges: the successors of `i` are
    /// `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    base_indeg: Vec<u32>,
    // Per-evaluation buffers.
    indeg: Vec<u32>,
    ready: Vec<u32>,
    order: Vec<u32>,
    /// ASAP start times, then overwritten by ALAP finish times.
    times: Vec<u64>,
    /// Serialization edges as per-source linked lists: `ser_head[i]`
    /// indexes `ser_to`/`ser_next`, ending at [`NIL`].
    ser_head: Vec<u32>,
    ser_next: Vec<u32>,
    ser_to: Vec<u32>,
    slots: Vec<ScheduleSlot>,
    /// Built on the first overlap or cost query.
    cost: Option<CostModel>,
}

impl<'a> Timeline<'a> {
    /// Precomputes durations and base dependency edges (an edge `p → i`
    /// when `i` is the next instruction after `p` on some shared qubit,
    /// exactly the edges of [`Circuit::dag`]).
    pub(crate) fn new(circuit: &'a Circuit, ctx: &'a SchedulerContext) -> Self {
        let n = circuit.len();
        let durations: Vec<u64> = circuit
            .iter()
            .map(|ins| ctx.duration_of(ins.gate(), ins.qubits()))
            .collect();

        let mut last_on_qubit = vec![NIL; circuit.num_qubits()];
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        let mut base_indeg = vec![0u32; n];
        let mut succ_start = vec![0u32; n + 1];
        for (i, ins) in circuit.iter().enumerate() {
            let first = edges.len();
            for q in ins.qubits() {
                let p = std::mem::replace(&mut last_on_qubit[q.index()], i as u32);
                if p != NIL && !edges[first..].iter().any(|&(e, _)| e == p) {
                    edges.push((p, i as u32));
                    base_indeg[i] += 1;
                    succ_start[p as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start.clone();
        let mut succ = vec![0u32; edges.len()];
        for &(p, i) in &edges {
            succ[fill[p as usize] as usize] = i;
            fill[p as usize] += 1;
        }

        Timeline {
            circuit,
            ctx,
            durations,
            succ_start,
            succ,
            base_indeg,
            indeg: vec![0; n],
            ready: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            times: vec![0; n],
            ser_head: vec![NIL; n],
            ser_next: Vec::new(),
            ser_to: Vec::new(),
            slots: vec![ScheduleSlot::default(); n],
            cost: None,
        }
    }

    /// Realizes the schedule under `serializations` into the reused slot
    /// buffer ([`Timeline::slots`]; see [`crate::realize`] for the timing
    /// model). Opens the `realize` span; [`crate::realize`] opens its own.
    ///
    /// # Errors
    ///
    /// [`CoreError::CyclicConstraints`] if the serialization pairs
    /// contradict the dependency order.
    pub(crate) fn realize(&mut self, serializations: &[(usize, usize)]) -> Result<(), CoreError> {
        let _span = xtalk_obs::span("realize");
        self.solve(serializations)
    }

    /// The realization itself, without the span.
    pub(crate) fn solve(&mut self, serializations: &[(usize, usize)]) -> Result<(), CoreError> {
        let n = self.durations.len();
        if let Some(model) = &mut self.cost {
            model.fresh = false;
        }
        self.indeg.copy_from_slice(&self.base_indeg);
        self.ser_head.fill(NIL);
        self.ser_next.clear();
        self.ser_to.clear();
        for &(i, j) in serializations {
            assert!(
                i < n && j < n,
                "serialization references instruction out of range"
            );
            self.ser_next.push(self.ser_head[i]);
            self.ser_head[i] = self.ser_to.len() as u32;
            self.ser_to.push(j as u32);
            self.indeg[j] += 1;
        }

        // Kahn order over base plus serialization edges (detects cycles
        // the serializations introduce), with the ASAP forward pass
        // fused in: a node's start is final when it is popped.
        let Timeline {
            durations,
            succ_start,
            succ,
            indeg,
            ready,
            order,
            times,
            ser_head,
            ser_next,
            ser_to,
            slots,
            ..
        } = self;
        let (succ, succ_start, ser_head, ser_next, ser_to) =
            (&*succ, &*succ_start, &*ser_head, &*ser_next, &*ser_to);
        let succs = |i: usize| {
            let base = succ[succ_start[i] as usize..succ_start[i + 1] as usize]
                .iter()
                .copied();
            let mut k = ser_head[i];
            let sers = std::iter::from_fn(move || {
                (k != NIL).then(|| {
                    let to = ser_to[k as usize];
                    k = ser_next[k as usize];
                    to
                })
            });
            base.chain(sers).map(|j| j as usize)
        };
        times.fill(0);
        order.clear();
        ready.clear();
        ready.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut makespan = 0;
        while let Some(i) = ready.pop() {
            let i = i as usize;
            order.push(i as u32);
            let finish = times[i] + durations[i];
            makespan = makespan.max(finish);
            for j in succs(i) {
                times[j] = times[j].max(finish);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j as u32);
                }
            }
        }
        if order.len() != n {
            return Err(CoreError::CyclicConstraints);
        }

        // ALAP backward pass anchored at the makespan (right alignment):
        // `times[i]` becomes the latest finish of `i`.
        for &i in order.iter().rev() {
            let i = i as usize;
            times[i] = succs(i).fold(makespan, |lf, j| lf.min(times[j] - durations[j]));
        }
        for (slot, (&finish, &d)) in slots.iter_mut().zip(times.iter().zip(durations.iter())) {
            *slot = ScheduleSlot::new(finish - d, d);
        }
        Ok(())
    }

    /// Two-qubit pairs overlapping in the last realized slots, in
    /// [`OverlapSweep::run`] order.
    pub(crate) fn overlaps(&mut self) -> &[(usize, usize)] {
        let model = self
            .cost
            .get_or_insert_with(|| CostModel::new(self.circuit, self.ctx));
        model.sweep(&self.slots)
    }

    /// The Eq. 17 cost of the last realized slots.
    pub(crate) fn cost(&mut self, omega: f64) -> f64 {
        let model = self
            .cost
            .get_or_insert_with(|| CostModel::new(self.circuit, self.ctx));
        model.cost(self.ctx, &self.slots, omega)
    }

    /// The last realized slots.
    pub(crate) fn slots(&self) -> &[ScheduleSlot] {
        &self.slots
    }

    /// Pairs `slots` (realized by this timeline) with a clone of the
    /// circuit.
    pub(crate) fn schedule(&self, slots: Vec<ScheduleSlot>) -> ScheduledCircuit {
        let sched = ScheduledCircuit::new(self.circuit.clone(), slots)
            .expect("slot count matches instruction count");
        debug_assert!(sched.validate().is_ok(), "realized schedule must be valid");
        sched
    }

    /// The last realized slots as a schedule, consuming the timeline.
    pub(crate) fn into_schedule(mut self) -> ScheduledCircuit {
        let slots = std::mem::take(&mut self.slots);
        self.schedule(slots)
    }
}

/// What the Eq. 17 cost needs of one circuit — its two-qubit gates with
/// their edges and independent errors, and each qubit's operations — plus
/// the overlap-sweep buffers.
pub(crate) struct CostModel {
    /// Two-qubit instructions in program order.
    two_qubit: Vec<usize>,
    /// Edge of each two-qubit instruction (indexed by instruction).
    edge: Vec<Edge>,
    /// Independent error of each two-qubit instruction's edge.
    independent: Vec<f64>,
    /// Non-barrier instructions on qubit `q`:
    /// `qubit_ops[qubit_start[q]..qubit_start[q + 1]]`.
    qubit_start: Vec<u32>,
    qubit_ops: Vec<u32>,
    sweep: OverlapSweep,
    pairs: Vec<(usize, usize)>,
    /// `pairs` belongs to the slots being costed.
    fresh: bool,
    eps: Vec<f64>,
}

impl CostModel {
    pub(crate) fn new(circuit: &Circuit, ctx: &SchedulerContext) -> Self {
        let n = circuit.len();
        let mut two_qubit = Vec::new();
        let mut edge = vec![Edge::new(0, 1); n];
        let mut independent = vec![0.0; n];
        let mut qubit_start = vec![0u32; circuit.num_qubits() + 1];
        for (i, ins) in circuit.iter().enumerate() {
            if ins.gate().is_two_qubit() {
                let e = Edge::from(ins.edge().expect("two-qubit gate has an edge"));
                two_qubit.push(i);
                edge[i] = e;
                independent[i] = ctx.independent_error(e);
            }
            if !ins.gate().is_barrier() {
                for q in ins.qubits() {
                    qubit_start[q.index() + 1] += 1;
                }
            }
        }
        for q in 0..circuit.num_qubits() {
            qubit_start[q + 1] += qubit_start[q];
        }
        let mut fill = qubit_start.clone();
        let mut qubit_ops = vec![0u32; qubit_start[circuit.num_qubits()] as usize];
        for (i, ins) in circuit.iter().enumerate() {
            if !ins.gate().is_barrier() {
                for q in ins.qubits() {
                    qubit_ops[fill[q.index()] as usize] = i as u32;
                    fill[q.index()] += 1;
                }
            }
        }
        CostModel {
            two_qubit,
            edge,
            independent,
            qubit_start,
            qubit_ops,
            sweep: OverlapSweep::default(),
            pairs: Vec::new(),
            fresh: false,
            eps: vec![0.0; n],
        }
    }

    /// Sweeps `slots` for overlapping two-qubit pairs.
    pub(crate) fn sweep(&mut self, slots: &[ScheduleSlot]) -> &[(usize, usize)] {
        self.pairs.clear();
        let pairs = &mut self.pairs;
        self.sweep
            .run(self.two_qubit.iter().copied(), slots, |i, j| {
                pairs.push((i, j))
            });
        self.fresh = true;
        &self.pairs
    }

    /// The paper's Eq. 17 objective on `slots` — the one implementation
    /// (see [`crate::sched::schedule_cost`]). Reuses the overlaps of the
    /// last [`CostModel::sweep`] if no realization happened since.
    pub(crate) fn cost(
        &mut self,
        ctx: &SchedulerContext,
        slots: &[ScheduleSlot],
        omega: f64,
    ) -> f64 {
        if !self.fresh {
            self.sweep(slots);
        }

        // Gate error term: a gate's error is its independent error unless
        // it overlaps other two-qubit gates, then the maximum conditional
        // error over those partners.
        for &i in &self.two_qubit {
            self.eps[i] = self.independent[i];
        }
        for &(i, j) in &self.pairs {
            let (ei, ej) = (self.edge[i], self.edge[j]);
            self.eps[i] = self.eps[i].max(ctx.conditional_error(ei, ej));
            self.eps[j] = self.eps[j].max(ctx.conditional_error(ej, ei));
        }
        let gate_term: f64 = self
            .two_qubit
            .iter()
            .map(|&i| self.eps[i].max(1e-12).ln())
            .sum();

        // Decoherence term: each qubit's lifetime, from its first
        // operation's start to its last one's finish.
        let mut deco = 0.0;
        for q in 0..self.qubit_start.len() - 1 {
            let (lo, hi) = (
                self.qubit_start[q] as usize,
                self.qubit_start[q + 1] as usize,
            );
            let ops = &self.qubit_ops[lo..hi];
            let Some(first) = ops.iter().map(|&i| slots[i as usize].start).min() else {
                continue;
            };
            let last = ops
                .iter()
                .map(|&i| slots[i as usize].finish())
                .max()
                .unwrap_or(first);
            let t = last - first;
            if t > 0 {
                deco += t as f64 / ctx.coherence_ns(q as u32);
            }
        }

        omega * gate_term + (1.0 - omega) * deco
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::supremacy_circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xtalk_device::Device;

    /// The realization as it was before the timeline: a fresh DAG and
    /// adjacency lists per call. Kept as the oracle the timeline must
    /// match slot for slot.
    fn reference_realize(
        circuit: &Circuit,
        ctx: &SchedulerContext,
        serializations: &[(usize, usize)],
    ) -> Result<Vec<ScheduleSlot>, CoreError> {
        let n = circuit.len();
        let durations: Vec<u64> = circuit
            .iter()
            .map(|ins| ctx.duration_of(ins.gate(), ins.qubits()))
            .collect();
        let dag = circuit.dag();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let add_edge = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
            succs[a].push(b);
            indeg[b] += 1;
        };
        for j in 0..n {
            for &i in dag.predecessors(j) {
                add_edge(&mut succs, &mut indeg, i, j);
            }
        }
        for &(i, j) in serializations {
            add_edge(&mut succs, &mut indeg, i, j);
        }
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = queue.pop() {
            order.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            return Err(CoreError::CyclicConstraints);
        }
        let mut asap = vec![0u64; n];
        for &i in &order {
            for &j in &succs[i] {
                asap[j] = asap[j].max(asap[i] + durations[i]);
            }
        }
        let makespan = (0..n).map(|i| asap[i] + durations[i]).max().unwrap_or(0);
        let mut latest_finish = vec![makespan; n];
        for &i in order.iter().rev() {
            for &j in &succs[i] {
                latest_finish[i] = latest_finish[i].min(latest_finish[j] - durations[j]);
            }
        }
        Ok((0..n)
            .map(|i| ScheduleSlot::new(latest_finish[i] - durations[i], durations[i]))
            .collect())
    }

    /// Circuits with two-qubit gates on Poughkeepsie coupling edges,
    /// single-qubit and zero-duration gates, barriers and readouts.
    fn circuits(device: &Device) -> Vec<Circuit> {
        let topo = device.topology();
        let mut out: Vec<Circuit> = [
            (vec![5, 6, 10, 11, 12, 15, 16, 17], 4, 1),
            (vec![10, 11, 12, 13, 14, 15, 16, 17, 18, 19], 6, 2),
            (vec![0, 1, 2, 5, 6, 7, 10, 11], 3, 3),
        ]
        .into_iter()
        .map(|(region, depth, seed)| supremacy_circuit(topo, &region, depth, seed))
        .collect();
        let mut c = Circuit::new(20, 4);
        c.h(10)
            .cx(10, 15)
            .rz(0.3, 11)
            .cx(11, 12)
            .barrier([10, 11, 12, 15]);
        c.cx(10, 15)
            .cx(11, 12)
            .swap(5, 10)
            .measure(10, 0)
            .measure(15, 1);
        c.measure(11, 2).measure(12, 3);
        out.push(c);
        out.push(Circuit::new(20, 0));
        out
    }

    #[test]
    fn reused_timeline_matches_reference_realize() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut rng = StdRng::seed_from_u64(0x7151);
        let (mut feasible, mut cyclic) = (0, 0);
        for circuit in circuits(&device) {
            let n = circuit.len();
            let mut timeline = Timeline::new(&circuit, &ctx);
            for call in 0..200 {
                // Random pairs in either direction: some follow or repeat
                // a dependency, some reverse one (cyclic), some order
                // independent gates.
                let mut ser = Vec::new();
                if n >= 2 {
                    for _ in 0..rng.gen_range(0..(call % 7 + 1)) {
                        let i = rng.gen_range(0..n);
                        let j = rng.gen_range(0..n);
                        if i != j {
                            ser.push((i, j));
                        }
                    }
                }
                let expected = reference_realize(&circuit, &ctx, &ser);
                let got = timeline.realize(&ser).map(|()| timeline.slots().to_vec());
                assert_eq!(got, expected, "call {call} with serializations {ser:?}");
                match got {
                    Ok(_) => feasible += 1,
                    Err(_) => cyclic += 1,
                }
            }
        }
        assert!(
            feasible > 100 && cyclic > 100,
            "{feasible} feasible, {cyclic} cyclic calls"
        );
    }

    #[test]
    fn explicit_cycle_then_recovery() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut c = Circuit::new(20, 0);
        c.cx(10, 15).cx(11, 12).cx(10, 15);
        let mut timeline = Timeline::new(&c, &ctx);
        // 2 depends on 0; forcing 2 before 1 before 0 closes a cycle.
        assert_eq!(
            timeline.realize(&[(2, 1), (1, 0)]),
            Err(CoreError::CyclicConstraints)
        );
        // The buffers carry nothing over from the failed call.
        timeline.realize(&[(0, 1)]).unwrap();
        assert_eq!(Ok(timeline.slots().to_vec()), reference_realize(&c, &ctx, &[(0, 1)]));
    }

    #[test]
    fn slot_cost_matches_schedule_cost_on_reused_timeline() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut costed = 0;
        for circuit in circuits(&device) {
            // Serializing candidate pairs either way moves the two-qubit
            // overlaps between calls, so stale sweep results would show.
            let mut sets = vec![vec![]];
            for (i, j) in crate::XtalkSched::candidate_pairs(&circuit, &ctx)
                .into_iter()
                .take(4)
            {
                sets.push(vec![(i, j)]);
                sets.push(vec![(j, i)]);
            }
            let mut timeline = Timeline::new(&circuit, &ctx);
            for ser in &sets {
                timeline.realize(ser).unwrap();
                let sched = crate::realize(&circuit, &ctx, ser).unwrap();
                for omega in [0.0, 0.5, 1.0] {
                    let expected = crate::sched::schedule_cost(&sched, &ctx, omega);
                    assert_eq!(
                        timeline.cost(omega).to_bits(),
                        expected.to_bits(),
                        "{ser:?}"
                    );
                    costed += 1;
                }
            }
        }
        assert!(costed > 30, "only {costed} costs compared");
    }
}
