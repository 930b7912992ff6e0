//! The schedule timeline: what realizing and costing schedules of one
//! `(circuit, ctx)` needs, computed once, plus the buffers the work
//! reuses.
//!
//! A [`Timeline`] holds the gate durations and the base dependency edges
//! in compressed (CSR) arrays, and realizes a schedule into reused
//! buffers: a Kahn order over base plus serialization edges, ASAP times,
//! then right-aligned ALAP slots. [`crate::realize`],
//! [`crate::sched::schedule_cost`], ParSched, SerialSched and the SMT
//! engine's objective are one-shot uses of it.
//!
//! XtalkSched's search instead keeps its current node in an
//! [`Incremental`] timeline seeded from one realization: a branch pushes
//! one serialization edge and pops it, and only the instructions whose
//! times change are visited. The Eq. 17 cost runs on either through the
//! one [`CostModel`]; a [`ScheduledCircuit`] (and the circuit clone it
//! owns) is only built for the schedule returned.

use crate::context::CrosstalkTables;
use crate::{CoreError, SchedulerContext};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// ASAP start times.
    asap: Vec<u64>,
    /// ALAP (right-aligned) finish times.
    finish: Vec<u64>,
    makespan: u64,
    /// Serialization edges as per-source linked lists: `ser_head[i]`
    /// indexes `ser_to`/`ser_next`, ending at [`NIL`].
    ser_head: Vec<u32>,
    ser_next: Vec<u32>,
    ser_to: Vec<u32>,
    slots: Vec<ScheduleSlot>,
    /// Built on the first cost query.
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
            asap: vec![0; n],
            finish: vec![0; n],
            makespan: 0,
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
            asap,
            finish,
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
        asap.fill(0);
        order.clear();
        ready.clear();
        ready.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut makespan = 0;
        while let Some(i) = ready.pop() {
            let i = i as usize;
            order.push(i as u32);
            let finish = asap[i] + durations[i];
            makespan = makespan.max(finish);
            for j in succs(i) {
                asap[j] = asap[j].max(finish);
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
        // the latest finish of each instruction.
        for &i in order.iter().rev() {
            let i = i as usize;
            finish[i] = succs(i).fold(makespan, |lf, j| lf.min(finish[j] - durations[j]));
        }
        for (slot, (&f, &d)) in slots.iter_mut().zip(finish.iter().zip(durations.iter())) {
            *slot = ScheduleSlot::new(f - d, d);
        }
        self.makespan = makespan;
        Ok(())
    }

    /// The Eq. 17 cost of the last realized slots.
    pub(crate) fn cost(&mut self, omega: f64) -> f64 {
        let model = self
            .cost
            .get_or_insert_with(|| CostModel::new(self.circuit, self.ctx));
        let slots = &self.slots;
        model.cost(self.ctx.tables(), omega, |i| slots[i])
    }

    /// Base successors of instruction `i`.
    fn base_succs(&self, i: usize) -> &[u32] {
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// The last realized slots.
    #[cfg(test)]
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

/// The schedule of XtalkSched's current search node, kept incrementally
/// under pushed and popped serialization edges.
///
/// Each instruction `i` has a *head* (its ASAP start) and a *tail* (the
/// longest sum of durations along a path after `i` finishes). With
/// makespan `M = max(head + d)`, the right-aligned slot of `i` starts at
/// `M − tail[i] − d[i]`: exactly [`Timeline::solve`]'s ALAP slot, in
/// integers. Pushing `a → b` raises heads forward from `b` and tails
/// backward from `a` over base and serialization edges, visiting only the
/// instructions whose value changes; every change goes to an undo log, so
/// popping the edge restores heads, tails and `M`. The edge closes a
/// cycle iff the forward pass reaches `a`: around a cycle through
/// `a → b` the heads would have to grow by at least `d[a] > 0`.
pub(crate) struct Incremental<'t> {
    timeline: &'t Timeline<'t>,
    head: Vec<u64>,
    tail: Vec<u64>,
    makespan: u64,
    /// Base dependency edges reversed: the predecessors of `i` are
    /// `pred[pred_start[i]..pred_start[i + 1]]`.
    pred_start: Vec<u32>,
    pred: Vec<u32>,
    /// Pushed serialization edges `(a, b)`, a stack, threaded into
    /// per-instruction lists: out of `a` from `out_head[a]` through
    /// `out_next`, into `b` from `in_head[b]` through `in_next`.
    ser: Vec<(u32, u32)>,
    out_head: Vec<u32>,
    out_next: Vec<u32>,
    in_head: Vec<u32>,
    in_next: Vec<u32>,
    /// Undo logs of `(instruction, old value)`.
    head_log: Vec<(u32, u64)>,
    tail_log: Vec<(u32, u64)>,
    /// Per pushed edge: the log lengths and makespan before it.
    frames: Vec<(usize, usize, u64)>,
    /// Instructions whose raised value must still reach their neighbours,
    /// each queued at most once: the forward pass takes them in program
    /// order and the backward pass in reverse, the order base edges
    /// follow, so an instruction is rarely raised twice in one push.
    forward: BinaryHeap<Reverse<u32>>,
    backward: BinaryHeap<u32>,
    queued: Vec<bool>,
}

impl<'t> Incremental<'t> {
    /// Seeds the node state from `timeline`'s last realization, which must
    /// be the one without serializations.
    pub(crate) fn seed(timeline: &'t Timeline<'t>) -> Self {
        debug_assert!(timeline.ser_to.is_empty(), "seed from the unserialized realization");
        let n = timeline.durations.len();
        let mut pred_start = vec![0u32; n + 1];
        for &j in &timeline.succ {
            pred_start[j as usize + 1] += 1;
        }
        for i in 0..n {
            pred_start[i + 1] += pred_start[i];
        }
        let mut fill = pred_start.clone();
        let mut pred = vec![0u32; timeline.succ.len()];
        for i in 0..n {
            for &j in timeline.base_succs(i) {
                pred[fill[j as usize] as usize] = i as u32;
                fill[j as usize] += 1;
            }
        }
        let makespan = timeline.makespan;
        Incremental {
            timeline,
            head: timeline.asap.clone(),
            tail: timeline.finish.iter().map(|&f| makespan - f).collect(),
            makespan,
            pred_start,
            pred,
            ser: Vec::new(),
            out_head: vec![NIL; n],
            out_next: Vec::new(),
            in_head: vec![NIL; n],
            in_next: Vec::new(),
            head_log: Vec::new(),
            tail_log: Vec::new(),
            frames: Vec::new(),
            forward: BinaryHeap::new(),
            backward: BinaryHeap::new(),
            queued: vec![false; n],
        }
    }

    /// Serializes `b` after `a`. Returns `false`, changing nothing, if the
    /// edge closes a cycle.
    pub(crate) fn push(&mut self, a: usize, b: usize) -> bool {
        let timeline = self.timeline;
        let d = &timeline.durations;
        debug_assert!(d[a] > 0, "serializations join two-qubit gates");
        let frame = (self.head_log.len(), self.tail_log.len(), self.makespan);

        // Forward: heads from `b`, over base then serialization
        // successors.
        if self.head[a] + d[a] > self.head[b] {
            self.raise_head(b, self.head[a] + d[a]);
        }
        while let Some(Reverse(x)) = self.forward.pop() {
            let x = x as usize;
            self.queued[x] = false;
            let fx = self.head[x] + d[x];
            for &y in timeline.base_succs(x) {
                if fx > self.head[y as usize] {
                    if y as usize == a {
                        self.undo(frame);
                        return false;
                    }
                    self.raise_head(y as usize, fx);
                }
            }
            let mut e = self.out_head[x];
            while e != NIL {
                let y = self.ser[e as usize].1 as usize;
                if fx > self.head[y] {
                    if y == a {
                        self.undo(frame);
                        return false;
                    }
                    self.raise_head(y, fx);
                }
                e = self.out_next[e as usize];
            }
        }

        let e = self.ser.len() as u32;
        self.ser.push((a as u32, b as u32));
        self.out_next.push(std::mem::replace(&mut self.out_head[a], e));
        self.in_next.push(std::mem::replace(&mut self.in_head[b], e));

        // Backward: tails from `a`, over base then serialization
        // predecessors.
        if d[b] + self.tail[b] > self.tail[a] {
            self.raise_tail(a, d[b] + self.tail[b]);
        }
        while let Some(x) = self.backward.pop() {
            let x = x as usize;
            self.queued[x] = false;
            let tx = d[x] + self.tail[x];
            for k in self.pred_start[x]..self.pred_start[x + 1] {
                let p = self.pred[k as usize] as usize;
                if tx > self.tail[p] {
                    self.raise_tail(p, tx);
                }
            }
            let mut e = self.in_head[x];
            while e != NIL {
                let p = self.ser[e as usize].0 as usize;
                if tx > self.tail[p] {
                    self.raise_tail(p, tx);
                }
                e = self.in_next[e as usize];
            }
        }
        self.frames.push(frame);
        true
    }

    /// Removes the last pushed edge, restoring heads, tails and makespan.
    pub(crate) fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop follows a successful push");
        self.undo(frame);
        let (a, b) = self.ser.pop().expect("an edge per frame");
        self.out_head[a as usize] = self.out_next.pop().expect("one link per edge");
        self.in_head[b as usize] = self.in_next.pop().expect("one link per edge");
    }

    fn raise_head(&mut self, x: usize, value: u64) {
        self.head_log.push((x as u32, self.head[x]));
        self.head[x] = value;
        self.makespan = self.makespan.max(value + self.timeline.durations[x]);
        if !std::mem::replace(&mut self.queued[x], true) {
            self.forward.push(Reverse(x as u32));
        }
    }

    fn raise_tail(&mut self, x: usize, value: u64) {
        self.tail_log.push((x as u32, self.tail[x]));
        self.tail[x] = value;
        if !std::mem::replace(&mut self.queued[x], true) {
            self.backward.push(x as u32);
        }
    }

    /// Rolls heads, tails and makespan back to `frame`.
    fn undo(&mut self, (heads, tails, makespan): (usize, usize, u64)) {
        for (x, old) in self.head_log.drain(heads..).rev() {
            self.head[x as usize] = old;
        }
        for (x, old) in self.tail_log.drain(tails..).rev() {
            self.tail[x as usize] = old;
        }
        self.makespan = makespan;
        for Reverse(x) in self.forward.drain() {
            self.queued[x as usize] = false;
        }
    }

    /// Start and finish of instruction `i` at this node.
    pub(crate) fn span(&self, i: usize) -> (u64, u64) {
        let finish = self.makespan - self.tail[i];
        (finish - self.timeline.durations[i], finish)
    }

    /// The slot of instruction `i` at this node.
    pub(crate) fn slot(&self, i: usize) -> ScheduleSlot {
        let (start, _) = self.span(i);
        ScheduleSlot::new(start, self.timeline.durations[i])
    }

    /// Number of instructions.
    pub(crate) fn len(&self) -> usize {
        self.head.len()
    }

    /// Asserts that this node's slots are what a full realization of
    /// `serialized` gives.
    #[cfg(test)]
    pub(crate) fn assert_matches_solve(&self, serialized: &[(usize, usize)]) {
        let mut fresh = Timeline::new(self.timeline.circuit, self.timeline.ctx);
        fresh
            .solve(serialized)
            .expect("the search only keeps acyclic nodes");
        let slots: Vec<ScheduleSlot> = (0..self.len()).map(|i| self.slot(i)).collect();
        assert_eq!(
            slots,
            fresh.slots(),
            "incremental slots differ from a full solve under {serialized:?}"
        );
    }
}

/// What the Eq. 17 cost needs of one circuit — its two-qubit gates with
/// their edges and independent errors, the "hot" ones among them, and
/// each qubit's first and last operation — plus the sweep buffers.
///
/// A gate's error is the maximum of its independent error and the
/// conditional errors against the two-qubit gates it overlaps. Only a
/// pair whose conditional error exceeds the independent one, in either
/// direction, can raise it, so the overlap sweep runs over the hot gates
/// alone: those whose edge forms such a pair with some edge of the
/// circuit (both members of a raising pair are hot). Every other gate
/// keeps its independent error, bit for bit. On a valid schedule a
/// qubit's first operation in program order starts first and its last
/// finishes last, so a lifetime is two slot reads.
pub(crate) struct CostModel {
    /// Edge id of each two-qubit instruction (indexed by instruction).
    edge: Vec<u32>,
    /// Independent error of each two-qubit instruction's edge.
    independent: Vec<f64>,
    /// Hot two-qubit instructions in program order, with their position
    /// among the two-qubit gates.
    hot: Vec<(usize, usize)>,
    /// `ln ε` of each two-qubit gate in program order; the cold gates'
    /// entries never change.
    log_error: Vec<f64>,
    /// `(first, last, coherence)` per qubit with operations other than
    /// barriers, in qubit order.
    lifetimes: Vec<(usize, usize, f64)>,
    sweep: OverlapSweep,
    /// Slots of the hot gates being costed (indexed by instruction).
    slots: Vec<ScheduleSlot>,
    eps: Vec<f64>,
}

impl CostModel {
    pub(crate) fn new(circuit: &Circuit, ctx: &SchedulerContext) -> Self {
        let n = circuit.len();
        let tables = ctx.tables();
        let mut two_qubit = Vec::new();
        let mut edge = vec![0; n];
        let mut independent = vec![0.0; n];
        let mut ops: Vec<Option<(usize, usize)>> = vec![None; circuit.num_qubits()];
        for (i, ins) in circuit.iter().enumerate() {
            if ins.gate().is_two_qubit() {
                let id = ctx.edge_id(Edge::from(ins.edge().expect("two-qubit gate has an edge")));
                two_qubit.push(i);
                edge[i] = id;
                independent[i] = tables.independent(id);
            }
            if !ins.gate().is_barrier() {
                for q in ins.qubits() {
                    let span = &mut ops[q.index()];
                    *span = Some((span.map_or(i, |(first, _)| first), i));
                }
            }
        }

        let mut present: Vec<u32> = two_qubit.iter().map(|&i| edge[i]).collect();
        present.sort_unstable();
        present.dedup();
        let raises = |a: u32, b: u32| {
            tables.conditional(a, b) > tables.independent(a)
                || tables.conditional(b, a) > tables.independent(b)
        };
        let hot_edges: Vec<u32> = present
            .iter()
            .copied()
            .filter(|&a| present.iter().any(|&b| raises(a, b)))
            .collect();
        let hot = two_qubit
            .iter()
            .enumerate()
            .filter(|&(_, &i)| hot_edges.binary_search(&edge[i]).is_ok())
            .map(|(pos, &i)| (i, pos))
            .collect();
        CostModel {
            log_error: two_qubit
                .iter()
                .map(|&i| independent[i].max(1e-12).ln())
                .collect(),
            edge,
            independent,
            hot,
            lifetimes: ops
                .iter()
                .enumerate()
                .filter_map(|(q, span)| {
                    span.map(|(first, last)| (first, last, ctx.coherence_ns(q as u32)))
                })
                .collect(),
            sweep: OverlapSweep::default(),
            slots: vec![ScheduleSlot::default(); n],
            eps: vec![0.0; n],
        }
    }

    /// The paper's Eq. 17 objective of a valid schedule whose slots
    /// `slot` gives — the one implementation (see
    /// [`crate::sched::schedule_cost`]).
    pub(crate) fn cost(
        &mut self,
        tables: &CrosstalkTables,
        omega: f64,
        slot: impl Fn(usize) -> ScheduleSlot,
    ) -> f64 {
        // Gate error term: a gate's error is its independent error unless
        // it overlaps other two-qubit gates, then the maximum conditional
        // error over those partners.
        let CostModel {
            edge,
            independent,
            hot,
            log_error,
            sweep,
            slots,
            eps,
            ..
        } = self;
        for &(i, _) in hot.iter() {
            slots[i] = slot(i);
            eps[i] = independent[i];
        }
        sweep.run(hot.iter().map(|&(i, _)| i), slots, |i, j| {
            eps[i] = eps[i].max(tables.conditional(edge[i], edge[j]));
            eps[j] = eps[j].max(tables.conditional(edge[j], edge[i]));
        });
        for &(i, pos) in hot.iter() {
            log_error[pos] = eps[i].max(1e-12).ln();
        }
        let gate_term: f64 = log_error.iter().sum();

        // Decoherence term: each qubit's lifetime, from its first
        // operation's start to its last one's finish.
        let mut deco = 0.0;
        for &(first, last, coherence) in &self.lifetimes {
            let t = slot(last).finish() - slot(first).start;
            if t > 0 {
                deco += t as f64 / coherence;
            }
        }

        omega * gate_term + (1.0 - omega) * deco
    }

    /// Hot two-qubit instructions, in program order.
    #[cfg(test)]
    pub(crate) fn hot(&self) -> Vec<usize> {
        self.hot.iter().map(|&(i, _)| i).collect()
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
