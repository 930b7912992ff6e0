//! `XtalkSched`: the crosstalk-adaptive scheduler (paper Sections 6–7).

use crate::sched::{check_hardware_compliant, Scheduler};
use crate::timeline::{CostModel, Incremental, Timeline};
use crate::{CoreError, SchedulerContext};
use std::cell::RefCell;
use std::cmp::Ordering;
use xtalk_budget::Budget;
use xtalk_device::Edge;
use xtalk_ir::{Circuit, ScheduledCircuit};

/// The crosstalk-adaptive scheduler: decides, for every pair of
/// potentially-overlapping high-crosstalk CNOTs, whether to serialize
/// them (and in which order) or let them overlap, minimizing the
/// ω-weighted objective of Eq. 17.
///
/// Two engines are provided:
///
/// * [`XtalkSched::schedule`] — a lazy conflict-driven branch-and-bound:
///   realize the schedule, find an *actually overlapping* high-crosstalk
///   pair, branch three ways (serialize either way, or waive), recurse.
///   Only pairs that really conflict are branched on, so large circuits
///   with few hot spots stay cheap; a leaf budget makes it anytime.
/// * [`XtalkSched::schedule_via_smt`] — the same decision space encoded
///   eagerly into the [`xtalk_smt`] optimizer (one boolean per
///   serialization direction, guarded difference constraints), mirroring
///   the paper's Z3 formulation. Exponential in candidate pairs; used to
///   cross-validate the lazy engine on small instances. The
///   [`Scheduler`] impl always runs the lazy engine.
///
/// `ω = 0` considers only decoherence (≈ `ParSched`); `ω = 1` only
/// crosstalk (serializes every interfering pair, ≈ `SerialSched` on
/// crosstalk-dominated circuits).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct XtalkSched {
    omega: f64,
    max_leaves: u64,
    ordering: OrderingPolicy,
}

/// How serialization *order* is decided when a pair must be serialized.
///
/// The paper's Figure 6 shows the order matters: putting SWAP 5,10 after
/// SWAP 11,12 keeps the low-coherence qubit 10's lifetime short.
/// [`OrderingPolicy::Optimal`] searches both orders;
/// [`OrderingPolicy::ProgramOrder`] is the degraded baseline that always
/// keeps the earlier instruction first (used by the ordering ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OrderingPolicy {
    /// Branch on both orders and keep the cheaper (the paper's behaviour).
    #[default]
    Optimal,
    /// Always serialize in program order (ablation baseline).
    ProgramOrder,
}

/// Diagnostics from a scheduling run.
#[derive(Clone, PartialEq, Debug)]
pub struct XtalkSchedReport {
    /// Objective value of the chosen schedule.
    pub cost: f64,
    /// Leaves (complete schedules) evaluated.
    pub leaves: u64,
    /// The serialization decisions taken, as instruction-index pairs
    /// `(first, second)`.
    pub serializations: Vec<(usize, usize)>,
    /// Number of candidate high-crosstalk gate pairs considered.
    pub candidate_pairs: usize,
    /// `true` iff the decision space was exhausted. `false` means the
    /// leaf cap or an execution [`Budget`] truncated the search and the
    /// schedule is best-so-far, not proven optimal.
    pub complete: bool,
    /// `true` iff no feasible leaf was reached before truncation and the
    /// schedule fell back to the unserialized (`ParSched`-equivalent)
    /// realization.
    pub fallback: bool,
}

impl XtalkSched {
    /// Creates the scheduler with crosstalk weight `omega ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `[0, 1]`.
    pub fn new(omega: f64) -> Self {
        assert!((0.0..=1.0).contains(&omega), "omega must be in [0, 1], got {omega}");
        XtalkSched {
            omega,
            max_leaves: 100_000,
            ordering: OrderingPolicy::Optimal,
        }
    }

    /// Selects the serialization-ordering policy (see [`OrderingPolicy`]).
    pub fn with_ordering(mut self, ordering: OrderingPolicy) -> Self {
        self.ordering = ordering;
        self
    }

    /// Overrides the anytime leaf budget.
    pub fn with_max_leaves(mut self, max_leaves: u64) -> Self {
        assert!(max_leaves > 0, "need at least one leaf");
        self.max_leaves = max_leaves;
        self
    }

    /// The crosstalk weight factor.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Candidate high-crosstalk pairs: unordered pairs of two-qubit
    /// instructions that may overlap (neither depends on the other) and
    /// whose edges interfere above the context threshold — the pruned
    /// `CanOlp` sets of the paper. Pairs are `(i, j)` with `i < j`, sorted.
    pub fn candidate_pairs(circuit: &Circuit, ctx: &SchedulerContext) -> Vec<(usize, usize)> {
        // Two-qubit gates bucketed by edge, buckets in order of first use;
        // only the buckets of high edge pairs are paired up.
        let model = ctx.model();
        let mut bucket_of = vec![usize::MAX; model.num_edges()];
        let mut buckets: Vec<(Edge, u32, Vec<usize>)> = Vec::new();
        for (i, ins) in circuit.iter().enumerate() {
            if ins.gate().is_two_qubit() {
                let e = Edge::from(ins.edge().expect("two-qubit gate has an edge"));
                let id = ctx.edge_id(e);
                if bucket_of[id as usize] == usize::MAX {
                    bucket_of[id as usize] = buckets.len();
                    buckets.push((e, id, Vec::new()));
                }
                buckets[bucket_of[id as usize]].2.push(i);
            }
        }
        let mut paired = Vec::new();
        for (x, (ea, a, _)) in buckets.iter().enumerate() {
            for &b in model.high_partners(*a) {
                let y = bucket_of[b as usize];
                if y != usize::MAX && y > x && !ea.shares_qubit(buckets[y].0) {
                    paired.push((x, y));
                }
            }
        }
        if paired.is_empty() {
            return Vec::new();
        }

        // The gates of paired buckets are the members, numbered in program
        // order; each instruction gets the bitset of the members it
        // depends on, in one program-order pass along the qubits.
        const NIL: u32 = u32::MAX;
        let mut member = vec![NIL; circuit.len()];
        for &(x, y) in &paired {
            for &i in buckets[x].2.iter().chain(&buckets[y].2) {
                member[i] = 0;
            }
        }
        let (mut members, mut last_member) = (0u32, 0);
        for (i, m) in member.iter_mut().enumerate() {
            if *m != NIL {
                *m = members;
                members += 1;
                last_member = i;
            }
        }
        let words = (members as usize).div_ceil(64);
        let mut ancestors = vec![0u64; (last_member + 1) * words];
        let mut last_on_qubit = vec![NIL; circuit.num_qubits()];
        for (i, ins) in circuit.iter().enumerate().take(last_member + 1) {
            let (done, rest) = ancestors.split_at_mut(i * words);
            let set = &mut rest[..words];
            for q in ins.qubits() {
                let p = std::mem::replace(&mut last_on_qubit[q.index()], i as u32);
                if p == NIL {
                    continue;
                }
                let p = p as usize;
                for (w, &v) in set.iter_mut().zip(&done[p * words..(p + 1) * words]) {
                    *w |= v;
                }
                if member[p] != NIL {
                    set[member[p] as usize / 64] |= 1 << (member[p] % 64);
                }
            }
        }
        let depends = |later: usize, earlier: usize| {
            let m = member[earlier] as usize;
            ancestors[later * words + m / 64] >> (m % 64) & 1 == 1
        };

        let mut out = Vec::new();
        for (x, y) in paired {
            for &i in &buckets[x].2 {
                for &j in &buckets[y].2 {
                    let pair = (i.min(j), i.max(j));
                    if !depends(pair.1, pair.0) {
                        out.push(pair);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Schedules and returns diagnostics alongside the schedule.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    pub fn schedule_with_report(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
    ) -> Result<(ScheduledCircuit, XtalkSchedReport), CoreError> {
        self.schedule_budgeted(circuit, ctx, &Budget::unlimited())
    }

    /// Schedules under a cooperative [`Budget`], polled at every branch
    /// point of the lazy search. On exhaustion the best schedule found so
    /// far is returned with `report.complete == false`; if no feasible
    /// leaf was reached at all, the unserialized (`ParSched`-equivalent)
    /// realization is returned with `report.fallback == true` instead of
    /// failing the request.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    pub fn schedule_budgeted(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
        budget: &Budget,
    ) -> Result<(ScheduledCircuit, XtalkSchedReport), CoreError> {
        let _span = xtalk_obs::span("sched.xtalk");
        check_hardware_compliant(circuit, ctx)?;
        let candidates = Self::candidate_pairs(circuit, ctx);
        let model = ctx.model();
        let edge_of =
            |i: usize| ctx.edge_id(Edge::from(circuit.instructions()[i].edge().expect("edge")));
        let severity = candidates
            .iter()
            .map(|&(i, j)| {
                let (a, b) = (edge_of(i), edge_of(j));
                model.conditional(a, b).max(model.conditional(b, a))
            })
            .collect();

        // The search's one realization seeds its node state, kept for the
        // instructions the search reads: the candidates and the cost's.
        let mut timeline = Timeline::new(circuit, ctx);
        timeline.realize(&[])?;
        let cost = CostModel::new(circuit, ctx);
        let key = candidates.iter().flat_map(|&(i, j)| [i, j]).chain(cost.reads());
        let mut search = Search {
            nodes: Incremental::seed(&timeline, key),
            cost,
            omega: self.omega,
            candidates: &candidates,
            severity,
            waived: vec![false; candidates.len()],
            best: None,
            evaluated: 0,
            leaves: 0,
            max_leaves: self.max_leaves,
            ordering: self.ordering,
            budget,
            truncated: false,
            #[cfg(test)]
            input: (circuit, ctx),
        };
        search.enter(&mut Vec::new(), None);

        xtalk_obs::counter!("sched.xtalk.leaves", search.leaves);
        xtalk_obs::counter!("sched.xtalk.nodes", search.evaluated);
        xtalk_obs::counter!("sched.xtalk.candidate_pairs", candidates.len() as u64);
        if search.truncated {
            xtalk_obs::counter!("sched.xtalk.truncated", 1);
        }
        let (leaves, complete) = (search.leaves, !search.truncated);
        let report = |cost, serializations, fallback| XtalkSchedReport {
            cost,
            leaves,
            serializations,
            candidate_pairs: candidates.len(),
            complete,
            fallback,
        };
        match search.best.take() {
            // The search kept the key instructions' slots alone: one
            // realization of the best serializations gives them all (the
            // timeline still holds the root's).
            Some((cost, serializations)) => {
                if !serializations.is_empty() {
                    timeline
                        .solve(&serializations)
                        .expect("the search keeps only acyclic nodes");
                }
                Ok((timeline.into_schedule(), report(cost, serializations, false)))
            }
            // Truncated before any feasible leaf: fall back to the plain
            // ASAP realization (what ParSched would emit), the search's
            // root and the timeline's seed, rather than erroring — an
            // honest best-effort answer under the budget.
            None if !complete => {
                xtalk_obs::counter!("sched.xtalk.fallback", 1);
                let report = report(search.node_cost(), Vec::new(), true);
                Ok((timeline.into_schedule(), report))
            }
            None => Err(CoreError::CyclicConstraints),
        }
    }

    /// The eager SMT-style formulation: one boolean per serialization
    /// direction with guarded difference constraints, minimized by
    /// [`xtalk_smt::Optimizer`]. Exponential in the number of candidate
    /// pairs — use for small circuits and cross-validation.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    pub fn schedule_via_smt(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
    ) -> Result<(ScheduledCircuit, XtalkSchedReport), CoreError> {
        let _span = xtalk_obs::span("sched.xtalk_smt");
        check_hardware_compliant(circuit, ctx)?;
        let candidates = Self::candidate_pairs(circuit, ctx);

        let durations: Vec<i64> = circuit
            .iter()
            .map(|ins| ctx.duration_of(ins.gate(), ins.qubits()) as i64)
            .collect();
        let dag = circuit.dag();

        let mut model = xtalk_smt::Model::new();
        let tau: Vec<xtalk_smt::RealVar> =
            (0..circuit.len()).map(|_| model.real_var()).collect();
        for j in 0..circuit.len() {
            for &i in dag.predecessors(j) {
                model.require(model.ge_diff(tau[j], tau[i], durations[i]));
            }
        }
        let mut pair_bools = Vec::new();
        for &(i, j) in &candidates {
            let bij = model.bool_var();
            let bji = model.bool_var();
            model.guard(bij, model.ge_diff(tau[j], tau[i], durations[i]));
            model.guard(bji, model.ge_diff(tau[i], tau[j], durations[j]));
            model.at_most_one(vec![bij, bji]);
            pair_bools.push(((i, j), bij, bji));
        }

        type PairBool = ((usize, usize), xtalk_smt::BoolVar, xtalk_smt::BoolVar);
        struct CostObj<'a> {
            timeline: RefCell<Timeline<'a>>,
            omega: f64,
            pair_bools: &'a [PairBool],
        }
        impl CostObj<'_> {
            fn serializations(&self, bools: &[bool]) -> Vec<(usize, usize)> {
                let mut out = Vec::new();
                for &((i, j), bij, bji) in self.pair_bools {
                    if bools[bij.index()] {
                        out.push((i, j));
                    } else if bools[bji.index()] {
                        out.push((j, i));
                    }
                }
                out
            }
        }
        impl xtalk_smt::Objective for CostObj<'_> {
            fn evaluate(&self, bools: &[bool], _times: &[i64]) -> f64 {
                let mut timeline = self.timeline.borrow_mut();
                match timeline.realize(&self.serializations(bools)) {
                    Ok(()) => timeline.cost(self.omega),
                    Err(_) => f64::INFINITY,
                }
            }
        }

        let obj = CostObj {
            timeline: RefCell::new(Timeline::new(circuit, ctx)),
            omega: self.omega,
            pair_bools: &pair_bools,
        };
        // Only the optimizer's leaf cap can truncate the search, and
        // `outcome.complete` reports it.
        let (sol, outcome) = xtalk_smt::Optimizer::new(model).minimize(&obj);
        let sol = sol.ok_or(CoreError::CyclicConstraints)?;
        let serializations = obj.serializations(&sol.bools);
        let mut timeline = obj.timeline.into_inner();
        timeline.realize(&serializations)?;
        let report = XtalkSchedReport {
            cost: sol.cost,
            leaves: sol.leaves,
            serializations,
            candidate_pairs: candidates.len(),
            complete: outcome.complete,
            fallback: false,
        };
        Ok((timeline.into_schedule(), report))
    }
}

impl Scheduler for XtalkSched {
    fn schedule(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
    ) -> Result<ScheduledCircuit, CoreError> {
        self.schedule_with_report(circuit, ctx).map(|(s, _)| s)
    }

    fn name(&self) -> &'static str {
        "XtalkSched"
    }

    fn fingerprint(&self, h: &mut xtalk_pass::Fnv1a) {
        h.write_str(self.name());
        h.write_f64(self.omega);
        h.write_u64(self.max_leaves);
        h.write_u8(match self.ordering {
            OrderingPolicy::Optimal => 0,
            OrderingPolicy::ProgramOrder => 1,
        });
    }

    fn schedule_report(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
        budget: &Budget,
    ) -> Result<(ScheduledCircuit, Option<XtalkSchedReport>), CoreError> {
        let (sched, report) = self.schedule_budgeted(circuit, ctx, budget)?;
        Ok((sched, Some(report)))
    }
}

struct Search<'a> {
    /// The current node's schedule, for the instructions the search reads.
    nodes: Incremental,
    /// Costs each leaf off the node's slots.
    cost: CostModel,
    omega: f64,
    /// Sorted candidate pairs, with their severities — the worst
    /// conditional error the scheduler believes the overlap causes — and
    /// whether the current branch waived them.
    candidates: &'a [(usize, usize)],
    severity: Vec<f64>,
    waived: Vec<bool>,
    /// `(cost, serializations)` of the incumbent best solution.
    best: Option<(f64, Vec<(usize, usize)>)>,
    /// Nodes whose conflicts were scanned, leaves included.
    evaluated: u64,
    leaves: u64,
    max_leaves: u64,
    ordering: OrderingPolicy,
    budget: &'a Budget,
    truncated: bool,
    /// What every node is checked against a full realization of.
    #[cfg(test)]
    input: (&'a Circuit, &'a SchedulerContext),
}

/// Where a conflicting pair sits: `(start, index)` of its later member,
/// then of its earlier one.
type ConflictPosition = ((u64, usize), (u64, usize));

impl Search<'_> {
    /// The most severe *actual* conflict at the current node not yet
    /// decided, as a candidate index. Among equally severe ones, the
    /// greatest [`ConflictPosition`]: the last one an overlap sweep in
    /// `(start, index)` order reports.
    fn conflict(&self) -> Option<usize> {
        let mut worst: Option<(usize, ConflictPosition)> = None;
        for (k, &(i, j)) in self.candidates.iter().enumerate() {
            if self.waived[k] {
                continue;
            }
            let ((si, fi), (sj, fj)) = (self.nodes.span(i), self.nodes.span(j));
            if si >= fj || sj >= fi {
                continue;
            }
            // `i < j`, so `(si, i)` comes first iff `si <= sj`.
            let position = if si <= sj {
                ((sj, j), (si, i))
            } else {
                ((si, i), (sj, j))
            };
            let worse = worst.is_none_or(|(w, worst_position)| {
                match self.severity[k].total_cmp(&self.severity[w]) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => position > worst_position,
                }
            });
            if worse {
                worst = Some((k, position));
            }
        }
        worst.map(|(k, _)| k)
    }

    /// The Eq. 17 cost of the current node.
    fn node_cost(&mut self) -> f64 {
        let nodes = &self.nodes;
        self.cost.cost(self.omega, |i| nodes.slot(i))
    }

    /// Enters a child node: the current node plus `edge`, if any.
    fn enter(&mut self, serialized: &mut Vec<(usize, usize)>, edge: Option<(usize, usize)>) {
        // Entering a branch with the leaf cap spent or the budget gone
        // leaves part of the space unexplored: flag the truncation.
        if self.leaves >= self.max_leaves || self.budget.exhausted().is_some() {
            self.truncated = true;
            return;
        }
        let Some((a, b)) = edge else {
            return self.evaluate(serialized);
        };
        if !self.nodes.push(a, b) {
            return; // cyclic serializations: dead branch
        }
        serialized.push((a, b));
        self.evaluate(serialized);
        serialized.pop();
        self.nodes.pop();
    }

    fn evaluate(&mut self, serialized: &mut Vec<(usize, usize)>) {
        self.evaluated += 1;
        #[cfg(test)]
        self.nodes.assert_matches_solve(self.input.0, self.input.1, serialized);
        match self.conflict() {
            None => {
                self.leaves += 1;
                self.budget.charge(1);
                let cost = self.node_cost();
                if self.best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    self.best = Some((cost, serialized.clone()));
                }
            }
            Some(k) => {
                let (i, j) = self.candidates[k];
                let orders: &[(usize, usize)] = match self.ordering {
                    OrderingPolicy::Optimal => &[(i, j), (j, i)],
                    // (i, j) is normalized with i < j, i.e. program order.
                    OrderingPolicy::ProgramOrder => &[(i, j)],
                };
                for &order in orders {
                    self.enter(serialized, Some(order));
                }
                self.waived[k] = true;
                self.enter(serialized, None);
                self.waived[k] = false;
            }
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::schedule_cost;
    use crate::{ParSched, SerialSched};
    use xtalk_device::Device;

    /// Two interleaved CNOT chains crossing the Poughkeepsie 11x hot
    /// spot: gates on (10,15) and (11,12) can run in parallel.
    fn hot_circuit() -> Circuit {
        let mut c = Circuit::new(20, 4);
        for _ in 0..3 {
            c.cx(10, 15).cx(11, 12);
        }
        c.measure(10, 0).measure(15, 1).measure(11, 2).measure(12, 3);
        c
    }

    fn pough_ctx() -> SchedulerContext {
        SchedulerContext::from_ground_truth(&Device::poughkeepsie(1))
    }

    #[test]
    fn candidates_found_on_hot_pairs_only() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let cands = XtalkSched::candidate_pairs(&c, &ctx);
        // 3 gates on each edge → 9 cross pairs.
        assert_eq!(cands.len(), 9);

        let mut cold = Circuit::new(20, 0);
        cold.cx(0, 1).cx(2, 3);
        assert!(XtalkSched::candidate_pairs(&cold, &ctx).is_empty());
    }

    #[test]
    fn beats_both_baselines_on_objective() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let omega = 0.5;
        let (sched, report) = XtalkSched::new(omega).schedule_with_report(&c, &ctx).unwrap();
        let par = ParSched::new().schedule(&c, &ctx).unwrap();
        let ser = SerialSched::new().schedule(&c, &ctx).unwrap();
        assert!(report.cost <= schedule_cost(&par, &ctx, omega) + 1e-9);
        assert!(report.cost <= schedule_cost(&ser, &ctx, omega) + 1e-9);
        // It actually serialized something.
        assert!(!report.serializations.is_empty());
        sched.validate().unwrap();
    }

    #[test]
    fn omega_one_eliminates_hot_overlaps() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let (sched, _) = XtalkSched::new(1.0).schedule_with_report(&c, &ctx).unwrap();
        for (i, j) in sched.overlapping_two_qubit_pairs() {
            let p = if i < j { (i, j) } else { (j, i) };
            assert!(
                !XtalkSched::candidate_pairs(&c, &ctx).contains(&p),
                "high pair {p:?} still overlaps at ω=1"
            );
        }
    }

    #[test]
    fn omega_zero_costs_no_more_than_parsched() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let (_, report) = XtalkSched::new(0.0).schedule_with_report(&c, &ctx).unwrap();
        let par = ParSched::new().schedule(&c, &ctx).unwrap();
        assert!(report.cost <= schedule_cost(&par, &ctx, 0.0) + 1e-9);
    }

    #[test]
    fn lazy_and_smt_engines_agree() {
        let ctx = pough_ctx();
        // Small instance: one gate on each hot edge.
        let mut c = Circuit::new(20, 0);
        c.cx(10, 15).cx(11, 12).cx(13, 14).cx(18, 19);
        for omega in [0.2, 0.5, 0.8] {
            let s = XtalkSched::new(omega);
            let (_, lazy) = s.schedule_with_report(&c, &ctx).unwrap();
            let (_, smt) = s.schedule_via_smt(&c, &ctx).unwrap();
            assert!(
                (lazy.cost - smt.cost).abs() < 1e-9,
                "ω={omega}: lazy {} vs smt {}",
                lazy.cost,
                smt.cost
            );
        }
    }

    #[test]
    fn no_candidates_means_parsched_equivalent() {
        let dev = Device::line(6, 2);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let mut c = Circuit::new(6, 0);
        c.cx(0, 1).cx(2, 3).cx(4, 5);
        let (sched, report) = XtalkSched::new(0.5).schedule_with_report(&c, &ctx).unwrap();
        assert_eq!(report.candidate_pairs, 0);
        assert_eq!(report.leaves, 1);
        let par = ParSched::new().schedule(&c, &ctx).unwrap();
        assert_eq!(sched, par);
    }

    #[test]
    #[should_panic(expected = "omega must be in")]
    fn omega_range_checked() {
        XtalkSched::new(1.5);
    }

    #[test]
    fn optimal_ordering_beats_program_order_on_fig6_case() {
        // The Figure 6 insight: serializing SWAP 5,10 *after* SWAP 11,12
        // spares low-coherence qubit 10. Program-order serialization
        // cannot express that and must cost at least as much.
        let ctx = pough_ctx();
        let bench =
            crate::routing::swap_benchmark(&xtalk_device::Topology::poughkeepsie(), 0, 13)
                .unwrap();
        let omega = 0.5;
        let (_, optimal) =
            XtalkSched::new(omega).schedule_with_report(&bench.circuit, &ctx).unwrap();
        let (_, fixed) = XtalkSched::new(omega)
            .with_ordering(OrderingPolicy::ProgramOrder)
            .schedule_with_report(&bench.circuit, &ctx)
            .unwrap();
        assert!(
            optimal.cost <= fixed.cost + 1e-9,
            "optimal {} vs program-order {}",
            optimal.cost,
            fixed.cost
        );
        // On this specific path the ordering genuinely matters.
        assert!(
            optimal.cost < fixed.cost - 1e-6,
            "ordering should strictly help here: {} vs {}",
            optimal.cost,
            fixed.cost
        );
        // And it explores no more than twice the leaves.
        assert!(fixed.leaves <= optimal.leaves);
    }

    #[test]
    fn anytime_budget_respected() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let (_, report) =
            XtalkSched::new(0.5).with_max_leaves(3).schedule_with_report(&c, &ctx).unwrap();
        assert!(report.leaves <= 3);
        assert!(!report.complete, "leaf-capped search must be flagged incomplete");
        assert!(!report.fallback, "a feasible leaf was reached");
    }

    #[test]
    fn full_search_is_flagged_complete() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let (_, report) = XtalkSched::new(0.5).schedule_with_report(&c, &ctx).unwrap();
        assert!(report.complete);
        assert!(!report.fallback);
        let (_, smt) = XtalkSched::new(0.5).schedule_via_smt(
            &{
                let mut small = Circuit::new(20, 0);
                small.cx(10, 15).cx(11, 12);
                small
            },
            &ctx,
        )
        .unwrap();
        assert!(smt.complete);
    }

    #[test]
    fn cancelled_budget_falls_back_to_parsched_equivalent() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let (sched, report) =
            XtalkSched::new(0.5).schedule_budgeted(&c, &ctx, &budget).unwrap();
        assert!(!report.complete);
        assert!(report.fallback, "no leaf reached: must fall back");
        assert_eq!(report.leaves, 0);
        assert!(report.serializations.is_empty());
        // The fallback is exactly the unserialized ASAP schedule.
        let par = ParSched::new().schedule(&c, &ctx).unwrap();
        assert_eq!(sched, par);
        sched.validate().unwrap();
    }

    #[test]
    fn quota_budget_truncates_lazy_search() {
        let ctx = pough_ctx();
        let c = hot_circuit();
        let budget = Budget::unlimited().with_quota(2);
        let (sched, report) =
            XtalkSched::new(0.5).schedule_budgeted(&c, &ctx, &budget).unwrap();
        assert!(!report.complete);
        assert!(!report.fallback);
        assert!(report.leaves <= 2);
        sched.validate().unwrap();
    }
}
