//! The search as it was before incremental nodes, kept as the reference
//! the incremental search must match decision for decision and bit for
//! bit: a full realization per node, conflicts from an overlap sweep of
//! every two-qubit gate, the Eq. 17 cost through the characterization's
//! maps, and `candidate_pairs` over all pairs of two-qubit gates.

use super::{OrderingPolicy, XtalkSched, XtalkSchedReport};
use crate::bench_circuits::supremacy_circuit;
use crate::context::fixtures::{devices, measured};
use crate::routing::{endpoint_pairs_by_crosstalk, swap_benchmark};
use crate::sched::check_hardware_compliant;
use crate::timeline::{CostModel, Timeline};
use crate::{CoreError, SchedulerContext};
use std::cmp::Ordering;
use xtalk_budget::Budget;
use xtalk_charac::Characterization;
use xtalk_device::{Device, Edge, Topology};
use xtalk_ir::{Circuit, OverlapSweep, ScheduleSlot};

fn edge_of(circuit: &Circuit, i: usize) -> Edge {
    Edge::from(circuit.instructions()[i].edge().expect("edge"))
}

fn two_qubit(circuit: &Circuit) -> Vec<usize> {
    circuit
        .iter()
        .enumerate()
        .filter(|(_, ins)| ins.gate().is_two_qubit())
        .map(|(i, _)| i)
        .collect()
}

/// `candidate_pairs` before edge buckets: every pair of two-qubit gates.
fn reference_candidate_pairs(circuit: &Circuit, ctx: &SchedulerContext) -> Vec<(usize, usize)> {
    let dag = circuit.dag();
    let twoq = two_qubit(circuit);
    let mut out = Vec::new();
    for (a, &i) in twoq.iter().enumerate() {
        let ei = edge_of(circuit, i);
        for &j in &twoq[a + 1..] {
            let ej = edge_of(circuit, j);
            if !ei.shares_qubit(ej) && dag.can_overlap(i, j) && ctx.is_high_pair(ei, ej) {
                out.push((i, j));
            }
        }
    }
    out
}

/// The Eq. 17 cost before hot gates and edge ids: every overlapping
/// two-qubit pair through the characterization's maps, lifetimes as the
/// minimum start and maximum finish over each qubit's operations.
fn reference_cost(
    circuit: &Circuit,
    ctx: &SchedulerContext,
    ch: &Characterization,
    slots: &[ScheduleSlot],
    omega: f64,
) -> f64 {
    let twoq = two_qubit(circuit);
    let mut eps = vec![0.0f64; circuit.len()];
    for &i in &twoq {
        eps[i] = ch.independent(edge_of(circuit, i));
    }
    OverlapSweep::default().run(twoq.iter().copied(), slots, |i, j| {
        let (ei, ej) = (edge_of(circuit, i), edge_of(circuit, j));
        eps[i] = eps[i].max(ch.conditional_or_independent(ei, ej));
        eps[j] = eps[j].max(ch.conditional_or_independent(ej, ei));
    });
    let gate_term: f64 = twoq.iter().map(|&i| eps[i].max(1e-12).ln()).sum();
    let mut deco = 0.0;
    for q in 0..circuit.num_qubits() {
        let ops: Vec<usize> = circuit
            .iter()
            .enumerate()
            .filter(|(_, ins)| {
                !ins.gate().is_barrier() && ins.qubits().iter().any(|x| x.index() == q)
            })
            .map(|(i, _)| i)
            .collect();
        let Some(first) = ops.iter().map(|&i| slots[i].start).min() else {
            continue;
        };
        let last = ops
            .iter()
            .map(|&i| slots[i].finish())
            .max()
            .unwrap_or(first);
        let t = last - first;
        if t > 0 {
            deco += t as f64 / ctx.coherence_ns(q as u32);
        }
    }
    omega * gate_term + (1.0 - omega) * deco
}

struct ReferenceSearch<'a> {
    circuit: &'a Circuit,
    ctx: &'a SchedulerContext,
    ch: &'a Characterization,
    timeline: Timeline<'a>,
    two_qubit: Vec<usize>,
    omega: f64,
    candidates: &'a [(usize, usize)],
    severity: Vec<f64>,
    waived: Vec<bool>,
    best: Option<(f64, Vec<(usize, usize)>)>,
    best_slots: Vec<ScheduleSlot>,
    leaves: u64,
    max_leaves: u64,
    ordering: OrderingPolicy,
    budget: &'a Budget,
    truncated: bool,
}

impl ReferenceSearch<'_> {
    /// The last of the equally most severe undecided candidate pairs in
    /// overlap-sweep order.
    fn conflict(&mut self) -> Option<usize> {
        let mut overlaps = Vec::new();
        OverlapSweep::default().run(
            self.two_qubit.iter().copied(),
            self.timeline.slots(),
            |i, j| overlaps.push((i, j)),
        );
        let mut worst: Option<usize> = None;
        for (i, j) in overlaps {
            let pair = if i < j { (i, j) } else { (j, i) };
            let Ok(k) = self.candidates.binary_search(&pair) else {
                continue;
            };
            let at_least_worst =
                |w: usize| self.severity[w].total_cmp(&self.severity[k]) != Ordering::Greater;
            if !self.waived[k] && worst.is_none_or(at_least_worst) {
                worst = Some(k);
            }
        }
        worst
    }

    fn recurse(&mut self, serialized: &mut Vec<(usize, usize)>) {
        if self.leaves >= self.max_leaves || self.budget.exhausted().is_some() {
            self.truncated = true;
            return;
        }
        if self.timeline.solve(serialized).is_err() {
            return;
        }
        match self.conflict() {
            None => {
                self.leaves += 1;
                self.budget.charge(1);
                let slots = self.timeline.slots();
                let cost = reference_cost(self.circuit, self.ctx, self.ch, slots, self.omega);
                if self.best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    self.best = Some((cost, serialized.clone()));
                    self.best_slots = slots.to_vec();
                }
            }
            Some(k) => {
                let (i, j) = self.candidates[k];
                let orders: &[(usize, usize)] = match self.ordering {
                    OrderingPolicy::Optimal => &[(i, j), (j, i)],
                    OrderingPolicy::ProgramOrder => &[(i, j)],
                };
                for &order in orders {
                    serialized.push(order);
                    self.recurse(serialized);
                    serialized.pop();
                }
                self.waived[k] = true;
                self.recurse(serialized);
                self.waived[k] = false;
            }
        }
    }
}

/// `XtalkSched::schedule_budgeted` as it was before incremental nodes:
/// the slots it returns and its report, with `ctx` built from `ch`.
fn reference_schedule(
    sched: &XtalkSched,
    circuit: &Circuit,
    ctx: &SchedulerContext,
    ch: &Characterization,
    budget: &Budget,
) -> Result<(Vec<ScheduleSlot>, XtalkSchedReport), CoreError> {
    check_hardware_compliant(circuit, ctx)?;
    let candidates = reference_candidate_pairs(circuit, ctx);
    let severity = candidates
        .iter()
        .map(|&(i, j)| {
            let (ei, ej) = (edge_of(circuit, i), edge_of(circuit, j));
            ch.conditional_or_independent(ei, ej)
                .max(ch.conditional_or_independent(ej, ei))
        })
        .collect();
    let mut search = ReferenceSearch {
        circuit,
        ctx,
        ch,
        timeline: Timeline::new(circuit, ctx),
        two_qubit: two_qubit(circuit),
        omega: sched.omega,
        candidates: &candidates,
        severity,
        waived: vec![false; candidates.len()],
        best: None,
        best_slots: Vec::new(),
        leaves: 0,
        max_leaves: sched.max_leaves,
        ordering: sched.ordering,
        budget,
        truncated: false,
    };
    search.recurse(&mut Vec::new());
    let (leaves, complete) = (search.leaves, !search.truncated);
    let report = |cost, serializations, fallback| XtalkSchedReport {
        cost,
        leaves,
        serializations,
        candidate_pairs: candidates.len(),
        complete,
        fallback,
    };
    match search.best {
        Some((cost, serializations)) => {
            Ok((search.best_slots, report(cost, serializations, false)))
        }
        None if !complete => {
            search.timeline.solve(&[])?;
            let slots = search.timeline.slots().to_vec();
            let cost = reference_cost(circuit, ctx, ch, &slots, sched.omega);
            Ok((slots, report(cost, Vec::new(), true)))
        }
        None => Err(CoreError::CyclicConstraints),
    }
}

/// The device's calibrated independent rates and no conditional ones.
fn independent_only(device: &Device) -> Characterization {
    let mut c = Characterization::new();
    for &e in device.topology().edges() {
        c.set_independent(e, device.calibration().cx_error(e));
    }
    c
}

/// A named characterization and the context built from it.
type Input = (&'static str, Characterization, SchedulerContext);

/// Each device with its ground-truth, measured and independent-only
/// characterizations and contexts, at the default threshold.
fn fleet() -> Vec<(Device, Vec<Input>)> {
    devices()
        .into_iter()
        .zip(measured())
        .map(|(device, measured)| {
            let contexts = [
                ("truth", Characterization::from_ground_truth(&device)),
                ("measured", measured.clone()),
                ("independent", independent_only(&device)),
            ]
            .into_iter()
            .map(|(name, ch)| {
                let ctx = SchedulerContext::new(&device, &ch);
                (name, ch, ctx)
            })
            .collect();
            (device, contexts)
        })
        .collect()
}

/// The ground-truth characterization and context of a device.
fn truth(device: &Device) -> (Characterization, SchedulerContext) {
    let ch = Characterization::from_ground_truth(device);
    let ctx = SchedulerContext::new(device, &ch);
    (ch, ctx)
}

/// A connected region of `size` qubits grown breadth-first from `start`.
fn region(topo: &Topology, start: u32, size: usize) -> Vec<u32> {
    let mut out = vec![start];
    let mut next = 0;
    while out.len() < size && next < out.len() {
        for &q in topo.neighbors(out[next]) {
            if out.len() < size && !out.contains(&q) {
                out.push(q);
            }
        }
        next += 1;
    }
    out
}

/// Seeded supremacy-style circuits grown around the device's high
/// crosstalk pairs and crosstalk-affected SWAP paths (the Figure 5
/// circuits) on `device`, each with candidate pairs under `truth`, the
/// context of the ground-truth characterization `ch`.
fn circuits(device: &Device, ch: &Characterization, truth: &SchedulerContext) -> Vec<(String, Circuit)> {
    let topo = device.topology();
    let mut out = Vec::new();
    let high = ch.high_pairs(truth.threshold());
    for (seed, (size, depth)) in [(8, 4), (10, 5), (9, 6)].into_iter().enumerate() {
        let start = high[seed % high.len()].0.lo();
        out.push((
            format!("supremacy from {start}, {size} qubits, depth {depth}, seed {seed}"),
            supremacy_circuit(topo, &region(topo, start, size), depth, seed as u64),
        ));
    }
    for len in [3, 5] {
        for (a, b) in endpoint_pairs_by_crosstalk(topo, truth, len, false)
            .into_iter()
            .take(2)
        {
            let bench = swap_benchmark(topo, a, b).expect("devices are connected");
            out.push((format!("swap path {a}-{b}"), bench.circuit));
        }
    }
    out.retain(|(_, c)| !XtalkSched::candidate_pairs(c, truth).is_empty());
    out
}

/// Runs both searches and asserts identical reports and slots.
fn assert_same_search(
    what: &str,
    sched: &XtalkSched,
    circuit: &Circuit,
    (ch, ctx): (&Characterization, &SchedulerContext),
    budget: impl Fn() -> Budget,
) -> XtalkSchedReport {
    let (got, report) = sched
        .schedule_budgeted(circuit, ctx, &budget())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let (slots, expected) = reference_schedule(sched, circuit, ctx, ch, &budget())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(report.leaves, expected.leaves, "{what}: leaves");
    assert_eq!(
        report.serializations, expected.serializations,
        "{what}: serializations"
    );
    assert_eq!(
        report.candidate_pairs, expected.candidate_pairs,
        "{what}: candidates"
    );
    assert_eq!(report.complete, expected.complete, "{what}: complete");
    assert_eq!(report.fallback, expected.fallback, "{what}: fallback");
    assert_eq!(
        report.cost.to_bits(),
        expected.cost.to_bits(),
        "{what}: cost {} vs {}",
        report.cost,
        expected.cost
    );
    assert_eq!(got.slots(), &slots[..], "{what}: slots");
    report
}

#[test]
fn incremental_search_matches_the_reference_search() {
    let (mut searches, mut serialized, mut truncated) = (0, 0, 0);
    for (device, contexts) in fleet() {
        let corpus = circuits(&device, &contexts[0].1, &contexts[0].2);
        assert!(
            corpus.len() >= 4,
            "{}: {} circuits",
            device.name(),
            corpus.len()
        );
        for (ctx_name, ch, ctx) in &contexts {
            for threshold in [1.5, 3.0, 10.0] {
                let ctx = ctx.clone().with_threshold(threshold);
                for (name, circuit) in &corpus {
                    for omega in [0.0, 0.03, 0.5, 1.0] {
                        for cap in [Some(1), Some(8), Some(64), None] {
                            for ordering in [OrderingPolicy::Optimal, OrderingPolicy::ProgramOrder]
                            {
                                let mut sched = XtalkSched::new(omega).with_ordering(ordering);
                                if let Some(cap) = cap {
                                    sched = sched.with_max_leaves(cap);
                                }
                                let what = format!(
                                    "{} {ctx_name} ×{threshold} {name}, ω={omega}, cap {cap:?}, {ordering:?}",
                                    device.name()
                                );
                                let report = assert_same_search(
                                    &what,
                                    &sched,
                                    circuit,
                                    (ch, &ctx),
                                    Budget::unlimited,
                                );
                                searches += 1;
                                serialized += usize::from(!report.serializations.is_empty());
                                truncated += usize::from(!report.complete);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        serialized > searches / 4 && truncated > searches / 8,
        "{searches} searches: {serialized} serialized, {truncated} truncated"
    );
}

#[test]
fn quota_budgets_truncate_both_searches_alike() {
    let mut mid_search = 0;
    for device in devices() {
        let (ch, truth) = truth(&device);
        for (name, circuit) in circuits(&device, &ch, &truth) {
            for quota in [1, 2, 5, 17] {
                let what = format!("{} {name}, quota {quota}", device.name());
                let report =
                    assert_same_search(&what, &XtalkSched::new(0.5), &circuit, (&ch, &truth), || {
                        Budget::unlimited().with_quota(quota)
                    });
                mid_search += usize::from(!report.complete && report.leaves > 0);
            }
        }
    }
    assert!(
        mid_search > 10,
        "only {mid_search} searches truncated mid-search"
    );
}

#[test]
fn cancelled_budget_falls_back_like_the_reference() {
    let device = devices().swap_remove(0);
    let (ch, truth) = truth(&device);
    for (name, circuit) in circuits(&device, &ch, &truth) {
        let cancelled = || {
            let budget = Budget::unlimited();
            budget.cancel_token().cancel();
            budget
        };
        let report =
            assert_same_search(&name, &XtalkSched::new(0.5), &circuit, (&ch, &truth), cancelled);
        assert!(report.fallback, "{name}");
    }
}

/// Two equally severe conflicts on different edge pairs, numbered so that
/// candidate order and overlap-sweep order disagree in one of the two
/// layouts: the tie must go to the pair the sweep reports last.
#[test]
fn equally_severe_conflicts_break_ties_in_sweep_order() {
    let device = devices().swap_remove(0);
    let cal = device.calibration();
    // Four pairwise disjoint edges: two hot pairs that never interfere
    // with each other.
    let mut edges: Vec<Edge> = Vec::new();
    for &e in device.topology().edges() {
        if edges.iter().all(|f| !e.shares_qubit(*f)) && edges.len() < 4 {
            edges.push(e);
        }
    }
    let (ab, cd) = ((edges[0], edges[1]), (edges[2], edges[3]));
    let mut ch = independent_only(&device);
    for (x, y) in [ab, cd] {
        ch.set_conditional(x, y, 0.5);
        ch.set_conditional(y, x, 0.5);
    }
    let ctx = SchedulerContext::new(&device, &ch);
    let durations: Vec<u64> = edges.iter().map(|&e| cal.cx_duration(e)).collect();
    assert!(
        durations[0].min(durations[1]) != durations[2].min(durations[3]),
        "the later-starting members must start at different times: {durations:?}"
    );
    let mut tied = 0;
    for (first, second) in [(ab, cd), (cd, ab)] {
        // `first` is both gates 0 and 3, `second` gates 1 and 2, all in
        // parallel at the root.
        let mut circuit = Circuit::new(device.topology().num_qubits(), 0);
        for e in [first.0, second.0, second.1, first.1] {
            circuit.cx(e.lo(), e.hi());
        }
        assert_eq!(XtalkSched::candidate_pairs(&circuit, &ctx), vec![(0, 3), (1, 2)]);
        for omega in [0.5, 1.0] {
            for cap in [1, 2, 100] {
                let sched = XtalkSched::new(omega).with_max_leaves(cap);
                let what = format!("{first:?} first, ω={omega}, cap {cap}");
                let report =
                    assert_same_search(&what, &sched, &circuit, (&ch, &ctx), Budget::unlimited);
                tied += usize::from(!report.serializations.is_empty());
            }
        }
    }
    assert!(tied > 0, "no search serialized a tied pair");
}

#[test]
fn bucketed_candidate_pairs_match_all_pairs() {
    let mut found = 0;
    for (device, contexts) in fleet() {
        let corpus = circuits(&device, &contexts[0].1, &contexts[0].2);
        for (ctx_name, _, ctx) in &contexts {
            for threshold in [1.5, 3.0, 10.0] {
                let ctx = ctx.clone().with_threshold(threshold);
                for (name, circuit) in &corpus {
                    let got = XtalkSched::candidate_pairs(circuit, &ctx);
                    assert_eq!(
                        got,
                        reference_candidate_pairs(circuit, &ctx),
                        "{} {ctx_name} ×{threshold} {name}",
                        device.name()
                    );
                    found += got.len();
                }
            }
        }
    }
    assert!(found > 100, "only {found} candidate pairs over the corpus");
}

/// Hot gates are exactly the two-qubit gates whose edge has, against some
/// edge of the circuit, a conditional error above the independent one in
/// either direction.
#[test]
fn hot_gates_are_those_a_conditional_error_can_raise() {
    let (mut below, mut partly_hot) = (0, 0);
    for (device, contexts) in fleet() {
        let corpus = circuits(&device, &contexts[0].1, &contexts[0].2);
        for (ctx_name, _, ctx) in &contexts {
            let raises = |a: Edge, b: Edge| {
                ctx.conditional_error(a, b) > ctx.independent_error(a)
                    || ctx.conditional_error(b, a) > ctx.independent_error(b)
            };
            for (name, circuit) in &corpus {
                let twoq = two_qubit(circuit);
                let expected: Vec<usize> = twoq
                    .iter()
                    .copied()
                    .filter(|&i| {
                        twoq.iter()
                            .any(|&j| raises(edge_of(circuit, i), edge_of(circuit, j)))
                    })
                    .collect();
                let hot = CostModel::new(circuit, ctx).hot();
                assert_eq!(hot, expected, "{} {ctx_name} {name}", device.name());
                if *ctx_name == "independent" {
                    assert!(hot.is_empty(), "{} {name}: {hot:?}", device.name());
                }
                partly_hot += usize::from(!hot.is_empty() && hot.len() < twoq.len());
            }
        }
        // Measured rates below the independent one are what makes a
        // conditional entry unable to raise a gate's error.
        let measured = &contexts[1].1;
        below += measured
            .conditional_iter()
            .filter(|&((of, _), rate)| rate < measured.independent(of))
            .count();
    }
    assert!(
        below > 0,
        "no measured conditional rate below its independent rate"
    );
    assert!(
        partly_hot > 5,
        "only {partly_hot} circuits with both hot and cold gates"
    );
}
