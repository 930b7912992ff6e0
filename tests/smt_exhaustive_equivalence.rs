//! The optimizing solver must agree with brute-force enumeration on every
//! random small instance: same minimal objective over all boolean
//! assignments that satisfy the propositional structure and whose active
//! difference constraints are feasible.

use crosstalk_mitigation::smt::{
    DiffConstraint, DifferenceLogic, Model, Objective, Optimizer, RealVar,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Instance {
    n_real: usize,
    n_bool: usize,
    /// Hard `x − y ≥ c` constraints (indices into reals; y == x means
    /// `x ≥ c`).
    hard: Vec<(usize, usize, i64)>,
    guarded: Vec<(usize, usize, usize, i64)>, // (bool, x, y, c)
    amo: Vec<Vec<usize>>,
    conflicts: Vec<(usize, usize)>,
    implications: Vec<(usize, usize)>,
    /// Objective weights: per-bool cost plus per-real time weight.
    bool_cost: Vec<i64>,
    time_weight: Vec<i64>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    let n_real = 3usize;
    let n_bool = 5usize;
    (
        prop::collection::vec((0..n_real, 0..n_real, -50i64..200), 0..4),
        prop::collection::vec((0..n_bool, 0..n_real, 0..n_real, -50i64..200), 0..6),
        prop::collection::vec(prop::collection::vec(0..n_bool, 2..4), 0..2),
        prop::collection::vec((0..n_bool, 0..n_bool), 0..2),
        prop::collection::vec((0..n_bool, 0..n_bool), 0..2),
        prop::collection::vec(-5i64..6, n_bool),
        prop::collection::vec(0i64..3, n_real),
    )
        .prop_map(
            move |(hard, guarded, amo, conflicts, implications, bool_cost, time_weight)| {
                Instance {
                    n_real,
                    n_bool,
                    hard,
                    guarded,
                    amo: amo
                        .into_iter()
                        .map(|mut g| {
                            g.sort_unstable();
                            g.dedup();
                            g
                        })
                        .filter(|g| g.len() >= 2)
                        .collect(),
                    conflicts: conflicts.into_iter().filter(|(a, b)| a != b).collect(),
                    implications: implications.into_iter().filter(|(a, b)| a != b).collect(),
                    bool_cost,
                    time_weight,
                }
            },
        )
}

struct LinearObjective {
    bool_cost: Vec<i64>,
    time_weight: Vec<i64>,
}

impl Objective for LinearObjective {
    fn evaluate(&self, bools: &[bool], times: &[i64]) -> f64 {
        let b: i64 = bools
            .iter()
            .zip(&self.bool_cost)
            .map(|(&x, &w)| if x { w } else { 0 })
            .sum();
        let t: i64 = times.iter().zip(&self.time_weight).map(|(&x, &w)| x * w).sum();
        (b + t) as f64
    }
}

/// Brute force: enumerate all 2^n_bool assignments, check the boolean
/// structure, solve the active difference system, take the best cost.
fn brute_force(inst: &Instance, vars: &[RealVar]) -> Option<f64> {
    let obj = LinearObjective {
        bool_cost: inst.bool_cost.clone(),
        time_weight: inst.time_weight.clone(),
    };
    let mut best: Option<f64> = None;
    'assign: for mask in 0u32..(1 << inst.n_bool) {
        let bools: Vec<bool> = (0..inst.n_bool).map(|i| mask >> i & 1 == 1).collect();
        for group in &inst.amo {
            if group.iter().filter(|&&v| bools[v]).count() > 1 {
                continue 'assign;
            }
        }
        for &(a, b) in &inst.conflicts {
            if bools[a] && bools[b] {
                continue 'assign;
            }
        }
        for &(a, b) in &inst.implications {
            if bools[a] && !bools[b] {
                continue 'assign;
            }
        }
        let mut dl = DifferenceLogic::new(inst.n_real);
        for &(x, y, c) in &inst.hard {
            dl.add(constraint(vars, x, y, c));
        }
        for &(g, x, y, c) in &inst.guarded {
            if bools[g] {
                dl.add(constraint(vars, x, y, c));
            }
        }
        let Some(times) = dl.earliest() else {
            continue 'assign;
        };
        let cost = obj.evaluate(&bools, &times);
        if best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
    }
    best
}

fn constraint(vars: &[RealVar], x: usize, y: usize, c: i64) -> DiffConstraint {
    if x == y {
        DiffConstraint { x: vars[x], y: None, c }
    } else {
        DiffConstraint { x: vars[x], y: Some(vars[y]), c }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimizer_matches_brute_force(inst in instance_strategy()) {
        let mut model = Model::new();
        let vars: Vec<RealVar> = (0..inst.n_real).map(|_| model.real_var()).collect();
        let bools: Vec<_> = (0..inst.n_bool).map(|_| model.bool_var()).collect();
        for &(x, y, c) in &inst.hard {
            model.require(constraint(&vars, x, y, c));
        }
        for &(g, x, y, c) in &inst.guarded {
            model.guard(bools[g], constraint(&vars, x, y, c));
        }
        for group in &inst.amo {
            model.at_most_one(group.iter().map(|&i| bools[i]).collect());
        }
        for &(a, b) in &inst.conflicts {
            model.conflict(bools[a], bools[b]);
        }
        for &(a, b) in &inst.implications {
            model.implies(bools[a], bools[b]);
        }
        let obj = LinearObjective {
            bool_cost: inst.bool_cost.clone(),
            time_weight: inst.time_weight.clone(),
        };
        let (solver, outcome) = Optimizer::new(model).minimize(&obj);
        prop_assert!(outcome.complete, "default leaf cap truncated a small instance");
        let expected = brute_force(&inst, &vars);
        match (solver, expected) {
            (None, None) => {}
            (Some(sol), Some(best)) => {
                prop_assert!(
                    (sol.cost - best).abs() < 1e-9,
                    "solver {} vs brute force {best}", sol.cost
                );
            }
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "satisfiability mismatch: solver {:?} vs brute force {:?}",
                    got.map(|s| s.cost), want
                )));
            }
        }
    }

    #[test]
    fn earliest_solution_is_pointwise_minimal(
        constraints in prop::collection::vec((0usize..4, 0usize..4, -30i64..60), 0..8)
    ) {
        let mut model = Model::new();
        let vars: Vec<RealVar> = (0..4).map(|_| model.real_var()).collect();
        let mut dl = DifferenceLogic::new(4);
        for &(x, y, c) in &constraints {
            dl.add(constraint(&vars, x, y, c));
        }
        if let Some(earliest) = dl.earliest() {
            // Earliest is feasible…
            for &(x, y, c) in &constraints {
                let base = if x == y { 0 } else { earliest[y] };
                prop_assert!(earliest[x] - base >= c);
            }
            // …non-negative…
            prop_assert!(earliest.iter().all(|&t| t >= 0));
            // …and no single variable can be reduced while staying feasible.
            for v in 0..4 {
                if earliest[v] == 0 { continue; }
                let mut reduced = earliest.clone();
                reduced[v] -= 1;
                let feasible = constraints.iter().all(|&(x, y, c)| {
                    let base = if x == y { 0 } else { reduced[y] };
                    reduced[x] - base >= c
                }) && reduced[v] >= 0;
                prop_assert!(!feasible, "var {v} was reducible");
            }
        }
    }
}
