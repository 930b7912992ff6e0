//! DPLL-style search over the boolean decisions with branch-and-bound
//! minimization.

use crate::dl::DifferenceLogic;
use crate::model::{BoolVar, Model};

/// The objective to minimize.
///
/// `evaluate` receives a complete boolean assignment and the *earliest*
/// feasible times of the real variables (the ASAP solution of the active
/// difference constraints); implementations may post-process the times
/// (e.g. right-align) before costing them. `lower_bound` must be
/// admissible: never greater than the cost of any completion of the
/// partial assignment (entries `None` are undecided). The default bound
/// is `−∞`, which disables pruning.
pub trait Objective {
    /// Cost of a complete assignment.
    fn evaluate(&self, bools: &[bool], times: &[i64]) -> f64;

    /// Admissible lower bound for a partial assignment.
    fn lower_bound(&self, _bools: &[Option<bool>]) -> f64 {
        f64::NEG_INFINITY
    }
}

/// Search limits.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Abort after exploring this many leaves (best-so-far is returned).
    pub max_leaves: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { max_leaves: 1 << 22 }
    }
}

/// How a search ended.
///
/// `complete: false` means the search was truncated by the
/// [`SearchConfig::max_leaves`] cap, so a returned solution is
/// best-so-far, not proven optimal, and a `None` result means "no
/// feasible leaf reached yet" rather than "proven infeasible".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SearchOutcome {
    /// `true` iff the search space was exhausted (result is proven).
    pub complete: bool,
    /// Leaves evaluated before the search ended.
    pub leaves: u64,
}

/// A minimizing solution.
#[derive(Clone, PartialEq, Debug)]
pub struct Solution {
    /// The boolean assignment.
    pub bools: Vec<bool>,
    /// The earliest feasible real-variable values under that assignment.
    pub times: Vec<i64>,
    /// Objective value.
    pub cost: f64,
    /// Leaves evaluated during search (diagnostic).
    pub leaves: u64,
}

/// Exhaustive DPLL search with unit propagation over the model's boolean
/// structure, theory checks in difference logic, and branch-and-bound
/// pruning against [`Objective::lower_bound`].
#[derive(Debug)]
pub struct Optimizer {
    model: Model,
    config: SearchConfig,
}

struct SearchState<'a> {
    model: &'a Model,
    obj: &'a dyn Objective,
    config: SearchConfig,
    assignment: Vec<Option<bool>>,
    dl: DifferenceLogic,
    best: Option<Solution>,
    leaves: u64,
    decisions: u64,
    backtracks: u64,
    truncated: bool,
}

impl Optimizer {
    /// An optimizer with default limits.
    pub fn new(model: Model) -> Self {
        Optimizer { model, config: SearchConfig::default() }
    }

    /// Overrides search limits.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Minimizes `obj`. Returns the best solution found with how the
    /// search ended: `(None, complete)` means no assignment satisfies the
    /// constraints; a truncated search (`outcome.complete == false`)
    /// returns its best-so-far, or `None` if it reached no feasible leaf —
    /// the caller should fall back rather than treat the model as
    /// infeasible.
    pub fn minimize(&self, obj: &dyn Objective) -> (Option<Solution>, SearchOutcome) {
        let _span = xtalk_obs::span("smt.solve");
        let mut dl = DifferenceLogic::new(self.model.n_real);
        for c in &self.model.hard {
            dl.add(*c);
        }
        if !dl.feasible() {
            // Proven infeasible: a complete (if empty) answer.
            return (None, SearchOutcome { complete: true, leaves: 0 });
        }
        let mut st = SearchState {
            model: &self.model,
            obj,
            config: self.config,
            assignment: vec![None; self.model.n_bool],
            dl,
            best: None,
            leaves: 0,
            decisions: 0,
            backtracks: 0,
            truncated: false,
        };
        st.search();
        xtalk_obs::counter!("smt.leaves", st.leaves);
        xtalk_obs::counter!("smt.decisions", st.decisions);
        xtalk_obs::counter!("smt.backtracks", st.backtracks);
        if st.truncated {
            xtalk_obs::counter!("smt.truncated", 1);
        }
        let outcome = SearchOutcome { complete: !st.truncated, leaves: st.leaves };
        let leaves = st.leaves;
        let sol = st.best.map(|mut s| {
            s.leaves = leaves;
            s
        });
        (sol, outcome)
    }
}

impl<'a> SearchState<'a> {
    /// Propagates boolean consequences of `var := value`. Returns the list
    /// of variables this call assigned (for undo), or `None` on conflict.
    fn assign(&mut self, var: BoolVar, value: bool) -> Option<Vec<BoolVar>> {
        let mut trail: Vec<BoolVar> = Vec::new();
        let mut queue = vec![(var, value)];
        while let Some((v, val)) = queue.pop() {
            match self.assignment[v.0] {
                Some(existing) => {
                    if existing != val {
                        // Conflict: undo and report.
                        for t in &trail {
                            self.assignment[t.0] = None;
                        }
                        return None;
                    }
                    continue;
                }
                None => {
                    self.assignment[v.0] = Some(val);
                    trail.push(v);
                }
            }
            if val {
                for group in &self.model.at_most_one {
                    if group.contains(&v) {
                        for &other in group {
                            if other != v {
                                queue.push((other, false));
                            }
                        }
                    }
                }
                for &(a, b) in &self.model.conflicts {
                    if a == v {
                        queue.push((b, false));
                    } else if b == v {
                        queue.push((a, false));
                    }
                }
                for &(a, b) in &self.model.implications {
                    if a == v {
                        queue.push((b, true));
                    }
                }
            } else {
                // ¬b with (a ⇒ b) forces ¬a.
                for &(a, b) in &self.model.implications {
                    if b == v {
                        queue.push((a, false));
                    }
                }
            }
        }
        Some(trail)
    }

    fn undo(&mut self, trail: &[BoolVar]) {
        for v in trail {
            self.assignment[v.0] = None;
        }
    }

    /// `true` if the active guarded constraints are theory-consistent.
    fn theory_ok(&mut self) -> bool {
        self.dl.push();
        for (g, c) in &self.model.guarded {
            if self.assignment[g.0] == Some(true) {
                self.dl.add(*c);
            }
        }
        let ok = self.dl.feasible();
        self.dl.pop();
        ok
    }

    fn search(&mut self) {
        // Truncation check: entering a node with the leaf cap spent means
        // unexplored branches remain, so whatever `best` holds is no longer
        // a proven optimum.
        if self.leaves >= self.config.max_leaves {
            self.truncated = true;
            return;
        }
        // Bound check.
        if let Some(best) = &self.best {
            if self.obj.lower_bound(&self.assignment) >= best.cost {
                return;
            }
        }
        // Pick the next unassigned variable.
        let next = (0..self.model.n_bool).find(|&i| self.assignment[i].is_none());
        let Some(next) = next else {
            // Leaf: full assignment. Theory solve and evaluate.
            self.leaves += 1;
            self.dl.push();
            for (g, c) in &self.model.guarded {
                if self.assignment[g.0] == Some(true) {
                    self.dl.add(*c);
                }
            }
            if let Some(times) = self.dl.earliest() {
                let bools: Vec<bool> =
                    self.assignment.iter().map(|b| b.expect("complete")).collect();
                let cost = self.obj.evaluate(&bools, &times);
                if self.best.as_ref().is_none_or(|b| cost < b.cost) {
                    self.best = Some(Solution { bools, times, cost, leaves: 0 });
                }
            }
            self.dl.pop();
            return;
        };

        // Branch: try true first (serialization decisions tend to pay),
        // then false.
        for value in [true, false] {
            self.decisions += 1;
            if let Some(trail) = self.assign(BoolVar(next), value) {
                if !value || self.theory_ok() {
                    self.search();
                } else {
                    self.backtracks += 1;
                }
                self.undo(&trail);
            } else {
                self.backtracks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    struct Count;
    impl Objective for Count {
        fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
            bools.iter().filter(|&&b| b).count() as f64
        }
        fn lower_bound(&self, bools: &[Option<bool>]) -> f64 {
            bools.iter().filter(|b| **b == Some(true)).count() as f64
        }
    }

    #[test]
    fn minimizes_trivially_to_all_false() {
        let mut m = Model::new();
        for _ in 0..6 {
            m.bool_var();
        }
        let sol = Optimizer::new(m).minimize(&Count).0.unwrap();
        assert_eq!(sol.cost, 0.0);
        assert!(sol.bools.iter().all(|&b| !b));
    }

    struct PreferLate;
    impl Objective for PreferLate {
        fn evaluate(&self, bools: &[bool], times: &[i64]) -> f64 {
            // Want var1 late: negative cost on its ASAP time; choosing the
            // guard that pushes it is optimal.
            -(times[1] as f64) + if bools[0] { 0.1 } else { 0.0 }
        }
    }

    #[test]
    fn guards_activate_constraints() {
        let mut m = Model::new();
        let a = m.real_var();
        let b = m.real_var();
        let g = m.bool_var();
        m.require(m.ge_const(a, 100));
        m.guard(g, m.ge_diff(b, a, 500));
        let sol = Optimizer::new(m).minimize(&PreferLate).0.unwrap();
        assert!(sol.bools[0]);
        assert_eq!(sol.times, vec![100, 600]);
        assert!((sol.cost + 599.9).abs() < 1e-9);
    }

    #[test]
    fn infeasible_guards_are_avoided() {
        // Activating both guards creates a positive cycle, so the solver
        // must leave at least one false even though Count would prefer…
        // wait, Count prefers false anyway; use an objective that wants
        // both true.
        struct WantTrue;
        impl Objective for WantTrue {
            fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
                bools.iter().filter(|&&b| !b).count() as f64
            }
        }
        let mut m = Model::new();
        let a = m.real_var();
        let b = m.real_var();
        let g1 = m.bool_var();
        let g2 = m.bool_var();
        m.guard(g1, m.ge_diff(a, b, 10));
        m.guard(g2, m.ge_diff(b, a, 10));
        let sol = Optimizer::new(m).minimize(&WantTrue).0.unwrap();
        // Best feasible: exactly one true.
        assert_eq!(sol.bools.iter().filter(|&&b| b).count(), 1);
        assert_eq!(sol.cost, 1.0);
    }

    #[test]
    fn at_most_one_enforced() {
        struct AllTrue;
        impl Objective for AllTrue {
            fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
                bools.iter().filter(|&&b| !b).count() as f64
            }
        }
        let mut m = Model::new();
        let p = m.bool_var();
        let q = m.bool_var();
        let r = m.bool_var();
        m.at_most_one(vec![p, q, r]);
        let sol = Optimizer::new(m).minimize(&AllTrue).0.unwrap();
        assert_eq!(sol.bools.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn implications_propagate() {
        struct WantAOnly;
        impl Objective for WantAOnly {
            fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
                // Reward a true, penalize b true: but a ⇒ b forces both.
                (if bools[0] { 0.0 } else { 10.0 }) + (if bools[1] { 1.0 } else { 0.0 })
            }
        }
        let mut m = Model::new();
        let a = m.bool_var();
        let b = m.bool_var();
        m.implies(a, b);
        let sol = Optimizer::new(m).minimize(&WantAOnly).0.unwrap();
        assert_eq!(sol.bools, vec![true, true]);
        assert_eq!(sol.cost, 1.0);
    }

    #[test]
    fn hard_infeasible_returns_none() {
        let mut m = Model::new();
        let a = m.real_var();
        let b = m.real_var();
        m.require(m.ge_diff(a, b, 1));
        m.require(m.ge_diff(b, a, 1));
        assert!(Optimizer::new(m).minimize(&Count).0.is_none());
    }

    #[test]
    fn pruning_does_not_change_answer() {
        // With an admissible bound, the result matches unpruned search.
        let mut m = Model::new();
        for _ in 0..10 {
            m.bool_var();
        }
        let m2 = m.clone();
        struct NoBound;
        impl Objective for NoBound {
            fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
                bools.iter().filter(|&&b| b).count() as f64
            }
        }
        let pruned = Optimizer::new(m).minimize(&Count).0.unwrap();
        let full = Optimizer::new(m2).minimize(&NoBound).0.unwrap();
        assert_eq!(pruned.cost, full.cost);
        assert!(pruned.leaves <= full.leaves);
    }

    #[test]
    fn complete_search_reports_complete_outcome() {
        let mut m = Model::new();
        for _ in 0..6 {
            m.bool_var();
        }
        let (sol, outcome) =
            Optimizer::new(m).minimize(&Count);
        assert!(sol.is_some());
        assert!(outcome.complete);
        assert_eq!(outcome.leaves, sol.unwrap().leaves);
    }

    #[test]
    fn leaf_cap_marks_outcome_incomplete() {
        let mut m = Model::new();
        for _ in 0..8 {
            m.bool_var();
        }
        let opt = Optimizer::new(m).with_config(SearchConfig { max_leaves: 1 });
        let (sol, outcome) = opt.minimize(&Count);
        // One leaf reached: best-so-far exists but is not proven optimal.
        assert!(sol.is_some());
        assert!(!outcome.complete);
        assert_eq!(outcome.leaves, 1);
    }

    #[test]
    fn hard_infeasible_is_complete_none() {
        let mut m = Model::new();
        let a = m.real_var();
        let b = m.real_var();
        m.require(m.ge_diff(a, b, 1));
        m.require(m.ge_diff(b, a, 1));
        let (sol, outcome) =
            Optimizer::new(m).minimize(&Count);
        assert!(sol.is_none());
        assert!(outcome.complete, "proven infeasibility is a complete answer");
    }

    #[test]
    fn conflict_pairs_respected() {
        struct AllTrue;
        impl Objective for AllTrue {
            fn evaluate(&self, bools: &[bool], _t: &[i64]) -> f64 {
                bools.iter().filter(|&&b| !b).count() as f64
            }
        }
        let mut m = Model::new();
        let a = m.bool_var();
        let b = m.bool_var();
        m.conflict(a, b);
        let sol = Optimizer::new(m).minimize(&AllTrue).0.unwrap();
        assert!(!(sol.bools[0] && sol.bools[1]));
        assert_eq!(sol.cost, 1.0);
    }
}
