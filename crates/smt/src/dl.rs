//! Difference-logic theory: feasibility and earliest solutions via
//! Bellman–Ford longest paths.

use crate::model::RealVar;

/// The atom `x − y ≥ c` (or `x ≥ c` when `y` is `None`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiffConstraint {
    /// Left variable.
    pub x: RealVar,
    /// Right variable; `None` means the constant origin (0).
    pub y: Option<RealVar>,
    /// The lower bound on the difference.
    pub c: i64,
}

/// A difference-logic constraint system over `n` non-negative variables.
///
/// Constraints `x − y ≥ c` become edges `y → x` of weight `c` in a graph
/// rooted at an origin node fixed to 0 (with `origin → x` weight 0 edges
/// encoding `x ≥ 0`). The system is satisfiable iff the graph has no
/// positive cycle, and the longest-path distances from the origin are the
/// unique minimal (ASAP) solution.
///
/// ```
/// use xtalk_smt::{DifferenceLogic, Model};
/// let mut m = Model::new();
/// let a = m.real_var();
/// let b = m.real_var();
/// let mut dl = DifferenceLogic::new(2);
/// dl.add(m.ge_diff(b, a, 300)); // b ≥ a + 300
/// dl.add(m.ge_const(a, 50));    // a ≥ 50
/// let times = dl.earliest().expect("feasible");
/// assert_eq!(times, vec![50, 350]);
/// ```
#[derive(Clone, Debug)]
pub struct DifferenceLogic {
    n: usize,
    constraints: Vec<DiffConstraint>,
    marks: Vec<usize>,
}

impl DifferenceLogic {
    /// An empty system over `n` variables.
    pub fn new(n: usize) -> Self {
        DifferenceLogic { n, constraints: Vec::new(), marks: Vec::new() }
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references variables outside the system.
    pub fn add(&mut self, c: DiffConstraint) {
        assert!(c.x.index() < self.n, "variable out of range");
        if let Some(y) = c.y {
            assert!(y.index() < self.n, "variable out of range");
        }
        self.constraints.push(c);
    }

    /// Saves a restore point; constraints added after this call are
    /// removed by the matching [`DifferenceLogic::pop`].
    pub fn push(&mut self) {
        self.marks.push(self.constraints.len());
    }

    /// Restores to the last [`DifferenceLogic::push`].
    ///
    /// # Panics
    ///
    /// Panics if there is no matching `push`.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop without matching push");
        self.constraints.truncate(mark);
    }

    /// The minimal non-negative solution (longest paths from the origin),
    /// or `None` if the system is infeasible (positive cycle).
    pub fn earliest(&self) -> Option<Vec<i64>> {
        // Bellman–Ford longest path; origin distance 0, vars start at 0
        // (the implicit x ≥ 0 edges).
        let mut dist = vec![0i64; self.n];
        for round in 0..=self.n {
            let mut changed = false;
            for c in &self.constraints {
                let base = match c.y {
                    Some(y) => dist[y.index()],
                    None => 0,
                };
                let cand = base + c.c;
                if cand > dist[c.x.index()] {
                    dist[c.x.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return Some(dist);
            }
            if round == self.n {
                return None; // still relaxing after n rounds → positive cycle
            }
        }
        Some(dist)
    }

    /// `true` if the current constraint set is satisfiable.
    pub fn feasible(&self) -> bool {
        self.earliest().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;

    fn vars(n: usize) -> (Model, Vec<RealVar>) {
        let mut m = Model::new();
        let vs = (0..n).map(|_| m.real_var()).collect();
        (m, vs)
    }

    #[test]
    fn chain_is_cumulative() {
        let (m, v) = vars(3);
        let mut dl = DifferenceLogic::new(3);
        dl.add(m.ge_diff(v[1], v[0], 100));
        dl.add(m.ge_diff(v[2], v[1], 200));
        assert_eq!(dl.earliest().unwrap(), vec![0, 100, 300]);
    }

    #[test]
    fn cycle_detected() {
        let (m, v) = vars(2);
        let mut dl = DifferenceLogic::new(2);
        dl.add(m.ge_diff(v[1], v[0], 10));
        dl.add(m.ge_diff(v[0], v[1], 10));
        assert!(!dl.feasible());
    }

    #[test]
    fn zero_weight_cycle_is_feasible() {
        // x - y ≥ 0 and y - x ≥ 0 force equality, which is fine.
        let (m, v) = vars(2);
        let mut dl = DifferenceLogic::new(2);
        dl.add(m.ge_diff(v[1], v[0], 0));
        dl.add(m.ge_diff(v[0], v[1], 0));
        assert_eq!(dl.earliest().unwrap(), vec![0, 0]);
    }

    #[test]
    fn negative_offsets_allowed() {
        // b ≥ a - 50 with a ≥ 100 keeps b at its floor of 0.
        let (m, v) = vars(2);
        let mut dl = DifferenceLogic::new(2);
        dl.add(m.ge_const(v[0], 100));
        dl.add(m.ge_diff(v[1], v[0], -50));
        assert_eq!(dl.earliest().unwrap(), vec![100, 50]);
    }

    #[test]
    fn push_pop_restores() {
        let (m, v) = vars(2);
        let mut dl = DifferenceLogic::new(2);
        dl.add(m.ge_diff(v[1], v[0], 10));
        dl.push();
        dl.add(m.ge_diff(v[0], v[1], 10)); // now infeasible
        assert!(!dl.feasible());
        dl.pop();
        assert!(dl.feasible());
        assert_eq!(dl.earliest().unwrap(), vec![0, 10]);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn unbalanced_pop_panics() {
        DifferenceLogic::new(1).pop();
    }

    #[test]
    fn earliest_is_minimal() {
        // Every feasible solution dominates the earliest one pointwise.
        let (m, v) = vars(3);
        let mut dl = DifferenceLogic::new(3);
        dl.add(m.ge_diff(v[1], v[0], 5));
        dl.add(m.ge_diff(v[2], v[0], 3));
        dl.add(m.ge_const(v[2], 7));
        let e = dl.earliest().unwrap();
        assert_eq!(e, vec![0, 5, 7]);
    }
}
