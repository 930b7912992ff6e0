//! A small optimizing constraint solver: DPLL-style boolean search over a
//! difference-logic theory with branch-and-bound minimization.
//!
//! The paper solves its scheduling formulation with Z3's optimizing SMT
//! solver (νZ). The `z3` crate needs a native library unavailable in this
//! build environment, so this crate implements the exact fragment the
//! scheduling encoding of Section 7 uses:
//!
//! * **Real variables** (gate start times, in integer nanoseconds) related
//!   by *difference constraints* `x − y ≥ c` — data dependencies (Eq. 1)
//!   and serialization decisions.
//! * **Boolean variables** (serialization/ordering indicators) that *guard*
//!   difference constraints, with at-most-one groups and pairwise
//!   conflicts for mutual exclusion.
//! * An **objective** evaluated on complete assignments (the ω-weighted
//!   crosstalk/decoherence trade-off of Eq. 17), minimized by exhaustive
//!   DPLL search with admissible-bound pruning.
//!
//! Theory consistency is decided by Bellman–Ford on the constraint graph
//! (difference logic is exactly shortest-path feasibility), and the
//! canonical *earliest* feasible assignment (the ASAP schedule) is handed
//! to the objective, which may post-process it (the scheduler right-aligns
//! it to model IBMQ's simultaneous readout).
//!
//! ```
//! use xtalk_smt::{Model, Objective, Optimizer};
//!
//! // Two "gates" of duration 100 that may be serialized either way.
//! let mut m = Model::new();
//! let a = m.real_var();
//! let b = m.real_var();
//! let ab = m.bool_var(); // a before b
//! let ba = m.bool_var(); // b before a
//! m.guard(ab, m.ge_diff(b, a, 100));
//! m.guard(ba, m.ge_diff(a, b, 100));
//! m.at_most_one(vec![ab, ba]);
//!
//! // Prefer serialization (cost 0) over overlap (cost 1), ties to `ab`.
//! struct Serialize;
//! impl Objective for Serialize {
//!     fn evaluate(&self, bools: &[bool], _times: &[i64]) -> f64 {
//!         if bools[0] || bools[1] { 0.0 } else { 1.0 }
//!     }
//! }
//! let (sol, outcome) = Optimizer::new(m).minimize(&Serialize);
//! let sol = sol.expect("satisfiable");
//! assert!(outcome.complete);
//! assert_eq!(sol.cost, 0.0);
//! assert!(sol.bools[0] ^ sol.bools[1]);
//! ```

mod dl;
mod model;
mod search;

pub use dl::{DiffConstraint, DifferenceLogic};
pub use model::{BoolVar, Model, RealVar};
pub use search::{Objective, Optimizer, SearchConfig, SearchOutcome, Solution};
