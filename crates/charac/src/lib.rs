//! Fast crosstalk characterization (paper Section 5 and 8.1).
//!
//! Crosstalk between two hardware CNOTs is measured by *simultaneous
//! randomized benchmarking* (SRB): run two-qubit RB on gate `gᵢ` while
//! also running it on `gⱼ`; if the conditional error rate `E(gᵢ|gⱼ)` far
//! exceeds the independent rate `E(gᵢ)`, the pair interferes. Measuring
//! every simultaneous pair is prohibitively expensive (>8 h of machine
//! time on a 20-qubit device), so the paper introduces three
//! optimizations, all implemented here:
//!
//! 1. **One-hop only** ([`policy::CharacterizationPolicy::OneHop`]) —
//!    dispersive coupling makes crosstalk a nearest-neighbor effect.
//! 2. **Bin-packed parallel SRB** ([`binpack`]) — pairs at least 2 hops
//!    apart are measured in the same experiment, packed by randomized
//!    first-fit.
//! 3. **High-crosstalk pairs only**
//!    ([`policy::CharacterizationPolicy::HighCrosstalkOnly`]) — the set of
//!    interfering pairs is stable day to day, so daily runs can restrict
//!    to it.
//!
//! The full flow ([`pipeline::characterize`]) runs against the simulator
//! and produces a [`pipeline::Characterization`] of estimated conditional
//! error rates — the input the crosstalk-adaptive scheduler consumes.

pub mod binpack;
pub mod fit;
pub mod irb;
pub mod pipeline;
pub mod policy;
pub mod rb;
pub mod srb;

pub use fit::{error_per_clifford, fit_decay, fit_decay_bootstrap, fit_decay_fixed_offset, DecayFit};
pub use pipeline::{characterize, characterize_budgeted, CharacError, Characterization, CharacterizationReport};
pub use policy::{CharacterizationPolicy, PolicyName};
pub use rb::RbConfig;
