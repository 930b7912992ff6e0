//! # xtalk-pass
//!
//! The typed pass-manager underlying the compile/execute flow.
//!
//! The paper's toolchain (Sections 6–7) is a staged pipeline — lower to
//! native gates, layout, route, schedule, realize, execute. This crate
//! gives each stage a uniform shape:
//!
//! * [`Pass`] — one stage, with a hashable input artifact and a typed
//!   output artifact;
//! * [`PassManager`] — runs passes while applying every cross-cutting
//!   concern exactly once: an obs span per pass (`pass.<id>`), a fault
//!   injection point per pass (`pass.<id>`) and a content-addressed
//!   artifact cache. It hands every pass its budget and never refuses to
//!   start one; only anytime passes (search, execution) act on it;
//! * [`ArtifactCache`] — keyed by `(pass id, FNV-1a hash of the input
//!   artifact + pass config, device epoch)`, so identical compile prefixes
//!   are shared across schedulers, jobs and sessions while calibration
//!   drift (epoch bumps) naturally invalidates stale artifacts;
//! * [`ContentHash`] / [`Fnv1a`] — structural hashing of IR and device
//!   types, invariant under re-serialization (`Fnv1a` is re-exported
//!   from `xtalk-ir`, where circuits memoize their content keys);
//! * [`lower`] — the native-basis lowering shared by the core pipeline
//!   and the characterization circuit builders.
//!
//! Determinism is the contract: a cached artifact is bit-identical to
//! what re-running the pass would produce, so cached and uncached
//! compiles yield the same `ScheduledCircuit`s and the same counts.

pub mod cache;
pub mod hash;
pub mod lower;
pub mod manager;

pub use cache::{ArtifactCache, EpochToken};
pub use hash::{ContentHash, Fnv1a};
pub use lower::{is_native, lower_instruction, lower_to_native};
pub use manager::{Pass, PassError, PassManager};
