//! Crosstalk-adaptive instruction scheduling (the paper's Sections 6–7).
//!
//! Given a hardware-compliant circuit (already mapped and routed), a
//! scheduler assigns a start time to every instruction. Three schedulers
//! are provided, matching the paper's Table 1:
//!
//! | Scheduler | Objective |
//! |---|---|
//! | [`SerialSched`] | Mitigate crosstalk: run everything serially |
//! | [`ParSched`] | Mitigate decoherence: maximum parallelism, right-aligned (the IBM/Qiskit default) |
//! | [`XtalkSched`] | Both: constrained optimization over serialization decisions with the ω-weighted objective of Eq. 17 |
//!
//! [`XtalkSched`] consumes a [`SchedulerContext`] holding the calibration
//! (durations, coherence) and the crosstalk [`xtalk_charac::Characterization`]
//! — *estimates*, never the device ground truth — and minimizes
//!
//! ```text
//! ω · Σ_gates log ε(g)  +  (1 − ω) · Σ_qubits  t(q) / T(q)
//! ```
//!
//! where `ε(g)` is the conditional error implied by the schedule's
//! overlaps (max over overlapping high-crosstalk partners, Eq. 6/7) and
//! `t(q)` the qubit lifetime under IBM right-alignment. `ω = 0`
//! reproduces maximal parallelism, `ω = 1` ignores decoherence, exactly
//! as in the paper's Figure 8/9 sweeps.
//!
//! Also here: SWAP-path routing ([`routing`]) and the paper's
//! application benchmarks ([`bench_circuits`]); [`Compiler`] schedules,
//! executes (via `xtalk-sim`) and scores circuits.
//!
//! The compile flow itself is expressed as typed passes ([`passes`])
//! over hashable artifacts, driven by a [`Compiler`] that applies
//! spans, fault points, budget polls and a content-addressed artifact
//! cache uniformly (see `xtalk-pass`).

pub mod bench_circuits;
mod compile;
mod context;
mod error;
pub mod layout;
pub mod optimize;
pub mod passes;
mod realize;
pub mod routing;
pub mod sched;
mod timeline;

pub use compile::{Compiler, SwapRunOutcome};
pub use context::SchedulerContext;
pub use error::CoreError;
pub use passes::{
    NativeCircuit, PlacedCircuit, ProgramArtifact, RealizedSchedule, ScheduledArtifact,
};
pub use realize::{realize, to_barriered_circuit};
pub use sched::par::ParSched;
pub use sched::serial::SerialSched;
pub use sched::xtalk::{OrderingPolicy, XtalkSched, XtalkSchedReport};
pub use sched::{scheduler_by_name, Scheduler, SchedulerName};
