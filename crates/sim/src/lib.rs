//! Noisy quantum-circuit simulator: the stand-in for IBMQ hardware.
//!
//! The paper runs every experiment on three real 20-qubit IBM machines;
//! this crate replaces them with a noisy simulator whose error model
//! compounds the same way real hardware noise does:
//!
//! * every gate is applied ideally, then hit by a depolarizing Pauli error
//!   whose probability comes from the device calibration — and, for
//!   two-qubit gates that *overlap in time* with a high-crosstalk partner,
//!   is amplified by the device's ground-truth [`xtalk_device::CrosstalkMap`]
//!   (taking the max over overlapping aggressors, the paper's Eq. 6 model);
//! * idle gaps on each qubit suffer amplitude damping (`1−e^{−t/T1}`) and
//!   dephasing (`1−e^{−t/T2}`), starting from the qubit's first operation
//!   (the IBM convention the paper exploits in its Figure 6 case study);
//! * readout flips each measured bit with the calibrated assignment error.
//!
//! Connected components of the circuit's interaction graph are simulated
//! independently (exact, since no unitary spans components), which keeps
//! bin-packed simultaneous-RB experiments cheap. Every run compiles the
//! schedule ([`Executor::program`]), then samples it ([`Executor::sample`];
//! [`Executor::run`] does both), each component on one of two backends:
//!
//! * **exact** — when every measurement is terminal on its qubit, each
//!   clbit is written once, `w ≤ 8` and `4^w` × its steps stays within one
//!   claim's work cap, its channel is evolved once as a density matrix
//!   into a table of outcome probabilities (readout flips folded in), and
//!   each shot is one draw from it;
//! * **trajectory** — every other component samples a statevector
//!   trajectory per shot, as above.
//!
//! The choice depends only on the schedule, never on the shot count. Both
//! backends sample the same channels: counts agree in distribution.
//!
//! Also provided: exact noise-free execution ([`ideal`]), two-qubit state
//! tomography ([`tomography`]), readout-error mitigation ([`mitigation`])
//! and distribution metrics ([`metrics`]) — the measurement toolkit of the
//! paper's Section 8.4.

mod complex;
mod counts;
#[cfg(test)]
mod density;
mod executor;
pub mod ideal;
mod matrix;
pub mod metrics;
pub mod mitigation;
mod noise;
mod state;
pub mod tomography;

pub use complex::C64;
pub use counts::Counts;
pub use executor::{Executor, ExecutorConfig, Prepared, RunOutcome};
pub use matrix::{single_qubit_matrix, two_qubit_matrix, Mat2, Mat4};
pub use noise::{
    depolarizing_prob_for_error_1q, depolarizing_prob_for_error_2q, NoiseModel,
};
pub use state::StateVector;
