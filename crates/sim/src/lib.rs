//! Noisy quantum-circuit simulator: the stand-in for IBMQ hardware.
//!
//! The paper runs every experiment on three real 20-qubit IBM machines;
//! this crate replaces them with a Monte-Carlo *trajectory* statevector
//! simulator whose error model compounds the same way real hardware noise
//! does:
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
//! bin-packed simultaneous-RB experiments cheap.
//!
//! Also provided: exact noise-free execution ([`ideal`]), two-qubit state
//! tomography ([`tomography`]), readout-error mitigation ([`mitigation`])
//! and distribution metrics ([`metrics`]) — the measurement toolkit of the
//! paper's Section 8.4.

mod complex;
mod counts;
pub mod density;
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
pub use executor::{Executor, ExecutorConfig, RunOutcome};
pub use matrix::{single_qubit_matrix, two_qubit_matrix, Mat2, Mat4};
pub use noise::{
    depolarizing_prob_for_error_1q, depolarizing_prob_for_error_2q, NoiseModel,
};
pub use state::StateVector;
