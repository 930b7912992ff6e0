//! Error types for routing and scheduling.

use std::error::Error;
use std::fmt;
use xtalk_pass::PassError;

/// Errors produced by the scheduling and routing layers.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The requested qubits are disconnected in the coupling graph.
    NoPath {
        /// Source qubit.
        from: u32,
        /// Destination qubit.
        to: u32,
    },
    /// The circuit contains a two-qubit gate on non-adjacent qubits (it
    /// was not routed before scheduling).
    NotHardwareCompliant {
        /// Offending instruction index.
        instruction: usize,
    },
    /// The serialization constraints became cyclic (internal invariant;
    /// should not escape the scheduler).
    CyclicConstraints,
    /// The circuit declares more qubits than the device provides.
    WidthExceeded {
        /// Qubits the circuit declares.
        circuit: usize,
        /// Qubits the device provides.
        device: usize,
    },
    /// An injected fault fired at a pass boundary (`pass.<id>`).
    Fault(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoPath { from, to } => {
                write!(f, "no path between qubit {from} and qubit {to} in the coupling graph")
            }
            CoreError::NotHardwareCompliant { instruction } => write!(
                f,
                "instruction {instruction} applies a two-qubit gate to non-adjacent qubits"
            ),
            CoreError::CyclicConstraints => {
                write!(f, "serialization constraints form a cycle")
            }
            CoreError::WidthExceeded { circuit, device } => {
                write!(f, "circuit uses {circuit} qubits but the device has {device}")
            }
            CoreError::Fault(msg) => write!(f, "injected fault: {msg}"),
        }
    }
}

impl Error for CoreError {}

impl From<PassError<CoreError>> for CoreError {
    /// Flattens a managed pass failure: an injected fault maps to
    /// [`CoreError::Fault`], a stage failure passes through unchanged.
    fn from(e: PassError<CoreError>) -> CoreError {
        match e {
            PassError::Fault(msg) => CoreError::Fault(msg),
            PassError::Pass(inner) => inner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            CoreError::NoPath { from: 0, to: 5 },
            CoreError::NotHardwareCompliant { instruction: 3 },
            CoreError::CyclicConstraints,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_std_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<CoreError>();
    }
}
