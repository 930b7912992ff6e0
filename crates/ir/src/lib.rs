//! Quantum circuit intermediate representation.
//!
//! This crate provides the program representation used throughout the
//! crosstalk-mitigation toolchain:
//!
//! * [`Qubit`] / [`Clbit`] — typed indices for quantum and classical bits.
//! * [`Gate`] — the gate set (IBMQ-style basis plus common conveniences).
//! * [`Instruction`] — a gate applied to concrete qubits.
//! * [`Circuit`] — an ordered instruction list with a builder API.
//! * [`Dag`] — the data-dependency DAG of a circuit (ancestors, descendants,
//!   layers, and the `CanOlp` overlap sets from the paper).
//! * [`ScheduledCircuit`] — a circuit with explicit start times, the output
//!   of an instruction scheduler.
//! * [`qasm`] — OpenQASM 2.0 export/import.
//!
//! # Example
//!
//! ```
//! use xtalk_ir::Circuit;
//!
//! let mut c = Circuit::new(2, 2);
//! c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! assert_eq!(c.len(), 4);
//! assert_eq!(c.depth(), 3);
//! let dag = c.dag();
//! assert!(dag.depends_on(1, 0)); // the CX depends on the H
//! ```

mod circuit;
mod dag;
pub mod draw;
mod error;
mod gate;
mod instruction;
pub mod qasm;
mod qubit;
mod scheduled;

pub use circuit::Circuit;
pub use dag::Dag;
pub use error::IrError;
pub use gate::Gate;
pub use instruction::Instruction;
pub use qubit::{Clbit, Qubit};
pub use scheduled::{OverlapSweep, ScheduleSlot, ScheduledCircuit};
