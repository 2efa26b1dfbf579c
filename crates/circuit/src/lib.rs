//! # epoc-circuit — quantum circuit IR, OpenQASM, simulation, benchmarks
//!
//! The circuit substrate of the EPOC reproduction:
//!
//! * [`Gate`] / [`Circuit`] — the gate set and circuit IR all EPOC passes
//!   operate on, including opaque [`Gate::Unitary`] blocks for synthesized
//!   VUGs and regrouped unitaries.
//! * [`CircuitDag`] — dependency DAG (drives the latency models).
//! * [`parse_qasm`] / [`to_qasm`] — OpenQASM 2.0 import/export.
//! * [`StateVector`] / [`simulate`] / [`circuits_equivalent`] — statevector
//!   simulation for semantic verification.
//! * [`generators`] — the QASMBench-family benchmark circuits the paper
//!   evaluates on (generated in code; see DESIGN.md for the substitution
//!   note).
//!
//! ## Example
//!
//! ```
//! use epoc_circuit::{Circuit, Gate, simulate};
//!
//! let mut c = Circuit::new(2);
//! c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
//! let state = simulate(&c);
//! assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

mod basis;
mod circuit;
mod dag;
mod euler;
mod gate;
pub mod generators;
mod qasm;
mod sim;

pub use basis::{is_basis_gate, lower_to_basis};
pub use circuit::{Circuit, Operation};
pub use dag::{CircuitDag, DagNode};
pub use euler::{
    append_controlled_unitary, append_single_qubit_unitary, zyz_decompose, ZyzAngles,
};
pub use gate::{controlled, Gate};
pub use qasm::{parse_qasm, to_qasm, ParseQasmError};
pub use sim::{circuits_equivalent, simulate, StateVector, VERIFY_QUBIT_LIMIT};
