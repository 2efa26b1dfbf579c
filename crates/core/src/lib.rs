//! # epoc — an Efficient Pulse generation framework with advanced
//! synthesis for quantum Circuits
//!
//! A from-scratch Rust reproduction of the EPOC pipeline (DAC 2025):
//! ZX-calculus depth optimization → greedy circuit partitioning →
//! QSearch-style VUG synthesis → regrouping → GRAPE-based quantum optimal
//! control with a global-phase-aware pulse library → ASAP pulse schedule.
//!
//! ## Quickstart
//!
//! ```
//! use epoc::{EpocCompiler, EpocConfig};
//! use epoc_circuit::generators;
//!
//! let compiler = EpocCompiler::new(EpocConfig::fast());
//! let report = compiler.compile(&generators::ghz(3)).unwrap();
//! assert!(report.verified);
//! println!("{}", report.summary());
//! ```
//!
//! Comparator flows for the paper's Table 1 live in [`baselines`]; the
//! subsystem crates (`epoc-zx`, `epoc-synth`, `epoc-qoc`, …) are
//! re-exported for convenience.

#![warn(missing_docs)]

pub mod baselines;
mod config;
mod error;
mod pipeline;
mod report;
mod simulate;

pub use config::{Backend, EpocConfig, RecoveryPolicy};
pub use error::{EpocError, ScheduleError};
pub use pipeline::{compile_default, is_compilable, EpocCompiler};
pub use report::{
    CompilationReport, HardwareStats, RecoveryRecord, StageStats, StageTimings, RUNG_HW_DIGITAL,
    RUNG_SCHEDULE_RECOMPUTE, RUNG_SYNTH_BUDGET, RUNG_SYNTH_FALLBACK,
};
pub use simulate::{simulate_schedule, SimulationStats};

// Pulse-library storage/persistence types, re-exported so service code
// can configure the store without importing `epoc_qoc` directly.
pub use epoc_qoc::{LibraryError, StoreConfig};

pub use epoc_circuit as circuit;
pub use epoc_hw as hw;
pub use epoc_linalg as linalg;
pub use epoc_partition as partition;
pub use epoc_pulse as pulse;
pub use epoc_qoc as qoc;
pub use epoc_sim as sim;
pub use epoc_synth as synth;
pub use epoc_zx as zx;
