//! # epoc-qoc — quantum optimal control for the EPOC pulse compiler
//!
//! Everything between "unitary block" and "microwave pulse":
//!
//! * [`DeviceModel`] — the simulated transmon-line system (drift +
//!   bounded X/Y drives) pulses are optimized against;
//! * [`grape`] — GRAPE with exact propagator-derivative gradients (and a
//!   first-order mode for the ablation);
//! * [`minimize_duration`] — the AccQOC binary search for the shortest
//!   pulse reaching a fidelity threshold;
//! * [`PulseLibrary`] — the unitary→pulse cache, with EPOC's
//!   global-phase-aware key policy and the phase-sensitive baseline,
//!   persisted as checksummed record lines ([`save_library_file`],
//!   [`load_library_file`], [`JournalWriter`]);
//! * [`DurationModel`] — the calibrated duration model substituting for
//!   cluster-scale GRAPE on wide blocks;
//! * [`PulseSynthesizer`] backends ([`GrapeSynthesizer`],
//!   [`ModeledSynthesizer`], [`HybridSynthesizer`]).
//!
//! ## Example
//!
//! ```
//! use epoc_circuit::Gate;
//! use epoc_qoc::{grape, DeviceModel, GrapeConfig};
//!
//! let device = DeviceModel::transmon_line(1).unwrap();
//! let result = grape(&device, &Gate::Sx.unitary_matrix(), 16, &GrapeConfig::default()).unwrap();
//! assert!(result.fidelity > 0.99);
//! ```

#![warn(missing_docs)]

mod device;
mod duration;
mod grape;
mod journal;
mod library;
mod model;
mod store;
mod synthesizer;
mod waveform;

pub use device::{ControlChannel, DeviceError, DeviceModel, MAX_MODEL_QUBITS};
pub use duration::{
    minimize_duration, minimize_duration_with_cancel, DurationError, DurationSearchConfig,
    GrapeRecoveryPolicy, PulseSolution, SearchDurationError,
};
pub use grape::{
    fault_fingerprint, grape, propagate, GradientMode, GrapeConfig, GrapeError, GrapeResult,
};
pub use journal::{load_library_file, save_library_file, JournalWriter};
pub use library::{CacheKey, InsertObserver, KeyPolicy, PulseEntry, PulseLibrary};
pub use model::{DurationModel, GateDurationTable};
pub use store::{entry_bytes, LibraryError, StoreConfig};
pub use synthesizer::{
    GrapeSynthesizer, HybridSynthesizer, ModeledSynthesizer, PulseError, PulseRequest,
    PulseSynthesizer, RecoveredPulse, RUNG_GRAPE_DIGITAL, RUNG_GRAPE_RESTARTS, RUNG_GRAPE_SLOTS,
};
pub use waveform::PulseWaveform;
