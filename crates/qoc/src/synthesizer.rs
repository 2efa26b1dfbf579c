//! Pulse synthesizer backends.
//!
//! A [`PulseSynthesizer`] turns a unitary block into a pulse (duration +
//! fidelity). Three backends:
//!
//! * [`GrapeSynthesizer`] — real GRAPE + duration binary search against
//!   the simulated device, with a [`PulseLibrary`] cache in front;
//! * [`ModeledSynthesizer`] — the calibrated [`DurationModel`];
//! * [`HybridSynthesizer`] — GRAPE up to a width limit, model beyond,
//!   behind one [`PulseSynthesizer::pulse`] call. The compilers hold the
//!   GRAPE and model backends themselves and route each block in their
//!   pulse stage, with the same rule.

use crate::device::{DeviceError, DeviceModel};
use crate::duration::{minimize_duration_with_cancel, DurationError, DurationSearchConfig};
use crate::grape::GrapeError;
use crate::library::{KeyPolicy, PulseEntry, PulseLibrary};
use crate::model::DurationModel;
use crate::store::StoreConfig;
use crate::waveform::PulseWaveform;
use epoc_circuit::Circuit;
use epoc_linalg::Matrix;
use std::sync::Arc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pulse-synthesis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PulseError {
    /// A GRAPE probe failed outright (bad inputs or numerics).
    Grape(GrapeError),
    /// The block is wider than the backend's GRAPE cap.
    TooWide {
        /// Requested block width.
        n_qubits: usize,
        /// The backend's width cap.
        max: usize,
    },
    /// The backend needs the block unitary but the request carried none.
    MissingUnitary,
    /// The device model for the block width could not be built.
    Device(DeviceError),
    /// Strict mode: the fidelity target was missed after every recovery
    /// rung (non-strict backends degrade to a digital fallback instead).
    Unconverged {
        /// Best fidelity any rung reached.
        fidelity: f64,
        /// The fidelity target that was missed.
        threshold: f64,
    },
}

impl std::fmt::Display for PulseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Grape(e) => e.fmt(f),
            Self::TooWide { n_qubits, max } => {
                write!(f, "block of {n_qubits} qubits exceeds GRAPE limit {max}")
            }
            Self::MissingUnitary => write!(f, "GRAPE backend needs the block unitary"),
            Self::Device(e) => e.fmt(f),
            Self::Unconverged { fidelity, threshold } => write!(
                f,
                "pulse fidelity {fidelity:.6} missed target {threshold:.6} after every recovery rung (strict mode)"
            ),
        }
    }
}

impl std::error::Error for PulseError {}

impl From<GrapeError> for PulseError {
    fn from(e: GrapeError) -> Self {
        Self::Grape(e)
    }
}

impl From<DeviceError> for PulseError {
    fn from(e: DeviceError) -> Self {
        Self::Device(e)
    }
}

/// Recovery-ladder rung label: escalated GRAPE restarts.
pub const RUNG_GRAPE_RESTARTS: &str = "recovery.grape.restarts";
/// Recovery-ladder rung label: escalated slot cap (longer pulse).
pub const RUNG_GRAPE_SLOTS: &str = "recovery.grape.slots";
/// Recovery-ladder rung label: digital fallback after all escalations.
pub const RUNG_GRAPE_DIGITAL: &str = "recovery.grape.digital";

/// A pulse entry together with the recovery rungs climbed to produce it
/// (empty when the base attempt succeeded). Rung labels double as
/// `recovery.*` telemetry counter names.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredPulse {
    /// The pulse (possibly from an escalated or fallback rung).
    pub entry: PulseEntry,
    /// Ladder rungs climbed, in order.
    pub rungs: Vec<&'static str>,
}

/// What a pulse is requested for.
#[derive(Debug, Clone, Copy)]
pub struct PulseRequest<'a> {
    /// Width of the block.
    pub n_qubits: usize,
    /// Dense unitary, when available (required by GRAPE).
    pub unitary: Option<&'a Matrix>,
    /// The block's local circuit, when available (used by the model).
    pub local_circuit: Option<&'a Circuit>,
}

/// A backend that produces pulses for unitary blocks.
pub trait PulseSynthesizer: Send + Sync {
    /// Produces (or retrieves) the pulse for a block.
    ///
    /// # Errors
    ///
    /// Returns [`PulseError`] when the request cannot be served (wrong
    /// width, missing unitary, numerical failure, or a strict-mode
    /// fidelity miss).
    fn pulse(&self, request: &PulseRequest<'_>) -> Result<PulseEntry, PulseError>;
}

/// Real-GRAPE backend with pulse-library caching.
pub struct GrapeSynthesizer {
    library: PulseLibrary,
    search: DurationSearchConfig,
    /// Width cap — requests beyond it error (route them to a hybrid).
    max_qubits: usize,
    /// GRAPE iterations spent by this backend across all searches.
    iterations: AtomicUsize,
    /// Duration-search GRAPE probes spent by this backend.
    probes: AtomicUsize,
}

impl GrapeSynthesizer {
    /// Creates a GRAPE backend with the given cache policy.
    pub fn new(policy: KeyPolicy, search: DurationSearchConfig, max_qubits: usize) -> Self {
        Self::with_store_config(policy, search, max_qubits, &StoreConfig::default())
    }

    /// Like [`GrapeSynthesizer::new`] with an explicit library store
    /// configuration (an optional byte budget — see [`StoreConfig`]).
    pub fn with_store_config(
        policy: KeyPolicy,
        search: DurationSearchConfig,
        max_qubits: usize,
        store: &StoreConfig,
    ) -> Self {
        // Scope the cache to the hardware profile GRAPE optimizes under:
        // constrained pulses are only correct for their control stack, so
        // the profile hash is part of every cache key (and the persisted
        // section header).
        let profile_hash = epoc_hw::profile_hash(search.grape.hw.as_ref());
        Self {
            library: PulseLibrary::from_config(policy, store).with_profile_hash(profile_hash),
            search,
            max_qubits: max_qubits.clamp(1, 6),
            iterations: AtomicUsize::new(0),
            probes: AtomicUsize::new(0),
        }
    }

    /// The cache.
    pub fn library(&self) -> &PulseLibrary {
        &self.library
    }

    /// Width cap.
    pub fn max_qubits(&self) -> usize {
        self.max_qubits
    }

    /// GRAPE iterations spent so far (every Adam step of every restart of
    /// every probe, including failed probes).
    pub fn total_iterations(&self) -> usize {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Duration-search GRAPE probes run so far.
    pub fn total_probes(&self) -> usize {
        self.probes.load(Ordering::Relaxed)
    }

    /// Runs the duration search for `unitary` — escalating through the
    /// configured [recovery ladder](crate::GrapeRecoveryPolicy) on a
    /// below-threshold result — without consulting or updating the
    /// library. Deterministic given the inputs, so batch schedulers can
    /// compute cache misses out of order in parallel and replay the
    /// library bookkeeping (and recovery records) serially.
    ///
    /// # Errors
    ///
    /// Returns [`PulseError`] when `n_qubits` exceeds the width cap, a
    /// probe fails numerically, or (strict mode) the fidelity target is
    /// missed after every rung.
    pub fn compute_uncached(
        &self,
        n_qubits: usize,
        unitary: &Matrix,
    ) -> Result<RecoveredPulse, PulseError> {
        self.compute_uncached_with_cancel(n_qubits, unitary, &epoc_rt::cancel::CancelScope::none())
    }

    /// [`GrapeSynthesizer::compute_uncached`] with a cooperative-
    /// cancellation scope. The scope's GRAPE-iteration budget spans every
    /// rung of the recovery ladder: once exhausted, each remaining
    /// attempt's Adam loops break immediately, so the ladder falls
    /// through deterministically to the digital fallback (or a strict
    /// error) regardless of worker count.
    ///
    /// # Errors
    ///
    /// All of [`GrapeSynthesizer::compute_uncached`]'s errors; a hard
    /// cancel (flag or deadline) surfaces as [`PulseError::Grape`]
    /// wrapping [`GrapeError::Canceled`] and aborts the ladder.
    pub fn compute_uncached_with_cancel(
        &self,
        n_qubits: usize,
        unitary: &Matrix,
        cancel: &epoc_rt::cancel::CancelScope,
    ) -> Result<RecoveredPulse, PulseError> {
        if n_qubits > self.max_qubits {
            return Err(PulseError::TooWide {
                n_qubits,
                max: self.max_qubits,
            });
        }
        let device = DeviceModel::transmon_line(n_qubits)?;
        let policy = self.search.recovery;
        let mut search = self.search.clone();
        let mut rungs: Vec<&'static str> = Vec::new();
        let mut best_fidelity = 0.0f64;

        // The ladder: base attempt, then restart escalations (doubled
        // restarts, perturbed seed), then slot escalations (doubled cap,
        // probing straight at the new cap since everything below failed).
        // Every attempt is a pure function of its config, so the climbed
        // rungs are identical at any worker count.
        let attempts = 1 + policy.restart_escalations + policy.slot_escalations;
        for attempt in 0..attempts {
            if attempt > 0 {
                if attempt <= policy.restart_escalations {
                    search.grape.restarts = (search.grape.restarts * 2).max(2);
                    search.grape.seed = search.grape.seed.wrapping_add(0x9E3779B9);
                    rungs.push(RUNG_GRAPE_RESTARTS);
                } else {
                    search.initial_slots = search.max_slots * 2;
                    search.max_slots *= 2;
                    rungs.push(RUNG_GRAPE_SLOTS);
                }
            }
            match minimize_duration_with_cancel(&device, unitary, &search, cancel) {
                Ok(sol) => {
                    self.iterations.fetch_add(sol.total_iterations, Ordering::Relaxed);
                    self.probes.fetch_add(sol.probes, Ordering::Relaxed);
                    // The entry records the stored waveform's own fidelity,
                    // not GRAPE's last evaluated iterate's.
                    return Ok(RecoveredPulse {
                        entry: PulseEntry {
                            duration: sol.result.duration,
                            fidelity: sol.fidelity,
                            n_slots: sol.n_slots,
                            waveform: Some(Arc::new(PulseWaveform::new(
                                device.dt(),
                                sol.result.controls,
                            ))),
                        },
                        rungs,
                    });
                }
                Err(DurationError::Unconverged(err)) => {
                    self.iterations.fetch_add(err.total_iterations, Ordering::Relaxed);
                    self.probes.fetch_add(err.probes, Ordering::Relaxed);
                    best_fidelity = best_fidelity.max(err.best_fidelity);
                }
                Err(DurationError::Grape(e)) => return Err(PulseError::Grape(e)),
            }
        }
        if policy.strict {
            return Err(PulseError::Unconverged {
                fidelity: best_fidelity,
                threshold: self.search.fidelity_threshold,
            });
        }
        // Last rung: digital fallback. The entry carries no waveform, so
        // downstream scheduling applies the block's exact unitary as a
        // digital event — i.e. the block executes as calibrated gates
        // rather than an optimized pulse, at the modeled gate fidelity.
        rungs.push(RUNG_GRAPE_DIGITAL);
        let model = DurationModel::default();
        Ok(RecoveredPulse {
            entry: PulseEntry {
                duration: model.width_duration(n_qubits),
                fidelity: model.pulse_fidelity,
                n_slots: 0,
                waveform: None,
            },
            rungs,
        })
    }
}

impl Default for GrapeSynthesizer {
    fn default() -> Self {
        Self::new(KeyPolicy::PhaseAware, DurationSearchConfig::default(), 2)
    }
}

impl PulseSynthesizer for GrapeSynthesizer {
    fn pulse(&self, request: &PulseRequest<'_>) -> Result<PulseEntry, PulseError> {
        let unitary = request.unitary.ok_or(PulseError::MissingUnitary)?;
        if request.n_qubits > self.max_qubits {
            return Err(PulseError::TooWide {
                n_qubits: request.n_qubits,
                max: self.max_qubits,
            });
        }
        if let Some(entry) = self.library.lookup(unitary) {
            return Ok(entry);
        }
        let recovered = self.compute_uncached(request.n_qubits, unitary)?;
        self.library.insert(unitary, recovered.entry.clone());
        Ok(recovered.entry)
    }
}

/// Calibrated-model backend (no GRAPE at request time).
pub struct ModeledSynthesizer {
    model: DurationModel,
    library: PulseLibrary,
}

impl ModeledSynthesizer {
    /// Creates a model backend.
    pub fn new(model: DurationModel, policy: KeyPolicy) -> Self {
        Self::with_store_config(model, policy, &StoreConfig::default())
    }

    /// Like [`ModeledSynthesizer::new`] with an explicit library store
    /// configuration.
    pub fn with_store_config(
        model: DurationModel,
        policy: KeyPolicy,
        store: &StoreConfig,
    ) -> Self {
        Self {
            model,
            library: PulseLibrary::from_config(policy, store),
        }
    }

    /// The model in use.
    pub fn model(&self) -> &DurationModel {
        &self.model
    }

    /// The cache.
    pub fn library(&self) -> &PulseLibrary {
        &self.library
    }
}

impl Default for ModeledSynthesizer {
    fn default() -> Self {
        Self::new(DurationModel::default(), KeyPolicy::PhaseAware)
    }
}

impl PulseSynthesizer for ModeledSynthesizer {
    fn pulse(&self, request: &PulseRequest<'_>) -> Result<PulseEntry, PulseError> {
        if let Some(u) = request.unitary {
            if let Some(entry) = self.library.lookup(u) {
                return Ok(entry);
            }
        }
        let duration = match request.local_circuit {
            Some(c) => self.model.block_duration(c),
            None => self.model.width_duration(request.n_qubits),
        };
        let entry = PulseEntry {
            duration,
            fidelity: self.model.pulse_fidelity,
            n_slots: (duration / 2.0).ceil() as usize,
            waveform: None,
        };
        if let Some(u) = request.unitary {
            self.library.insert(u, entry.clone());
        }
        Ok(entry)
    }
}

/// GRAPE for narrow blocks, calibrated model beyond.
pub struct HybridSynthesizer {
    grape: GrapeSynthesizer,
    model: ModeledSynthesizer,
}

impl HybridSynthesizer {
    /// Creates a hybrid backend: GRAPE up to `grape_limit` qubits.
    pub fn new(policy: KeyPolicy, grape_limit: usize, model: DurationModel) -> Self {
        Self::with_search(policy, DurationSearchConfig::default(), grape_limit, model)
    }

    /// Like [`HybridSynthesizer::new`] with explicit duration-search
    /// settings (e.g. a hardware profile plumbed from the pipeline).
    pub fn with_search(
        policy: KeyPolicy,
        search: DurationSearchConfig,
        grape_limit: usize,
        model: DurationModel,
    ) -> Self {
        Self::with_search_store(policy, search, grape_limit, model, &StoreConfig::default())
    }

    /// Like [`HybridSynthesizer::with_search`] with an explicit library
    /// store configuration shared (by configuration, not by instance)
    /// between the two sub-backends' caches.
    pub fn with_search_store(
        policy: KeyPolicy,
        search: DurationSearchConfig,
        grape_limit: usize,
        model: DurationModel,
        store: &StoreConfig,
    ) -> Self {
        Self {
            grape: GrapeSynthesizer::with_store_config(policy, search, grape_limit, store),
            model: ModeledSynthesizer::with_store_config(model, policy, store),
        }
    }

    /// The GRAPE sub-backend.
    pub fn grape(&self) -> &GrapeSynthesizer {
        &self.grape
    }

    /// The model sub-backend.
    pub fn modeled(&self) -> &ModeledSynthesizer {
        &self.model
    }

    /// GRAPE iterations spent by the GRAPE sub-backend so far.
    pub fn total_iterations(&self) -> usize {
        self.grape.total_iterations()
    }

    /// Duration-search GRAPE probes run by the GRAPE sub-backend so far.
    pub fn total_probes(&self) -> usize {
        self.grape.total_probes()
    }
}

impl Default for HybridSynthesizer {
    fn default() -> Self {
        Self::new(KeyPolicy::PhaseAware, 2, DurationModel::default())
    }
}

impl PulseSynthesizer for HybridSynthesizer {
    fn pulse(&self, request: &PulseRequest<'_>) -> Result<PulseEntry, PulseError> {
        if request.n_qubits <= self.grape.max_qubits() && request.unitary.is_some() {
            self.grape.pulse(request)
        } else {
            self.model.pulse(request)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::GrapeRecoveryPolicy;
    use epoc_circuit::Gate;

    #[test]
    fn grape_backend_caches() {
        let s = GrapeSynthesizer::new(
            KeyPolicy::PhaseAware,
            DurationSearchConfig {
                initial_slots: 8,
                max_slots: 64,
                ..Default::default()
            },
            1,
        );
        let x = Gate::X.unitary_matrix();
        let req = PulseRequest {
            n_qubits: 1,
            unitary: Some(&x),
            local_circuit: None,
        };
        let a = s.pulse(&req).unwrap();
        assert!(a.fidelity > 0.999);
        assert!(a.duration >= 24.0, "duration {}", a.duration);
        let b = s.pulse(&req).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.library().hits(), 1);
        assert_eq!(s.library().misses(), 1);
    }

    #[test]
    fn bad_requests_return_typed_errors() {
        let s = GrapeSynthesizer::new(KeyPolicy::PhaseAware, DurationSearchConfig::default(), 1);
        let no_unitary = PulseRequest {
            n_qubits: 1,
            unitary: None,
            local_circuit: None,
        };
        assert_eq!(s.pulse(&no_unitary).unwrap_err(), PulseError::MissingUnitary);
        let cx = Gate::CX.unitary_matrix();
        let wide = PulseRequest {
            n_qubits: 2,
            unitary: Some(&cx),
            local_circuit: None,
        };
        assert_eq!(
            s.pulse(&wide).unwrap_err(),
            PulseError::TooWide { n_qubits: 2, max: 1 }
        );
    }

    #[test]
    fn ladder_slot_escalation_rescues_short_cap() {
        // X needs ≥ 13 slots; a cap of 8 fails, and the slot rung's
        // doubled cap (16) succeeds — one recorded rung, real waveform.
        let search = DurationSearchConfig {
            initial_slots: 8,
            max_slots: 8,
            recovery: GrapeRecoveryPolicy {
                restart_escalations: 0,
                slot_escalations: 1,
                strict: false,
            },
            ..Default::default()
        };
        let s = GrapeSynthesizer::new(KeyPolicy::PhaseAware, search.clone(), 1);
        let rec = s.compute_uncached(1, &Gate::X.unitary_matrix()).unwrap();
        assert_eq!(rec.rungs, vec![RUNG_GRAPE_SLOTS]);
        assert!(rec.entry.fidelity >= search.fidelity_threshold);
        assert!(rec.entry.waveform.is_some());
    }

    #[test]
    fn ladder_exhaustion_degrades_to_digital() {
        // Caps of 2 and 4 slots (8 ns) can never reach X (needs 25 ns):
        // the full ladder runs, then degrades to the waveform-free
        // digital fallback.
        let search = DurationSearchConfig {
            initial_slots: 1,
            max_slots: 2,
            recovery: GrapeRecoveryPolicy {
                restart_escalations: 1,
                slot_escalations: 1,
                strict: false,
            },
            ..Default::default()
        };
        let s = GrapeSynthesizer::new(KeyPolicy::PhaseAware, search, 1);
        let rec = s.compute_uncached(1, &Gate::X.unitary_matrix()).unwrap();
        assert_eq!(
            rec.rungs,
            vec![RUNG_GRAPE_RESTARTS, RUNG_GRAPE_SLOTS, RUNG_GRAPE_DIGITAL]
        );
        assert!(rec.entry.waveform.is_none());
        assert!(rec.entry.duration > 0.0);
    }

    #[test]
    fn strict_mode_errors_instead_of_degrading() {
        let search = DurationSearchConfig {
            initial_slots: 1,
            max_slots: 2,
            recovery: GrapeRecoveryPolicy {
                restart_escalations: 0,
                slot_escalations: 0,
                strict: true,
            },
            ..Default::default()
        };
        let s = GrapeSynthesizer::new(KeyPolicy::PhaseAware, search, 1);
        let err = s.compute_uncached(1, &Gate::X.unitary_matrix()).unwrap_err();
        assert!(matches!(err, PulseError::Unconverged { .. }), "got {err}");
    }

    #[test]
    fn modeled_backend_uses_circuit() {
        let s = ModeledSynthesizer::default();
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
        let u = c.unitary();
        let req = PulseRequest {
            n_qubits: 2,
            unitary: Some(&u),
            local_circuit: Some(&c),
        };
        let e = s.pulse(&req).unwrap();
        let gate_cp = s.model().gate_table.critical_path(&c);
        assert!(e.duration < gate_cp);
        // Second request hits cache.
        let e2 = s.pulse(&req).unwrap();
        assert_eq!(e, e2);
        assert_eq!(s.library().hits(), 1);
    }

    #[test]
    fn modeled_backend_without_circuit_uses_width() {
        let s = ModeledSynthesizer::default();
        let req = PulseRequest {
            n_qubits: 4,
            unitary: None,
            local_circuit: None,
        };
        let e = s.pulse(&req).unwrap();
        assert!(e.duration >= s.model().min_pulse);
    }

    #[test]
    fn hybrid_routes_by_width() {
        let s = HybridSynthesizer::default();
        let x = Gate::X.unitary_matrix();
        let narrow = PulseRequest {
            n_qubits: 1,
            unitary: Some(&x),
            local_circuit: None,
        };
        let e1 = s.pulse(&narrow).unwrap();
        assert!(e1.fidelity > 0.999);
        let mut c3 = Circuit::new(3);
        c3.push(Gate::CCX, &[0, 1, 2]);
        let wide = PulseRequest {
            n_qubits: 3,
            unitary: None,
            local_circuit: Some(&c3),
        };
        let e2 = s.pulse(&wide).unwrap();
        assert!(e2.duration > 0.0);
        assert_eq!(s.grape().library().misses(), 1);
    }
}
