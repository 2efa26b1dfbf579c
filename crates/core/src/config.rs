//! EPOC pipeline configuration.

use epoc_partition::{PartitionConfig, RegroupConfig};
use epoc_qoc::{DurationModel, KeyPolicy, StoreConfig};
use epoc_synth::SynthConfig;

/// Which pulse backend the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Real GRAPE for blocks up to the given width, calibrated model
    /// beyond (slow but fully simulated).
    Hybrid {
        /// GRAPE width limit (1–4 practical).
        grape_limit: usize,
    },
    /// Calibrated duration model only (fast; used by the figure benches).
    Modeled,
}

/// Per-block recovery ladder: how the pipeline escalates when a stage
/// misses its target instead of failing the compile. Every climbed rung
/// is recorded in [`crate::StageStats::recoveries`] and counted under a
/// `recovery.*` telemetry counter; the records are byte-identical at any
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// QSearch non-convergence: how many times to retry the block with an
    /// escalated node budget before falling back to the structural
    /// lowering.
    pub synth_budget_escalations: usize,
    /// Node-budget multiplier per synthesis escalation.
    pub synth_budget_factor: usize,
    /// GRAPE below-threshold fidelity: restart-escalation rungs (doubled
    /// restarts, perturbed seed) before the slot rungs.
    pub grape_restart_escalations: usize,
    /// GRAPE slot-escalation rungs (doubled slot cap) before the digital
    /// fallback.
    pub grape_slot_escalations: usize,
    /// Fail the compile with a typed error instead of taking the digital
    /// fallback when the GRAPE ladder is exhausted.
    pub strict: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            synth_budget_escalations: 1,
            synth_budget_factor: 4,
            grape_restart_escalations: 1,
            grape_slot_escalations: 1,
            strict: false,
        }
    }
}

/// Full EPOC pipeline configuration.
#[derive(Debug, Clone)]
pub struct EpocConfig {
    /// Run the ZX graph-based depth optimization (§3.1).
    pub zx: bool,
    /// Skip the (whole-circuit) ZX pass beyond this gate count — graph
    /// rewriting on very large diagrams costs seconds and, on wide
    /// hardware-native programs, usually falls back anyway.
    pub zx_gate_limit: usize,
    /// Partitioning limits for the synthesis stage (§3.2).
    pub partition: PartitionConfig,
    /// Synthesis settings (§3.3); blocks wider than
    /// `synth_qubit_limit` are lowered structurally instead of searched.
    pub synth: SynthConfig,
    /// Width cap for numerical synthesis (2 keeps QSearch fast).
    pub synth_qubit_limit: usize,
    /// Regrouping (§3.3); `None` reproduces the "no grouping" arm of
    /// Figures 8–10.
    pub regroup: Option<RegroupConfig>,
    /// Pulse backend.
    pub backend: Backend,
    /// Pulse-cache key policy (§3.4 — EPOC uses phase-aware).
    pub key_policy: KeyPolicy,
    /// Calibrated duration model for the modeled/hybrid backend.
    pub duration_model: DurationModel,
    /// Verify the optimized circuit against the input by statevector
    /// probing when the register is small enough.
    pub verify: bool,
    /// Worker count for the parallel synthesis stage; `None` uses the
    /// machine's available parallelism. Reports are identical at any
    /// worker count (synthesis is deterministic per block and results
    /// merge in block order).
    pub workers: Option<usize>,
    /// Per-block recovery ladder for soft stage failures.
    pub recovery: RecoveryPolicy,
    /// Pulse-library store configuration (an optional byte budget). The
    /// default unbounded map suits one-shot `epocc` runs; a long-running
    /// `epocd` caps it with `--library-budget`.
    pub store: StoreConfig,
    /// Control-electronics model (`None` = ideal electronics). When set,
    /// GRAPE optimizes *under* the profile's constraints, emitted
    /// waveforms are conditioned (slew-clip → quantize → filter →
    /// crosstalk) at schedule emission, the simulator replays the
    /// conditioned pulse, and the pulse-library cache keys are scoped to
    /// the profile.
    pub hw: Option<epoc_hw::HardwareProfile>,
}

impl Default for EpocConfig {
    fn default() -> Self {
        Self {
            zx: true,
            zx_gate_limit: 4000,
            partition: PartitionConfig {
                max_qubits: 3,
                max_gates: 24,
            },
            synth: SynthConfig::default(),
            synth_qubit_limit: 2,
            // Two-qubit regrouped blocks: wide blocks occupy all their
            // qubit lines for the whole pulse, losing cross-block
            // parallelism under the (sub)linear duration model, so 2
            // qubits with a moderate gate budget is the sweet spot.
            regroup: Some(RegroupConfig {
                max_qubits: 2,
                max_gates: 8,
            }),
            backend: Backend::Modeled,
            key_policy: KeyPolicy::PhaseAware,
            duration_model: DurationModel::default(),
            verify: true,
            workers: None,
            recovery: RecoveryPolicy::default(),
            store: StoreConfig::default(),
            hw: None,
        }
    }
}

impl EpocConfig {
    /// A fast configuration for tests and interactive use: modeled
    /// backend, small search budgets.
    pub fn fast() -> Self {
        Self {
            synth: SynthConfig {
                max_nodes: 40,
                max_cnots: 6,
                ..SynthConfig::default()
            },
            ..Self::default()
        }
    }

    /// The paper-faithful configuration with real GRAPE on narrow blocks.
    pub fn with_grape(grape_limit: usize) -> Self {
        Self {
            backend: Backend::Hybrid { grape_limit },
            ..Self::default()
        }
    }

    /// Disables regrouping (the "without grouping" arm of Figures 8–10).
    pub fn without_regrouping(mut self) -> Self {
        self.regroup = None;
        self
    }

    /// Pins the synthesis worker count (1 = fully sequential).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Strict mode: an exhausted GRAPE recovery ladder fails the compile
    /// with [`crate::EpocError`] instead of degrading to the digital
    /// fallback.
    pub fn strict(mut self) -> Self {
        self.recovery.strict = true;
        self
    }

    /// Configures the pulse-library store (see [`StoreConfig`]).
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// Compiles under a control-electronics model (see
    /// [`epoc_hw::HardwareProfile`]).
    pub fn with_hw(mut self, profile: epoc_hw::HardwareProfile) -> Self {
        self.hw = Some(profile);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_regrouping_and_zx() {
        let c = EpocConfig::default();
        assert!(c.zx);
        assert!(c.regroup.is_some());
        assert_eq!(c.key_policy, KeyPolicy::PhaseAware);
    }

    #[test]
    fn without_regrouping_clears_it() {
        let c = EpocConfig::default().without_regrouping();
        assert!(c.regroup.is_none());
    }

    #[test]
    fn strict_builder_sets_recovery_flag() {
        assert!(!EpocConfig::default().recovery.strict);
        assert!(EpocConfig::default().strict().recovery.strict);
    }

    #[test]
    fn with_grape_selects_hybrid() {
        match EpocConfig::with_grape(2).backend {
            Backend::Hybrid { grape_limit } => assert_eq!(grape_limit, 2),
            b => panic!("unexpected backend {b:?}"),
        }
    }
}
