//! The traced re-drive: a job taken through the public entry points that
//! `EpocCompiler::compile_with_cancel` calls, in the same order, with one
//! benchmark span around each call:
//!
//! 1. `lower_to_basis`, 2. `zx_optimize`, 3. `greedy_partition`,
//! 4. `synthesize` per block (plus the budget-escalation rung),
//! 5. `regroup`, 6. the backend's `pulse` per regrouped block,
//! 7. `circuits_equivalent`.
//!
//! Blocks are driven one after another, so the pipeline's block-level
//! fan-out is absent here; the backend keeps its own GRAPE worker count.
//! The work counted on the way is compared with the untraced report's
//! counters as a coverage ratio, which is reported and never asserted.

use crate::trace::span;
use epoc::circuit::{circuits_equivalent, lower_to_basis, Circuit};
use epoc::linalg::UnitaryKey;
use epoc::partition::{greedy_partition, regroup, Block, PartitionConfig};
use epoc::qoc::{
    DurationSearchConfig, GrapeRecoveryPolicy, HybridSynthesizer, ModeledSynthesizer, PulseEntry,
    PulseLibrary, PulseRequest, PulseSynthesizer,
};
use epoc::synth::{lower_to_vug_form, synthesize};
use epoc::zx::zx_optimize;
use epoc::{Backend, EpocConfig};
use std::collections::HashMap;

/// Register width above which the pipeline skips verification.
const VERIFY_LIMIT: usize = 10;
/// Block width above which the pipeline materializes no dense unitary.
const DENSE_LIMIT: usize = 8;

/// The pulse backend `EpocCompiler::new` builds for a configuration.
pub enum PulseBackend {
    Hybrid(Box<HybridSynthesizer>),
    Modeled(Box<ModeledSynthesizer>),
}

impl PulseBackend {
    pub fn new(config: &EpocConfig) -> Self {
        match config.backend {
            Backend::Hybrid { grape_limit } => {
                let mut search = DurationSearchConfig::default();
                search.grape.workers = config
                    .workers
                    .unwrap_or_else(epoc_rt::pool::default_workers);
                search.grape.hw = config.hw.clone();
                search.recovery = GrapeRecoveryPolicy {
                    restart_escalations: config.recovery.grape_restart_escalations,
                    slot_escalations: config.recovery.grape_slot_escalations,
                    strict: config.recovery.strict,
                };
                PulseBackend::Hybrid(Box::new(HybridSynthesizer::with_search_store(
                    config.key_policy,
                    search,
                    grape_limit,
                    config.duration_model,
                    &config.store,
                )))
            }
            Backend::Modeled => {
                PulseBackend::Modeled(Box::new(ModeledSynthesizer::with_store_config(
                    config.duration_model,
                    config.key_policy,
                    &config.store,
                )))
            }
        }
    }

    /// The pulse libraries as the persistence sections `EpocCompiler`
    /// saves and loads.
    pub fn sections(&self) -> Vec<(&'static str, &PulseLibrary)> {
        match self {
            PulseBackend::Hybrid(h) => {
                vec![
                    ("grape", h.grape().library()),
                    ("model", h.modeled().library()),
                ]
            }
            PulseBackend::Modeled(m) => vec![("model", m.library())],
        }
    }

    /// `(iterations, probes)` GRAPE has spent so far.
    fn grape_totals(&self) -> (usize, usize) {
        match self {
            PulseBackend::Hybrid(h) => (h.total_iterations(), h.total_probes()),
            PulseBackend::Modeled(_) => (0, 0),
        }
    }

    /// Where `pulse` will serve a request from: a GRAPE run, a library
    /// hit, or the duration model.
    fn route(&self, req: &PulseRequest<'_>) -> &'static str {
        match (self, req.unitary) {
            (PulseBackend::Hybrid(h), Some(u)) if req.n_qubits <= h.grape().max_qubits() => {
                if h.grape().library().peek(u).is_none() {
                    "grape"
                } else {
                    "library"
                }
            }
            _ => "model",
        }
    }

    fn pulse(&self, req: &PulseRequest<'_>) -> Result<PulseEntry, String> {
        match self {
            PulseBackend::Hybrid(h) => h.pulse(req),
            PulseBackend::Modeled(m) => m.pulse(req),
        }
        .map_err(|e| e.to_string())
    }
}

/// Work counted by the re-drive, in the units of the report's counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub grape_iters: usize,
    pub grape_probes: usize,
    /// QSearch nodes as the report counts them (memo hits replay the
    /// first computation's count).
    pub qsearch_nodes: usize,
    /// QSearch nodes actually evaluated (memo misses only).
    pub nodes_evaluated: usize,
    pub synth_blocks: usize,
    pub synth_converged: usize,
    pub memo_lookups: usize,
    pub memo_hits: usize,
    pub pulses: usize,
    pub zx_attempts: usize,
    pub zx_kept: usize,
    pub zx_rewrites: usize,
}

impl Work {
    pub fn add(&mut self, o: &Work) {
        self.grape_iters += o.grape_iters;
        self.grape_probes += o.grape_probes;
        self.qsearch_nodes += o.qsearch_nodes;
        self.nodes_evaluated += o.nodes_evaluated;
        self.synth_blocks += o.synth_blocks;
        self.synth_converged += o.synth_converged;
        self.memo_lookups += o.memo_lookups;
        self.memo_hits += o.memo_hits;
        self.pulses += o.pulses;
        self.zx_attempts += o.zx_attempts;
        self.zx_kept += o.zx_kept;
        self.zx_rewrites += o.zx_rewrites;
    }
}

/// One compiler's worth of state: the backend with its libraries and the
/// synthesis memo, both persisting across jobs like `EpocCompiler`'s.
pub struct Redrive {
    config: EpocConfig,
    backend: PulseBackend,
    memo: HashMap<UnitaryKey, (Circuit, bool, usize)>,
    pub work: Work,
}

impl Redrive {
    pub fn new(config: EpocConfig) -> Self {
        let backend = PulseBackend::new(&config);
        Self {
            config,
            backend,
            memo: HashMap::new(),
            work: Work::default(),
        }
    }

    pub fn backend(&self) -> &PulseBackend {
        &self.backend
    }

    /// Re-drives one job. Returns whether it verified (or was too wide to
    /// verify), the way the report's `verified`/`verify_skipped` would.
    pub fn job(&mut self, circuit: &Circuit) -> Result<bool, String> {
        let cfg = self.config.clone();
        let basis = {
            let _s = span("circuit", "lower_to_basis");
            lower_to_basis(circuit)
        };
        let optimized = {
            let _s = span("stage", "zx");
            if cfg.zx && basis.len() <= cfg.zx_gate_limit {
                self.work.zx_attempts += 1;
                let r = zx_optimize(&basis);
                self.work.zx_kept += usize::from(r.optimized);
                self.work.zx_rewrites += r.rewrites;
                r.circuit
            } else {
                basis
            }
        };
        let partition = {
            let _s = span("stage", "partition");
            greedy_partition(&optimized, cfg.partition)
        };
        self.work.synth_blocks += partition.len();
        let vug_stream = {
            let _s = span("stage", "synth");
            let mut stream = Circuit::new(optimized.n_qubits());
            for block in partition.blocks() {
                let local = self.synth_block(block)?;
                stream.extend_mapped(&local, block.qubits());
            }
            stream
        };
        let final_partition = {
            let _s = span("stage", "regroup");
            match cfg.regroup {
                Some(r) => regroup(&vug_stream, r),
                None => greedy_partition(
                    &vug_stream,
                    PartitionConfig {
                        max_qubits: 2,
                        max_gates: 1,
                    },
                ),
            }
        };
        let (iters0, probes0) = self.backend.grape_totals();
        {
            let _s = span("stage", "pulse");
            for block in final_partition.blocks().iter().filter(|b| !b.is_empty()) {
                let unitary = (block.n_qubits() <= DENSE_LIMIT).then(|| {
                    let _s = span("linalg", "block_unitary");
                    block.unitary()
                });
                let req = PulseRequest {
                    n_qubits: block.n_qubits(),
                    unitary: unitary.as_ref(),
                    local_circuit: Some(block.circuit()),
                };
                let entry = {
                    let _s = span("qoc", self.backend.route(&req));
                    self.backend.pulse(&req)?
                };
                self.work.pulses += usize::from(entry.duration > 0.0);
            }
        }
        let (iters1, probes1) = self.backend.grape_totals();
        self.work.grape_iters += iters1 - iters0;
        self.work.grape_probes += probes1 - probes0;
        if !cfg.verify || circuit.n_qubits() > VERIFY_LIMIT {
            return Ok(circuit.n_qubits() > VERIFY_LIMIT);
        }
        let _s = span("circuit", "verify");
        Ok(circuits_equivalent(circuit, &vug_stream, 1e-3))
    }

    /// Synthesis of one block, mirroring the pipeline's memo, escalation
    /// rung and keep-if-not-slower rule.
    fn synth_block(&mut self, block: &Block) -> Result<Circuit, String> {
        let vug_form = |c: &Circuit| {
            let _s = span("synth", "lower_to_vug_form");
            lower_to_vug_form(c).map_err(|e| e.to_string())
        };
        if block.n_qubits() > self.config.synth_qubit_limit {
            return vug_form(block.circuit());
        }
        let unitary = {
            let _s = span("linalg", "block_unitary");
            block.unitary()
        };
        let key = UnitaryKey::new(&unitary);
        self.work.memo_lookups += 1;
        let (local, converged, nodes) = match self.memo.get(&key) {
            Some(hit) => {
                self.work.memo_hits += 1;
                hit.clone()
            }
            None => {
                let recovery = self.config.recovery;
                let mut cfg = self.config.synth.clone();
                let qsearch = |cfg: &epoc::synth::SynthConfig| {
                    let _s = span("synth", "qsearch");
                    synthesize(&unitary, cfg).map_err(|e| e.to_string())
                };
                let mut r = qsearch(&cfg)?;
                let mut nodes = r.nodes_evaluated;
                for _ in 0..recovery.synth_budget_escalations {
                    if r.converged {
                        break;
                    }
                    cfg.max_nodes = cfg.max_nodes.saturating_mul(recovery.synth_budget_factor);
                    r = qsearch(&cfg)?;
                    nodes += r.nodes_evaluated;
                }
                self.work.nodes_evaluated += nodes;
                let original = vug_form(block.circuit())?;
                let table = self.config.duration_model.gate_table;
                let outcome = if r.converged
                    && table.critical_path(&r.circuit) <= table.critical_path(&original)
                {
                    (r.circuit, true, nodes)
                } else {
                    (original, false, nodes)
                };
                self.memo.insert(key, outcome.clone());
                outcome
            }
        };
        self.work.qsearch_nodes += nodes;
        self.work.synth_converged += usize::from(converged);
        Ok(local)
    }
}
