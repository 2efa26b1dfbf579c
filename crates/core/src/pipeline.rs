//! The EPOC compilation pipeline (Figure 3, right column).
//!
//! ```text
//! circuit ──ZX──▶ optimized ──partition──▶ blocks ──synthesize──▶ VUG
//! stream ──regroup──▶ QOC-sized blocks ──pulse backend──▶ schedule
//! ```
//!
//! Synthesis fans blocks out over a fixed worker pool (the paper's "local
//! entanglement and unitary calculations … executed in parallel"), and
//! pulse generation fans out its blocks and GRAPE jobs the same way. These
//! fan-outs are the only parallelism in a compile: GRAPE itself runs
//! serially inside each job.

use crate::config::{Backend, EpocConfig};
use crate::error::EpocError;
use crate::report::{
    CompilationReport, HardwareStats, RecoveryRecord, StageStats, RUNG_HW_DIGITAL,
    RUNG_SCHEDULE_RECOMPUTE, RUNG_SYNTH_BUDGET, RUNG_SYNTH_FALLBACK,
};
use epoc_circuit::{circuits_equivalent, Circuit, Gate};
use epoc_linalg::Matrix;
use epoc_partition::{greedy_partition, regroup, Partition, PartitionConfig};
use epoc_pulse::{FrameUpdate, PulsePayload, PulseSchedule, ScheduledPulse};
use std::sync::Arc;
use epoc_qoc::{
    GrapeSynthesizer, HybridSynthesizer, ModeledSynthesizer, PulseError, PulseRequest,
    PulseSynthesizer, RecoveredPulse,
};
use epoc_rt::cancel::CancelToken;
use epoc_synth::{lower_to_vug_form, synthesize_with_cancel, SynthError};
use epoc_zx::zx_optimize;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Register width above which semantic verification is skipped.
const VERIFY_LIMIT: usize = 10;
/// Block width above which the dense unitary is not materialized.
const DENSE_LIMIT: usize = 8;

pub(crate) enum BackendImpl {
    Hybrid(Box<HybridSynthesizer>),
    Modeled(Box<ModeledSynthesizer>),
}

impl BackendImpl {
    pub(crate) fn new(config: &EpocConfig) -> Self {
        match config.backend {
            Backend::Hybrid { grape_limit } => {
                let mut search = epoc_qoc::DurationSearchConfig::default();
                // Constrained compilation: GRAPE optimizes *under* the
                // control-electronics model so the kept fidelity is the
                // conditioned one (see `epoc_qoc::GrapeConfig::hw`).
                search.grape.hw = config.hw.clone();
                search.recovery = epoc_qoc::GrapeRecoveryPolicy {
                    restart_escalations: config.recovery.grape_restart_escalations,
                    slot_escalations: config.recovery.grape_slot_escalations,
                    strict: config.recovery.strict,
                };
                BackendImpl::Hybrid(Box::new(HybridSynthesizer::with_search_store(
                    config.key_policy,
                    search,
                    grape_limit,
                    config.duration_model,
                    &config.store,
                )))
            }
            Backend::Modeled => {
                BackendImpl::Modeled(Box::new(ModeledSynthesizer::with_store_config(
                    config.duration_model,
                    config.key_policy,
                    &config.store,
                )))
            }
        }
    }

    /// The backend's pulse libraries as named persistence sections
    /// (hybrid backends have two caches, modeled backends one).
    pub(crate) fn library_sections(&self) -> Vec<(&'static str, &epoc_qoc::PulseLibrary)> {
        match self {
            BackendImpl::Hybrid(h) => {
                vec![("grape", h.grape().library()), ("model", h.modeled().library())]
            }
            BackendImpl::Modeled(m) => vec![("model", m.library())],
        }
    }

    /// The GRAPE sub-backend, when this backend has one.
    fn grape_backend(&self) -> Option<&GrapeSynthesizer> {
        match self {
            BackendImpl::Hybrid(h) => Some(h.grape()),
            BackendImpl::Modeled(_) => None,
        }
    }

    pub(crate) fn pulse(
        &self,
        req: &PulseRequest<'_>,
    ) -> Result<epoc_qoc::PulseEntry, PulseError> {
        match self {
            BackendImpl::Hybrid(h) => h.pulse(req),
            BackendImpl::Modeled(m) => m.pulse(req),
        }
    }

    pub(crate) fn cache_counts(&self) -> (usize, usize) {
        match self {
            BackendImpl::Hybrid(h) => (h.cache_hits(), h.cache_misses()),
            BackendImpl::Modeled(m) => (m.library().hits(), m.library().misses()),
        }
    }

    /// `(iterations, probes)` spent by the GRAPE sub-backend so far
    /// (`(0, 0)` for the modeled backend).
    pub(crate) fn grape_stats(&self) -> (usize, usize) {
        match self.grape_backend() {
            Some(g) => (g.total_iterations(), g.total_probes()),
            None => (0, 0),
        }
    }
}

/// Generates the ASAP pulse schedule for a partition, one pulse per block.
///
/// The expensive work — dense block unitaries and GRAPE duration searches
/// for cache-missing blocks — fans out over `workers` threads; everything
/// that is observable (the schedule and the library's hit/miss counters)
/// is replayed serially in block order afterwards, so the output is
/// byte-identical to the sequential pipeline at any worker count:
///
/// 1. **materialize** every dense block unitary in parallel (pure);
/// 2. **classify** serially with counter-free peeks: the first occurrence
///    of each GRAPE-routed cache key not already in the library becomes a
///    compute job (later duplicates will hit once the first is inserted);
/// 3. **compute** the jobs in parallel (each is deterministic and touches
///    no shared state);
/// 4. **replay** serially: every block performs the same lookup/insert
///    sequence the serial pipeline would, taking precomputed entries at
///    first-miss positions.
pub(crate) fn schedule_partition(
    partition: &Partition,
    backend: &BackendImpl,
    workers: usize,
    hw: Option<&epoc_hw::HardwareProfile>,
    recoveries: &mut Vec<RecoveryRecord>,
    cancel: &CancelToken,
) -> Result<PulseSchedule, EpocError> {
    let blocks = partition.blocks();
    // Conditioning state for stage 4 (serial, so a single reusable
    // workspace and a fixed fault-counter draw order keep the schedule
    // byte-identical at any worker count). The amplitude bound matches
    // the GRAPE device model the waveforms were optimized against.
    let a_max = epoc_qoc::DeviceModel::transmon_line(1)
        .expect("single-qubit transmon line is always well-formed")
        .max_amplitude();
    let mut hw_ws = epoc_hw::ConditionWorkspace::new();

    // Stage 1: dense unitaries (pure function of each block).
    let unitaries: Vec<Option<Matrix>> =
        epoc_rt::pool::parallel_map(blocks, workers, |_, block| {
            (!block.is_empty() && block.n_qubits() <= DENSE_LIMIT).then(|| block.unitary())
        });

    // A block goes to GRAPE when the hybrid backend exists, its width is
    // within the GRAPE cap, and its dense unitary was materialized —
    // mirroring `HybridSynthesizer::pulse` routing.
    let grape_route = |i: usize| -> Option<(&GrapeSynthesizer, &Matrix)> {
        let grape = backend.grape_backend()?;
        let u = unitaries[i].as_ref()?;
        (blocks[i].n_qubits() <= grape.max_qubits()).then_some((grape, u))
    };

    // Stage 2: serial classification with counter-free peeks.
    let mut claimed = std::collections::HashSet::new();
    let jobs: Vec<usize> = (0..blocks.len())
        .filter(|&i| {
            !blocks[i].is_empty()
                && grape_route(i).is_some_and(|(grape, u)| {
                    grape.library().peek(u).is_none()
                        && claimed.insert(grape.library().cache_key(u))
                })
        })
        .collect();

    // Stage 3: parallel GRAPE on the deduplicated misses. Each job's
    // route was established during classification; a `None` here would
    // mean the invariant broke, and stage 4's recompute path absorbs it
    // instead of panicking.
    // Each block charges a fresh per-block scope, so budget accounting is
    // independent of how jobs are distributed across workers.
    let computed = epoc_rt::pool::parallel_map(&jobs, workers, |_, &i| {
        grape_route(i).map(|(grape, u)| {
            grape.compute_uncached_with_cancel(blocks[i].n_qubits(), u, &cancel.scope())
        })
    });
    let mut precomputed: HashMap<usize, Result<RecoveredPulse, PulseError>> = jobs
        .into_iter()
        .zip(computed)
        .filter_map(|(i, r)| r.map(|r| (i, r)))
        .collect();

    // Stage 4: serial replay in block order.
    let mut schedule = PulseSchedule::new(partition.n_qubits());
    let mut line_free = vec![0.0f64; partition.n_qubits()];
    for (i, block) in blocks.iter().enumerate() {
        if block.is_empty() {
            continue;
        }
        let entry = match grape_route(i) {
            Some((grape, u)) => match grape.library().lookup(u) {
                Some(entry) => entry,
                None => {
                    // A miss normally finds its precomputed pulse here.
                    // When it doesn't — a deduplicated twin whose insert
                    // was lost, or a forced cache miss — recompute in
                    // place rather than fail the compile.
                    let recovered = match precomputed.remove(&i) {
                        Some(r) => r,
                        None => {
                            recoveries.push(RecoveryRecord {
                                stage: "schedule",
                                subject: format!("blk{i}"),
                                rung: RUNG_SCHEDULE_RECOMPUTE,
                            });
                            epoc_rt::telemetry::counter_add(RUNG_SCHEDULE_RECOMPUTE, 1);
                            grape.compute_uncached_with_cancel(
                                block.n_qubits(),
                                u,
                                &cancel.scope(),
                            )
                        }
                    }
                    .map_err(|e| EpocError::from_pulse(i, e))?;
                    for &rung in &recovered.rungs {
                        recoveries.push(RecoveryRecord {
                            stage: "pulse",
                            subject: format!("blk{i}"),
                            rung,
                        });
                        epoc_rt::telemetry::counter_add(rung, 1);
                    }
                    // A digital fallback produced under an active work
                    // budget may exist only because the budget ran out —
                    // keep it out of the (persistent) library so a later
                    // unbudgeted job is not poisoned by it. Deterministic:
                    // the condition depends only on the entry and the
                    // job's token, never on timing or worker count.
                    if recovered.entry.waveform.is_some() || !cancel.has_budget() {
                        grape.library().insert(u, recovered.entry.clone());
                    }
                    recovered.entry
                }
            },
            None => backend
                .pulse(&PulseRequest {
                    n_qubits: block.n_qubits(),
                    unitary: unitaries[i].as_ref(),
                    local_circuit: Some(block.circuit()),
                })
                .map_err(|e| EpocError::from_pulse(i, e))?,
        };
        let start = block
            .qubits()
            .iter()
            .map(|&q| line_free[q])
            .fold(0.0f64, f64::max);
        if entry.duration <= 0.0 {
            // Purely virtual block: no physical pulse, no time — but the
            // simulator still needs its unitary to compose the evolution.
            schedule.push_frame(FrameUpdate {
                qubits: block.qubits().to_vec(),
                time: start,
                unitary: unitaries[i].as_ref().map(|u| Arc::new(u.clone())),
                label: format!("blk{i}"),
            });
            continue;
        }
        for &q in block.qubits() {
            line_free[q] = start + entry.duration;
        }
        // Replay information for epoc-sim: the GRAPE waveform when one was
        // synthesized, else the dense block unitary as an exact step. Under
        // a hardware profile the *conditioned* waveform is emitted — the
        // library keeps raw controls (conditioning is not idempotent), so
        // the distortion is applied exactly once, here.
        let payload = match (&entry.waveform, unitaries[i].as_ref()) {
            (Some(w), u) => match hw {
                Some(profile) => {
                    if epoc_rt::faults::fail_point("hw.condition") {
                        recoveries.push(RecoveryRecord {
                            stage: "hw",
                            subject: format!("blk{i}"),
                            rung: RUNG_HW_DIGITAL,
                        });
                        epoc_rt::telemetry::counter_add(RUNG_HW_DIGITAL, 1);
                        match u {
                            Some(u) => PulsePayload::Unitary(Arc::new(u.clone())),
                            None => PulsePayload::Opaque,
                        }
                    } else {
                        let mut controls = w.controls().to_vec();
                        profile.condition_controls(w.dt(), a_max, &mut controls, &mut hw_ws);
                        PulsePayload::Waveform(Arc::new(epoc_qoc::PulseWaveform::new(
                            w.dt(),
                            controls,
                        )))
                    }
                }
                None => PulsePayload::Waveform(Arc::clone(w)),
            },
            (None, Some(u)) => PulsePayload::Unitary(Arc::new(u.clone())),
            (None, None) => PulsePayload::Opaque,
        };
        schedule.push(ScheduledPulse {
            qubits: block.qubits().to_vec(),
            start,
            duration: entry.duration,
            fidelity: entry.fidelity,
            label: format!("blk{i}"),
            payload,
        });
    }
    Ok(schedule)
}

/// The EPOC compiler: holds the configuration and the (cache-bearing)
/// pulse backend, which persists across [`EpocCompiler::compile`] calls —
/// the paper's pulse library grows over a workload.
pub struct EpocCompiler {
    config: EpocConfig,
    backend: BackendImpl,
    /// Synthesis memo: identical block unitaries (up to global phase)
    /// reuse the previously synthesized local circuit. The node count and
    /// recovery rungs of the first computation ride along; cache hits
    /// replay them so `StageStats::qsearch_nodes` and
    /// `StageStats::recoveries` are independent of which worker computed
    /// a block first.
    synth_cache: Mutex<HashMap<epoc_linalg::UnitaryKey, SynthOutcome>>,
}

/// Per-block synthesis outcome: the kept local circuit, whether QSearch
/// converged, the nodes spent, and the recovery rungs climbed.
type SynthOutcome = (Circuit, bool, usize, Vec<&'static str>);

impl EpocCompiler {
    /// Creates a compiler from a configuration.
    pub fn new(config: EpocConfig) -> Self {
        let backend = BackendImpl::new(&config);
        Self {
            config,
            backend,
            synth_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EpocConfig {
        &self.config
    }

    /// Compiles a circuit to a pulse schedule, returning the full report.
    ///
    /// Soft stage failures (QSearch budget exhaustion, GRAPE fidelity
    /// misses, lost cache entries) are recovered through the configured
    /// [`crate::RecoveryPolicy`] ladder and recorded in
    /// [`StageStats::recoveries`]; only malformed inputs, numerical
    /// breakdown, or a strict-mode ladder exhaustion return an error.
    ///
    /// # Errors
    ///
    /// Returns [`EpocError`] naming the failing stage and block.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompilationReport, EpocError> {
        self.compile_with_cancel(circuit, &CancelToken::default())
    }

    /// [`EpocCompiler::compile`] under a cooperative-cancellation token.
    ///
    /// The token's hard conditions (cancel flag, wall-clock deadline) are
    /// polled at stage boundaries and inside the optimizer hot loops; a
    /// trip surfaces as [`EpocError::Canceled`] /
    /// [`EpocError::DeadlineExceeded`] and discards the partial compile.
    /// The token's work budgets are charged *per block* through fresh
    /// [`epoc_rt::cancel::CancelScope`]s: exhaustion degrades a block
    /// through the normal recovery ladder (QSearch falls back to the
    /// block's own gates, GRAPE to the digital model), so a budgeted
    /// compile either fails typed or produces a report that is
    /// byte-identical at any worker count.
    ///
    /// # Errors
    ///
    /// All of [`EpocCompiler::compile`]'s errors, plus the two
    /// cancellation variants.
    pub fn compile_with_cancel(
        &self,
        circuit: &Circuit,
        cancel: &CancelToken,
    ) -> Result<CompilationReport, EpocError> {
        let t0 = Instant::now();
        let mut stages = StageStats::default();
        let (hits0, misses0) = self.backend.cache_counts();
        let (grape_iters0, grape_probes0) = self.backend.grape_stats();
        // Stage-boundary poll: cheap serial stages (zx, partition,
        // regroup) are not internally cancellable, so the hard conditions
        // are re-checked between stages.
        let checkpoint = || match cancel.hard_reason() {
            Some(reason) => Err(EpocError::from_cancel(reason)),
            None => Ok(()),
        };
        checkpoint()?;

        // Transpile to the hardware basis first — every flow prices the
        // same physical gate stream (see `epoc_circuit::lower_to_basis`).
        let basis = epoc_circuit::lower_to_basis(circuit);

        // §3.1 — graph-based depth optimization.
        let stage_span = epoc_rt::telemetry::span("stage", "zx");
        let stage_t = Instant::now();
        stages.zx_depth_before = basis.depth();
        let optimized = if self.config.zx && basis.len() <= self.config.zx_gate_limit {
            let r = zx_optimize(&basis);
            stages.zx_depth_after = r.depth_after;
            stages.zx_rewrites = r.rewrites;
            r.circuit
        } else {
            stages.zx_depth_after = stages.zx_depth_before;
            basis.clone()
        };
        stages.gates_after_zx = optimized.len();
        stages.timings.zx = stage_t.elapsed();
        drop(stage_span);

        // §3.2 — greedy partitioning for synthesis.
        let stage_span = epoc_rt::telemetry::span("stage", "partition");
        let stage_t = Instant::now();
        let partition = greedy_partition(&optimized, self.config.partition);
        stages.synth_blocks = partition.len();
        stages.timings.partition = stage_t.elapsed();
        drop(stage_span);

        // §3.3 — VUG-based synthesis across the worker pool.
        checkpoint()?;
        let stage_span = epoc_rt::telemetry::span("stage", "synth");
        let stage_t = Instant::now();
        let synth_cfg = &self.config.synth;
        let limit = self.config.synth_qubit_limit;
        let blocks = partition.blocks();
        let gate_table = self.config.duration_model.gate_table;
        let recovery = self.config.recovery;
        let cache = &self.synth_cache;
        let synthesize_block =
            |block: &epoc_partition::Block| -> Result<SynthOutcome, SynthError> {
                if block.n_qubits() > limit {
                    return Ok((lower_to_vug_form(block.circuit())?, false, 0, Vec::new()));
                }
                let unitary = block.unitary();
                let key = epoc_linalg::UnitaryKey::new(&unitary);
                // Bind the lookup before the branch: an inline `cache.lock()`
                // in the `if let` scrutinee would hold the guard through the
                // `else` and self-deadlock. The lock recovers from poison:
                // the memo only ever holds fully-formed entries, so state
                // left by a panicked worker is still valid.
                let cached = cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .get(&key)
                    .cloned();
                if let Some(hit) = cached {
                    return Ok(hit);
                }
                // Base attempt, then the budget-escalation rungs: QSearch
                // non-convergence is soft, so retry with a multiplied node
                // budget before settling for the structural fallback. The
                // raw `synthesize` (not `synthesize_or_fallback`, which
                // reports its own fallback as converged) keeps the true
                // convergence state visible to the ladder. One cancel
                // scope spans every attempt for the block: once its node
                // budget is spent, each escalation returns immediately
                // and the ladder falls through to the fallback.
                let scope = cancel.scope();
                let mut cfg = synth_cfg.clone();
                let mut rungs: Vec<&'static str> = Vec::new();
                let mut r = synthesize_with_cancel(&unitary, &cfg, &scope)?;
                let mut nodes = r.nodes_evaluated;
                for _ in 0..recovery.synth_budget_escalations {
                    if r.converged {
                        break;
                    }
                    cfg.max_nodes = cfg.max_nodes.saturating_mul(recovery.synth_budget_factor);
                    rungs.push(RUNG_SYNTH_BUDGET);
                    r = synthesize_with_cancel(&unitary, &cfg, &scope)?;
                    nodes += r.nodes_evaluated;
                }
                // Synthesis is only worth keeping when its VUG/CNOT structure
                // is actually cheaper in pulse time than the block's own gates
                // (QSearch minimizes CNOTs, not the physical single-qubit
                // pulses it sprinkles around).
                let original = lower_to_vug_form(block.circuit())?;
                let entry = if r.converged
                    && gate_table.critical_path(&r.circuit) <= gate_table.critical_path(&original)
                {
                    (r.circuit, true, nodes, rungs)
                } else {
                    if !r.converged && !rungs.is_empty() {
                        rungs.push(RUNG_SYNTH_FALLBACK);
                    }
                    (original, false, nodes, rungs)
                };
                cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(key, entry.clone());
                Ok(entry)
            };
        // Fan the blocks out over a fixed set of pool workers (not a
        // thread per block, which would spawn thousands of OS threads on
        // large circuits). Per-block synthesis is deterministic under the
        // configured seed and results merge in block order, so the output
        // is identical at any worker count.
        let n_workers = self
            .config
            .workers
            .unwrap_or_else(epoc_rt::pool::default_workers);
        let results = epoc_rt::pool::parallel_map(blocks, n_workers, |_, block| {
            synthesize_block(block)
        });
        let mut vug_stream = Circuit::new(optimized.n_qubits());
        for (i, (block, result)) in blocks.iter().zip(results).enumerate() {
            let (local, converged, nodes, rungs) = result?;
            if converged {
                stages.synth_converged += 1;
            }
            stages.qsearch_nodes += nodes;
            for rung in rungs {
                stages.recoveries.push(RecoveryRecord {
                    stage: "synth",
                    subject: format!("blk{i}"),
                    rung,
                });
                epoc_rt::telemetry::counter_add(rung, 1);
            }
            vug_stream.extend_mapped(&local, block.qubits());
        }
        stages.vug_stream_gates = vug_stream.len();
        stages.timings.synth = stage_t.elapsed();
        drop(stage_span);

        // §3.3 — regrouping (or per-gate pulses when disabled).
        let stage_span = epoc_rt::telemetry::span("stage", "regroup");
        let stage_t = Instant::now();
        let final_partition = match self.config.regroup {
            Some(cfg) => regroup(&vug_stream, cfg),
            None => greedy_partition(
                &vug_stream,
                PartitionConfig {
                    max_qubits: 2,
                    max_gates: 1,
                },
            ),
        };
        stages.timings.regroup = stage_t.elapsed();
        drop(stage_span);

        // §3.4 — pulse generation through the backend + cache, fanned out
        // over as many pool workers as synthesis.
        checkpoint()?;
        let stage_span = epoc_rt::telemetry::span("stage", "pulse");
        let stage_t = Instant::now();
        let mut pulse_recoveries = Vec::new();
        // The identity (`ideal`) profile conditions nothing and hashes to
        // 0, so compiling under it is byte-identical to no profile at all.
        let hw_active = self.config.hw.as_ref().filter(|p| !p.is_identity());
        let schedule = schedule_partition(
            &final_partition,
            &self.backend,
            n_workers,
            hw_active,
            &mut pulse_recoveries,
            cancel,
        )?;
        stages.recoveries.append(&mut pulse_recoveries);
        stages.pulses = schedule.len();
        let (hits1, misses1) = self.backend.cache_counts();
        stages.cache_hits = hits1.saturating_sub(hits0);
        stages.cache_misses = misses1.saturating_sub(misses0);
        let (grape_iters1, grape_probes1) = self.backend.grape_stats();
        stages.grape_iterations = grape_iters1.saturating_sub(grape_iters0);
        stages.grape_probes = grape_probes1.saturating_sub(grape_probes0);
        stages.timings.pulse = stage_t.elapsed();
        drop(stage_span);

        // Verification: the synthesized stream must implement the input.
        let (verified, verify_skipped) = if !self.config.verify {
            (false, true)
        } else if circuit.n_qubits() <= VERIFY_LIMIT {
            (circuits_equivalent(circuit, &vug_stream, 1e-3), false)
        } else {
            (false, true)
        };

        // Control-electronics summary: the conditioned-pulse count reads
        // the schedule (fault-degraded blocks carry no waveform, so they
        // are not counted), and the hash is the cache-key scope.
        let hardware = self.config.hw.as_ref().map(|p| HardwareStats {
            profile: p.name.clone(),
            profile_hash: epoc_hw::profile_hash(Some(p)),
            conditioned_pulses: if p.is_identity() { 0 } else { schedule.waveform_count() },
            sfq: p.sfq.is_some(),
        });

        Ok(CompilationReport {
            flow: "epoc".into(),
            n_qubits: circuit.n_qubits(),
            gates_in: circuit.len(),
            schedule,
            compile_time: t0.elapsed(),
            stages,
            verified,
            verify_skipped,
            hardware,
            simulation: None,
        })
    }

    /// The backend's pulse libraries as named persistence sections — the
    /// same names [`EpocCompiler::save_library`] writes ("grape" and
    /// "model" for hybrid backends, "model" alone for modeled ones).
    /// Services use this to wire write-ahead journaling and replay
    /// around the checkpoint cycle.
    pub fn library_sections(&self) -> Vec<(&'static str, &epoc_qoc::PulseLibrary)> {
        self.backend.library_sections()
    }

    /// Combined pulse-cache hit count since construction.
    pub fn cache_hits(&self) -> usize {
        self.backend.cache_counts().0
    }

    /// Combined pulse-cache miss count since construction.
    pub fn cache_misses(&self) -> usize {
        self.backend.cache_counts().1
    }

    /// Total entries across the backend's pulse libraries.
    pub fn library_len(&self) -> usize {
        self.backend
            .library_sections()
            .iter()
            .map(|(_, lib)| lib.len())
            .sum()
    }

    /// Entries evicted by the pulse libraries' stores so far (0 unless
    /// a byte budget is configured).
    pub fn library_evictions(&self) -> u64 {
        self.backend
            .library_sections()
            .iter()
            .map(|(_, lib)| lib.evictions())
            .sum()
    }

    /// Estimated resident bytes across the backend's pulse libraries —
    /// the same estimate a byte budget evicts against, exposed so
    /// services can report live memory pressure.
    pub fn library_bytes(&self) -> u64 {
        self.backend
            .library_sections()
            .iter()
            .map(|(_, lib)| lib.approx_bytes())
            .sum()
    }

    /// Persists the pulse libraries to `path` as checksummed record lines,
    /// the format of the write-ahead journal, sorted by key within each
    /// section (see [`epoc_qoc::save_library_file`]). The write is
    /// atomic and durable (fsync'd temp file, rename, fsync'd directory),
    /// and the file is byte-deterministic for a given library content.
    ///
    /// # Errors
    ///
    /// Returns [`EpocError::Library`] when the file cannot be written.
    pub fn save_library(&self, path: &std::path::Path) -> Result<(), EpocError> {
        epoc_qoc::save_library_file(path, &self.backend.library_sections())?;
        Ok(())
    }

    /// Warm-starts the pulse libraries from a file written by
    /// [`EpocCompiler::save_library`] or from a write-ahead journal (one
    /// format, one loader: [`epoc_qoc::load_library_file`]), returning
    /// the number of entries restored. A missing file restores 0; a torn
    /// last record is cut off and the whole records before it load.
    ///
    /// # Errors
    ///
    /// Returns [`EpocError::Library`] when the file is unreadable,
    /// corrupt, not a library file, or keyed under a different policy or
    /// hardware profile; nothing is loaded then. The error is
    /// recoverable: the caller reports it and compiles with a cold cache
    /// (recomputing is always safe).
    pub fn load_library(&self, path: &std::path::Path) -> Result<usize, EpocError> {
        Ok(epoc_qoc::load_library_file(path, &self.backend.library_sections())?)
    }
}

/// Convenience: compile with the default (modeled-backend) configuration.
///
/// Infallible wrapper: the default configuration is non-strict, so the
/// recovery ladder absorbs every soft failure, and well-formed circuits
/// (see [`is_compilable`]) cannot produce typed errors.
pub fn compile_default(circuit: &Circuit) -> CompilationReport {
    EpocCompiler::new(EpocConfig::default())
        .compile(circuit)
        .expect("default non-strict configuration recovers every soft failure")
}

/// Returns `true` when a circuit contains only gates the pipeline accepts
/// (anything except opaque blocks, which must come out of synthesis, not
/// go into it).
pub fn is_compilable(circuit: &Circuit) -> bool {
    circuit
        .ops()
        .iter()
        .all(|op| !matches!(op.gate, Gate::Unitary { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epoc_circuit::generators;

    #[test]
    fn compile_ghz_verified() {
        let r = compile_default(&generators::ghz(3));
        assert!(r.verified, "pipeline output not equivalent");
        assert!(r.latency() > 0.0);
        assert!(r.esp() > 0.9);
        assert!(r.schedule.is_valid());
    }

    #[test]
    fn compile_bell_prep() {
        let r = compile_default(&generators::bell_pair_prep());
        assert!(r.verified);
        assert!(r.stages.zx_depth_after <= r.stages.zx_depth_before);
    }

    #[test]
    fn compile_random_circuits_verified() {
        let compiler = EpocCompiler::new(EpocConfig::fast());
        for seed in 0..4u64 {
            let c = generators::random_circuit(3, 12, seed);
            let r = compiler.compile(&c).unwrap();
            assert!(r.verified, "seed {seed} failed verification");
            assert!(r.schedule.is_valid());
        }
    }

    #[test]
    fn regrouping_reduces_latency() {
        let c = generators::qaoa(4, 2, 5);
        let grouped = EpocCompiler::new(EpocConfig::fast()).compile(&c).unwrap();
        let ungrouped =
            EpocCompiler::new(EpocConfig::fast().without_regrouping()).compile(&c).unwrap();
        assert!(grouped.verified && ungrouped.verified);
        assert!(
            grouped.latency() <= ungrouped.latency(),
            "grouping did not help: {} vs {}",
            grouped.latency(),
            ungrouped.latency()
        );
        // Grouping also raises ESP (fewer pulses).
        assert!(grouped.esp() >= ungrouped.esp());
    }

    #[test]
    fn cache_reuse_across_compiles() {
        let compiler = EpocCompiler::new(EpocConfig::fast());
        let c = generators::ghz(3);
        let r1 = compiler.compile(&c).unwrap();
        let r2 = compiler.compile(&c).unwrap();
        assert!(r2.stages.cache_hits >= r1.stages.cache_hits);
        assert!(r2.stages.cache_misses == 0, "second compile should fully hit");
    }

    #[test]
    fn is_compilable_rejects_opaque() {
        let mut c = Circuit::new(1);
        assert!(is_compilable(&c));
        c.push(Gate::unitary("v", Gate::H.unitary_matrix()), &[0]);
        assert!(!is_compilable(&c));
    }

    #[test]
    fn stage_stats_populated() {
        let r = compile_default(&generators::ghz(4));
        assert!(r.stages.synth_blocks > 0);
        assert!(r.stages.vug_stream_gates > 0);
        assert!(r.stages.pulses > 0);
        assert_eq!(r.gates_in, 4);
        assert_eq!(r.n_qubits, 4);
    }
}
