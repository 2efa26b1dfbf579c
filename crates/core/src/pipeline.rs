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
    CompilationReport, HardwareStats, RecoveryRecord, StageStats, StageTimings, RUNG_HW_DIGITAL,
    RUNG_SCHEDULE_RECOMPUTE, RUNG_SYNTH_BUDGET, RUNG_SYNTH_FALLBACK,
};
use epoc_circuit::{circuits_equivalent, Circuit, Gate};
use epoc_linalg::Matrix;
use epoc_partition::{greedy_partition, regroup, Partition, PartitionConfig};
use epoc_pulse::{FrameUpdate, PulsePayload, PulseSchedule, ScheduledPulse};
use epoc_qoc::{
    GrapeSynthesizer, HybridSynthesizer, ModeledSynthesizer, PulseError, PulseRequest,
    PulseSynthesizer, RecoveredPulse,
};
use epoc_rt::cancel::CancelToken;
use epoc_synth::{lower_to_vug_form, synthesize_with_cancel, SynthError};
use epoc_zx::zx_optimize;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Register width above which semantic verification is skipped.
const VERIFY_LIMIT: usize = 10;
/// Block width above which the dense unitary is not materialized.
const DENSE_LIMIT: usize = 8;
/// Circuits the front-half memo holds at once (see [`FrontMemo`]).
const MEMO_CAP: usize = 64;
/// First sightings the front-half memo remembers.
const SIGHTINGS_CAP: usize = 1024;

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

/// The dense unitary of every block of `partition`, fanned out over
/// `workers` threads (`None` for empty blocks and blocks wider than
/// `DENSE_LIMIT`). A pure function of the partition.
pub(crate) fn block_unitaries(partition: &Partition, workers: usize) -> Vec<Option<Matrix>> {
    epoc_rt::pool::parallel_map(partition.blocks(), workers, |_, block| {
        (!block.is_empty() && block.n_qubits() <= DENSE_LIMIT).then(|| block.unitary())
    })
}

/// Generates the ASAP pulse schedule for a partition, one pulse per block,
/// given each block's dense unitary ([`block_unitaries`]).
///
/// The expensive work — GRAPE duration searches for cache-missing blocks
/// — fans out over `workers` threads; everything that is observable (the
/// schedule and the library's hit/miss counters) is replayed serially in
/// block order afterwards, so the output is byte-identical to the
/// sequential pipeline at any worker count:
///
/// 1. **classify** serially with counter-free peeks: the first occurrence
///    of each GRAPE-routed cache key not already in the library becomes a
///    compute job (later duplicates will hit once the first is inserted);
/// 2. **compute** the jobs in parallel (each is deterministic and touches
///    no shared state);
/// 3. **replay** serially: every block performs the same lookup/insert
///    sequence the serial pipeline would, taking precomputed entries at
///    first-miss positions.
pub(crate) fn schedule_partition(
    partition: &Partition,
    unitaries: &[Option<Matrix>],
    backend: &BackendImpl,
    workers: usize,
    hw: Option<&epoc_hw::HardwareProfile>,
    recoveries: &mut Vec<RecoveryRecord>,
    cancel: &CancelToken,
) -> Result<PulseSchedule, EpocError> {
    let blocks = partition.blocks();
    // Conditioning state for the replay (serial, so a single reusable
    // workspace and a fixed fault-counter draw order keep the schedule
    // byte-identical at any worker count). The amplitude bound matches
    // the GRAPE device model the waveforms were optimized against.
    let a_max = epoc_qoc::DeviceModel::transmon_line(1)
        .expect("single-qubit transmon line is always well-formed")
        .max_amplitude();
    let mut hw_ws = epoc_hw::ConditionWorkspace::new();

    // A block goes to GRAPE when the hybrid backend exists, its width is
    // within the GRAPE cap, and its dense unitary was materialized —
    // mirroring `HybridSynthesizer::pulse` routing.
    let grape_route = |i: usize| -> Option<(&GrapeSynthesizer, &Matrix)> {
        let grape = backend.grape_backend()?;
        let u = unitaries[i].as_ref()?;
        (blocks[i].n_qubits() <= grape.max_qubits()).then_some((grape, u))
    };

    // Stage 1: serial classification with counter-free peeks.
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

    // Stage 2: parallel GRAPE on the deduplicated misses. Each job's
    // route was established during classification; a `None` here would
    // mean the invariant broke, and stage 3's recompute path absorbs it
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

    // Stage 3: serial replay in block order.
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

/// The pure front half of one compile: `lower_to_basis` → ZX →
/// partition → synthesis → regroup → verification, plus the dense
/// unitaries of the final partition's blocks. Everything the pulse stage
/// needs besides the pulse library.
struct FrontHalf {
    /// The report's front-half fields: ZX depths and rewrites, gate and
    /// block counts, convergence and QSearch nodes, the synthesis rungs
    /// in `recoveries`, and the front-half timings.
    stages: StageStats,
    /// The QOC-sized blocks the pulse stage schedules.
    partition: Partition,
    /// Each block's dense unitary ([`block_unitaries`]).
    unitaries: Vec<Option<Matrix>>,
    verified: bool,
    verify_skipped: bool,
}

/// Per-compiler memo of [`FrontHalf`]s, keyed bit-exactly on the input
/// circuit: its [`Circuit::fingerprint`] finds an entry and full
/// equality accepts it.
///
/// A circuit is admitted on its second sighting: the first only leaves
/// its fingerprint in a FIFO of [`SIGHTINGS_CAP`], so a stream of
/// circuits that never repeat costs 8 bytes each rather than an entry.
/// At most [`MEMO_CAP`] entries live at once, the least recently used
/// evicted first. The memo starts empty and allocates nothing until a
/// compile offers it something.
#[derive(Default)]
struct FrontMemo {
    sightings: VecDeque<u64>,
    entries: Vec<MemoEntry>,
    /// Logical clock stamping each entry's last use.
    clock: u64,
}

struct MemoEntry {
    fingerprint: u64,
    circuit: Circuit,
    front: Arc<FrontHalf>,
    last_used: u64,
}

impl FrontMemo {
    fn get(&mut self, fingerprint: u64, circuit: &Circuit) -> Option<Arc<FrontHalf>> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint && e.circuit == *circuit)?;
        self.clock += 1;
        entry.last_used = self.clock;
        Some(Arc::clone(&entry.front))
    }

    /// Offers a freshly computed front half: a first sighting is only
    /// remembered, a second is admitted (evicting the least recently
    /// used entry when the memo is full).
    fn offer(&mut self, fingerprint: u64, circuit: &Circuit, front: &Arc<FrontHalf>) {
        let Some(seen) = self.sightings.iter().position(|&f| f == fingerprint) else {
            if self.sightings.len() == SIGHTINGS_CAP {
                self.sightings.pop_front();
            }
            self.sightings.push_back(fingerprint);
            return;
        };
        self.sightings.remove(seen);
        // A concurrent compile of the same circuit may have admitted it
        // since this one missed.
        if self
            .entries
            .iter()
            .any(|e| e.fingerprint == fingerprint && e.circuit == *circuit)
        {
            return;
        }
        if self.entries.len() == MEMO_CAP {
            if let Some(lru) = (0..MEMO_CAP).min_by_key(|&i| self.entries[i].last_used) {
                self.entries.swap_remove(lru);
            }
        }
        self.clock += 1;
        self.entries.push(MemoEntry {
            fingerprint,
            circuit: circuit.clone(),
            front: Arc::clone(front),
            last_used: self.clock,
        });
    }
}

/// Locks a memo, recovering from poison: the memos only ever hold
/// fully-formed entries, so state left by a panicked compile is valid.
fn lock_memo<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stage-boundary poll of the token's hard conditions (cancel flag,
/// deadline): the cheap serial stages are not internally cancellable.
fn checkpoint(cancel: &CancelToken) -> Result<(), EpocError> {
    match cancel.hard_reason() {
        Some(reason) => Err(EpocError::from_cancel(reason)),
        None => Ok(()),
    }
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
    /// Front-half memo: a circuit this compiler has compiled twice
    /// before goes straight to the pulse stage's library lookups.
    memo: Mutex<FrontMemo>,
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
            memo: Mutex::new(FrontMemo::default()),
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
    /// byte-identical at any worker count. A budgeted compile reads the
    /// compiler's memos and pulse library but stores nothing a budget
    /// may have degraded.
    ///
    /// From a circuit's third compile on (it is admitted on the second,
    /// and the 64 most recently used circuits stay), the compiler replays
    /// the front half — ZX, partition, synthesis, regroup, verification —
    /// from its memo and runs only the pulse stage. The report equals a
    /// recompute's apart from its timings; the four front-half stage
    /// timings of a memo hit read zero.
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
        let (hits0, misses0) = self.backend.cache_counts();
        let (grape_iters0, grape_probes0) = self.backend.grape_stats();
        checkpoint(cancel)?;
        let n_workers = self
            .config
            .workers
            .unwrap_or_else(epoc_rt::pool::default_workers);

        let fingerprint = circuit.fingerprint();
        let memoized = lock_memo(&self.memo).get(fingerprint, circuit);
        let (front, mut stages) = match memoized {
            Some(front) => {
                epoc_rt::telemetry::counter_add("pipeline.memo_hits", 1);
                // The synthesis rungs' counters, replayed as a synthesis
                // memo hit replays them.
                for r in &front.stages.recoveries {
                    epoc_rt::telemetry::counter_add(r.rung, 1);
                }
                let stages = StageStats {
                    timings: StageTimings::default(),
                    ..front.stages.clone()
                };
                (front, stages)
            }
            None => {
                let front = Arc::new(self.front_half(circuit, cancel, n_workers)?);
                // Like the synthesis memo and the pulse library, the memo
                // takes nothing from a budgeted compile.
                if !cancel.has_budget() {
                    lock_memo(&self.memo).offer(fingerprint, circuit, &front);
                }
                let stages = front.stages.clone();
                (front, stages)
            }
        };

        // §3.4 — pulse generation through the backend + cache, fanned out
        // over as many pool workers as synthesis.
        checkpoint(cancel)?;
        let stage_span = epoc_rt::telemetry::span("stage", "pulse");
        let stage_t = Instant::now();
        // The identity (`ideal`) profile conditions nothing and hashes to
        // 0, so compiling under it is byte-identical to no profile at all.
        let hw_active = self.config.hw.as_ref().filter(|p| !p.is_identity());
        let schedule = schedule_partition(
            &front.partition,
            &front.unitaries,
            &self.backend,
            n_workers,
            hw_active,
            &mut stages.recoveries,
            cancel,
        )?;
        stages.pulses = schedule.len();
        let (hits1, misses1) = self.backend.cache_counts();
        stages.cache_hits = hits1.saturating_sub(hits0);
        stages.cache_misses = misses1.saturating_sub(misses0);
        let (grape_iters1, grape_probes1) = self.backend.grape_stats();
        stages.grape_iterations = grape_iters1.saturating_sub(grape_iters0);
        stages.grape_probes = grape_probes1.saturating_sub(grape_probes0);
        stages.timings.pulse = stage_t.elapsed();
        drop(stage_span);

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
            verified: front.verified,
            verify_skipped: front.verify_skipped,
            hardware,
            simulation: None,
        })
    }

    /// Runs the front half of a compile (see [`FrontHalf`]).
    fn front_half(
        &self,
        circuit: &Circuit,
        cancel: &CancelToken,
        n_workers: usize,
    ) -> Result<FrontHalf, EpocError> {
        let mut stages = StageStats::default();

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
        checkpoint(cancel)?;
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
                // Bind the lookup before the branch: an inline lock in the
                // `if let` scrutinee would hold the guard through the
                // `else` and self-deadlock.
                let cached = lock_memo(cache).get(&key).cloned();
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
                // and the ladder falls through to the fallback. A 1-qubit
                // block skips the escalations: its search is one seeded
                // instantiation, which no node budget changes.
                let scope = cancel.scope();
                let mut cfg = synth_cfg.clone();
                let mut rungs: Vec<&'static str> = Vec::new();
                let mut r = synthesize_with_cancel(&unitary, &cfg, &scope)?;
                let mut nodes = r.nodes_evaluated;
                for _ in 0..recovery.synth_budget_escalations {
                    if r.converged || block.n_qubits() == 1 {
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
                    if !r.converged && recovery.synth_budget_escalations > 0 {
                        rungs.push(RUNG_SYNTH_FALLBACK);
                    }
                    (original, false, nodes, rungs)
                };
                // A budget may have cut this search short, so a budgeted
                // compile reads the memo but never stores into it: a later
                // unbudgeted compile must not replay the budget's rungs
                // or fallback.
                if !cancel.has_budget() {
                    lock_memo(cache).insert(key, entry.clone());
                }
                Ok(entry)
            };
        // Fan the blocks out over a fixed set of pool workers (not a
        // thread per block, which would spawn thousands of OS threads on
        // large circuits). Per-block synthesis is deterministic under the
        // configured seed and results merge in block order, so the output
        // is identical at any worker count.
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

        // §3.3 — regrouping (or per-gate pulses when disabled), and the
        // dense unitaries of the resulting blocks, which the pulse stage
        // keys its library lookups on.
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
        let unitaries = block_unitaries(&final_partition, n_workers);
        stages.timings.regroup = stage_t.elapsed();
        drop(stage_span);

        // Verification: the synthesized stream must implement the input.
        let (verified, verify_skipped) = if !self.config.verify {
            (false, true)
        } else if circuit.n_qubits() <= VERIFY_LIMIT {
            (circuits_equivalent(circuit, &vug_stream, 1e-3), false)
        } else {
            (false, true)
        };

        Ok(FrontHalf {
            stages,
            partition: final_partition,
            unitaries,
            verified,
            verify_skipped,
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

    /// [`EpocCompiler::load_library`] for a file the caller saves back to:
    /// a file that fails to load is moved aside to `FILE.corrupt` (a
    /// failed load applies nothing), so a later save cannot overwrite
    /// bytes that were never a library, and the compiler starts cold
    /// (recomputing is always safe).
    ///
    /// # Errors
    ///
    /// Returns the warning to print when the load failed: the load error
    /// and where the file went.
    pub fn load_library_or_set_aside(&self, path: &std::path::Path) -> Result<usize, String> {
        self.load_library(path).map_err(|e| {
            let mut aside = path.as_os_str().to_owned();
            aside.push(".corrupt");
            let aside = std::path::PathBuf::from(aside);
            match std::fs::rename(path, &aside) {
                Ok(()) => format!(
                    "{e}; moved {} aside to {} and starting without it",
                    path.display(),
                    aside.display()
                ),
                Err(m) => format!(
                    "{e}; starting without {} (moving it aside failed: {m})",
                    path.display()
                ),
            }
        })
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

    /// A small circuit per seed, distinct across seeds.
    fn small(seed: u64) -> Circuit {
        generators::random_circuit(2, 4, seed)
    }

    fn normalized_json(mut r: CompilationReport) -> String {
        r.compile_time = std::time::Duration::ZERO;
        r.stages.timings = StageTimings::default();
        r.to_json()
    }

    fn memo_len(compiler: &EpocCompiler) -> usize {
        lock_memo(&compiler.memo).entries.len()
    }

    fn memo_holds(compiler: &EpocCompiler, c: &Circuit) -> bool {
        let fp = c.fingerprint();
        let memo = lock_memo(&compiler.memo);
        memo.sightings.contains(&fp) || memo.entries.iter().any(|e| e.fingerprint == fp)
    }

    #[test]
    fn circuits_seen_once_leave_no_memo_entry() {
        let compiler = EpocCompiler::new(EpocConfig::fast());
        for seed in 0..8 {
            compiler.compile(&small(seed)).unwrap();
        }
        assert_eq!(memo_len(&compiler), 0);
        // A budgeted compile stores nothing, not even a sighting.
        let budgeted = CancelToken::default().with_budget(epoc_rt::cancel::Budget {
            grape_iters: None,
            qsearch_nodes: Some(1_000_000),
        });
        for _ in 0..3 {
            compiler.compile_with_cancel(&small(99), &budgeted).unwrap();
        }
        assert!(!memo_holds(&compiler, &small(99)));
        // The second sighting admits.
        compiler.compile(&small(0)).unwrap();
        assert_eq!(memo_len(&compiler), 1);
    }

    #[test]
    fn memo_stays_bounded_and_evicted_circuits_recompile_identically() {
        let compiler = EpocCompiler::new(EpocConfig::fast());
        compiler.compile(&small(0)).unwrap();
        // The second compile (a recompute on a warm pulse library) is
        // the one the hit replaces.
        let second = compiler.compile(&small(0)).unwrap();
        let hit = compiler.compile(&small(0)).unwrap();
        assert!(hit.stages.timings.zx.is_zero(), "third compile missed");
        let hit = normalized_json(hit);
        assert_eq!(normalized_json(second), hit);
        // More distinct repeated circuits than the cap: small(0) is the
        // least recently used and goes first.
        for seed in 1..=MEMO_CAP as u64 {
            compiler.compile(&small(seed)).unwrap();
            compiler.compile(&small(seed)).unwrap();
            assert!(memo_len(&compiler) <= MEMO_CAP);
        }
        assert_eq!(memo_len(&compiler), MEMO_CAP);
        assert!(!memo_holds(&compiler, &small(0)));
        let recompiled = compiler.compile(&small(0)).unwrap();
        assert!(!recompiled.stages.timings.zx.is_zero());
        assert_eq!(normalized_json(recompiled), hit);
    }

    /// A 1-qubit block's search is one seeded instantiation that no node
    /// budget changes, so its ladder never escalates: across the builtins,
    /// a 1-qubit block that misses the threshold records the fallback
    /// alone, and one that meets it records nothing.
    #[test]
    fn one_qubit_blocks_skip_the_budget_rung() {
        let config = EpocConfig::default();
        let mut fallbacks = 0;
        for bench in generators::benchmark_suite() {
            let r = EpocCompiler::new(config.clone())
                .compile(&bench.circuit)
                .unwrap();
            // The synthesis stage's partition, as `front_half` builds it.
            let basis = epoc_circuit::lower_to_basis(&bench.circuit);
            let optimized = if basis.len() <= config.zx_gate_limit {
                zx_optimize(&basis).circuit
            } else {
                basis
            };
            let partition = greedy_partition(&optimized, config.partition);
            for (i, block) in partition.blocks().iter().enumerate() {
                if block.n_qubits() != 1 {
                    continue;
                }
                let subject = format!("blk{i}");
                let rungs: Vec<&str> = r
                    .stages
                    .recoveries
                    .iter()
                    .filter(|rec| rec.stage == "synth" && rec.subject == subject)
                    .map(|rec| rec.rung)
                    .collect();
                let synth = epoc_synth::synthesize(&block.unitary(), &config.synth).unwrap();
                let expected = if synth.converged {
                    vec![]
                } else {
                    fallbacks += 1;
                    vec![RUNG_SYNTH_FALLBACK]
                };
                assert_eq!(rungs, expected, "{} {subject}", bench.name);
            }
        }
        assert!(fallbacks > 0, "no 1-qubit block missed the threshold");
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
