//! Compilation reports: everything the evaluation section measures.

use crate::simulate::SimulationStats;
use epoc_pulse::PulseSchedule;
use epoc_rt::json::Json;
use std::time::Duration;

/// Wall-clock durations of the five pipeline stages.
///
/// Timings are observability data, not part of the deterministic report
/// surface: the byte-determinism tests zero this struct (exactly as they
/// zero `compile_time`) before comparing serialized reports. A compile
/// served from the front-half memo runs only the pulse stage, so its
/// other four timings are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// §3.1 ZX depth optimization.
    pub zx: Duration,
    /// §3.2 greedy partitioning.
    pub partition: Duration,
    /// §3.3 VUG synthesis fan-out.
    pub synth: Duration,
    /// §3.3 regrouping (or the per-gate fallback partition), and the dense
    /// unitaries of the resulting blocks.
    pub regroup: Duration,
    /// §3.4 pulse generation.
    pub pulse: Duration,
}

impl StageTimings {
    /// The timings as a JSON value, one `<stage>_ns` integer per stage.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push("zx_ns", self.zx.as_nanos() as u64)
            .push("partition_ns", self.partition.as_nanos() as u64)
            .push("synth_ns", self.synth.as_nanos() as u64)
            .push("regroup_ns", self.regroup.as_nanos() as u64)
            .push("pulse_ns", self.pulse.as_nanos() as u64)
    }
}

/// Recovery-ladder rung label: escalated QSearch node budget.
pub const RUNG_SYNTH_BUDGET: &str = "recovery.synth.budget";
/// Recovery-ladder rung label: structural fallback after the synthesis
/// budget escalations were exhausted without convergence.
pub const RUNG_SYNTH_FALLBACK: &str = "recovery.synth.fallback";
/// Recovery-ladder rung label: a precomputed pulse went missing during
/// schedule replay (lost cache insert or forced miss) and the block was
/// recomputed in place.
pub const RUNG_SCHEDULE_RECOMPUTE: &str = "recovery.schedule.recompute";
/// Recovery-ladder rung label: waveform conditioning failed at schedule
/// emission (injected `hw.condition` fault) and the block degraded to the
/// digital (exact-unitary) payload instead of failing the compile.
pub const RUNG_HW_DIGITAL: &str = "recovery.hw.digital";

/// One climbed rung of the per-block recovery ladder. The `rung` label
/// doubles as the `recovery.*` telemetry counter the pipeline bumps when
/// it takes the rung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Pipeline stage that recovered (`"synth"`, `"pulse"`, `"schedule"`).
    pub stage: &'static str,
    /// What was recovered (e.g. `"blk3"`).
    pub subject: String,
    /// The ladder rung taken (e.g. [`RUNG_SYNTH_BUDGET`],
    /// `epoc_qoc::RUNG_GRAPE_RESTARTS`).
    pub rung: &'static str,
}

impl RecoveryRecord {
    /// The record as a JSON value.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push("stage", self.stage)
            .push("subject", self.subject.as_str())
            .push("rung", self.rung)
    }
}

/// Per-stage statistics of one EPOC compilation.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Circuit depth before / after the ZX pass.
    pub zx_depth_before: usize,
    /// Depth after ZX (equals before when the pass is disabled/fell back).
    pub zx_depth_after: usize,
    /// ZX rewrite rules applied to produce the kept circuit (0 when the
    /// pass was skipped or fell back).
    pub zx_rewrites: usize,
    /// Gate count entering partitioning.
    pub gates_after_zx: usize,
    /// Synthesis blocks processed.
    pub synth_blocks: usize,
    /// Blocks where QSearch converged (vs structural fallback).
    pub synth_converged: usize,
    /// QSearch nodes instantiated across all synthesis blocks. Cache-hit
    /// blocks replay the node count of the first computation, so the total
    /// is identical at any worker count.
    pub qsearch_nodes: usize,
    /// Gates in the synthesized VUG/CNOT stream.
    pub vug_stream_gates: usize,
    /// Pulses in the final schedule.
    pub pulses: usize,
    /// Pulse-cache hits during pulse generation.
    pub cache_hits: usize,
    /// Pulse-cache misses.
    pub cache_misses: usize,
    /// GRAPE Adam iterations spent during this compile (0 for the modeled
    /// backend).
    pub grape_iterations: usize,
    /// GRAPE duration-search probes spent during this compile.
    pub grape_probes: usize,
    /// Recovery-ladder rungs climbed, in deterministic block order (the
    /// same at any worker count; empty when every stage succeeded on its
    /// base attempt).
    pub recoveries: Vec<RecoveryRecord>,
    /// Per-stage wall-clock durations (zeroed by determinism checks).
    pub timings: StageTimings,
}

impl StageStats {
    /// The stats as a JSON value (field order matches the struct).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push("zx_depth_before", self.zx_depth_before)
            .push("zx_depth_after", self.zx_depth_after)
            .push("zx_rewrites", self.zx_rewrites)
            .push("gates_after_zx", self.gates_after_zx)
            .push("synth_blocks", self.synth_blocks)
            .push("synth_converged", self.synth_converged)
            .push("qsearch_nodes", self.qsearch_nodes)
            .push("vug_stream_gates", self.vug_stream_gates)
            .push("pulses", self.pulses)
            .push("cache_hits", self.cache_hits)
            .push("cache_misses", self.cache_misses)
            .push("grape_iterations", self.grape_iterations)
            .push("grape_probes", self.grape_probes)
            .push(
                "recoveries",
                Json::Arr(self.recoveries.iter().map(RecoveryRecord::to_json_value).collect()),
            )
            .push("timings", self.timings.to_json_value())
    }

    /// Multi-line human-readable stage breakdown (work metrics plus the
    /// per-stage wall clock).
    pub fn to_text(&self) -> String {
        let t = &self.timings;
        let mut text = format!(
            "stages:\n\
             \x20 zx         {:>10.2?}  depth {} -> {}, {} rewrites\n\
             \x20 partition  {:>10.2?}  {} blocks from {} gates\n\
             \x20 synth      {:>10.2?}  {}/{} converged, {} qsearch nodes, {} vug gates\n\
             \x20 regroup    {:>10.2?}\n\
             \x20 pulse      {:>10.2?}  {} pulses, cache {}/{} hit, grape {} iters / {} probes",
            t.zx,
            self.zx_depth_before,
            self.zx_depth_after,
            self.zx_rewrites,
            t.partition,
            self.synth_blocks,
            self.gates_after_zx,
            t.synth,
            self.synth_converged,
            self.synth_blocks,
            self.qsearch_nodes,
            self.vug_stream_gates,
            t.regroup,
            t.pulse,
            self.pulses,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.grape_iterations,
            self.grape_probes,
        );
        for r in &self.recoveries {
            text.push_str(&format!("\n  recovery: {} {} -> {}", r.stage, r.subject, r.rung));
        }
        text
    }
}

/// Control-electronics summary of one compilation under a hardware
/// profile (see [`epoc_hw::HardwareProfile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareStats {
    /// Profile name (`"transmon_awg_8bit"`, …).
    pub profile: String,
    /// Stable profile hash — the same value scoping the pulse-library
    /// cache keys (0 for the identity/`ideal` profile).
    pub profile_hash: u64,
    /// Waveform pulses conditioned (slew-clip → quantize → filter →
    /// crosstalk) at schedule emission.
    pub conditioned_pulses: usize,
    /// `true` when the profile lowers drives to SFQ bitstreams.
    pub sfq: bool,
}

impl HardwareStats {
    /// The stats as a JSON value. The hash serializes as a 16-hex-digit
    /// string (a raw u64 does not survive a JSON f64 round-trip).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .push("profile", self.profile.as_str())
            .push("profile_hash", format!("{:016x}", self.profile_hash).as_str())
            .push("conditioned_pulses", self.conditioned_pulses)
            .push("sfq", self.sfq)
    }
}

/// The result of compiling one circuit down to pulses.
#[derive(Debug, Clone)]
pub struct CompilationReport {
    /// Which flow produced it (`"epoc"`, `"gate-based"`, `"paqoc"`, …).
    pub flow: String,
    /// Register size.
    pub n_qubits: usize,
    /// Input gate count.
    pub gates_in: usize,
    /// The pulse schedule.
    pub schedule: PulseSchedule,
    /// Wall-clock compilation time.
    pub compile_time: Duration,
    /// Stage statistics.
    pub stages: StageStats,
    /// `true` when semantic verification ran and passed (or was skipped
    /// because the register is too large — see `verified_skipped`).
    pub verified: bool,
    /// `true` when verification was skipped (register too wide).
    pub verify_skipped: bool,
    /// Control-electronics summary (`None` when compiling with ideal
    /// electronics). Like `simulation`, the key is omitted from the JSON
    /// entirely when absent, so existing report consumers are unaffected.
    pub hardware: Option<HardwareStats>,
    /// Pulse-level simulation outcome (`None` unless `--simulate` /
    /// [`crate::simulate_schedule`] ran). The key is omitted from the
    /// JSON entirely when absent, so existing report consumers are
    /// unaffected.
    pub simulation: Option<SimulationStats>,
}

impl CompilationReport {
    /// Total pulse latency (ns).
    pub fn latency(&self) -> f64 {
        self.schedule.latency()
    }

    /// Estimated success probability (the paper's Eq. 3).
    pub fn esp(&self) -> f64 {
        self.schedule.esp()
    }

    /// The report as a JSON value. `compile_time` serializes as
    /// `{secs, nanos}`, the same shape the previous serde-based output
    /// used for `Duration`.
    pub fn to_json_value(&self) -> Json {
        let mut obj = Json::obj()
            .push("flow", self.flow.as_str())
            .push("n_qubits", self.n_qubits)
            .push("gates_in", self.gates_in)
            .push("schedule", self.schedule.to_json_value())
            .push(
                "compile_time",
                Json::obj()
                    .push("secs", self.compile_time.as_secs())
                    .push("nanos", self.compile_time.subsec_nanos()),
            )
            .push("stages", self.stages.to_json_value())
            .push("verified", self.verified)
            .push("verify_skipped", self.verify_skipped);
        if let Some(hw) = &self.hardware {
            obj = obj.push("hardware", hw.to_json_value());
        }
        if let Some(sim) = &self.simulation {
            obj = obj.push("simulation", sim.to_json_value());
        }
        obj
    }

    /// The report as pretty-printed JSON (schedule included), for tooling.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Compact JSON fields for the structured observability log: the
    /// counters an operator correlates per job (cache traffic, GRAPE
    /// spend, recovery count) without the full schedule payload. This is
    /// a *log* shape, free to evolve — the report JSON contract lives in
    /// [`CompilationReport::to_json_value`].
    pub fn log_summary(&self) -> Json {
        Json::obj()
            .push("flow", self.flow.as_str())
            .push("n_qubits", self.n_qubits)
            .push("gates_in", self.gates_in)
            .push("pulses", self.stages.pulses)
            .push("cache_hits", self.stages.cache_hits)
            .push("cache_misses", self.stages.cache_misses)
            .push("grape_iterations", self.stages.grape_iterations)
            .push("recoveries", self.stages.recoveries.len())
            .push("verified", self.verified)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} latency {:>9.1} ns  esp {:.4}  pulses {:>4}  compile {:>8.2?}",
            self.flow,
            self.latency(),
            self.esp(),
            self.schedule.len(),
            self.compile_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_key_fields() {
        let r = CompilationReport {
            flow: "epoc".into(),
            n_qubits: 2,
            gates_in: 5,
            schedule: PulseSchedule::new(2),
            compile_time: Duration::from_millis(12),
            stages: StageStats::default(),
            verified: true,
            verify_skipped: false,
            hardware: None,
            simulation: None,
        };
        let s = r.summary();
        assert!(s.contains("epoc"));
        assert!(s.contains("latency"));
        assert_eq!(r.latency(), 0.0);
        assert_eq!(r.esp(), 1.0);
    }

    #[test]
    fn report_json_matches_expected_bytes() {
        let mut schedule = PulseSchedule::new(1);
        schedule.push(epoc_pulse::ScheduledPulse {
            qubits: vec![0],
            start: 0.0,
            duration: 26.5,
            fidelity: 0.9995,
            label: "blk\"0\"".into(),
            payload: epoc_pulse::PulsePayload::Opaque,
        });
        let r = CompilationReport {
            flow: "epoc".into(),
            n_qubits: 1,
            gates_in: 2,
            schedule,
            compile_time: Duration::new(1, 500),
            stages: StageStats {
                zx_depth_before: 3,
                zx_depth_after: 2,
                zx_rewrites: 4,
                gates_after_zx: 2,
                synth_blocks: 1,
                synth_converged: 1,
                qsearch_nodes: 9,
                vug_stream_gates: 2,
                pulses: 1,
                cache_hits: 0,
                cache_misses: 1,
                grape_iterations: 120,
                grape_probes: 3,
                recoveries: vec![RecoveryRecord {
                    stage: "pulse",
                    subject: "blk0".into(),
                    rung: "recovery.grape.restarts",
                }],
                timings: StageTimings {
                    zx: Duration::from_nanos(10),
                    partition: Duration::from_nanos(20),
                    synth: Duration::from_nanos(30),
                    regroup: Duration::from_nanos(40),
                    pulse: Duration::from_nanos(50),
                },
            },
            verified: true,
            verify_skipped: false,
            hardware: None,
            simulation: None,
        };
        let expected = concat!(
            "{\n",
            "  \"flow\": \"epoc\",\n",
            "  \"n_qubits\": 1,\n",
            "  \"gates_in\": 2,\n",
            "  \"schedule\": {\n",
            "    \"n_qubits\": 1,\n",
            "    \"pulses\": [\n",
            "      {\n",
            "        \"qubits\": [\n",
            "          0\n",
            "        ],\n",
            "        \"start\": 0.0,\n",
            "        \"duration\": 26.5,\n",
            "        \"fidelity\": 0.9995,\n",
            "        \"label\": \"blk\\\"0\\\"\",\n",
            "        \"payload\": \"opaque\"\n",
            "      }\n",
            "    ],\n",
            "    \"frames\": []\n",
            "  },\n",
            "  \"compile_time\": {\n",
            "    \"secs\": 1,\n",
            "    \"nanos\": 500\n",
            "  },\n",
            "  \"stages\": {\n",
            "    \"zx_depth_before\": 3,\n",
            "    \"zx_depth_after\": 2,\n",
            "    \"zx_rewrites\": 4,\n",
            "    \"gates_after_zx\": 2,\n",
            "    \"synth_blocks\": 1,\n",
            "    \"synth_converged\": 1,\n",
            "    \"qsearch_nodes\": 9,\n",
            "    \"vug_stream_gates\": 2,\n",
            "    \"pulses\": 1,\n",
            "    \"cache_hits\": 0,\n",
            "    \"cache_misses\": 1,\n",
            "    \"grape_iterations\": 120,\n",
            "    \"grape_probes\": 3,\n",
            "    \"recoveries\": [\n",
            "      {\n",
            "        \"stage\": \"pulse\",\n",
            "        \"subject\": \"blk0\",\n",
            "        \"rung\": \"recovery.grape.restarts\"\n",
            "      }\n",
            "    ],\n",
            "    \"timings\": {\n",
            "      \"zx_ns\": 10,\n",
            "      \"partition_ns\": 20,\n",
            "      \"synth_ns\": 30,\n",
            "      \"regroup_ns\": 40,\n",
            "      \"pulse_ns\": 50\n",
            "    }\n",
            "  },\n",
            "  \"verified\": true,\n",
            "  \"verify_skipped\": false\n",
            "}",
        );
        assert_eq!(r.to_json(), expected);
    }
}
