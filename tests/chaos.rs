//! Chaos suite: deterministic fault injection against the full pipeline.
//!
//! Every scenario arms `epoc_rt::faults` points inside the compiler's hot
//! path and asserts the contract of the recovery ladder: the compile
//! still produces a *verified* report, every climbed rung is recorded in
//! `stages.recoveries`, and the report bytes are identical at any worker
//! count — injected failures included.
//!
//! Fault state is process-global, so tests that arm points serialize on
//! one mutex and disarm on exit (even when the test panics). The CLI
//! tests spawn `epocc` subprocesses and need no serialization: each child
//! owns its own fault registry.

use epoc::qoc::{RUNG_GRAPE_DIGITAL, RUNG_GRAPE_RESTARTS, RUNG_GRAPE_SLOTS};
use epoc::sim::{SimError, SimOptions};
use epoc::{
    simulate_schedule, CompilationReport, EpocCompiler, EpocConfig, EpocError, RecoveryRecord,
    StageTimings, RUNG_HW_DIGITAL, RUNG_SCHEDULE_RECOMPUTE, RUNG_SYNTH_BUDGET,
    RUNG_SYNTH_FALLBACK,
};
use epoc_circuit::generators;
use epoc_rt::faults::{self, Trigger};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes fault-arming tests and guarantees a disarmed registry on
/// both entry and exit, whether the test passes or panics.
struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl FaultGuard {
    fn acquire() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::disarm_all();
        Self { _serial: serial }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

/// The report JSON with the (nondeterministic) wall-clock times zeroed —
/// the same normalization the parallel-determinism suite uses.
fn normalized_json(mut r: CompilationReport) -> String {
    r.compile_time = Duration::ZERO;
    r.stages.timings = StageTimings::default();
    r.to_json()
}

fn rung_list(r: &CompilationReport) -> Vec<&'static str> {
    r.stages.recoveries.iter().map(|rec| rec.rung).collect()
}

/// The ISSUE acceptance scenario: a total failure storm — QSearch never
/// converges within budget, GRAPE never reaches its fidelity target —
/// still compiles to a verified report, records every ladder rung, and is
/// byte-identical at 1 and 4 workers.
#[test]
fn failure_storm_still_verifies_and_is_deterministic() {
    let _g = FaultGuard::acquire();
    faults::arm("grape.converge", Trigger::Always);
    faults::arm("qsearch.budget", Trigger::Always);
    // 2-qubit circuit: every synthesis block fits the QSearch width cap
    // and every regrouped block fits the GRAPE cap, so both ladders climb.
    let circuit = generators::random_circuit(2, 30, 0);
    let compile = |workers: usize| {
        let r = EpocCompiler::new(EpocConfig::with_grape(2).with_workers(workers))
            .compile(&circuit)
            .unwrap();
        assert!(r.verified, "storm compile at {workers} workers failed verification");
        assert!(r.schedule.is_valid(), "storm schedule overlaps at {workers} workers");
        r
    };
    let r1 = compile(1);
    let rungs = rung_list(&r1);
    assert!(!rungs.is_empty(), "storm climbed no recovery rungs");
    for expected in [
        RUNG_SYNTH_BUDGET,
        RUNG_SYNTH_FALLBACK,
        RUNG_GRAPE_RESTARTS,
        RUNG_GRAPE_SLOTS,
        RUNG_GRAPE_DIGITAL,
    ] {
        assert!(rungs.contains(&expected), "storm never climbed {expected}: {rungs:?}");
    }
    let r4 = compile(4);
    assert_eq!(
        normalized_json(r1),
        normalized_json(r4),
        "storm report differs between workers=1 and workers=4"
    );
}

/// A single injected QSearch budget exhaustion recovers on the first
/// escalation rung: exactly one `recovery.synth.budget` record, no
/// structural fallback, and a verified report.
#[test]
fn qsearch_budget_rung_recovers_single_flake() {
    let _g = FaultGuard::acquire();
    faults::arm("qsearch.budget", Trigger::NthHit(1));
    // ghz(2) partitions into a single 2-qubit block, so exactly one
    // QSearch call flakes and exactly one record lands.
    let r = EpocCompiler::new(EpocConfig::fast().with_workers(1))
        .compile(&generators::ghz(2))
        .unwrap();
    assert!(r.verified);
    assert_eq!(
        r.stages.recoveries,
        vec![RecoveryRecord {
            stage: "synth",
            subject: "blk0".into(),
            rung: RUNG_SYNTH_BUDGET,
        }],
        "expected exactly the budget rung"
    );
    assert_eq!(faults::fires("qsearch.budget"), 1);
}

/// When every pulse-library insert is dropped, deduplicated twin blocks
/// find neither a cached entry nor a precomputed one — the schedule stage
/// recomputes them in place and records `recovery.schedule.recompute`.
#[test]
fn lost_cache_inserts_recompute_in_place() {
    let _g = FaultGuard::acquire();
    faults::arm("pulse_lib.insert", Trigger::Always);
    // Per-gate pulses on a QAOA layer: the stream contains duplicate
    // 1-qubit unitaries, so dropped inserts strand their twins.
    let circuit = generators::qaoa(3, 1, 2);
    let r = EpocCompiler::new(
        EpocConfig::with_grape(1).without_regrouping().with_workers(1),
    )
    .compile(&circuit)
    .unwrap();
    assert!(r.verified);
    let recomputes = r
        .stages
        .recoveries
        .iter()
        .filter(|rec| rec.stage == "schedule" && rec.rung == RUNG_SCHEDULE_RECOMPUTE)
        .count();
    assert!(recomputes > 0, "no block was recomputed: {:?}", r.stages.recoveries);
    assert_eq!(r.stages.cache_hits, 0, "every insert was dropped, yet the cache hit");
}

/// Probabilistic fault storms draw keyed (order-independent) fates in the
/// parallel stages and counter-ordered fates only in serial ones, so even
/// a mixed storm is byte-deterministic across worker counts.
#[test]
fn probability_storm_deterministic_across_worker_counts() {
    let _g = FaultGuard::acquire();
    let circuit = generators::random_circuit(2, 30, 1);
    let compile = |workers: usize| {
        // Re-arm per run: re-arming resets the hit counters the serial
        // pulse-library points key their draws on.
        faults::disarm_all();
        faults::set_seed(0xC0FFEE);
        faults::arm("grape.converge", Trigger::Probability(0.5));
        faults::arm("qsearch.budget", Trigger::Probability(0.5));
        faults::arm("pulse_lib.miss", Trigger::Probability(0.3));
        faults::arm("pulse_lib.insert", Trigger::Probability(0.3));
        let r = EpocCompiler::new(EpocConfig::with_grape(2).with_workers(workers))
            .compile(&circuit)
            .unwrap();
        assert!(r.verified, "probability storm at {workers} workers failed verification");
        r
    };
    assert_eq!(
        normalized_json(compile(1)),
        normalized_json(compile(4)),
        "probability storm differs between workers=1 and workers=4"
    );
}

/// Strict mode trades the digital fallback for a typed error: an
/// exhausted GRAPE ladder surfaces as `EpocError::Schedule` naming the
/// failing block instead of a degraded-but-verified report.
#[test]
fn strict_mode_surfaces_typed_error() {
    let _g = FaultGuard::acquire();
    faults::arm("grape.converge", Trigger::Always);
    let err = EpocCompiler::new(EpocConfig::with_grape(2).strict().with_workers(1))
        .compile(&generators::bell_pair_prep())
        .unwrap_err();
    assert!(matches!(err, EpocError::Schedule(_)), "unexpected error: {err:?}");
    let msg = err.to_string();
    assert!(msg.contains("schedule") && msg.contains("block"), "undescriptive error: {msg}");
}

/// An injected propagation fault surfaces as a typed `SimError::Injected`
/// from the simulator instead of a panic.
#[test]
fn sim_propagate_injection_is_typed() {
    let _g = FaultGuard::acquire();
    // Compile with the harness disarmed so the schedule carries a real
    // GRAPE waveform for the propagator to chew on.
    let circuit = generators::bell_pair_prep();
    let r = EpocCompiler::new(
        EpocConfig::with_grape(1).without_regrouping().with_workers(1),
    )
    .compile(&circuit)
    .unwrap();
    assert!(r.verified);
    faults::arm("sim.propagate", Trigger::Always);
    let err = simulate_schedule(&circuit, &r.schedule, &SimOptions::default()).unwrap_err();
    assert_eq!(err, SimError::Injected { label: "sim.propagate" });
    faults::disarm("sim.propagate");
    assert!(simulate_schedule(&circuit, &r.schedule, &SimOptions::default()).is_ok());
}

/// A torn checkpoint: `pulse_lib.persist` writes only the first half of
/// the library file (and reports success, as a crashed process would).
/// Every record is checksummed, so the restart loads the whole records
/// before the tear and no more, recomputes the rest, verifies, and emits
/// the cold run's schedule byte for byte. Never a panic.
#[test]
fn torn_library_checkpoint_degrades_to_cold_cache() {
    let _g = FaultGuard::acquire();
    let circuit = generators::qaoa(3, 1, 2);
    let config =
        || EpocConfig::with_grape(1).without_regrouping().with_workers(1);
    let path = std::env::temp_dir().join(format!("epoc-chaos-torn-{}.json", std::process::id()));
    let cold_compiler = EpocCompiler::new(config());
    let cold = cold_compiler.compile(&circuit).unwrap();

    // Checkpoint under an armed persist fault: half the bytes land.
    faults::arm("pulse_lib.persist", Trigger::Always);
    cold_compiler.save_library(&path).unwrap();
    faults::disarm("pulse_lib.persist");

    // The restarted service keeps the records before the tear…
    let restarted = EpocCompiler::new(config());
    let loaded = restarted.load_library(&path).unwrap();
    let total = cold_compiler.library_len();
    assert!(loaded > 0 && loaded < total, "loaded {loaded} of {total} entries");

    // …recomputes the others, and lands on the cold run's schedule.
    let partial = restarted.compile(&circuit).unwrap();
    assert!(partial.verified);
    assert!(partial.stages.cache_misses > 0, "the torn half somehow hit");
    assert!(
        partial.stages.grape_iterations > 0
            && partial.stages.grape_iterations < cold.stages.grape_iterations,
        "GRAPE iterations {} (cold run {}): the loaded records were not used",
        partial.stages.grape_iterations,
        cold.stages.grape_iterations
    );
    assert_eq!(
        cold.schedule.to_json_value().to_string_compact(),
        partial.schedule.to_json_value().to_string_compact(),
        "partially warm schedule differs from a genuine cold run"
    );
    std::fs::remove_file(&path).ok();
}

/// A persist fault on one checkpoint must not poison the service: the
/// next (unfaulted) checkpoint overwrites the torn file with a good one,
/// and a restart warm-starts from it as if nothing happened.
#[test]
fn next_checkpoint_repairs_torn_library() {
    let _g = FaultGuard::acquire();
    let circuit = generators::qaoa(3, 1, 2);
    let config =
        || EpocConfig::with_grape(1).without_regrouping().with_workers(1);
    let path = std::env::temp_dir().join(format!("epoc-chaos-repair-{}.json", std::process::id()));
    let compiler = EpocCompiler::new(config());
    compiler.compile(&circuit).unwrap();
    faults::arm("pulse_lib.persist", Trigger::FirstHits(1));
    compiler.save_library(&path).unwrap(); // torn
    compiler.save_library(&path).unwrap(); // repaired
    let restarted = EpocCompiler::new(config());
    assert!(restarted.load_library(&path).unwrap() > 0);
    let warm = restarted.compile(&circuit).unwrap();
    assert_eq!(warm.stages.cache_misses, 0);
    assert_eq!(warm.stages.grape_iterations, 0);
    std::fs::remove_file(&path).ok();
}

/// `pulse_lib.insert` armed while *loading* models a partially lost
/// library: every restore is dropped, the load still reports success
/// (zero entries), and the compile runs cold — typed degradation at the
/// entry level, matching the live-insert semantics.
#[test]
fn insert_fault_during_load_degrades_to_cold_cache() {
    let _g = FaultGuard::acquire();
    let circuit = generators::qaoa(3, 1, 2);
    let config =
        || EpocConfig::with_grape(1).without_regrouping().with_workers(1);
    let path = std::env::temp_dir().join(format!("epoc-chaos-load-{}.json", std::process::id()));
    let compiler = EpocCompiler::new(config());
    compiler.compile(&circuit).unwrap();
    compiler.save_library(&path).unwrap();
    faults::arm("pulse_lib.insert", Trigger::Always);
    let restarted = EpocCompiler::new(config());
    assert_eq!(restarted.load_library(&path).unwrap(), 0, "dropped inserts were counted");
    faults::disarm("pulse_lib.insert");
    let r = restarted.compile(&circuit).unwrap();
    assert!(r.verified);
    assert!(r.stages.cache_misses > 0, "empty library somehow hit");
    std::fs::remove_file(&path).ok();
}

/// An injected `hw.condition` failure at schedule emission degrades the
/// affected block to the digital (exact-unitary) payload: the compile
/// still verifies, the `recovery.hw.digital` rung is recorded, the
/// hardware block counts fewer conditioned pulses than an unfaulted run,
/// and — the conditioning fate being drawn serially in block order — the
/// degraded report is byte-identical at any worker count.
#[test]
fn hw_condition_fault_falls_back_to_digital_payload() {
    let _g = FaultGuard::acquire();
    let circuit = generators::bell_pair_prep();
    let config = || {
        EpocConfig::with_grape(1)
            .without_regrouping()
            .with_hw(epoc::hw::HardwareProfile::transmon_awg_8bit())
    };
    let clean = EpocCompiler::new(config().with_workers(1)).compile(&circuit).unwrap();
    assert!(clean.verified);
    let clean_hw = clean.hardware.as_ref().expect("profile configured");
    assert!(clean_hw.conditioned_pulses > 0, "nothing was conditioned");

    let compile = |workers: usize| {
        faults::disarm_all();
        faults::arm("hw.condition", Trigger::NthHit(1));
        let r = EpocCompiler::new(config().with_workers(workers)).compile(&circuit).unwrap();
        assert!(r.verified, "hw-faulted compile at {workers} workers failed verification");
        r
    };
    let r1 = compile(1);
    let hw = r1.hardware.as_ref().expect("profile configured");
    assert_eq!(
        hw.conditioned_pulses,
        clean_hw.conditioned_pulses - 1,
        "degraded block still counted as conditioned"
    );
    let hw_rungs: Vec<&RecoveryRecord> = r1
        .stages
        .recoveries
        .iter()
        .filter(|rec| rec.stage == "hw" && rec.rung == RUNG_HW_DIGITAL)
        .collect();
    assert_eq!(hw_rungs.len(), 1, "expected one hw rung: {:?}", r1.stages.recoveries);
    // The degraded block replays as an exact unitary, so the schedule
    // still simulates (and trivially hits the digital payload's fidelity).
    assert!(
        simulate_schedule(&circuit, &r1.schedule, &SimOptions::default()).is_ok(),
        "degraded schedule no longer simulates"
    );
    let r4 = compile(4);
    assert_eq!(
        normalized_json(r1),
        normalized_json(r4),
        "hw-faulted report differs between workers=1 and workers=4"
    );
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("epoc-chaos-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

/// Malformed input must exit nonzero with a one-line diagnostic — no
/// panic, no backtrace.
#[test]
fn epocc_fails_cleanly_on_malformed_qasm() {
    let exe = env!("CARGO_BIN_EXE_epocc");
    for (name, source) in [
        ("truncated.qasm", &b"OPENQASM 2.0;\nqreg q[2;\nh q[0];\n"[..]),
        ("binary.qasm", &b"\x00\xff\xfe\x01 bogus \x80\x80 h h h"[..]),
    ] {
        let path = write_temp(name, source);
        let out = Command::new(exe).arg(&path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: accepted malformed input");
        assert!(stderr.contains("error:"), "{name}: no diagnostic on stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: panicked instead of erroring: {stderr}");
        std::fs::remove_file(&path).ok();
    }
}

/// An empty program is a valid program: the compile verifies, the
/// schedule is empty, and pulse-level simulation replays it perfectly.
#[test]
fn epocc_empty_circuit_simulate_succeeds() {
    let exe = env!("CARGO_BIN_EXE_epocc");
    let path = write_temp(
        "empty.qasm",
        b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n",
    );
    let out = Command::new(exe)
        .args(["--simulate", "--json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "empty circuit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"verified\": true"), "not verified: {stdout}");
    assert!(stdout.contains("\"process_fidelity\": 1"), "imperfect replay: {stdout}");
    std::fs::remove_file(&path).ok();
}

/// The `--faults` CLI path: a storm-armed compile succeeds end to end and
/// its JSON report carries the climbed rungs.
#[test]
fn epocc_chaos_run_reports_recoveries() {
    let exe = env!("CARGO_BIN_EXE_epocc");
    let out = Command::new(exe)
        .args([
            "--faults",
            "grape.converge=always,qsearch.budget=always",
            "--fault-seed",
            "7",
            "--json",
            "bench:ghz_n8",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "chaos CLI run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(RUNG_GRAPE_DIGITAL),
        "report carries no grape fallback rung: {stdout}"
    );
    assert!(stdout.contains("\"verified\": true"), "chaos run not verified");
}

#[test]
fn epocc_rejects_bad_fault_spec() {
    let exe = env!("CARGO_BIN_EXE_epocc");
    let out = Command::new(exe)
        .args(["--faults", "x=zzz", "bench:ghz_n4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --faults spec"));
}
