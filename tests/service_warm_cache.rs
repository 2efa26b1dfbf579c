//! Cross-run pulse-cache suite: persisting the library, restarting the
//! store, and recompiling must turn every pulse-stage lookup into a hit —
//! zero GRAPE iterations, byte-identical reports — at any worker count.
//!
//! This is the acceptance contract of the `epocd` service: the warm path
//! is what makes a long-running compiler amortize GRAPE across jobs and
//! across restarts.

use epoc::{CompilationReport, EpocCompiler, EpocConfig, StageTimings, StoreConfig};
use epoc_circuit::generators;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Duration;

/// The report JSON with the (nondeterministic) wall-clock times zeroed —
/// the same normalization the parallel-determinism suite uses.
fn normalized_json(mut r: CompilationReport) -> String {
    r.compile_time = Duration::ZERO;
    r.stages.timings = StageTimings::default();
    r.to_json()
}

/// The fixture circuit: per-gate pulses on a QAOA layer, GRAPE on the
/// 1-qubit stream (cheap, with duplicate unitaries) and the model on the
/// 2-qubit gates — both sub-libraries get entries.
fn fixture() -> epoc_circuit::Circuit {
    generators::qaoa(3, 1, 2)
}

fn config(workers: usize) -> EpocConfig {
    EpocConfig::with_grape(1).without_regrouping().with_workers(workers)
}

fn temp_lib(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("epoc-warm-{}-{name}.json", std::process::id()))
}

/// `true` when the compile skipped the front half: a front-half memo hit
/// reports zero time for ZX, partitioning, synthesis and regrouping.
fn memo_hit(r: &CompilationReport) -> bool {
    let t = &r.stages.timings;
    [t.zx, t.partition, t.synth, t.regroup] == [Duration::ZERO; 4]
}

/// Compile → persist → restart (a brand-new compiler, i.e. a cold store)
/// → load → recompile. The warm run must do zero GRAPE iterations, miss
/// nothing, and produce byte-identical reports at 1 and 4 workers — and
/// match the in-process warm compile (a disk round-trip is invisible)
/// and the in-process compile after it, the first front-half memo hit.
#[test]
fn warm_restart_hits_everything_at_any_worker_count() {
    let circuit = fixture();
    let path = temp_lib("restart");
    let mut warm_reports = Vec::new();
    for workers in [1usize, 4] {
        // Cold service run: compile once, checkpoint the library.
        let cold_compiler = EpocCompiler::new(config(workers));
        let cold = cold_compiler.compile(&circuit).unwrap();
        assert!(cold.verified);
        assert!(
            cold.stages.grape_iterations > 0,
            "fixture never exercised GRAPE — warm assertions would be vacuous"
        );
        assert!(cold.stages.cache_misses > 0);
        cold_compiler.save_library(&path).unwrap();
        // The in-process warm compile is the reference the disk round
        // trip must be indistinguishable from. The circuit's third
        // compile replays its front half from the memo.
        let warm_ref = cold_compiler.compile(&circuit).unwrap();
        let warm_hit = cold_compiler.compile(&circuit).unwrap();
        assert!(
            memo_hit(&warm_hit),
            "third compile missed the memo at {workers} workers"
        );

        // Restarted service run: new compiler, library loaded from disk.
        let warm_compiler = EpocCompiler::new(config(workers));
        let loaded = warm_compiler.load_library(&path).unwrap();
        assert!(loaded > 0, "nothing restored from {}", path.display());
        assert_eq!(loaded, cold_compiler.library_len());
        let warm = warm_compiler.compile(&circuit).unwrap();
        assert!(warm.verified);
        assert_eq!(warm.stages.cache_misses, 0, "warm run missed at {workers} workers");
        assert_eq!(
            warm.stages.grape_iterations, 0,
            "warm run re-ran GRAPE at {workers} workers"
        );
        assert_eq!(warm.stages.cache_hits, warm_ref.stages.cache_hits);
        let warm_json = normalized_json(warm);
        assert_eq!(
            normalized_json(warm_ref),
            warm_json,
            "disk round-trip changed the warm report at {workers} workers"
        );
        assert_eq!(
            normalized_json(warm_hit),
            warm_json,
            "the memo hit differs from the compile it replaces at {workers} workers"
        );
        warm_reports.push(warm_json);
    }
    let w4 = warm_reports.pop().unwrap();
    let w1 = warm_reports.pop().unwrap();
    assert_eq!(w1, w4, "warm report differs between workers=1 and workers=4");
    std::fs::remove_file(&path).ok();
}

/// The same check over every builtin of at most 7 qubits on the modeled
/// backend: at 1, 2 and 4 workers, a circuit's third in-process compile
/// is a memo hit and equals both its second compile and a restarted
/// compiler's warm compile, and the hit is the same at every worker count.
#[test]
fn memo_hits_equal_warm_recompiles_across_the_builtins() {
    for bench in generators::benchmark_suite() {
        if bench.circuit.n_qubits() > 7 {
            continue;
        }
        let name = bench.name;
        let circuit = bench.circuit;
        let path = temp_lib(&format!("memo-{name}"));
        let mut hits = Vec::new();
        for workers in [1usize, 2, 4] {
            let config = EpocConfig::default().with_workers(workers);
            let compiler = EpocCompiler::new(config.clone());
            compiler.compile(&circuit).unwrap();
            compiler.save_library(&path).unwrap();
            let second = compiler.compile(&circuit).unwrap();
            let hit = compiler.compile(&circuit).unwrap();
            assert!(
                memo_hit(&hit),
                "{name}: third compile missed the memo at {workers} workers"
            );
            assert!(hit.verified, "{name}: memo hit not verified");

            let restarted = EpocCompiler::new(config);
            restarted.load_library(&path).unwrap();
            let warm = normalized_json(restarted.compile(&circuit).unwrap());
            let hit = normalized_json(hit);
            assert_eq!(
                normalized_json(second),
                hit,
                "{name}: hit != recompute at {workers} workers"
            );
            assert_eq!(
                warm, hit,
                "{name}: hit != restarted warm compile at {workers} workers"
            );
            hits.push(hit);
        }
        assert!(
            hits.windows(2).all(|w| w[0] == w[1]),
            "{name}: memo hit depends on the worker count"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// The pulse *schedule* (what actually reaches the device) is identical
/// between the cold and warm runs: a cache round trip through disk
/// changes cost, never output.
#[test]
fn warm_schedule_matches_cold_schedule() {
    let circuit = fixture();
    let path = temp_lib("schedule");
    let cold_compiler = EpocCompiler::new(config(1));
    let cold = cold_compiler.compile(&circuit).unwrap();
    cold_compiler.save_library(&path).unwrap();
    let warm_compiler = EpocCompiler::new(config(1));
    warm_compiler.load_library(&path).unwrap();
    let warm = warm_compiler.compile(&circuit).unwrap();
    assert_eq!(
        cold.schedule.to_json_value().to_string_compact(),
        warm.schedule.to_json_value().to_string_compact(),
        "warm schedule differs from cold schedule"
    );
    std::fs::remove_file(&path).ok();
}

/// Persistence does not depend on the budget: a byte-budgeted service
/// store (`epocd --library-budget`) round-trips through disk and
/// warm-hits exactly like the unbounded map, as long as the budget holds
/// the workload.
#[test]
fn budgeted_store_survives_restart() {
    let circuit = fixture();
    let path = temp_lib("budgeted");
    let store = StoreConfig {
        budget_bytes: Some(1 << 20),
    };
    let cold_compiler = EpocCompiler::new(config(1).with_store(store));
    let cold = cold_compiler.compile(&circuit).unwrap();
    assert!(cold.verified);
    assert_eq!(cold_compiler.library_evictions(), 0, "1 MiB budget evicted the fixture");
    cold_compiler.save_library(&path).unwrap();
    let warm_compiler = EpocCompiler::new(config(1).with_store(store));
    warm_compiler.load_library(&path).unwrap();
    let warm = warm_compiler.compile(&circuit).unwrap();
    assert_eq!(warm.stages.cache_misses, 0);
    assert_eq!(warm.stages.grape_iterations, 0);
    std::fs::remove_file(&path).ok();
}

/// A starvation-level byte budget forces evictions mid-workload; evicted
/// entries simply recompute on their next lookup, so the compile still
/// verifies and emits the exact same schedule as an unbounded cache — a
/// too-small budget costs time, never correctness.
#[test]
fn evicted_entries_recompute_on_next_lookup() {
    let circuit = fixture();
    let unbounded = EpocCompiler::new(config(1));
    let reference = unbounded.compile(&circuit).unwrap();
    // ~one small entry of budget: nearly every insert evicts something.
    let starved = EpocCompiler::new(config(1).with_store(StoreConfig {
        budget_bytes: Some(512),
    }));
    let r = starved.compile(&circuit).unwrap();
    assert!(r.verified);
    assert!(starved.library_evictions() > 0, "512-byte budget never evicted");
    assert_eq!(
        reference.schedule.to_json_value().to_string_compact(),
        r.schedule.to_json_value().to_string_compact(),
        "eviction pressure changed the schedule"
    );
    // Determinism holds under eviction pressure too: the library is only
    // touched from serial pipeline phases, so the LRU clock — and thus
    // the hit/miss/recompute pattern — is identical at any worker count.
    let starved4 = EpocCompiler::new(config(4).with_store(StoreConfig {
        budget_bytes: Some(512),
    }));
    let r4 = starved4.compile(&circuit).unwrap();
    assert_eq!(normalized_json(r), normalized_json(r4));
}

/// Saving the same library twice — including from a restarted, budgeted
/// store at another worker count — produces byte-identical files:
/// persistence is canonical, so checkpoints are reproducible artifacts.
#[test]
fn library_files_are_byte_deterministic() {
    let circuit = fixture();
    let path_a = temp_lib("bytes-a");
    let path_b = temp_lib("bytes-b");
    let compiler = EpocCompiler::new(config(1));
    compiler.compile(&circuit).unwrap();
    compiler.save_library(&path_a).unwrap();
    // Restart into a differently configured store and re-save.
    let restarted = EpocCompiler::new(config(4).with_store(StoreConfig {
        budget_bytes: Some(1 << 20),
    }));
    restarted.load_library(&path_a).unwrap();
    restarted.save_library(&path_b).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path_a).unwrap(),
        std::fs::read_to_string(&path_b).unwrap(),
        "library file bytes depend on the store configuration"
    );
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// Drives the `epocd` binary itself: jobs piped on stdin, one report line
/// each, and the library persisting across a *process* restart. The
/// second process must warm-start from disk and answer with zero misses
/// and zero GRAPE iterations.
#[test]
fn epocd_process_restart_serves_warm_cache() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let path = temp_lib("epocd");
    std::fs::remove_file(&path).ok();
    let run = |jobs: &str| -> (String, String) {
        let mut child = Command::new(exe)
            .args(["--grape", "1", "--no-regroup", "--workers", "2", "--library"])
            .arg(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.take().unwrap().write_all(jobs.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "epocd exited nonzero: {out:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // Cold process: two identical jobs — the second already hits the
    // in-process cache — then explicit stats and shutdown.
    let (stdout, _) = run(concat!(
        r#"{"id":1,"bench":"qaoa_n6"}"#, "\n",
        r#"{"id":2,"bench":"qaoa_n6"}"#, "\n",
        r#"{"cmd":"stats"}"#, "\n",
        r#"{"cmd":"shutdown"}"#, "\n",
    ));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "expected 4 response lines: {stdout}");
    assert!(lines[0].contains(r#""id":1"#) && lines[0].contains(r#""ok":true"#));
    assert!(
        lines[1].contains(r#""cache_misses":0"#),
        "second job in one process missed: {}",
        lines[1]
    );
    assert!(lines[2].contains(r#""library_entries":"#), "bad stats line: {}", lines[2]);
    assert!(lines[3].contains(r#""checkpoint""#), "shutdown did not checkpoint: {}", lines[3]);
    assert!(path.exists(), "shutdown left no library file");

    // Restarted process: the same job must warm-start from the file.
    let (stdout, stderr) = run(concat!(r#"{"id":3,"bench":"qaoa_n6"}"#, "\n"));
    assert!(stderr.contains("warm-started"), "no warm start reported: {stderr}");
    let line = stdout.lines().next().unwrap();
    assert!(line.contains(r#""ok":true"#), "warm job failed: {line}");
    assert!(line.contains(r#""cache_misses":0"#), "warm process missed: {line}");
    assert!(line.contains(r#""grape_iterations":0"#), "warm process ran GRAPE: {line}");
    std::fs::remove_file(&path).ok();
}

/// Malformed requests get an error line, and the service keeps serving —
/// one bad job must never take the daemon (or its library) down.
#[test]
fn epocd_survives_malformed_requests() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            concat!(
                "this is not json\n",
                r#"{"id":1,"bench":"no_such_bench"}"#, "\n",
                r#"{"id":2}"#, "\n",
                r#"{"cmd":"nope"}"#, "\n",
                r#"{"id":3,"bench":"ghz_n4"}"#, "\n",
                r#"{"cmd":"shutdown"}"#, "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "expected 6 response lines: {stdout}");
    assert!(lines[0].contains(r#""ok":false"#) && lines[0].contains("unparseable"));
    assert!(lines[1].contains(r#""ok":false"#) && lines[1].contains("no_such_bench"));
    assert!(lines[2].contains(r#""ok":false"#) && lines[2].contains("'qasm' or 'bench'"));
    assert!(lines[3].contains(r#""ok":false"#) && lines[3].contains("unknown command"));
    assert!(
        lines[4].contains(r#""id":3"#) && lines[4].contains(r#""ok":true"#),
        "service died before the good job: {}",
        lines[4]
    );
}
