//! Cancellation suite: deadlines fail typed, explicit cancel fails
//! typed, and deterministic work budgets degrade — byte-identically at
//! any worker count, including which recovery rungs were taken.
//!
//! The budget contract is the subtle one: budgets are counted in work
//! units (GRAPE Adam iterations, QSearch node evaluations) and charged
//! per block, so a budgeted compile is a pure function of the circuit —
//! never of machine speed or thread scheduling.

use epoc::{CompilationReport, EpocCompiler, EpocConfig, EpocError, StageTimings};
use epoc_rt::cancel::{Budget, CancelToken};
use std::time::Duration;

/// Report JSON with the (nondeterministic) wall-clock times zeroed.
fn normalized_json(mut r: CompilationReport) -> String {
    r.compile_time = Duration::ZERO;
    r.stages.timings = StageTimings::default();
    r.to_json()
}

/// GRAPE-exercising fixture (same shape the warm-cache suite uses).
fn fixture() -> epoc_circuit::Circuit {
    epoc_circuit::generators::qaoa(3, 1, 2)
}

fn config(workers: usize) -> EpocConfig {
    EpocConfig::with_grape(1).without_regrouping().with_workers(workers)
}

#[test]
fn inert_token_compiles_identically_to_plain_compile() {
    let circuit = fixture();
    let plain = EpocCompiler::new(config(2)).compile(&circuit).unwrap();
    let inert = EpocCompiler::new(config(2))
        .compile_with_cancel(&circuit, &CancelToken::default())
        .unwrap();
    assert_eq!(normalized_json(plain), normalized_json(inert));
}

#[test]
fn elapsed_deadline_fails_typed_before_any_work() {
    let circuit = fixture();
    let compiler = EpocCompiler::new(config(1));
    let token = CancelToken::default().with_deadline_ms(0);
    std::thread::sleep(Duration::from_millis(2));
    let err = compiler.compile_with_cancel(&circuit, &token).unwrap_err();
    assert!(
        matches!(err, EpocError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(err.to_string().contains("deadline"));
}

#[test]
fn raised_cancel_flag_fails_typed() {
    let circuit = fixture();
    let compiler = EpocCompiler::new(config(1));
    let token = CancelToken::new();
    token.cancel();
    let err = compiler.compile_with_cancel(&circuit, &token).unwrap_err();
    assert!(matches!(err, EpocError::Canceled), "expected Canceled, got {err:?}");
}

/// A starvation-level GRAPE budget forces the recovery ladder down to
/// the digital fallback — and the whole degraded outcome, recovery
/// rungs included, is byte-identical at 1, 2, and 4 workers.
#[test]
fn budget_degradation_is_byte_identical_at_any_worker_count() {
    let circuit = fixture();
    let budget = Budget { grape_iters: Some(2), qsearch_nodes: None };
    let mut reports = Vec::new();
    for workers in [1usize, 2, 4] {
        let compiler = EpocCompiler::new(config(workers));
        let token = CancelToken::default().with_budget(budget);
        let report = compiler.compile_with_cancel(&circuit, &token).unwrap();
        assert!(
            !report.stages.recoveries.is_empty(),
            "a 2-iteration GRAPE budget never climbed the recovery ladder at {workers} workers"
        );
        reports.push((workers, normalized_json(report)));
    }
    let (_, reference) = &reports[0];
    for (workers, json) in &reports[1..] {
        assert_eq!(
            reference, json,
            "budgeted outcome differs between workers=1 and workers={workers}"
        );
    }
}

/// The budget must actually bite: a budgeted compile reports fewer GRAPE
/// iterations than an unbudgeted one, and its recovery trail mentions
/// the GRAPE ladder.
#[test]
fn budget_caps_grape_work() {
    let circuit = fixture();
    let unbudgeted = EpocCompiler::new(config(1)).compile(&circuit).unwrap();
    assert!(unbudgeted.stages.grape_iterations > 0);
    let token = CancelToken::default()
        .with_budget(Budget { grape_iters: Some(2), qsearch_nodes: None });
    let budgeted = EpocCompiler::new(config(1))
        .compile_with_cancel(&circuit, &token)
        .unwrap();
    assert!(
        budgeted.stages.grape_iterations < unbudgeted.stages.grape_iterations,
        "budget did not reduce GRAPE work ({} vs {})",
        budgeted.stages.grape_iterations,
        unbudgeted.stages.grape_iterations
    );
}

/// Budget-degraded compiles never poison the persistent library: a
/// subsequent unbudgeted compile on the same compiler recomputes what
/// the budget degraded and matches an untouched reference compiler
/// byte-for-byte.
#[test]
fn budget_degraded_entries_do_not_poison_the_library() {
    let circuit = fixture();
    let reference = EpocCompiler::new(config(1)).compile(&circuit).unwrap();

    let compiler = EpocCompiler::new(config(1));
    let token = CancelToken::default()
        .with_budget(Budget { grape_iters: Some(2), qsearch_nodes: None });
    let degraded = compiler.compile_with_cancel(&circuit, &token).unwrap();
    assert!(!degraded.stages.recoveries.is_empty());

    let recovered = compiler.compile(&circuit).unwrap();
    assert!(
        recovered.stages.recoveries.is_empty(),
        "degraded entries leaked into the library: {:?}",
        recovered.stages.recoveries
    );
    // The recovered run hits cached full-quality entries where the
    // reference computed cold, so compare the schedules (the device
    // output), not the cost counters.
    assert_eq!(
        reference.schedule.to_json_value().to_string_compact(),
        recovered.schedule.to_json_value().to_string_compact(),
        "post-budget recompile produced a different schedule"
    );
    assert!(recovered.verified);
}

/// Budget-degraded synthesis never poisons the synthesis memo: after a
/// QSearch-starved compile, an unbudgeted compile on the same compiler
/// replays none of the budget's rungs and reports what a fresh compiler
/// reports (its pulse-cache counters aside, since the budgeted compile
/// warmed the library).
#[test]
fn budget_degraded_synthesis_does_not_poison_the_memo() {
    let budget = Budget {
        grape_iters: None,
        qsearch_nodes: Some(1),
    };
    let without_cache_counters = |mut r: CompilationReport| {
        r.stages.cache_hits = 0;
        r.stages.cache_misses = 0;
        normalized_json(r)
    };
    for name in ["qaoa_n6", "decod24_n4", "ham7_n7"] {
        let circuit = epoc_circuit::generators::benchmark(name).unwrap();
        let config = || EpocConfig::default().with_workers(2);
        let reference = EpocCompiler::new(config()).compile(&circuit).unwrap();

        let compiler = EpocCompiler::new(config());
        let token = CancelToken::default().with_budget(budget);
        let degraded = compiler.compile_with_cancel(&circuit, &token).unwrap();
        assert!(
            degraded.stages.recoveries.len() > reference.stages.recoveries.len(),
            "{name}: a 1-node QSearch budget climbed no extra rung"
        );
        let recovered = compiler.compile(&circuit).unwrap();
        assert_eq!(
            recovered.stages.recoveries, reference.stages.recoveries,
            "{name}: budget-degraded synthesis leaked into the memo"
        );
        assert_eq!(
            without_cache_counters(reference),
            without_cache_counters(recovered),
            "{name}: post-budget recompile differs from a fresh compiler's"
        );
    }
}

/// QSearch node budgets degrade softly too: the search stops expanding
/// and falls through, deterministically at any worker count.
#[test]
fn qsearch_budget_is_deterministic_across_workers() {
    let circuit = fixture();
    let budget = Budget { grape_iters: None, qsearch_nodes: Some(4) };
    let mut reports = Vec::new();
    for workers in [1usize, 4] {
        let compiler = EpocCompiler::new(config(workers));
        let token = CancelToken::default().with_budget(budget);
        let report = compiler.compile_with_cancel(&circuit, &token).unwrap();
        reports.push(normalized_json(report));
    }
    assert_eq!(reports[0], reports[1], "qsearch budget outcome depends on workers");
}

/// `epocc --deadline-ms 0` fails typed with a nonzero exit; `--budget`
/// compiles to success. The CLI rides the exact same token plumbing as
/// the service.
#[test]
fn epocc_deadline_and_budget_flags() {
    let exe = env!("CARGO_BIN_EXE_epocc");
    let out = std::process::Command::new(exe)
        .args(["--grape", "1", "--deadline-ms", "0", "bench:qaoa_n6"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "deadline 0 compile succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "no typed deadline error: {stderr}");

    let out = std::process::Command::new(exe)
        .args(["--grape", "1", "--budget", "grape_iters=2", "bench:qaoa_n6"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "budgeted compile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = std::process::Command::new(exe)
        .args(["--budget", "warp_cores=9", "bench:ghz_n4"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bad budget spec accepted");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown budget key"));
}
