//! End-to-end telemetry: compile with tracing enabled, export the Chrome
//! trace, re-parse it with the in-tree JSON parser, and check the span
//! structure the pipeline promises.
//!
//! The telemetry registry is process-global, so every test here funnels
//! through one shared lock and resets the registry before recording.

use epoc::partition::PartitionConfig;
use epoc::{EpocCompiler, EpocConfig, StageTimings};
use epoc_circuit::generators;
use epoc_rt::json::Json;
use epoc_rt::telemetry;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests around the process-global registry; a panic in one
/// test must not cascade poison into the rest.
fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One span row pulled back out of the exported trace.
#[derive(Debug, Clone)]
struct TraceSpan {
    name: String,
    cat: String,
    tid: u64,
    depth: u64,
    ts_ns: u64,
    dur_ns: u64,
}

fn parse_spans(doc: &Json) -> Vec<TraceSpan> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing: {doc:?}");
    };
    events
        .iter()
        .map(|e| {
            let args = e.get("args").expect("args");
            let num =
                |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or_else(|| {
                    panic!("missing numeric {k}")
                }) as u64;
            TraceSpan {
                name: e.get("name").and_then(Json::as_str).expect("name").into(),
                cat: e.get("cat").and_then(Json::as_str).expect("cat").into(),
                tid: num(e, "tid"),
                depth: num(args, "depth"),
                ts_ns: num(args, "ts_ns"),
                dur_ns: num(args, "dur_ns"),
            }
        })
        .collect()
}

/// Compiles a small circuit with a real (1-qubit-GRAPE) hybrid backend
/// under tracing and hands back the parsed trace spans.
fn traced_compile() -> (Vec<TraceSpan>, Json) {
    telemetry::enable();
    telemetry::reset();
    let compiler = EpocCompiler::new(traced_config());
    let report = compiler.compile(&generators::qaoa(3, 1, 2)).unwrap();
    assert!(report.verified);
    let doc = telemetry::chrome_trace();
    // Round-trip through the serializer and the strict parser: the trace
    // a consumer reads is the one we assert on.
    let reparsed = Json::parse(&doc.to_string_pretty()).expect("trace is valid JSON");
    (parse_spans(&reparsed), reparsed)
}

/// Hybrid backend with 1-qubit GRAPE; 2-qubit partitioning keeps every
/// block within `synth_qubit_limit` so QSearch genuinely runs.
fn traced_config() -> EpocConfig {
    let mut config = EpocConfig::with_grape(1).without_regrouping().with_workers(2);
    config.partition = PartitionConfig {
        max_qubits: 2,
        max_gates: 8,
    };
    config
}

#[test]
fn trace_contains_all_stage_spans_and_qoc_children() {
    let _guard = lock();
    let (spans, _) = traced_compile();

    for stage in ["zx", "partition", "synth", "regroup", "pulse"] {
        assert_eq!(
            spans.iter().filter(|s| s.cat == "stage" && s.name == stage).count(),
            1,
            "expected exactly one stage span named {stage}"
        );
    }
    assert!(
        spans.iter().any(|s| s.cat == "qoc" && s.name == "grape"),
        "no GRAPE span recorded"
    );
    assert!(
        spans.iter().any(|s| s.cat == "qoc" && s.name == "duration_search"),
        "no duration-search span recorded"
    );
    assert!(
        spans.iter().any(|s| s.cat == "synth" && s.name == "qsearch"),
        "no QSearch span recorded"
    );
}

#[test]
fn trace_spans_are_well_nested() {
    let _guard = lock();
    let (spans, _) = traced_compile();

    // On each thread, any two spans either nest or are disjoint — the
    // RAII guards cannot partially overlap. Checked on the exact integer
    // nanoseconds carried in args, not the rounded microsecond ts/dur.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let thread: Vec<&TraceSpan> = spans.iter().filter(|s| s.tid == tid).collect();
        for a in &thread {
            for b in &thread {
                let (a0, a1) = (a.ts_ns, a.ts_ns + a.dur_ns);
                let (b0, b1) = (b.ts_ns, b.ts_ns + b.dur_ns);
                let disjoint = a1 <= b0 || b1 <= a0;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                assert!(
                    disjoint || nested,
                    "spans partially overlap on tid {tid}: {a:?} vs {b:?}"
                );
            }
        }
        // Depth must reflect containment: every depth>0 span has an
        // enclosing span one level shallower on the same thread.
        for s in &thread {
            if s.depth == 0 {
                continue;
            }
            assert!(
                thread.iter().any(|p| {
                    p.depth == s.depth - 1
                        && p.ts_ns <= s.ts_ns
                        && s.ts_ns + s.dur_ns <= p.ts_ns + p.dur_ns
                }),
                "depth-{} span {:?} has no parent on tid {tid}",
                s.depth,
                s.name
            );
        }
    }
}

#[test]
fn trace_counters_match_report_and_registry() {
    let _guard = lock();
    telemetry::enable();
    telemetry::reset();
    let compiler = EpocCompiler::new(traced_config());
    let report = compiler.compile(&generators::qaoa(3, 1, 2)).unwrap();
    assert!(report.verified);
    assert!(report.stages.grape_iterations > 0, "hybrid compile ran no GRAPE");
    assert!(report.stages.grape_probes > 0);
    assert_eq!(
        telemetry::counter_value("grape.iterations") as usize,
        report.stages.grape_iterations,
        "registry counter and report stat disagree"
    );
    assert_eq!(
        telemetry::counter_value("pulse_lib.hits") as usize,
        report.stages.cache_hits
    );
    assert_eq!(
        telemetry::counter_value("pulse_lib.misses") as usize,
        report.stages.cache_misses
    );
    let doc = telemetry::chrome_trace();
    let counters = doc.get("epocCounters").expect("epocCounters present");
    assert_eq!(
        counters.get("grape.iterations").and_then(Json::as_f64),
        Some(report.stages.grape_iterations as f64)
    );
}

/// A compile under a `TelemetryScope` attributes every span event to the
/// scoped job — including those recorded on worker threads the pipeline
/// fanned out to — and the attribution survives the Chrome-trace round
/// trip as `args.job`. Counters stay keyed by name: the scope leaves
/// their totals as they are.
#[test]
fn scoped_compile_attributes_spans_and_counters_to_the_job() {
    let _guard = lock();
    telemetry::enable();
    telemetry::reset();
    let compiler = EpocCompiler::new(traced_config());
    let report = {
        let _scope = telemetry::TelemetryScope::enter(42);
        compiler.compile(&generators::qaoa(3, 1, 2)).unwrap()
    };
    assert!(report.verified);

    let events = telemetry::events_snapshot();
    assert!(!events.is_empty());
    assert!(
        events.iter().all(|e| e.job == 42),
        "a span escaped the job scope: {:?}",
        events.iter().find(|e| e.job != 42)
    );
    let worker_tids: Vec<u64> =
        events.iter().filter(|e| e.tid != 0).map(|e| e.tid).collect();
    assert!(
        !worker_tids.is_empty(),
        "2-worker compile recorded no worker-thread spans — pool propagation untested"
    );

    assert_eq!(
        telemetry::counter_value("grape.iterations") as usize,
        report.stages.grape_iterations
    );

    // The exported trace carries the id on every event.
    let doc = telemetry::chrome_trace();
    let Some(Json::Arr(raw)) = doc.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    for e in raw {
        let job = e
            .get("args")
            .and_then(|a| a.get("job"))
            .and_then(Json::as_f64);
        assert_eq!(job, Some(42.0), "event without args.job: {e:?}");
    }
    telemetry::disable();
    telemetry::reset();
}

/// The resident-size gauges track the pulse libraries through a real
/// compile: after a cold compile they equal the compiler's own
/// accounting, and clearing via a fresh registry reset starts from zero.
#[test]
fn library_gauges_track_the_compiler() {
    let _guard = lock();
    telemetry::enable();
    telemetry::reset();
    assert_eq!(telemetry::gauge_value("pulse_lib.resident_bytes"), 0);
    let compiler = EpocCompiler::new(traced_config());
    compiler.compile(&generators::qaoa(3, 1, 2)).unwrap();
    assert!(compiler.library_bytes() > 0);
    assert_eq!(
        telemetry::gauge_value("pulse_lib.resident_bytes"),
        compiler.library_bytes() as i64,
        "gauge drifted from the store's byte accounting"
    );
    assert_eq!(
        telemetry::gauge_value("pulse_lib.entries"),
        compiler.library_len() as i64,
        "gauge drifted from the store's entry count"
    );
    telemetry::disable();
    telemetry::reset();
}

#[test]
fn report_bytes_identical_with_and_without_telemetry() {
    let _guard = lock();
    let compile = || {
        let compiler = EpocCompiler::new(EpocConfig::fast().with_workers(2));
        let mut r = compiler.compile(&generators::ghz(4)).unwrap();
        r.compile_time = Duration::ZERO;
        r.stages.timings = StageTimings::default();
        r.to_json()
    };
    telemetry::disable();
    let without = compile();
    telemetry::enable();
    telemetry::reset();
    let with = compile();
    telemetry::disable();
    assert_eq!(without, with, "telemetry perturbed the report");
}
