//! The linalg SIMD dispatch must not change results: the vector kernels
//! are bit-identical to the scalar path, so forcing either side must not
//! move a single byte of a compilation report — QSearch node counts
//! included, which the block-parallel synthesis stage merges into the
//! report in block order.

use epoc::{EpocCompiler, EpocConfig, StageStats, StageTimings};
use epoc_circuit::generators;
use std::time::Duration;

/// Compiles `circuit` under `config` and returns the report JSON
/// (wall-clock fields zeroed — observability data, not part of the
/// deterministic surface) plus the report's stage counters. Work counts
/// come from the report, not from process-global telemetry counters,
/// which concurrently running tests also add to.
fn compile_json(circuit: &epoc_circuit::Circuit, config: EpocConfig) -> (String, StageStats) {
    let compiler = EpocCompiler::new(config);
    let mut report = compiler.compile(circuit).unwrap();
    assert!(report.verified, "compilation failed verification");
    report.compile_time = Duration::ZERO;
    report.stages.timings = StageTimings::default();
    (report.to_json(), report.stages)
}

#[test]
fn report_identical_across_simd_dispatch_paths() {
    // qaoa(4, 2, 5) partitions into enough 2-qubit blocks that the
    // synthesis stage genuinely runs multi-node searches. (On hardware
    // without AVX2 the force is refused and both runs take the scalar
    // path, which compares trivially equal.)
    let circuit = generators::qaoa(4, 2, 5);
    // bell_n4 with real GRAPE: the warm-started 4×4 eigensolver runs
    // V†·H·V through the dispatched `mm4` kernel on every slot, which the
    // modeled backend above never reaches. Both compiles stay inside this
    // one test because `force_simd` is process-global.
    let bell = generators::benchmark_suite()
        .into_iter()
        .find(|b| b.name == "bell_n4")
        .expect("bell_n4 is a builtin benchmark")
        .circuit;
    let compile_forced = |simd: bool, circuit: &epoc_circuit::Circuit, config: EpocConfig| {
        epoc_linalg::force_simd(Some(simd));
        let out = compile_json(circuit, config);
        epoc_linalg::force_simd(None);
        out
    };
    let (scalar_json, scalar_stages) = compile_forced(false, &circuit, EpocConfig::fast());
    let (simd_json, simd_stages) = compile_forced(true, &circuit, EpocConfig::fast());
    assert!(scalar_stages.qsearch_nodes > 0, "compile ran no QSearch nodes at all");
    assert_eq!(
        scalar_json, simd_json,
        "report differs between scalar and SIMD dispatch"
    );
    assert_eq!(
        scalar_stages.qsearch_nodes, simd_stages.qsearch_nodes,
        "node counts differ across dispatch paths"
    );
    let (scalar_json, scalar_stages) = compile_forced(false, &bell, EpocConfig::with_grape(2));
    let (simd_json, _) = compile_forced(true, &bell, EpocConfig::with_grape(2));
    assert!(scalar_stages.grape_iterations > 0, "bell_n4 compile ran no GRAPE");
    assert_eq!(
        scalar_json, simd_json,
        "GRAPE report differs between scalar and SIMD dispatch"
    );
}
