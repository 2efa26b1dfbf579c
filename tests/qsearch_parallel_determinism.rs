//! The linalg SIMD dispatch must not change results: the vector kernels
//! are bit-identical to the scalar path, so forcing either side must not
//! move a single byte of a compilation report — QSearch node counts
//! included, which the block-parallel synthesis stage merges into the
//! report in block order.

use epoc::{EpocCompiler, EpocConfig, StageTimings};
use epoc_circuit::generators;
use std::time::Duration;

/// Compiles `circuit` and returns the report JSON (wall-clock fields
/// zeroed — observability data, not part of the deterministic surface)
/// plus how many search nodes the compile instantiated. The node count
/// comes from the report, not from the process-global `qsearch.nodes`
/// counter, which concurrently running tests also add to.
fn compile_json(circuit: &epoc_circuit::Circuit) -> (String, usize) {
    let compiler = EpocCompiler::new(EpocConfig::fast());
    let mut report = compiler.compile(circuit).unwrap();
    assert!(report.verified, "compilation failed verification");
    report.compile_time = Duration::ZERO;
    report.stages.timings = StageTimings::default();
    let nodes = report.stages.qsearch_nodes;
    (report.to_json(), nodes)
}

#[test]
fn report_identical_across_simd_dispatch_paths() {
    // qaoa(4, 2, 5) partitions into enough 2-qubit blocks that the
    // synthesis stage genuinely runs multi-node searches. (On hardware
    // without AVX2 the force is refused and both runs take the scalar
    // path, which compares trivially equal.)
    let circuit = generators::qaoa(4, 2, 5);
    let compile_forced = |simd: bool| {
        epoc_linalg::force_simd(Some(simd));
        let out = compile_json(&circuit);
        epoc_linalg::force_simd(None);
        out
    };
    let (scalar_json, scalar_nodes) = compile_forced(false);
    let (simd_json, simd_nodes) = compile_forced(true);
    assert!(scalar_nodes > 0, "compile ran no QSearch nodes at all");
    assert_eq!(
        scalar_json, simd_json,
        "report differs between scalar and SIMD dispatch"
    );
    assert_eq!(
        scalar_nodes, simd_nodes,
        "node counts differ across dispatch paths"
    );
}
