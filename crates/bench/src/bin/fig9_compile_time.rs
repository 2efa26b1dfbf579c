//! **Figure 9**: compilation time with vs without the regrouping step
//! (paper: minimal overhead, ~7.11% average increase).
//!
//! ```sh
//! cargo run -p epoc-bench --bin fig9_compile_time --release
//! ```

use epoc::{EpocCompiler, EpocConfig};
use epoc_bench::{header, mean, row};
use epoc_circuit::generators;
use std::time::Instant;

fn main() {
    let widths = [12, 14, 14, 10];
    header(
        &["benchmark", "no-group (ms)", "grouped (ms)", "overhead"],
        &widths,
    );
    let mut overheads = Vec::new();
    for b in generators::benchmark_suite() {
        // Best of 3 warm compiles, each the second compile of the circuit
        // on a fresh compiler: the synthesis memo and the pulse library
        // are warm, and the whole pipeline still runs (from the third
        // compile on, the front-half memo would skip ZX, synthesis and
        // regrouping).
        let time = |cfg: EpocConfig| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let compiler = EpocCompiler::new(cfg.clone());
                let _ = compiler.compile(&b.circuit);
                let t0 = Instant::now();
                let _ = compiler.compile(&b.circuit);
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            best
        };
        let grouped_ms = time(EpocConfig::default());
        let ungrouped_ms = time(EpocConfig::default().without_regrouping());
        let overhead = grouped_ms / ungrouped_ms.max(1e-9) - 1.0;
        overheads.push(overhead);
        row(
            &[
                b.name.to_string(),
                format!("{ungrouped_ms:.2}"),
                format!("{grouped_ms:.2}"),
                format!("{:+.1}%", 100.0 * overhead),
            ],
            &widths,
        );
    }
    println!(
        "\nmean compile-time overhead of grouping: {:+.2}% (paper: +7.11%)",
        100.0 * mean(&overheads)
    );
}
