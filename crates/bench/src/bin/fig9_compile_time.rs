//! **Figure 9**: compilation time with vs without the regrouping step
//! (paper: minimal overhead, ~7.11% average increase).
//!
//! ```sh
//! cargo run -p epoc-bench --bin fig9_compile_time --release
//! ```

use epoc::{EpocCompiler, EpocConfig};
use epoc_bench::{header, mean, row};
use epoc_circuit::{generators, Circuit};
use std::time::Instant;

/// Timed compiles per benchmark and arm (odd, so the median is one of
/// them). A compile takes 0.1–4 ms, so a single one swings by tens of
/// percent between runs.
const SAMPLES: usize = 31;

/// One sample: the second compile of `circuit` on a fresh compiler, in
/// ms. The synthesis memo and the pulse library are warm, and the whole
/// pipeline still runs (from the third compile on, the front-half memo
/// would skip ZX, synthesis and regrouping).
fn second_compile_ms(cfg: &EpocConfig, circuit: &Circuit) -> f64 {
    let compiler = EpocCompiler::new(cfg.clone());
    let _ = compiler.compile(circuit);
    let t0 = Instant::now();
    let _ = compiler.compile(circuit);
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let widths = [12, 14, 14, 10];
    header(
        &["benchmark", "no-group (ms)", "grouped (ms)", "overhead"],
        &widths,
    );
    let grouped = EpocConfig::default();
    let ungrouped = EpocConfig::default().without_regrouping();
    let mut overheads = Vec::new();
    for b in generators::benchmark_suite() {
        // The two arms interleave, each taking the lead in turn, so a
        // drift of the host's speed lands on both.
        let (mut g, mut u) = (Vec::new(), Vec::new());
        for i in 0..SAMPLES {
            if i % 2 == 0 {
                g.push(second_compile_ms(&grouped, &b.circuit));
                u.push(second_compile_ms(&ungrouped, &b.circuit));
            } else {
                u.push(second_compile_ms(&ungrouped, &b.circuit));
                g.push(second_compile_ms(&grouped, &b.circuit));
            }
        }
        let (grouped_ms, ungrouped_ms) = (median(g), median(u));
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
        "\nmedians of {SAMPLES} interleaved samples per arm; \
         mean compile-time overhead of grouping: {:+.2}% (paper: +7.11%)",
        100.0 * mean(&overheads)
    );
}
