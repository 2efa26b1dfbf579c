//! The per-layer metrics of a traced run, the same set for every
//! workload, and the trace artifacts written beside them.

use crate::redrive::Work;
use crate::sys::Usage;
use crate::trace::{self, Rollup};
use crate::{stats, Args, Outcome};
use epoc::CompilationReport;
use epoc_rt::json::Json;

/// Report counters summed over a traced run's untraced jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub grape_iters: usize,
    pub grape_probes: usize,
    pub qsearch_nodes: usize,
    pub synth_blocks: usize,
    pub synth_converged: usize,
    pub pulses: usize,
    pub zx_rewrites: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Recovery rungs climbed by the pulse stage.
    pub rungs: usize,
    /// GRAPE blocks that fell back to the digital model.
    pub fallbacks: usize,
}

impl Totals {
    pub fn add_report(&mut self, r: &CompilationReport) {
        let s = &r.stages;
        self.grape_iters += s.grape_iterations;
        self.grape_probes += s.grape_probes;
        self.qsearch_nodes += s.qsearch_nodes;
        self.synth_blocks += s.synth_blocks;
        self.synth_converged += s.synth_converged;
        self.pulses += s.pulses;
        self.zx_rewrites += s.zx_rewrites;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        for rec in s.recoveries.iter().filter(|r| r.stage != "synth") {
            self.rungs += 1;
            self.fallbacks += usize::from(rec.rung == epoc::qoc::RUNG_GRAPE_DIGITAL);
        }
    }
}

/// Timings of the library layer: medians of repeated file saves and
/// loads, and the file size.
#[derive(Debug, Default, Clone, Copy)]
pub struct LibraryTimes {
    pub load_s: f64,
    pub save_s: f64,
    pub bytes: u64,
    pub reps: usize,
}

/// Everything a traced run measured, in the layers' own units.
pub struct Layers {
    pub work: Work,
    pub totals: Totals,
    /// CPU time and context switches of the untraced default-worker jobs.
    pub rt: Usage,
    /// Wall seconds of the untraced jobs at the default worker count and
    /// at one worker.
    pub default_wall_s: f64,
    pub serial_wall_s: f64,
    /// Wall seconds of the re-drive's job spans, and of the same jobs
    /// compiled untraced in process.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub library: LibraryTimes,
    pub overhead_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub sim_steps: u64,
    pub sims: usize,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Records every per-layer metric and writes the trace with its summary
/// (per-layer self time and tracing overhead) beside it.
pub fn emit(args: &Args, out: &mut Outcome, l: &Layers) -> Result<(), String> {
    let roll: Rollup = trace::rollup();
    let w = &l.work;
    let t = &l.totals;
    let jobs = out.attempted;
    let f = |n: usize| n as f64;

    let qoc_s = roll.layer_s("qoc");
    out.metric("qoc.busy_s", qoc_s, "s", jobs);
    out.metric("qoc.grape_iters", f(t.grape_iters), "count", jobs);
    out.metric("qoc.grape_probes", f(t.grape_probes), "count", jobs);
    out.metric(
        "qoc.iters_per_s",
        ratio(f(w.grape_iters), qoc_s),
        "iters/s",
        jobs,
    );
    out.metric("qoc.rungs", f(t.rungs), "count", jobs);
    out.metric("qoc.fallbacks", f(t.fallbacks), "count", jobs);

    out.metric("rt.cpu_s", l.rt.cpu_s(), "s", jobs);
    out.metric("rt.sys_s", l.rt.sys_s, "s", jobs);
    out.metric("rt.ctx_switches", l.rt.ctx_switches as f64, "count", jobs);
    out.metric(
        "rt.serial_speedup",
        ratio(l.serial_wall_s, l.default_wall_s),
        "ratio",
        jobs,
    );

    let synth_s = roll.layer_s("synth");
    out.metric("synth.busy_s", synth_s, "s", jobs);
    out.metric("synth.nodes", f(t.qsearch_nodes), "count", jobs);
    out.metric(
        "synth.nodes_per_s",
        ratio(f(w.nodes_evaluated), synth_s),
        "nodes/s",
        jobs,
    );
    out.metric(
        "synth.converged_ratio",
        ratio(f(t.synth_converged), f(t.synth_blocks)),
        "ratio",
        t.synth_blocks,
    );
    out.metric(
        "synth.memo_hit_ratio",
        ratio(f(w.memo_hits), f(w.memo_lookups)),
        "ratio",
        w.memo_lookups,
    );

    out.metric("zx.busy_s", roll.layer_s("zx"), "s", jobs);
    out.metric(
        "zx.kept_ratio",
        ratio(f(w.zx_kept), f(w.zx_attempts)),
        "ratio",
        w.zx_attempts,
    );
    out.metric(
        "circuit.verify_s",
        roll.layer_s("circuit.verify"),
        "s",
        jobs,
    );
    out.metric("partition.busy_s", roll.layer_s("partition"), "s", jobs);
    out.metric("partition.blocks", f(t.synth_blocks), "count", jobs);

    out.metric("library.load_s", l.library.load_s, "s", l.library.reps);
    out.metric("library.save_s", l.library.save_s, "s", l.library.reps);
    out.metric("library.bytes", l.library.bytes as f64, "bytes", 1);
    let lookups = t.cache_hits + t.cache_misses;
    out.metric(
        "library.hit_ratio",
        ratio(f(t.cache_hits), f(lookups)),
        "ratio",
        lookups,
    );

    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.metric_at(
        "epocd.overhead_ms",
        med(&l.overhead_ms),
        "ms",
        l.overhead_ms.len(),
        Some("p50"),
    );
    out.metric_at(
        "epocd.checkpoint_ms",
        med(&l.checkpoint_ms),
        "ms",
        l.checkpoint_ms.len(),
        Some("p50"),
    );

    out.metric("sim.busy_s", roll.layer_s("sim"), "s", l.sims);
    out.metric("sim.steps", l.sim_steps as f64, "count", l.sims);

    out.metric("trace.job_s", roll.job_s, "s", jobs);
    out.metric(
        "trace.overhead_ratio",
        ratio(l.traced_wall_s, l.untraced_wall_s),
        "ratio",
        jobs,
    );
    let coverage = [
        ("coverage.qoc", w.grape_iters, t.grape_iters),
        ("coverage.synth", w.qsearch_nodes, t.qsearch_nodes),
        ("coverage.partition", w.synth_blocks, t.synth_blocks),
        ("coverage.pulse", w.pulses, t.pulses),
        ("coverage.zx", w.zx_rewrites, t.zx_rewrites),
    ];
    for (name, redriven, reported) in coverage {
        // Both zero means the layer did no work either way: full coverage.
        let c = if reported == 0 && redriven == 0 {
            1.0
        } else {
            ratio(f(redriven), f(reported))
        };
        out.metric(name, c, "ratio", jobs);
    }

    let stem = format!("trace-{}-{}", args.workload, args.seed);
    let trace_path = args.work.join(format!("{stem}.json"));
    crate::write_atomic(&trace_path, &trace::chrome_trace().to_string_compact())?;
    let mut layers = Json::obj();
    for (layer, s) in &roll.self_s {
        layers = layers.push(
            layer,
            Json::obj()
                .push("self_s", *s)
                .push("share_of_job_time", ratio(*s, roll.job_s)),
        );
    }
    let summary = Json::obj()
        .push("trace", trace_path.display().to_string())
        .push("spans", roll.spans)
        .push("job_s", roll.job_s)
        .push("self_time", layers)
        .push(
            "tracing_overhead",
            Json::obj()
                .push("untraced_wall_s", l.untraced_wall_s)
                .push("traced_wall_s", l.traced_wall_s)
                .push("ratio", ratio(l.traced_wall_s, l.untraced_wall_s)),
        );
    let summary_path = args.work.join(format!("{stem}-summary.json"));
    crate::write_atomic(&summary_path, &summary.to_string_pretty())?;
    out.detail("trace_file", Json::from(trace_path.display().to_string()));
    out.detail("trace_summary", summary);
    Ok(())
}
