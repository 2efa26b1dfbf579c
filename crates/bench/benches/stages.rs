//! Micro-benchmarks for every pipeline stage, on the `epoc_rt::bench`
//! wall-clock harness (median-of-N with warmup).
//!
//! ```sh
//! cargo bench -p epoc-bench
//! ```
//!
//! Every run writes the per-stage medians to `target/BENCH_stages.json`
//! (an untracked build artifact — only the pinned `BENCH_baseline.json`
//! at the workspace root is committed), so speedups are tracked as data
//! rather than claims.
//! Two environment variables drive CI integration (see `ci.sh`):
//!
//! * `EPOC_BENCH_QUICK=1` — 3 samples instead of 10, for a fast smoke run;
//! * `EPOC_BENCH_CHECK=1` — after writing the report, compare each stage
//!   median against the committed `BENCH_baseline.json` and exit nonzero
//!   if any stage regressed more than [`REGRESSION_FACTOR`]×. Absent
//!   baseline → the check is skipped with a notice.

use epoc::baselines::PaqocCompiler;
use epoc::{EpocCompiler, EpocConfig};
use epoc_circuit::{generators, Gate};
use epoc_linalg::{
    eigh, eigh_into, expm_ih, random_hermitian, random_unitary, Complex64, HermitianEig, Matrix,
};
use epoc_partition::{greedy_partition, paqoc_partition, PaqocConfig, PartitionConfig};
use epoc_qoc::{grape, DeviceModel, GrapeConfig};
use epoc_rt::bench::{bench, Bench, Stats};
use epoc_rt::json::Json;
use epoc_rt::rng::{Rng, StdRng};
use epoc_synth::{synthesize, SynthConfig};
use epoc_zx::zx_optimize;
use std::path::{Path, PathBuf};

/// A fresh median must stay below `baseline × REGRESSION_FACTOR`.
const REGRESSION_FACTOR: f64 = 2.0;

/// Stages whose baseline median is below this are exempt from the
/// regression check: below ~100µs, scheduler noise on a shared 1-CPU
/// runner routinely doubles a median, so only the substantive stages
/// (eig/expm, ZX, synthesis, GRAPE, full pipeline) are gated.
const MIN_BASELINE_NS: f64 = 100_000.0;

fn quick() -> bool {
    std::env::var("EPOC_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn check_mode() -> bool {
    std::env::var("EPOC_BENCH_CHECK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A bench with the sample count for the current mode applied.
fn stage(name: &str) -> Bench {
    bench(name).samples(if quick() { 3 } else { 10 })
}

/// The workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The pre-optimization dense matmul inner loop, kept here (and only
/// here) as the reference side of the `matmul_16` comparison: i-k-j
/// order with a zero-skip branch on the left operand. On dense unitaries
/// the branch never fires — it only costs a compare and a mispredict per
/// element — which is why the kernel in `epoc_linalg` dropped it.
fn branchy_matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows());
    let mut out = Matrix::zeros(n, m);
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for i in 0..n {
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == Complex64::ZERO {
                continue;
            }
            let row = &bv[p * m..(p + 1) * m];
            let dst = &mut ov[i * m..(i + 1) * m];
            for (d, &x) in dst.iter_mut().zip(row) {
                *d += aip * x;
            }
        }
    }
    out
}

fn bench_linalg(stats: &mut Vec<Stats>) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = random_unitary(16, &mut rng);
    let b = random_unitary(16, &mut rng);
    stats.push(stage("linalg/matmul_16").run(|| a.matmul(&b)));
    stats.push(stage("linalg/matmul_16_branchy_ref").run(|| branchy_matmul_reference(&a, &b)));
    // Vector dispatch pinned on for the duration of the run (restored to
    // auto after): the SIMD kernels are bit-identical to the scalar path,
    // so this differs from `linalg/matmul_16` only in which code executes.
    // On hardware without AVX2 the force is refused and this re-measures
    // the scalar path.
    epoc_linalg::force_simd(Some(true));
    stats.push(stage("linalg/matmul_16_simd").run(|| a.matmul(&b)));
    epoc_linalg::force_simd(None);
    let h = random_hermitian(16, &mut rng);
    stats.push(stage("linalg/eigh_16").run(|| eigh(&h).unwrap()));
    stats.push(stage("linalg/expm_ih_16").run(|| expm_ih(&h, 0.5).unwrap()));
    let u = random_unitary(8, &mut rng);
    stats.push(stage("linalg/unitary_key_8").run(|| epoc_linalg::UnitaryKey::new(&u)));
    // 1,000 distinct two-qubit GRAPE slot Hamiltonians, each decomposed
    // cold: the 4×4 kernel that nearly every GRAPE slot-iteration runs.
    let d2 = DeviceModel::transmon_line(2).unwrap();
    let a_max = d2.max_amplitude();
    let mut rng = StdRng::seed_from_u64(2);
    let slots: Vec<Matrix> = (0..1000)
        .map(|_| {
            let amps: Vec<f64> = (0..d2.controls().len())
                .map(|_| (rng.gen_f64() * 2.0 - 1.0) * a_max)
                .collect();
            d2.hamiltonian(&amps)
        })
        .collect();
    let mut eig = HermitianEig {
        values: Vec::new(),
        vectors: Matrix::zeros(0, 0),
    };
    stats.push(stage("linalg/eigh_4_slots").run(|| {
        for h in &slots {
            eigh_into(h, &mut eig).unwrap();
        }
    }));
}

fn bench_zx(stats: &mut Vec<Stats>) {
    let clifford_t = generators::random_clifford_t(4, 60, 0.2, 11);
    stats.push(stage("zx/optimize_cliffordt_4q60").run(|| zx_optimize(&clifford_t)));
    let qaoa = generators::qaoa(6, 2, 7);
    stats.push(stage("zx/optimize_qaoa_6q").run(|| zx_optimize(&qaoa)));
}

fn bench_partition(stats: &mut Vec<Stats>) {
    let circuit = generators::random_circuit(6, 80, 3);
    stats.push(stage("partition/greedy_6q80").run(|| {
        greedy_partition(
            &circuit,
            PartitionConfig {
                max_qubits: 3,
                max_gates: 12,
            },
        )
    }));
    stats.push(stage("partition/paqoc_6q80").run(|| paqoc_partition(&circuit, PaqocConfig::default())));
}

fn bench_synthesis(stats: &mut Vec<Stats>) {
    let cz = Gate::CZ.unitary_matrix();
    stats.push(stage("synthesis/qsearch_cz").run(|| synthesize(&cz, &SynthConfig::default())));
    let mut rng = StdRng::seed_from_u64(5);
    let random2q = random_unitary(4, &mut rng);
    stats.push(stage("synthesis/qsearch_random_2q").run(|| synthesize(&random2q, &SynthConfig::default())));
}

fn bench_grape(stats: &mut Vec<Stats>) {
    let d1 = DeviceModel::transmon_line(1).unwrap();
    let x = Gate::X.unitary_matrix();
    stats.push(stage("grape/grape_x_30slots").run(|| grape(&d1, &x, 30, &GrapeConfig::default())));
    let d2 = DeviceModel::transmon_line(2).unwrap();
    let cz = Gate::CZ.unitary_matrix();
    stats.push(stage("grape/grape_cz_128slots").run(|| {
        grape(
            &d2,
            &cz,
            128,
            &GrapeConfig {
                max_iters: 100,
                ..Default::default()
            },
        )
    }));
}

fn bench_sim(stats: &mut Vec<Stats>) {
    use epoc_pulse::{PulsePayload, PulseSchedule, ScheduledPulse};
    use epoc_qoc::PulseWaveform;
    use epoc_sim::{propagate, SimWorkspace, Timeline};
    use std::sync::Arc;

    // A 64-slot 2-qubit waveform pulse — the shape a GRAPE-synthesized
    // CZ-class block produces — lowered once, propagated per sample.
    let device = DeviceModel::transmon_line(2).unwrap();
    let n_slots = 64;
    let amp = device.max_amplitude();
    let controls: Vec<Vec<f64>> = (0..4)
        .map(|ch| {
            (0..n_slots)
                .map(|s| amp * 0.6 * (0.37 * s as f64 + ch as f64).sin())
                .collect()
        })
        .collect();
    let w = PulseWaveform::new(device.dt(), controls);
    let mut s = PulseSchedule::new(2);
    s.push(ScheduledPulse {
        qubits: vec![0, 1],
        start: 0.0,
        duration: w.duration(),
        fidelity: 1.0,
        label: "blk0".into(),
        payload: PulsePayload::Waveform(Arc::new(w)),
    });
    let timeline = Timeline::lower(&s, 8).unwrap();
    stats.push(stage("sim/propagate_2q").run(|| {
        let mut ws = SimWorkspace::new(timeline.dim);
        propagate(&timeline, &mut ws).unwrap()
    }));
}

fn bench_hw(stats: &mut Vec<Stats>) {
    // Conditioning a 1000-slot 4-channel staircase under the full AWG
    // profile (slew-clip -> 8-bit quantize -> Gaussian filter ->
    // crosstalk mix) -- the per-pulse cost constrained GRAPE pays every
    // iteration and schedule emission pays once per waveform.
    let profile = epoc_hw::HardwareProfile::transmon_awg_8bit();
    let device = DeviceModel::transmon_line(2).unwrap();
    let a_max = device.max_amplitude();
    let dt = device.dt();
    let n_slots = 1000;
    let raw: Vec<Vec<f64>> = (0..4)
        .map(|ch| {
            (0..n_slots)
                .map(|s| a_max * 0.6 * (0.37 * s as f64 + ch as f64).sin())
                .collect()
        })
        .collect();
    let mut ws = epoc_hw::ConditionWorkspace::new();
    let mut controls = raw.clone();
    stats.push(stage("hw/condition_1k_slots").run(|| {
        for (dst, src) in controls.iter_mut().zip(&raw) {
            dst.copy_from_slice(src);
        }
        profile.condition_controls(dt, a_max, &mut controls, &mut ws);
        controls[0][0]
    }));
}

fn bench_pipeline(stats: &mut Vec<Stats>) {
    // Fresh compiler per iteration: the pulse library cache persists
    // across compiles, so a reused compiler would measure cache hits.
    let ghz = generators::ghz(4);
    stats.push(stage("pipeline/epoc_compile_ghz4").run_with_setup(
        || EpocCompiler::new(EpocConfig::fast()),
        |compiler| compiler.compile(&ghz).unwrap(),
    ));
    let qaoa = generators::qaoa(4, 2, 5);
    stats.push(stage("pipeline/epoc_compile_qaoa4").run_with_setup(
        || EpocCompiler::new(EpocConfig::fast()),
        |compiler| compiler.compile(&qaoa).unwrap(),
    ));
    stats.push(
        stage("pipeline/paqoc_compile_qaoa4")
            .run_with_setup(PaqocCompiler::default, |compiler| compiler.compile(&qaoa)),
    );
}

/// Writes `target/BENCH_stages.json` and returns its path.
fn write_report(stats: &[Stats]) -> PathBuf {
    let mut benches = Json::obj();
    for s in stats {
        benches = benches.push(
            &s.name,
            Json::obj()
                .push("median_ns", s.median().as_nanos() as u64)
                .push("min_ns", s.min().as_nanos() as u64)
                .push("mean_ns", s.mean().as_nanos() as u64)
                .push("samples", s.samples.len()),
        );
    }
    let doc = Json::obj()
        .push("schema", "epoc-bench-stages/v1")
        .push("quick", quick())
        .push("benches", benches);
    let dir = workspace_root().join("target");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let path = dir.join("BENCH_stages.json");
    std::fs::write(&path, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// One row of the baseline comparison: fresh median vs committed median.
struct Comparison {
    name: String,
    now_ns: f64,
    /// Committed median; `None` for benches absent from the baseline.
    base_ns: Option<f64>,
    /// Whether the regression gate applies (present in the baseline and
    /// above the [`MIN_BASELINE_NS`] noise floor).
    gated: bool,
}

impl Comparison {
    fn regressed(&self) -> bool {
        self.gated
            && matches!(self.base_ns, Some(b) if self.now_ns > b * REGRESSION_FACTOR)
    }
}

/// Pairs every fresh median with its committed baseline entry.
fn compare_to_baseline(stats: &[Stats], baseline: &Json) -> Vec<Comparison> {
    stats
        .iter()
        .map(|s| {
            let base_ns = baseline
                .get("benches")
                .and_then(|b| b.get(&s.name))
                .and_then(|e| e.get("median_ns"))
                .and_then(Json::as_f64);
            Comparison {
                name: s.name.clone(),
                now_ns: s.median().as_nanos() as f64,
                base_ns,
                gated: base_ns.is_some_and(|b| b >= MIN_BASELINE_NS),
            }
        })
        .collect()
}

fn check_against_baseline(stats: &[Stats]) {
    let path = workspace_root().join("BENCH_baseline.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => {
            eprintln!("bench-check: no {} — skipping regression check", path.display());
            return;
        }
    };
    let baseline = Json::parse(&text)
        .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    let rows = compare_to_baseline(stats, &baseline);
    let n_failures = rows.iter().filter(|r| r.regressed()).count();
    if n_failures == 0 {
        eprintln!("bench-check: all stages within {REGRESSION_FACTOR}x of baseline");
        return;
    }
    // Regressions must be diagnosable from the CI log alone: print the
    // whole old/new/ratio table, not just the failing names.
    eprintln!("bench-check: {n_failures} stage(s) regressed more than {REGRESSION_FACTOR}x; full comparison:");
    eprintln!("  {:<36} {:>12} {:>12} {:>7}", "bench", "baseline", "new", "ratio");
    for r in &rows {
        let now = format!("{:.1}µs", r.now_ns / 1e3);
        let (base, ratio, mark) = match r.base_ns {
            Some(b) => (
                format!("{:.1}µs", b / 1e3),
                format!("{:.2}x", r.now_ns / b),
                if r.regressed() {
                    "  <-- REGRESSION"
                } else if !r.gated {
                    "  (ungated)"
                } else {
                    ""
                },
            ),
            None => ("-".to_string(), "-".to_string(), "  (new)"),
        };
        eprintln!("  {:<36} {:>12} {:>12} {:>7}{}", r.name, base, now, ratio, mark);
    }
    std::process::exit(1);
}

fn main() {
    let mut stats = Vec::new();
    bench_linalg(&mut stats);
    bench_zx(&mut stats);
    bench_partition(&mut stats);
    bench_synthesis(&mut stats);
    bench_grape(&mut stats);
    bench_sim(&mut stats);
    bench_hw(&mut stats);
    bench_pipeline(&mut stats);
    let path = write_report(&stats);
    eprintln!("wrote {}", path.display());
    if check_mode() {
        check_against_baseline(&stats);
    }
}
