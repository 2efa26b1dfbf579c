//! The in-process workloads, driven through `epoc`'s public API:
//! `cold_grape` (a fresh GRAPE compiler per job, as `epocc bench:NAME`
//! runs) and `wide_modeled` (one modeled-backend compiler per run).

use crate::layers::{self, Layers, Totals};
use crate::metrics::{self, Busy};
use crate::redrive::{PulseBackend, Redrive, Work};
use crate::service;
use crate::simfid::{self, SimMemo};
use crate::sys::{self, Usage};
use crate::trace::{self, span, JobScope};
use crate::{report_problems, work_counts, Args, Outcome};
use epoc::circuit::{generators, Circuit};
use epoc::{CompilationReport, EpocCompiler, EpocConfig};
use epoc_rt::json::Json;
use epoc_rt::rng::{Rng, StdRng};
use std::time::Instant;

/// The named circuits of cold_grape (decod24_n4, qaoa_n6 and dnn_n8 take
/// 14–37 s each and are left out).
const COLD_NAMED: [&str; 5] = ["simon_n6", "bb84_n8", "bv_n8", "ham7_n7", "qft_n5"];
/// cold_grape times at least this many whole passes over the named
/// circuits.
const COLD_MIN_PASSES: usize = 2;
/// Seconds of set-up samples before each cold_grape job. cold_grape has
/// few gaps between jobs, so each one samples for a while to catch a fast
/// phase of the host.
const COLD_SETUP_S: f64 = 0.05;
/// wide_modeled compiles whole blocks of this many circuits (one per
/// size cell).
const WIDE_BLOCK: usize = 25;
/// wide_modeled compiles at least this many circuits (four blocks) per
/// run; its quality metrics and its traced run cover exactly these.
const WIDE_PREFIX: usize = 4 * WIDE_BLOCK;
/// wide_modeled circuits (the first ones of at most 8 qubits) replayed
/// for `sim_fidelity`.
const WIDE_SIM: usize = 2;
/// Widest register `simulate_schedule` replays by default.
const SIM_LIMIT: usize = 8;

/// One job: a named circuit.
pub struct Job {
    pub name: String,
    pub circuit: Circuit,
}

/// A circuit of the builtin suite (`epocc bench:NAME`).
pub fn suite(name: &str) -> Circuit {
    generators::benchmark_suite()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.circuit)
        .expect("the benchmark names only builtin circuits")
}

/// cold_grape's jobs: the named circuits, then two random 3-qubit
/// circuits drawn from the seed.
fn cold_jobs(seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D_0000);
    let mut jobs: Vec<Job> = COLD_NAMED
        .iter()
        .map(|&n| Job {
            name: n.into(),
            circuit: suite(n),
        })
        .collect();
    for _ in 0..2 {
        let s = rng.next_u64();
        jobs.push(Job {
            name: format!("random_circuit(3,12,{s:#x})"),
            circuit: generators::random_circuit(3, 12, s),
        });
    }
    jobs
}

/// wide_modeled's endless job stream: random circuits in blocks of
/// `WIDE_BLOCK` that cover each register width 8–12 crossed with five bands
/// of gates per qubit (20–23, 24–27, 28–31, 32–35, 36–40) once, in a seeded
/// order, with the exact gate count and the circuit drawn from the seed.
/// Every whole block has the same mix of sizes, so the seed moves which
/// circuits run, not how large they are.
fn wide_jobs(seed: u64) -> impl Iterator<Item = Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A1D_E000);
    let mut block: Vec<(usize, usize)> = Vec::new();
    std::iter::from_fn(move || {
        if block.is_empty() {
            block = (8..=12)
                .flat_map(|n| (0..5).map(move |band| (n, band)))
                .collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        let (n, band) = block.pop().expect("refilled above");
        let low = 20 + 4 * band;
        let per_qubit = rng.gen_range(low..=if band == 4 { 40 } else { low + 3 });
        let gates = n * per_qubit;
        let s = rng.next_u64();
        Some(Job {
            name: format!("random_circuit({n},{gates},{s:#x})"),
            circuit: generators::random_circuit(n, gates, s),
        })
    })
}

/// The in-process set-up before the first job can be served: building
/// the workload's compiler. Each sample times a batch of constructions
/// (each compiler dropped before the next) sized to take at least 50 µs.
/// Samples are taken at the start and between jobs over the whole run.
struct Setup {
    config: EpocConfig,
    per_batch: usize,
    samples: Vec<f64>,
}

impl Setup {
    /// Seconds of batches taken before the first job.
    const INITIAL_S: f64 = 0.2;

    fn new(config: &EpocConfig) -> Self {
        let mut setup = Self {
            config: config.clone(),
            per_batch: 1,
            samples: Vec::new(),
        };
        while setup.batch() < 50e-6 {
            setup.per_batch *= 2;
        }
        setup.sample_for(Self::INITIAL_S);
        setup
    }

    fn batch(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..self.per_batch {
            std::hint::black_box(EpocCompiler::new(self.config.clone()));
        }
        t.elapsed().as_secs_f64()
    }

    /// Takes one sample; returns the seconds it took.
    fn sample(&mut self) -> f64 {
        let s = self.batch();
        self.samples.push(s / self.per_batch as f64);
        s
    }

    /// Takes samples for at least `seconds`; returns the seconds it took.
    fn sample_for(&mut self, seconds: f64) -> f64 {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {
            self.sample();
        }
        t.elapsed().as_secs_f64()
    }

    fn report(&self, out: &mut Outcome) {
        metrics::setup(out, &self.samples);
    }
}

/// Compiles one job, timing the call as the caller sees it; records the
/// job, its checks and its work counts. Returns the wall seconds and the
/// report when it passed.
fn compile(
    out: &mut Outcome,
    workload: &str,
    compiler: &EpocCompiler,
    job: &Job,
) -> (f64, Option<CompilationReport>) {
    let t = Instant::now();
    let result = compiler.compile(&job.circuit);
    let wall = t.elapsed().as_secs_f64();
    match result {
        Ok(r) => {
            out.counts(format!("{workload}/{}", job.name), work_counts(&r));
            let problems = report_problems(&job.name, &r);
            let passed = problems.is_empty();
            out.job(problems);
            (wall, passed.then_some(r))
        }
        Err(e) => {
            out.job(vec![format!("{}: {e}", job.name)]);
            (wall, None)
        }
    }
}

/// Quality metrics over distinct circuits, replaying the first `sims` of
/// them that have at most `SIM_LIMIT` qubits.
fn distinct_quality(
    args: &Args,
    out: &mut Outcome,
    done: &[(&Job, &CompilationReport)],
    sims: usize,
) -> Result<(), String> {
    let mut rows: Vec<_> = done
        .iter()
        .map(|(j, r)| metrics::Quality::of(&j.name, &j.circuit, r.latency(), r.esp()))
        .collect();
    let replayed: Vec<usize> = (0..done.len())
        .filter(|&i| done[i].0.circuit.n_qubits() <= SIM_LIMIT)
        .take(sims)
        .collect();
    let items: Vec<_> = replayed
        .iter()
        .map(|&i| (&done[i].0.circuit, &done[i].1.schedule))
        .collect();
    let fids = SimMemo::open(args.memo()).fidelities(&items)?;
    for (&i, f) in replayed.iter().zip(fids) {
        rows[i].sim_fidelity = Some(f);
    }
    metrics::quality(out, &rows)
}

pub fn cold_grape(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let jobs = cold_jobs(args.seed);
    let (named, random) = jobs.split_at(COLD_NAMED.len());
    let config = EpocConfig::with_grape(2);
    let mut setup = Setup::new(&config);
    let mut first: Vec<Option<CompilationReport>> = jobs.iter().map(|_| None).collect();
    let mut lat = Vec::new();
    // Whole passes over the named circuits until the time is up, so every
    // run times the same mix.
    let mut passes = 0;
    let mut busy = Busy::start();
    while passes < COLD_MIN_PASSES || busy.seconds() < args.seconds {
        for (job, slot) in named.iter().zip(first.iter_mut()) {
            busy.skip(setup.sample_for(COLD_SETUP_S));
            let compiler = EpocCompiler::new(config.clone());
            let (wall, report) = compile(out, "cold_grape", &compiler, job);
            lat.push(wall);
            if slot.is_none() {
                *slot = report;
            }
        }
        passes += 1;
    }
    let busy_s = busy.seconds();
    let rss = sys::peak_rss_mb(None)?;
    metrics::latency(out, &lat, busy_s);
    setup.report(out);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    // The seeded random circuits, compiled once after the timed passes and
    // checked like every job. Their cost and latency vary severalfold
    // between seeds, which would move the timed median and the quality
    // metrics from seed to seed, so both cover the named circuits only.
    let mut by_circuit = Json::obj();
    for (i, job) in named.iter().enumerate() {
        let per: Vec<Json> = lat
            .iter()
            .skip(i)
            .step_by(named.len())
            .map(|&s| (s * 1e3).into())
            .collect();
        by_circuit = by_circuit.push(&job.name, Json::Arr(per));
    }
    for (job, slot) in random.iter().zip(first[named.len()..].iter_mut()) {
        let compiler = EpocCompiler::new(config.clone());
        let (wall, report) = compile(out, "cold_grape", &compiler, job);
        by_circuit = by_circuit.push(&job.name, Json::Arr(vec![(wall * 1e3).into()]));
        *slot = report;
    }
    out.detail("job_ms_by_circuit", by_circuit);
    let done: Vec<_> = named
        .iter()
        .zip(&first)
        .filter_map(|(j, r)| r.as_ref().map(|r| (j, r)))
        .collect();
    distinct_quality(args, out, &done, usize::MAX)?;
    metrics::ok_rate(out);
    Ok(())
}

pub fn wide_modeled(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let config = EpocConfig::default();
    let mut setup = Setup::new(&config);
    let compiler = EpocCompiler::new(config);
    let mut prefix: Vec<(Job, Option<CompilationReport>)> = Vec::with_capacity(WIDE_PREFIX);
    let mut lat = Vec::new();
    // Peak memory after the fixed prefix, so it does not grow with the
    // number of circuits the time budget admits.
    let mut rss = None;
    let mut busy = Busy::start();
    for job in wide_jobs(args.seed) {
        // Whole blocks only, so every run has the same mix of sizes.
        if lat.len() >= WIDE_PREFIX
            && lat.len().is_multiple_of(WIDE_BLOCK)
            && busy.seconds() >= args.seconds
        {
            break;
        }
        let (wall, report) = compile(out, "wide_modeled", &compiler, &job);
        lat.push(wall);
        busy.skip(setup.sample());
        if prefix.len() < WIDE_PREFIX {
            prefix.push((job, report));
            if prefix.len() == WIDE_PREFIX {
                rss = Some(sys::peak_rss_mb(None)?);
            }
        }
    }
    let busy_s = busy.seconds();
    let rss = rss.expect("the prefix always completes");
    metrics::latency(out, &lat, busy_s);
    setup.report(out);
    out.metric("peak_rss_mb", rss, "MiB", 1);
    let done: Vec<_> = prefix
        .iter()
        .filter_map(|(j, r)| r.as_ref().map(|r| (j, r)))
        .collect();
    distinct_quality(args, out, &done, WIDE_SIM)?;
    metrics::ok_rate(out);
    Ok(())
}

/// Compiles every job once with `config` (a fresh compiler per job when
/// `fresh`), returning the wall seconds and passing reports.
fn compile_all(
    out: &mut Outcome,
    workload: &str,
    jobs: &[Job],
    config: &EpocConfig,
    fresh: bool,
) -> (f64, Vec<Option<CompilationReport>>) {
    let shared = EpocCompiler::new(config.clone());
    let mut wall = 0.0;
    let reports = jobs
        .iter()
        .map(|job| {
            let own = fresh.then(|| EpocCompiler::new(config.clone()));
            let (s, r) = compile(out, workload, own.as_ref().unwrap_or(&shared), job);
            wall += s;
            r
        })
        .collect();
    (wall, reports)
}

/// The traced run of cold_grape or wide_modeled: the jobs once untraced
/// at default workers and once at one worker, then re-driven under spans,
/// plus the library, service and replay layers.
pub fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cold = args.workload == "cold_grape";
    let (jobs, config): (Vec<Job>, EpocConfig) = if cold {
        (cold_jobs(args.seed), EpocConfig::with_grape(2))
    } else {
        (
            wide_jobs(args.seed).take(WIDE_PREFIX).collect(),
            EpocConfig::default(),
        )
    };
    let workload = args.workload.as_str();

    let before = Usage::this_process();
    let (default_wall_s, reports) = compile_all(out, workload, &jobs, &config, cold);
    let rt = Usage::this_process().since(&before);
    let (serial_wall_s, serial) =
        compile_all(out, workload, &jobs, &config.clone().with_workers(1), cold);
    let mut totals = Totals::default();
    for ((job, r), s) in jobs.iter().zip(&reports).zip(&serial) {
        if let (Some(r), Some(s)) = (r, s) {
            totals.add_report(r);
            if (r.latency(), r.esp(), work_counts(r)) != (s.latency(), s.esp(), work_counts(s)) {
                out.problem(format!("{}: report differs at one worker", job.name));
            }
        }
    }

    trace::enable();
    let mut work = Work::default();
    let mut rd = Redrive::new(config.clone());
    let mut traced_wall_s = 0.0;
    for (k, job) in jobs.iter().enumerate() {
        if cold && k > 0 {
            work.add(&rd.work);
            rd = Redrive::new(config.clone());
        }
        let _job = JobScope::enter(k as u64 + 1);
        let t = Instant::now();
        let verified = {
            let _s = span("job", job.name.as_str());
            rd.job(&job.circuit)?
        };
        traced_wall_s += t.elapsed().as_secs_f64();
        if !verified {
            out.problem(format!("{}: re-drive did not verify", job.name));
        }
    }
    work.add(&rd.work);

    let scratch = args.work.join("library-times.json");
    let library = service::library_times(&scratch, &rd.backend().sections(), || {
        PulseBackend::new(&config)
    })?;
    // The service probe: bb84_n8, cold_grape's cheapest circuit, under
    // GRAPE, or wide_modeled's first eight circuits under the model.
    let probe_jobs: Vec<&Job> = if cold {
        jobs.iter().filter(|j| j.name == "bb84_n8").collect()
    } else {
        jobs.iter().take(8).collect()
    };
    let (overhead_ms, checkpoint_ms) = service::probe(args, &probe_jobs, if cold { 2 } else { 0 })?;

    // Replaying cold_grape's two 8-qubit GRAPE schedules takes most of a
    // minute; its traced run replays the narrower ones, which keeps it
    // well inside its time limit on a loaded host.
    let widest = if cold { SIM_LIMIT - 1 } else { SIM_LIMIT };
    let items: Vec<_> = jobs
        .iter()
        .zip(&reports)
        .filter_map(|(j, r)| r.as_ref().map(|r| (&j.circuit, &r.schedule)))
        .filter(|(c, _)| c.n_qubits() <= widest)
        .take(if cold { usize::MAX } else { WIDE_SIM })
        .collect();
    let mut sim_steps = 0;
    for r in simfid::replay_all(&items) {
        sim_steps += r?.1;
    }

    layers::emit(
        args,
        out,
        &Layers {
            work,
            totals,
            rt,
            default_wall_s,
            serial_wall_s,
            traced_wall_s,
            untraced_wall_s: default_wall_s,
            library,
            overhead_ms,
            checkpoint_ms,
            sim_steps,
            sims: items.len(),
        },
    )
}
