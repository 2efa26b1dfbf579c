//! The `epocd` side of the benchmark: a closed-loop client (one thread,
//! one pipe) for the daemon's line protocol, the `warm_service` workload,
//! and the short service probe the traced in-process runs use.

use crate::inproc::{suite, Job};
use crate::layers::{self, Layers, LibraryTimes, Totals};
use crate::metrics::{self, Busy, Quality};
use crate::redrive::{PulseBackend, Redrive};
use crate::simfid::{self, SimMemo};
use crate::stats::{self, median};
use crate::sys::{self, Usage};
use crate::trace::{self, span, JobScope};
use crate::{Args, Outcome};
use epoc::{CompilationReport, EpocCompiler, EpocConfig};
use epoc_rt::json::Json;
use epoc_rt::rng::{Rng, StdRng};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The warm_service circuits: the fixture holds their pulses and the
/// traffic draws from them uniformly.
pub const WARM_SUITE: [&str; 12] = [
    "ghz_n4",
    "ghz_n8",
    "wstate_n3",
    "bell_n4",
    "bv_n5",
    "bv_n8",
    "simon_n6",
    "bb84_n8",
    "ham7_n7",
    "qft_n5",
    "adder_n4",
    "ising_n6",
];
/// `--checkpoint-every` of the measured sessions: one job in fifty is
/// followed by a library save, so the saves sit inside the p99 tail.
const CHECKPOINT_EVERY: usize = 50;
/// Daemon restarts before the session whose spawn-to-ready times give
/// `setup_s`; one more follows every `RESTART_EVERY` jobs of the session.
const RESTARTS: usize = 10;
const RESTART_EVERY: usize = 250;
/// Every run serves at least this many jobs, as p99 needs.
const WARM_MIN_JOBS: usize = 1000;
/// Draws the traced run replays, with an explicit checkpoint every
/// `TRACED_CHECKPOINT_EVERY`.
const TRACED_DRAWS: usize = 600;
const TRACED_CHECKPOINT_EVERY: usize = 100;
/// Repetitions of the in-process library file timings.
const LIBRARY_REPS: usize = 15;

/// A running `epocd` talking line-delimited JSON over its stdin/stdout.
pub struct Epocd {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Epocd {
    pub fn spawn(args: &Args, flags: &[String]) -> Result<Self, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(args.work.join("epocd.stderr"))
            .map_err(|e| format!("cannot open the epocd log: {e}"))?;
        let mut child = Command::new(&args.epocd)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.epocd.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdin,
            stdout,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line and reads its one response line.
    pub fn request(&mut self, line: &str) -> Result<Json, String> {
        let stdin = self.stdin.as_mut().ok_or("epocd input already closed")?;
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("epocd write: {e}"))?;
        let mut buf = String::new();
        match self.stdout.read_line(&mut buf) {
            Ok(0) => Err("epocd closed its output".into()),
            Ok(_) => Json::parse(buf.trim_end()).map_err(|e| format!("epocd response: {e}")),
            Err(e) => Err(format!("epocd read: {e}")),
        }
    }

    /// Closes the request stream and waits for the daemon to exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("epocd wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("epocd exited with {status}"))
        }
    }
}

impl Drop for Epocd {
    fn drop(&mut self) {
        // On an error path the daemon may still run: stop it and reap it.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn job_line(id: usize, job: &Json) -> String {
    let mut line = Json::obj().push("id", id);
    if let Json::Obj(pairs) = job {
        for (k, v) in pairs {
            line = line.push(k, v.clone());
        }
    }
    line.to_string_compact()
}

fn bench_job(name: &str) -> Json {
    Json::obj().push("bench", name)
}

const STATS: &str = r#"{"cmd":"stats"}"#;
const CHECKPOINT: &str = r#"{"cmd":"checkpoint"}"#;

fn is_true(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Bool(true)))
}

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// What the checks need from one served report.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub latency: f64,
    pub esp: f64,
    pub compile_s: f64,
    pub counts: Json,
}

/// Checks one job response; returns the problems and, when the report
/// could be read, its summary.
fn check_response(name: &str, resp: &Json, warm: bool) -> (Vec<String>, Option<Served>) {
    let mut p = Vec::new();
    let Some(report) = resp.get("report") else {
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no report");
        return (vec![format!("{name}: {err}")], None);
    };
    if !is_true(resp.get("ok")) {
        p.push(format!("{name}: response not ok"));
    }
    let n_qubits = num(report, &["n_qubits"]).unwrap_or(0.0);
    if !(is_true(report.get("verified"))
        || (is_true(report.get("verify_skipped")) && n_qubits > 10.0))
    {
        p.push(format!("{name}: not verified"));
    }
    let Some(Json::Arr(pulses)) = report.get("schedule").and_then(|s| s.get("pulses")) else {
        p.push(format!("{name}: report has no schedule"));
        return (p, None);
    };
    let mut spans: Vec<(Vec<usize>, f64, f64)> = Vec::with_capacity(pulses.len());
    let mut esp = 1.0;
    for pulse in pulses {
        let qubits = match pulse.get("qubits") {
            Some(Json::Arr(q)) => q
                .iter()
                .filter_map(Json::as_f64)
                .map(|x| x as usize)
                .collect(),
            _ => Vec::new(),
        };
        let start = num(pulse, &["start"]).unwrap_or(f64::NAN);
        let end = start + num(pulse, &["duration"]).unwrap_or(f64::NAN);
        esp *= num(pulse, &["fidelity"]).unwrap_or(f64::NAN);
        spans.push((qubits, start, end));
    }
    // The overlap rule of `PulseSchedule::is_valid`.
    let overlapping = spans.iter().enumerate().any(|(i, a)| {
        spans[i + 1..].iter().any(|b| {
            a.0.iter().any(|q| b.0.contains(q)) && !(a.2 <= b.1 + 1e-9 || b.2 <= a.1 + 1e-9)
        })
    });
    if overlapping {
        p.push(format!("{name}: schedule has overlapping pulses"));
    }
    let latency = spans.iter().map(|s| s.2).fold(0.0, f64::max);
    if !(latency > 0.0 && esp > 0.0 && esp <= 1.0) {
        p.push(format!(
            "{name}: latency {latency} / esp {esp} out of range"
        ));
    }
    let stage = |k: &str| num(report, &["stages", k]).unwrap_or(-1.0);
    if warm && (stage("grape_iterations") != 0.0 || stage("cache_misses") != 0.0) {
        p.push(format!(
            "{name}: warm job ran {} GRAPE iterations with {} pulse misses",
            stage("grape_iterations"),
            stage("cache_misses")
        ));
    }
    let compile_s = num(report, &["compile_time", "secs"]).unwrap_or(0.0)
        + num(report, &["compile_time", "nanos"]).unwrap_or(0.0) * 1e-9;
    let counts = Json::obj()
        .push("grape_iters", stage("grape_iterations") as u64)
        .push("qsearch_nodes", stage("qsearch_nodes") as u64)
        .push("pulses", stage("pulses") as u64);
    (
        p,
        Some(Served {
            latency,
            esp,
            compile_s,
            counts,
        }),
    )
}

/// Builds the per-build library fixture with one cold pass of the
/// program under test over the warm suite, unless it already exists.
/// Its bytes do not depend on the worker count, so it is built serially.
fn ensure_fixture(args: &Args) -> Result<(), String> {
    let fixture = args.fixture();
    if fixture.exists() {
        return Ok(());
    }
    let building = fixture.with_extension("building");
    let _ = std::fs::remove_file(&building);
    let flags = vec![
        "--workers".into(),
        "1".into(),
        "--library".into(),
        path_arg(&building),
    ];
    let mut d = Epocd::spawn(args, &flags)?;
    for (i, name) in WARM_SUITE.iter().enumerate() {
        let resp = d.request(&job_line(i, &bench_job(name)))?;
        let (problems, _) = check_response(name, &resp, false);
        if let Some(p) = problems.first() {
            return Err(format!("fixture build: {p}"));
        }
    }
    d.finish()?;
    std::fs::rename(&building, &fixture).map_err(|e| format!("fixture: {e}"))
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// A warm daemon: the fixture copied to the library `NAME-library.json`,
/// an empty journal `NAME.journal`, and the given extra flags. Returns it
/// with its spawn-to-ready seconds and its first `stats` reply.
fn start_warm(args: &Args, name: &str, extra: &[&str]) -> Result<(Epocd, f64, Json), String> {
    let library = args.work.join(format!("{name}-library.json"));
    let journal = args.work.join(format!("{name}.journal"));
    std::fs::copy(args.fixture(), &library).map_err(|e| format!("fixture copy: {e}"))?;
    let _ = std::fs::remove_file(&journal);
    let mut flags = vec![
        "--library".to_string(),
        path_arg(&library),
        "--journal".into(),
        path_arg(&journal),
        "--checkpoint-every".into(),
        CHECKPOINT_EVERY.to_string(),
    ];
    flags.extend(extra.iter().map(|s| s.to_string()));
    let t = Instant::now();
    let mut d = Epocd::spawn(args, &flags)?;
    let stats = d.request(STATS)?;
    let ready = t.elapsed().as_secs_f64();
    Ok((d, ready, stats))
}

/// Warm restarts to ready: `setup_s`'s samples. Every restart must come
/// up holding the whole fixture.
#[derive(Default)]
struct Restarts {
    ready: Vec<f64>,
    entries: Option<f64>,
}

impl Restarts {
    /// One restart, spawn to first `stats` reply; returns the seconds the
    /// whole restart took, exit included.
    fn sample(&mut self, args: &Args, out: &mut Outcome) -> Result<f64, String> {
        let t = Instant::now();
        let (d, ready, stats) = {
            let _s = span("epocd", "restart");
            start_warm(args, "restart", &[])?
        };
        d.finish()?;
        self.ready.push(ready);
        let n = num(&stats, &["stats", "library_entries"]).unwrap_or(0.0);
        if n == 0.0 || self.entries.is_some_and(|e| e != n) {
            out.problem(format!("warm restart loaded {n} library entries"));
        }
        self.entries = Some(n);
        Ok(t.elapsed().as_secs_f64())
    }
}

/// The seeded draws of a warm session (indices into `WARM_SUITE`).
fn draws(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A53_0000);
    std::iter::from_fn(move || Some(rng.gen_range(0..WARM_SUITE.len())))
}

/// Checks one warm response against the circuit's first sighting in the
/// run and records the job.
fn record_warm(
    out: &mut Outcome,
    first: &mut [Option<Served>],
    k: usize,
    resp: &Json,
) -> Option<Served> {
    let name = WARM_SUITE[k];
    let (mut problems, served) = check_response(name, resp, true);
    if let Some(s) = &served {
        match &first[k] {
            Some(f) if (f.latency, f.esp, &f.counts) != (s.latency, s.esp, &s.counts) => {
                problems.push(format!("{name}: report changed between sightings"));
            }
            Some(_) => {}
            None => {
                out.counts(format!("warm_service/{name}"), s.counts.clone());
                first[k] = Some(s.clone());
            }
        }
    }
    out.job(problems);
    served
}

/// The final `stats` of a session must show every job served from the
/// library.
fn check_stats(out: &mut Outcome, stats: &Json, jobs: usize) {
    let s = |k: &str| num(stats, &["stats", k]).unwrap_or(-1.0);
    if s("cache_misses") != 0.0 || s("failed") != 0.0 || s("jobs") != jobs as f64 {
        out.problem(format!(
            "warm session stats: {} jobs, {} failed, {} pulse misses (expected {jobs}, 0, 0)",
            s("jobs"),
            s("failed"),
            s("cache_misses")
        ));
    }
}

/// The warm suite compiled in process against the fixture, for the
/// pulse-level replay: their schedules must equal the ones the daemon
/// `served`.
fn warm_reports(
    args: &Args,
    out: &mut Outcome,
    served: &[Option<Served>],
) -> Result<Vec<CompilationReport>, String> {
    let compiler = EpocCompiler::new(EpocConfig::with_grape(2));
    compiler
        .load_library(&args.fixture())
        .map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for (name, served) in WARM_SUITE.into_iter().zip(served) {
        let r = compiler
            .compile(&suite(name))
            .map_err(|e| format!("{name}: {e}"))?;
        if r.stages.grape_iterations != 0 || r.stages.cache_misses != 0 {
            out.problem(format!(
                "{name}: the fixture does not cover it after save and load"
            ));
        }
        if served
            .as_ref()
            .is_some_and(|s| (s.latency, s.esp) != (r.latency(), r.esp()))
        {
            out.problem(format!(
                "{name}: in-process schedule differs from the served one"
            ));
        }
        reports.push(r);
    }
    Ok(reports)
}

pub fn warm_service(args: &Args, out: &mut Outcome) -> Result<(), String> {
    ensure_fixture(args)?;
    let mut restarts = Restarts::default();
    for _ in 0..RESTARTS {
        restarts.sample(args, out)?;
    }

    let (mut d, _, _) = start_warm(args, "session", &[])?;
    let mut first: Vec<Option<Served>> = vec![None; WARM_SUITE.len()];
    let mut lat = Vec::new();
    let mut draws = draws(args.seed);
    let mut busy = Busy::start();
    while lat.len() < WARM_MIN_JOBS
        || !lat.len().is_multiple_of(RESTART_EVERY)
        || busy.seconds() < args.seconds
    {
        let k = draws.next().expect("endless draws");
        let line = job_line(lat.len(), &bench_job(WARM_SUITE[k]));
        let t = Instant::now();
        let resp = d.request(&line)?;
        lat.push(t.elapsed().as_secs_f64());
        record_warm(out, &mut first, k, &resp);
        if lat.len().is_multiple_of(RESTART_EVERY) {
            busy.skip(restarts.sample(args, out)?);
        }
    }
    let busy_s = busy.seconds();
    let stats = d.request(STATS)?;
    check_stats(out, &stats, lat.len());
    let rss = sys::peak_rss_mb(Some(d.pid()))?;
    d.finish()?;

    metrics::latency(out, &lat, busy_s);
    metrics::setup(out, &restarts.ready);
    out.metric("peak_rss_mb", rss, "MiB", 1);

    // Quality over the 12 distinct circuits as served; the replay uses the
    // same schedules compiled in process against the fixture.
    let reports = warm_reports(args, out, &first)?;
    let circuits: Vec<_> = WARM_SUITE.iter().map(|n| suite(n)).collect();
    let mut rows = Vec::new();
    let mut items = Vec::new();
    for ((k, r), c) in reports.iter().enumerate().zip(&circuits) {
        let Some(served) = &first[k] else { continue };
        rows.push(Quality::of(WARM_SUITE[k], c, served.latency, served.esp));
        items.push((c, &r.schedule));
    }
    let fids = SimMemo::open(args.memo()).fidelities(&items)?;
    for (row, f) in rows.iter_mut().zip(fids) {
        row.sim_fidelity = Some(f);
    }
    metrics::quality(out, &rows)?;
    metrics::ok_rate(out);
    let p90 = stats::quantile(&lat, 0.9).expect("jobs ran");
    out.detail(
        "job_p90_ms",
        Json::obj().push("value", p90 * 1e3).push("n", lat.len()),
    );
    Ok(())
}

/// What one fixed-draw session measured: its wall seconds, each request's
/// round trip minus the report's `compile_time`, and each explicit
/// checkpoint's round trip.
struct Session {
    wall_s: f64,
    overhead_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
}

/// Serves `draws` on a warm daemon started with `extra` flags, with a
/// span around each request and an explicit checkpoint every
/// `TRACED_CHECKPOINT_EVERY` requests.
fn fixed_session(
    args: &Args,
    out: &mut Outcome,
    draws: &[usize],
    extra: &[&str],
    first: &mut [Option<Served>],
) -> Result<Session, String> {
    let (mut d, _, _) = start_warm(args, "session", extra)?;
    let mut s = Session {
        wall_s: 0.0,
        overhead_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
    };
    let t0 = Instant::now();
    for (i, &k) in draws.iter().enumerate() {
        let _job = JobScope::enter(i as u64 + 1);
        let t = Instant::now();
        let resp = {
            let _s = span("epocd", "request");
            d.request(&job_line(i, &bench_job(WARM_SUITE[k])))?
        };
        let rtt = t.elapsed().as_secs_f64();
        if let Some(served) = record_warm(out, first, k, &resp) {
            s.overhead_ms.push((rtt - served.compile_s) * 1e3);
        }
        if (i + 1).is_multiple_of(TRACED_CHECKPOINT_EVERY) {
            let t = Instant::now();
            let r = {
                let _s = span("epocd", "checkpoint");
                d.request(CHECKPOINT)?
            };
            s.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !is_true(r.get("ok")) {
                out.problem("explicit checkpoint failed");
            }
        }
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    let stats = d.request(STATS)?;
    check_stats(out, &stats, draws.len());
    d.finish()?;
    Ok(s)
}

/// Medians of repeated in-process `save_library_file` and
/// `load_library_file` calls on `sections`, written to `path`.
pub fn library_times(
    path: &Path,
    sections: &[(&'static str, &epoc::qoc::PulseLibrary)],
    fresh: impl Fn() -> PulseBackend,
) -> Result<LibraryTimes, String> {
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..LIBRARY_REPS {
        let t = Instant::now();
        {
            let _s = span("library", "save_library_file");
            epoc::qoc::save_library_file(path, sections).map_err(|e| e.to_string())?;
        }
        saves.push(t.elapsed().as_secs_f64());
        let target = fresh();
        let t = Instant::now();
        {
            let _s = span("library", "load_library_file");
            epoc::qoc::load_library_file(path, &target.sections()).map_err(|e| e.to_string())?;
        }
        loads.push(t.elapsed().as_secs_f64());
    }
    Ok(LibraryTimes {
        load_s: median(&loads).expect("reps ran"),
        save_s: median(&saves).expect("reps ran"),
        bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        reps: LIBRARY_REPS,
    })
}

/// A short `epocd` session over `jobs` (sent as QASM, each twice so the
/// second is served warm) followed by three explicit checkpoints: the
/// service layer's round-trip overhead and checkpoint time for the
/// in-process workloads' traced runs.
pub fn probe(args: &Args, jobs: &[&Job], grape: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let library: PathBuf = args.work.join("probe-library.json");
    let _ = std::fs::remove_file(&library);
    let flags = vec![
        "--grape".into(),
        grape.to_string(),
        "--library".into(),
        path_arg(&library),
    ];
    let mut d = Epocd::spawn(args, &flags)?;
    let (mut overhead, mut checkpoint) = (Vec::new(), Vec::new());
    for (i, job) in jobs.iter().chain(jobs.iter()).enumerate() {
        let qasm = Json::obj().push("qasm", epoc::circuit::to_qasm(&job.circuit));
        let t = Instant::now();
        let resp = {
            let _s = span("epocd", "request");
            d.request(&job_line(i, &qasm))?
        };
        let rtt = t.elapsed().as_secs_f64();
        let (problems, served) = check_response(&job.name, &resp, false);
        if let Some(p) = problems.first() {
            return Err(format!("epocd probe: {p}"));
        }
        overhead.push((rtt - served.expect("checked").compile_s) * 1e3);
    }
    for _ in 0..3 {
        let t = Instant::now();
        let r = {
            let _s = span("epocd", "checkpoint");
            d.request(CHECKPOINT)?
        };
        checkpoint.push(t.elapsed().as_secs_f64() * 1e3);
        if !is_true(r.get("ok")) {
            return Err("epocd probe: checkpoint failed".into());
        }
    }
    d.finish()?;
    Ok((overhead, checkpoint))
}

pub fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    ensure_fixture(args)?;
    trace::enable();
    let mut restarts = Restarts::default();
    for _ in 0..RESTARTS {
        restarts.sample(args, out)?;
    }
    let draws: Vec<usize> = draws(args.seed).take(TRACED_DRAWS).collect();
    let mut first: Vec<Option<Served>> = vec![None; WARM_SUITE.len()];

    let before = Usage::children();
    let session = fixed_session(args, out, &draws, &[], &mut first)?;
    let rt = Usage::children().since(&before);
    let serial = {
        let _quiet = trace::pause();
        fixed_session(args, out, &draws, &["--workers", "1"], &mut first)?
    };

    // The library layer in process, on the fixture itself.
    let config = EpocConfig::with_grape(2);
    let fixture = PulseBackend::new(&config);
    epoc::qoc::load_library_file(&args.fixture(), &fixture.sections())
        .map_err(|e| e.to_string())?;
    let scratch = args.work.join("library-times.json");
    let library = library_times(&scratch, &fixture.sections(), || PulseBackend::new(&config))?;
    // How much of a warm restart the library load is, both measured here;
    // the restart is the fastest one, as setup_s reports it.
    let restart_s = stats::fastest(&restarts.ready).expect("restarts ran");
    out.detail(
        "library_load_share_of_restart",
        Json::obj()
            .push("load_s", library.load_s)
            .push("restart_to_ready_s", restart_s)
            .push("share", library.load_s / restart_s),
    );

    // The same draws compiled in process against the fixture, untraced
    // (their counters stand for the served reports, which equal them), then
    // re-driven under spans: the tracing overhead.
    let circuits: Vec<_> = WARM_SUITE.iter().map(|n| suite(n)).collect();
    let mut totals = Totals::default();
    let untraced_wall_s = {
        let _quiet = trace::pause();
        let compiler = EpocCompiler::new(config.clone());
        compiler
            .load_library(&args.fixture())
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for &k in &draws {
            let r = compiler
                .compile(&circuits[k])
                .map_err(|e| format!("{}: {e}", WARM_SUITE[k]))?;
            totals.add_report(&r);
        }
        t0.elapsed().as_secs_f64()
    };
    let mut rd = Redrive::new(config);
    epoc::qoc::load_library_file(&args.fixture(), &rd.backend().sections())
        .map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for (i, &k) in draws.iter().enumerate() {
        let _job = JobScope::enter(i as u64 + 1);
        let _s = span("job", WARM_SUITE[k]);
        if !rd.job(&circuits[k])? {
            out.problem(format!("{}: re-drive did not verify", WARM_SUITE[k]));
        }
    }
    let traced_wall_s = t0.elapsed().as_secs_f64();

    let reports = warm_reports(args, out, &first)?;
    let items: Vec<_> = circuits
        .iter()
        .zip(&reports)
        .map(|(c, r)| (c, &r.schedule))
        .collect();
    let mut sim_steps = 0;
    for r in simfid::replay_all(&items) {
        sim_steps += r?.1;
    }

    layers::emit(
        args,
        out,
        &Layers {
            work: rd.work,
            totals,
            rt,
            default_wall_s: session.wall_s,
            serial_wall_s: serial.wall_s,
            traced_wall_s,
            untraced_wall_s,
            library,
            overhead_ms: session.overhead_ms,
            checkpoint_ms: session.checkpoint_ms,
            sim_steps,
            sims: items.len(),
        },
    )
}
