//! `epoc-perfbench` — the measuring half of the end-to-end benchmark.
//!
//! ```sh
//! epoc-perfbench --workload cold_grape --seed 1 --seconds 15 --trace 0 \
//!     --work DIR --epocd PATH --build ID
//! ```
//!
//! Runs one workload against the unmodified compiler (in process through
//! `epoc`'s public API, or through the `epocd` binary), checks every
//! output, and prints one JSON line: the metrics with their sample counts
//! and every failed check.
//! `perfbench/run.py` builds this binary, runs it, and turns that line
//! into the benchmark's result. See `perfbench/README.md`.

mod inproc;
mod layers;
mod metrics;
mod redrive;
mod service;
mod simfid;
mod stats;
mod sys;
mod trace;

use epoc::CompilationReport;
use epoc_rt::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for libraries, journals and traces.
    pub work: PathBuf,
    pub epocd: PathBuf,
    /// Identifies the build of the benchmark and the program, for the files
    /// kept per build in `work`.
    pub build: String,
}

impl Args {
    /// The per-build memo of replay fidelities.
    pub fn memo(&self) -> PathBuf {
        self.work.join(format!("sim-{}.json", self.build))
    }

    /// The per-build warm_service library fixture.
    pub fn fixture(&self) -> PathBuf {
        self.work.join(format!("fixture-{}.json", self.build))
    }

    /// The per-build ledger of each circuit's work counts.
    pub fn ledger(&self) -> PathBuf {
        self.work.join(format!("counts-{}.json", self.build))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        get.insert(flag, value);
    }
    let mut take = |k: &str| get.remove(k).ok_or(format!("missing {k}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: take("--trace")? == "1",
        work: take("--work")?.into(),
        epocd: take("--epocd")?.into(),
        build: take("--build")?,
    };
    match get.keys().next() {
        Some(k) => Err(format!("unknown flag {k}")),
        None => Ok(args),
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    problems: Vec<String>,
    metrics: Vec<(String, Json)>,
    samples: Vec<(String, Json)>,
    counts: Vec<(String, Json)>,
    detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a metric measured from `n` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.metric_at(name, value, unit, n, None);
    }

    /// Records a metric that is the `percentile` of `n` samples.
    pub fn metric_at(&mut self, name: &str, value: f64, unit: &str, n: usize, pct: Option<&str>) {
        self.metrics.push((
            name.to_string(),
            Json::obj().push("value", value).push("unit", unit),
        ));
        let mut s = Json::obj().push("n", n);
        if let Some(p) = pct {
            s = s.push("percentile", p);
        }
        self.samples.push((name.to_string(), s));
    }

    /// A failed check that fails the run.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    /// Counts one attempted job and whether its output passed the checks.
    pub fn job(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            self.problem(p);
        }
    }

    /// Records the deterministic work counts of one circuit; the same key
    /// must carry the same counts in every run of one build (see
    /// [`Outcome::check_ledger`]).
    pub fn counts(&mut self, key: String, counts: Json) {
        if let Some((_, prev)) = self.counts.iter().find(|(k, _)| *k == key) {
            if *prev != counts {
                let msg = format!("{key}: work counts changed within the run");
                self.problem(msg);
            }
            return;
        }
        self.counts.push((key, counts));
    }

    /// Checks this run's work counts against the ledger at `path`, which
    /// holds the counts earlier runs of the same build recorded, and adds
    /// the circuits it has not seen yet.
    pub fn check_ledger(&mut self, path: &Path) -> Result<(), String> {
        let mut ledger = match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(Json::Obj(pairs)) => pairs,
                _ => return Err(format!("{} is not a ledger", path.display())),
            },
            Err(_) => Vec::new(),
        };
        let mut changed = Vec::new();
        for (key, counts) in &self.counts {
            match ledger.iter().find(|(k, _)| k == key) {
                Some((_, prev)) if prev != counts => changed.push(format!(
                    "{key}: work counts {} differ from an earlier run's {}",
                    counts.to_string_compact(),
                    prev.to_string_compact()
                )),
                Some(_) => {}
                None => ledger.push((key.clone(), counts.clone())),
            }
        }
        for msg in changed {
            self.problem(msg);
        }
        write_atomic(path, &Json::Obj(ledger).to_string_pretty())
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    fn to_json(&self) -> Json {
        let obj = |pairs: &[(String, Json)]| {
            pairs
                .iter()
                .fold(Json::obj(), |o, (k, v)| o.push(k, v.clone()))
        };
        Json::obj()
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            )
            .push("metrics", obj(&self.metrics))
            .push("samples", obj(&self.samples))
            .push("detail", obj(&self.detail))
    }
}

/// The checks every in-process report must pass.
pub fn report_problems(name: &str, r: &CompilationReport) -> Vec<String> {
    let mut p = Vec::new();
    if !(r.verified || (r.verify_skipped && r.n_qubits > 10)) {
        p.push(format!(
            "{name}: not verified (verified {}, skipped {})",
            r.verified, r.verify_skipped
        ));
    }
    if !r.schedule.is_valid() {
        p.push(format!("{name}: schedule has overlapping pulses"));
    }
    if !(r.latency() > 0.0 && r.esp() > 0.0 && r.esp() <= 1.0) {
        p.push(format!(
            "{name}: latency {} / esp {} out of range",
            r.latency(),
            r.esp()
        ));
    }
    p
}

/// The deterministic work counts of one report.
pub fn work_counts(r: &CompilationReport) -> Json {
    Json::obj()
        .push("grape_iters", r.stages.grape_iterations)
        .push("qsearch_nodes", r.stages.qsearch_nodes)
        .push("pulses", r.stages.pulses)
}

/// Writes `text` to `path` through a temporary file and a rename.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename to {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epoc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("epoc-perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    // The daemon's stderr of this run only.
    let _ = std::fs::remove_file(args.work.join("epocd.stderr"));
    let mut out = Outcome::default();
    let result = match (args.workload.as_str(), args.trace) {
        ("cold_grape", false) => inproc::cold_grape(&args, &mut out),
        ("wide_modeled", false) => inproc::wide_modeled(&args, &mut out),
        ("cold_grape" | "wide_modeled", true) => inproc::traced(&args, &mut out),
        ("warm_service", false) => service::warm_service(&args, &mut out),
        ("warm_service", true) => service::traced(&args, &mut out),
        (other, _) => Err(format!("unknown workload '{other}'")),
    }
    .and_then(|()| out.check_ledger(&args.ledger()));
    if let Err(e) = result {
        // A run that could not finish measuring prints no result.
        eprintln!("epoc-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.to_json().to_string_compact());
    ExitCode::SUCCESS
}
