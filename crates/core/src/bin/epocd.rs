//! `epocd` — the persistent-pulse-library compilation service.
//!
//! A long-running server wrapping one [`EpocCompiler`]: compile jobs
//! arrive as line-delimited JSON (on stdin by default, or over a Unix
//! socket with `--socket`), and each answer is one compact line carrying
//! the full `CompilationReport`. The pulse library persists across jobs —
//! and, via `--library FILE`, across restarts — so recurring blocks cost
//! a cache lookup instead of a GRAPE run (the amortization EPOC's §3.4
//! phase-aware library is built for).
//!
//! ```sh
//! printf '%s\n' '{"id":1,"bench":"ghz_n4"}' '{"id":2,"bench":"ghz_n4"}' \
//!   | epocd --grape 1 --library pulses.json
//! ```
//!
//! ## Protocol
//!
//! Requests, one JSON object per line:
//!
//! * `{"id":1,"qasm":"OPENQASM 2.0; ..."}` — compile a QASM program
//!   (newlines escaped as `\n`);
//! * `{"id":2,"bench":"ghz_n4"}` — compile a builtin benchmark;
//! * either job form may add `"deadline_ms":N` (wall-clock deadline —
//!   a blown deadline fails that job typed, never a degraded schedule)
//!   and/or `"budget":"grape_iters=N,qsearch_nodes=M"` (deterministic
//!   per-block work caps — exhaustion degrades via the recovery ladder,
//!   byte-identically at any worker count);
//! * `{"cmd":"checkpoint"}` — persist the library now;
//! * `{"cmd":"stats"}` — report service counters, gauges, and latency
//!   percentiles;
//! * `{"cmd":"metrics"}` — return the full Prometheus text exposition
//!   (as one JSON string field, since the protocol is line-delimited);
//! * `{"cmd":"shutdown"}` — checkpoint and exit.
//!
//! A line with a `cmd` key is a command, never a job: any other `cmd`,
//! a non-string one included, answers `unknown command`.
//!
//! Responses, one compact JSON line each:
//!
//! * `{"id":1,"ok":true,"report":{...}}` on success;
//! * `{"id":1,"ok":false,"error":"..."}` on failure (the service keeps
//!   running — one bad job never takes the library down);
//! * `{"id":1,"ok":false,"rejected":"queue_full"|"oversized"|"shutting_down",
//!   "error":"..."}` when a job is shed before compilation: the queue is
//!   at `--queue-limit`, the request line exceeds `--line-limit` bytes,
//!   or the line was queued behind a `shutdown`;
//! * `{"ok":true,"stats":{...}}` / `{"ok":true,"checkpoint":{...}}` /
//!   `{"ok":true,"metrics":"..."}` for commands.
//!
//! ## Resilience
//!
//! Commands are exempt from load-shedding (`stats` must answer precisely
//! when the service is saturated). Each compile runs under a panic guard:
//! a panicking job answers `ok:false` and the daemon keeps serving. A
//! `shutdown` drains gracefully — in-flight work finishes, queued lines
//! get typed `shutting_down` rejections, the library checkpoints, and
//! the process exits. A response that cannot be written ends its stream.
//!
//! With `--journal FILE`, every live library insert is appended to a
//! checksummed write-ahead journal between checkpoints (fsync'd per
//! batch) and the journal is compacted on every successful checkpoint.
//! On start the journal replays after the library load, tolerating a
//! torn final record — `kill -9` mid-batch loses no completed insert.
//! The library file holds the same records, sorted by key, and both
//! files load through one loader; a file that fails to load is moved
//! aside to `FILE.corrupt` and the daemon starts without it.
//!
//! ## Observability
//!
//! The daemon runs with telemetry *enabled* but span capture *off*:
//! counters, gauges, and histograms are keyed by name, so memory and the
//! `stats`/`metrics` answers stay flat over an unbounded job stream.
//! Each accepted compile job gets a monotone job id (1, 2, …) carried by
//! a [`epoc_rt::telemetry::TelemetryScope`] through the worker pool, so
//! the structured log stays attributable; a job's own numbers are in its
//! report and its `job.done` log line. `--log FILE` appends JSONL events
//! (job admission/rejection/completion, batch boundaries, recovery-rung
//! climbs, evictions, checkpoint outcomes) — one JSON object per line
//! with `ts_ns`, `level`, `event`, and `job` fields. None of this
//! touches the report path: reports stay byte-identical with telemetry
//! on or off, at any worker count.
//!
//! ## Queueing and determinism
//!
//! Stdin and each socket connection (accepted one at a time; a
//! `shutdown` on any stops accepting) run through one loop, [`serve`]: a
//! reader thread parses each line once and queues it on a channel, and
//! the compile loop drains the channel in arrival batches. Jobs *compile*
//! strictly in arrival order — each compile fans its blocks out across
//! the `epoc_rt` worker pool internally, and the pipeline's
//! peek/claim/compute/replay scheme already guarantees byte-identical
//! reports at any worker count — so a fixed job sequence produces a
//! byte-identical response stream (modulo wall-clock timings) whatever
//! `--workers` says. Journal syncs and checkpoints are amortized per
//! batch, not per job.

use epoc::{CompilationReport, EpocCompiler, EpocConfig, StoreConfig};
use epoc_circuit::{generators, parse_qasm, Circuit};
use epoc_qoc::JournalWriter;
use epoc_rt::cancel::{Budget, CancelToken};
use epoc_rt::json::Json;
use epoc_rt::telemetry::{self, LogLevel, TelemetryScope};
use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Default GRAPE width cap (same as `epocc`).
const DEFAULT_GRAPE_LIMIT: usize = 2;
/// Default request-line bound: far above any realistic QASM job, far
/// below what could wedge the reader's memory.
const DEFAULT_LINE_LIMIT: usize = 1 << 20;

struct Args {
    library: Option<PathBuf>,
    library_budget: Option<u64>,
    grape_limit: usize,
    workers: Option<usize>,
    regroup: bool,
    checkpoint_every: usize,
    queue_limit: usize,
    line_limit: usize,
    journal: Option<PathBuf>,
    socket: Option<PathBuf>,
    log: Option<PathBuf>,
    faults: Option<String>,
    fault_seed: Option<u64>,
    hw: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: epocd [--library FILE] [--library-budget BYTES] \
         [--grape N] [--workers N] [--no-regroup] [--checkpoint-every N] \
         [--queue-limit N] [--line-limit BYTES] [--journal FILE] \
         [--socket PATH] [--log FILE] [--faults SPEC] [--fault-seed N] [--hw PROFILE]\n\
         --library FILE     load the pulse library from FILE on start, save on checkpoint/shutdown\n\
         --library-budget BYTES cap each in-memory pulse library (LRU eviction; GRAPE's and\n\
         \x20                  the model's library each get BYTES)\n\
         --grape N          GRAPE width cap (default {DEFAULT_GRAPE_LIMIT}; 0 = modeled backend)\n\
         --workers N        worker-pool size for each compile\n\
         --no-regroup       disable regrouping (per-gate pulses)\n\
         --checkpoint-every N also persist the library after every N completed jobs that\n\
         \x20                  missed the cache (a job served from the library writes nothing new)\n\
         --queue-limit N    shed jobs (typed 'queue_full' rejection) past N queued; 0 = unlimited\n\
         --line-limit BYTES reject request lines longer than BYTES (default {DEFAULT_LINE_LIMIT})\n\
         --journal FILE     write-ahead journal for library inserts between checkpoints\n\
         --socket PATH      serve a Unix socket instead of stdin/stdout (replaces only a stale socket)\n\
         --log FILE         write a structured JSONL event log to FILE\n\
         --faults SPEC      arm fault injection (e.g. 'pulse_lib.persist=always')\n\
         --fault-seed N     seed for probabilistic fault triggers\n\
         --hw PROFILE       compile every job under a control-electronics model\n\
         \x20                  (profiles: {}); jobs may pin the same profile with an\n\
         \x20                  'hw' field — a mismatch fails that job, not the daemon",
        epoc::hw::PROFILE_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn flag_value(iter: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    match iter.next() {
        Some(v) if !v.starts_with('-') => v,
        _ => {
            eprintln!("error: {flag} requires {what}");
            std::process::exit(2);
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a non-negative integer, got '{v}'");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        library: None,
        library_budget: None,
        grape_limit: DEFAULT_GRAPE_LIMIT,
        workers: None,
        regroup: true,
        checkpoint_every: 0,
        queue_limit: 0,
        line_limit: DEFAULT_LINE_LIMIT,
        journal: None,
        socket: None,
        log: None,
        faults: None,
        fault_seed: None,
        hw: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--library" => {
                args.library = Some(flag_value(&mut iter, "--library", "a path").into())
            }
            "--library-budget" => {
                let v = flag_value(&mut iter, "--library-budget", "a byte count");
                args.library_budget = Some(parse_num("--library-budget", &v));
            }
            "--grape" => {
                let v = flag_value(&mut iter, "--grape", "a qubit count");
                args.grape_limit = parse_num("--grape", &v);
            }
            "--workers" => {
                let v = flag_value(&mut iter, "--workers", "a worker count");
                args.workers = Some(parse_num("--workers", &v));
            }
            "--no-regroup" => args.regroup = false,
            "--checkpoint-every" => {
                let v = flag_value(&mut iter, "--checkpoint-every", "a job count");
                args.checkpoint_every = parse_num("--checkpoint-every", &v);
            }
            "--queue-limit" => {
                let v = flag_value(&mut iter, "--queue-limit", "a job count");
                args.queue_limit = parse_num("--queue-limit", &v);
            }
            "--line-limit" => {
                let v = flag_value(&mut iter, "--line-limit", "a byte count");
                args.line_limit = parse_num("--line-limit", &v);
            }
            "--journal" => {
                args.journal = Some(flag_value(&mut iter, "--journal", "a path").into())
            }
            "--socket" => {
                args.socket = Some(flag_value(&mut iter, "--socket", "a path").into())
            }
            "--log" => args.log = Some(flag_value(&mut iter, "--log", "a path").into()),
            "--hw" => args.hw = Some(flag_value(&mut iter, "--hw", "a profile name")),
            "--faults" => args.faults = Some(flag_value(&mut iter, "--faults", "a fault spec")),
            "--fault-seed" => {
                let v = flag_value(&mut iter, "--fault-seed", "a seed");
                args.fault_seed = Some(parse_num("--fault-seed", &v));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// One bounded read from the request stream.
enum ReadLine {
    /// A complete line within the byte limit (newline stripped).
    Line(String),
    /// A line that exceeded the limit; its bytes were discarded up to
    /// (and including) the next newline.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `limit` bytes of it (plus the newline): past the limit the rest of the
/// line is consumed and discarded, so a hostile or corrupt client cannot
/// wedge the reader's memory. A final unterminated line is returned as a
/// line (matching `BufRead::lines`).
fn next_line(reader: &mut impl BufRead, limit: usize) -> std::io::Result<ReadLine> {
    let mut buf = Vec::new();
    let bound = (limit as u64).saturating_add(1);
    if Read::take(&mut *reader, bound).read_until(b'\n', &mut buf)? == 0 {
        return Ok(ReadLine::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > limit {
        reader.skip_until(b'\n')?;
        return Ok(ReadLine::Oversized);
    }
    Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
}

/// A request line, parsed and classified once by the reader thread; the
/// serving loop acts on the class and never re-reads `cmd`.
enum Request {
    /// A service command: any object with a `cmd` key, whatever its
    /// value. Commands bypass admission control (`stats` must answer
    /// precisely when the queue is full) and do not count toward the
    /// queue depth.
    Command(Json),
    /// A compile job: everything else that parses.
    Job(Json),
    /// A line that does not parse, and why. It is admitted like a job.
    Unparseable(String),
}

impl Request {
    fn classify(line: &str) -> Self {
        match Json::parse(line) {
            Ok(req) if req.get("cmd").is_some() => Request::Command(req),
            Ok(req) => Request::Job(req),
            Err(e) => Request::Unparseable(e.to_string()),
        }
    }

    /// `false` for a command: the request skips admission control and
    /// the queue depth.
    fn queued(&self) -> bool {
        !matches!(self, Request::Command(_))
    }

    /// The caller's `id` field, echoed on a rejection.
    fn id(&self) -> Option<Json> {
        match self {
            Request::Command(req) | Request::Job(req) => req.get("id").cloned(),
            Request::Unparseable(_) => None,
        }
    }
}

/// What the reader thread queues for the serving loop.
enum Incoming {
    /// An admitted request (job or command).
    Request(Request),
    /// A request shed at admission; the serving loop emits the typed
    /// rejection in arrival order.
    Reject {
        id: Option<Json>,
        reason: &'static str,
        error: String,
    },
}

/// The service state: the (cache-bearing) compiler plus checkpoint
/// bookkeeping.
struct Service {
    compiler: EpocCompiler,
    library: Option<PathBuf>,
    journal: Option<Arc<JournalWriter>>,
    checkpoint_every: usize,
    /// Completed jobs since the last checkpoint that missed the cache.
    /// Only a miss can insert, so a job served wholly from the library
    /// gives a checkpoint nothing new to write and does not count toward
    /// `--checkpoint-every` or the end-of-input checkpoint.
    jobs_since_checkpoint: usize,
    /// Monotone correlation id handed to each accepted compile job (1,
    /// 2, …) — deterministic for a fixed request sequence, unlike the
    /// caller-chosen `id` field (which is echoed in responses and logged
    /// as `request_id`).
    job_seq: u64,
}

impl Service {
    fn new(args: &Args) -> Self {
        let base = if args.grape_limit == 0 {
            EpocConfig::default()
        } else {
            EpocConfig::with_grape(args.grape_limit)
        };
        let mut config = base.with_store(StoreConfig {
            budget_bytes: args.library_budget,
        });
        if let Some(w) = args.workers {
            config = config.with_workers(w);
        }
        if !args.regroup {
            config = config.without_regrouping();
        }
        if let Some(name) = &args.hw {
            match epoc::hw::HardwareProfile::by_name(name) {
                Some(profile) => config = config.with_hw(profile),
                None => {
                    eprintln!(
                        "error: unknown hardware profile '{name}' (profiles: {})",
                        epoc::hw::PROFILE_NAMES.join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        let compiler = EpocCompiler::new(config);
        // Both files are journal records and load through one loader:
        // the library first, then the inserts journaled after its last
        // checkpoint. Loading precedes the insert observers, so loaded
        // entries go straight to the store and are never re-journaled.
        for (path, loaded) in [(&args.library, "warm-started"), (&args.journal, "replayed")] {
            if let Some(path) = path {
                match compiler.load_library_or_set_aside(path) {
                    Ok(0) => {}
                    Ok(n) => eprintln!("epocd: {loaded} {n} pulses from {}", path.display()),
                    Err(warning) => eprintln!("epocd: warning: {warning}"),
                }
            }
        }
        let journal = args.journal.as_ref().and_then(|jpath| {
            match JournalWriter::open_append(jpath) {
                Ok(writer) => {
                    let writer = Arc::new(writer);
                    for (section, lib) in compiler.library_sections() {
                        let sink = Arc::clone(&writer);
                        lib.set_insert_observer(Some(Arc::new(move |key, entry| {
                            // Journal loss must not fail the insert: the
                            // entry is still correct in memory and the
                            // next checkpoint persists it anyway.
                            if sink.append(section, key, entry).is_err() {
                                telemetry::counter_add("epocd.journal_errors", 1);
                            }
                        })));
                    }
                    Some(writer)
                }
                Err(e) => {
                    eprintln!("epocd: warning: cannot open --journal: {e}; journaling disabled");
                    None
                }
            }
        });
        Self {
            compiler,
            library: args.library.clone(),
            journal,
            checkpoint_every: args.checkpoint_every,
            jobs_since_checkpoint: 0,
            job_seq: 0,
        }
    }

    fn load_circuit(&self, req: &Json) -> Result<Circuit, String> {
        if let Some(name) = req.get("bench").and_then(Json::as_str) {
            return generators::benchmark(name)
                .ok_or_else(|| format!("unknown builtin benchmark '{name}'"));
        }
        if let Some(src) = req.get("qasm").and_then(Json::as_str) {
            return parse_qasm(src).map_err(|e| e.to_string());
        }
        Err("job needs a 'qasm' or 'bench' field".into())
    }

    /// Builds the job's cancellation token from its optional
    /// `deadline_ms` / `budget` fields.
    fn cancel_token(req: &Json) -> Result<CancelToken, String> {
        let mut token = CancelToken::default();
        if let Some(v) = req.get("budget") {
            let spec = v
                .as_str()
                .ok_or("'budget' must be a spec string like 'grape_iters=100'")?;
            token = token.with_budget(Budget::parse_spec(spec)?);
        }
        if let Some(v) = req.get("deadline_ms") {
            let ms = v
                .as_f64()
                .filter(|m| m.is_finite() && *m >= 0.0)
                .ok_or("'deadline_ms' must be a non-negative number")?;
            token = token.with_deadline_ms(ms as u64);
        }
        Ok(token)
    }

    fn compile(&self, req: &Json) -> Result<CompilationReport, String> {
        // A job may pin the hardware profile it expects. The daemon runs
        // one compiler with one profile-scoped library, so a mismatch
        // fails that job (the client should target a matching daemon)
        // rather than silently compiling under different electronics.
        if let Some(want) = req.get("hw").and_then(Json::as_str) {
            let have = self.compiler.config().hw.as_ref().map_or("ideal", |p| p.name.as_str());
            if want != have {
                return Err(format!(
                    "job pins hardware profile '{want}' but this daemon compiles under '{have}'"
                ));
            }
        }
        let cancel = Self::cancel_token(req)?;
        let circuit = self.load_circuit(req)?;
        self.compiler
            .compile_with_cancel(&circuit, &cancel)
            .map_err(|e| e.to_string())
    }

    /// Persists the library (when one is configured), returning the
    /// response line. A successful checkpoint compacts the journal: the
    /// just-renamed library file now covers every journaled insert.
    fn checkpoint(&mut self) -> Json {
        let Some(path) = &self.library else {
            return Json::obj()
                .push("ok", false)
                .push("error", "no --library configured");
        };
        match self.compiler.save_library(path) {
            Ok(()) => {
                self.jobs_since_checkpoint = 0;
                telemetry::counter_add("epocd.checkpoints", 1);
                telemetry::log_event(
                    LogLevel::Info,
                    "checkpoint.saved",
                    Json::obj()
                        .push("path", path.display().to_string())
                        .push("entries", self.compiler.library_len()),
                );
                if let Some(journal) = &self.journal {
                    // Compaction failure is benign: replaying records the
                    // checkpoint already covers is idempotent.
                    if let Err(e) = journal.compact() {
                        telemetry::log_event(
                            LogLevel::Warn,
                            "journal.compact_failed",
                            Json::obj().push("error", e.to_string()),
                        );
                    }
                }
                Json::obj().push("ok", true).push(
                    "checkpoint",
                    Json::obj()
                        .push("path", path.display().to_string())
                        .push("entries", self.compiler.library_len()),
                )
            }
            Err(e) => {
                telemetry::log_event(
                    LogLevel::Error,
                    "checkpoint.failed",
                    Json::obj().push("error", e.to_string()),
                );
                Json::obj().push("ok", false).push("error", e.to_string())
            }
        }
    }

    /// The `stats` answer; its counts are the always-on `epocd.*` counters.
    fn stats(&self) -> Json {
        let count = telemetry::counter_value;
        let mut gauges = Json::obj();
        for (name, value) in telemetry::gauges_snapshot() {
            gauges = gauges.push(&name, value);
        }
        let mut percentiles = Json::obj();
        for (name, h) in telemetry::histograms_snapshot() {
            percentiles = percentiles.push(
                &name,
                Json::obj()
                    .push("p50", h.percentile(0.50))
                    .push("p95", h.percentile(0.95))
                    .push("p99", h.percentile(0.99))
                    .push("count", h.count),
            );
        }
        Json::obj().push("ok", true).push(
            "stats",
            Json::obj()
                .push("jobs", count("epocd.jobs") - count("epocd.jobs_failed"))
                .push("failed", count("epocd.jobs_failed"))
                .push("rejected", count("epocd.jobs_rejected"))
                .push("batches", count("epocd.batches"))
                .push("cache_hits", self.compiler.cache_hits())
                .push("cache_misses", self.compiler.cache_misses())
                .push("memo_hits", count("pipeline.memo_hits"))
                .push("library_entries", self.compiler.library_len())
                .push("library_evictions", self.compiler.library_evictions())
                .push("library_bytes", self.compiler.library_bytes())
                .push("gauges", gauges)
                .push("percentiles", percentiles),
        )
    }

    /// Records a shed job and builds its typed rejection line.
    fn reject(&mut self, id: Option<Json>, reason: &str, error: String) -> Json {
        telemetry::counter_add("epocd.jobs_rejected", 1);
        let mut detail = Json::obj().push("reason", reason);
        if let Some(id) = &id {
            detail = detail.push("request_id", id.clone());
        }
        telemetry::log_event(LogLevel::Warn, "job.rejected", detail);
        let mut resp = Json::obj();
        if let Some(id) = id {
            resp = resp.push("id", id);
        }
        resp.push("ok", false)
            .push("rejected", reason)
            .push("error", error)
    }

    /// Handles one request, returning `(response, shutdown)`.
    fn handle(&mut self, request: Request) -> (Json, bool) {
        match request {
            Request::Command(req) => self.command(&req),
            Request::Job(req) => (self.job(&req), false),
            Request::Unparseable(e) => (
                Json::obj()
                    .push("ok", false)
                    .push("error", format!("unparseable request: {e}")),
                false,
            ),
        }
    }

    /// Answers a service command, returning `(response, shutdown)`. A
    /// `cmd` that is not a string names no command.
    fn command(&mut self, req: &Json) -> (Json, bool) {
        match req.get("cmd").and_then(Json::as_str) {
            Some("checkpoint") => (self.checkpoint(), false),
            Some("stats") => (self.stats(), false),
            Some("metrics") => (
                Json::obj()
                    .push("ok", true)
                    .push("metrics", telemetry::prometheus_text()),
                false,
            ),
            Some("shutdown") => {
                let resp = if self.library.is_some() {
                    self.checkpoint()
                } else {
                    Json::obj().push("ok", true)
                };
                (resp, true)
            }
            other => {
                let name = match other {
                    Some(name) => format!("'{name}'"),
                    None => req
                        .get("cmd")
                        .map(Json::to_string_compact)
                        .unwrap_or_default(),
                };
                (
                    Json::obj()
                        .push("ok", false)
                        .push("error", format!("unknown command {name}")),
                    false,
                )
            }
        }
    }

    /// Compiles one job and builds its response line.
    fn job(&mut self, req: &Json) -> Json {
        let mut resp = Json::obj();
        if let Some(id) = req.get("id") {
            resp = resp.push("id", id.clone());
        }
        // Every compile job gets a fresh monotone correlation id; the
        // scope carries it into spans, log lines, and (via the worker
        // pool) every thread the compile fans out to.
        self.job_seq += 1;
        let job = self.job_seq;
        let _scope = TelemetryScope::enter(job);
        let source = if req.get("bench").is_some() {
            "bench"
        } else if req.get("qasm").is_some() {
            "qasm"
        } else {
            "invalid"
        };
        let mut admitted = Json::obj().push("source", source);
        if let Some(id) = req.get("id") {
            admitted = admitted.push("request_id", id.clone());
        }
        telemetry::log_event(LogLevel::Info, "job.admitted", admitted);
        telemetry::gauge_add("epocd.inflight_jobs", 1);
        let evictions_before = self.compiler.library_evictions();
        let started = std::time::Instant::now();
        // Panic isolation: a panicking compile (a pipeline bug, a poisoned
        // pool) answers as a typed job failure and the daemon — and its
        // library — keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if epoc_rt::faults::fail_point("epocd.panic") {
                panic!("injected fault: epocd.panic");
            }
            self.compile(req)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            telemetry::counter_add("epocd.jobs_panicked", 1);
            Err(format!("job panicked: {msg}"))
        });
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry::gauge_add("epocd.inflight_jobs", -1);
        telemetry::counter_add("epocd.jobs", 1);
        telemetry::counter_add("epocd.job_ns", elapsed_ns);
        telemetry::histogram_record("epocd.job_latency_ns", elapsed_ns);
        let evicted = self
            .compiler
            .library_evictions()
            .saturating_sub(evictions_before);
        if evicted > 0 {
            telemetry::log_event(
                LogLevel::Warn,
                "library.evicted",
                Json::obj().push("entries", evicted),
            );
        }
        match outcome {
            Ok(report) => {
                for rec in &report.stages.recoveries {
                    telemetry::log_event(LogLevel::Warn, "recovery.rung", rec.to_json_value());
                }
                telemetry::log_event(
                    LogLevel::Info,
                    "job.done",
                    report.log_summary().push("elapsed_ns", elapsed_ns),
                );
                if report.stages.cache_misses > 0 {
                    self.jobs_since_checkpoint += 1;
                }
                resp.push("ok", report.verified || report.verify_skipped)
                    .push("report", report.to_json_value())
            }
            Err(e) => {
                telemetry::counter_add("epocd.jobs_failed", 1);
                telemetry::log_event(
                    LogLevel::Error,
                    "job.failed",
                    Json::obj().push("error", e.as_str()),
                );
                resp.push("ok", false).push("error", e)
            }
        }
    }

    /// End-of-batch hook: make journaled inserts durable, then persist
    /// when the per-batch job quota is met.
    fn end_batch(&mut self) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.sync() {
                telemetry::log_event(
                    LogLevel::Warn,
                    "journal.sync_failed",
                    Json::obj().push("error", e.to_string()),
                );
            }
        }
        if self.library.is_some()
            && self.checkpoint_every > 0
            && self.jobs_since_checkpoint >= self.checkpoint_every
        {
            self.checkpoint();
        }
    }

    /// Final checkpoint on EOF/shutdown.
    fn finish(&mut self) {
        if self.library.is_some() && self.jobs_since_checkpoint > 0 {
            self.checkpoint();
        }
        if let Some(journal) = &self.journal {
            let _ = journal.sync();
        }
    }
}

/// Serves line-delimited requests from `input`, answering on `out`, until
/// the input ends, a response cannot be written, or a `shutdown` arrives;
/// returns `true` on shutdown. Stdin and every socket connection run
/// through here.
fn serve(
    service: &mut Service,
    mut input: impl BufRead + Send + 'static,
    out: &mut impl Write,
    queue_limit: usize,
    line_limit: usize,
) -> bool {
    // The reader thread queues requests as they arrive; the compile loop
    // drains whatever is pending into one batch, so journal syncs and
    // checkpoints amortize over bursts. Admission control lives in the
    // reader — the side that sees the queue growing — and rejections
    // flow through the same channel so responses keep arrival order. The
    // reader is not joined: after a `shutdown` it may block in a read only
    // the client or the process exit ends; its next send then fails.
    let (tx, rx) = mpsc::channel::<Incoming>();
    let depth = Arc::new(AtomicUsize::new(0));
    let reader_depth = Arc::clone(&depth);
    std::thread::spawn(move || {
        loop {
            let incoming = match next_line(&mut input, line_limit) {
                Err(_) | Ok(ReadLine::Eof) => break,
                Ok(ReadLine::Oversized) => Incoming::Reject {
                    id: None,
                    reason: "oversized",
                    error: format!("request line exceeds the {line_limit}-byte limit"),
                },
                Ok(ReadLine::Line(line)) if line.trim().is_empty() => continue,
                Ok(ReadLine::Line(line)) => {
                    let request = Request::classify(&line);
                    if request.queued()
                        && queue_limit > 0
                        && reader_depth.load(Ordering::Acquire) >= queue_limit
                    {
                        Incoming::Reject {
                            id: request.id(),
                            reason: "queue_full",
                            error: format!("service queue is at its limit of {queue_limit} jobs"),
                        }
                    } else {
                        if request.queued() {
                            reader_depth.fetch_add(1, Ordering::AcqRel);
                        }
                        Incoming::Request(request)
                    }
                }
            };
            if tx.send(incoming).is_err() {
                break;
            }
        }
    });
    let mut shutdown = false;
    while let Ok(first) = rx.recv() {
        let mut queue: VecDeque<Incoming> = std::iter::once(first).chain(rx.try_iter()).collect();
        let batch_size = queue.len();
        telemetry::counter_add("epocd.batches", 1);
        telemetry::log_event(
            LogLevel::Info,
            "batch.begin",
            Json::obj().push("size", batch_size),
        );
        let mut answered = true;
        while let Some(item) = queue.pop_front() {
            // Requests already queued behind this one.
            telemetry::gauge_set("epocd.queue_depth", queue.len() as i64);
            let resp = match item {
                Incoming::Reject { id, reason, error } => service.reject(id, reason, error),
                // Graceful drain: whatever is queued behind a `shutdown` is
                // shed with a typed rejection.
                Incoming::Request(request) if shutdown => {
                    service.reject(request.id(), "shutting_down", "service is shutting down".into())
                }
                Incoming::Request(request) => {
                    let queued = request.queued();
                    let (resp, stop) = service.handle(request);
                    if queued {
                        depth.fetch_sub(1, Ordering::AcqRel);
                    }
                    if stop {
                        shutdown = true;
                        queue.extend(rx.try_iter());
                    }
                    resp
                }
            };
            // A failed write means the client is gone: stop serving it.
            answered = writeln!(out, "{}", resp.to_string_compact())
                .and_then(|()| out.flush())
                .is_ok();
            if !answered {
                break;
            }
        }
        telemetry::log_event(
            LogLevel::Info,
            "batch.end",
            Json::obj().push("size", batch_size),
        );
        service.end_batch();
        if shutdown || !answered {
            break;
        }
    }
    shutdown
}

/// Serves a Unix socket: connections are accepted one at a time and each
/// is served by [`serve`] until it closes (responses go back on the same
/// connection). A `shutdown` on any connection stops accepting.
#[cfg(unix)]
fn serve_socket(
    service: &mut Service,
    path: &Path,
    queue_limit: usize,
    line_limit: usize,
) -> ExitCode {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;
    // Replace only a stale socket: PATH may name a file someone needs.
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        if !meta.file_type().is_socket() {
            eprintln!("error: --socket {} exists and is not a socket", path.display());
            return ExitCode::from(2);
        }
        let _ = std::fs::remove_file(path);
    }
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    eprintln!("epocd: listening on {}", path.display());
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let Ok(reader) = stream.try_clone() else { continue };
        telemetry::log_event(LogLevel::Info, "connection.accepted", Json::obj());
        let input = std::io::BufReader::new(reader);
        let stop = serve(service, input, &mut stream, queue_limit, line_limit);
        // Wakes a reader still blocked on this connection, so it exits.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        if stop {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(spec) = &args.faults {
        if let Some(seed) = args.fault_seed {
            epoc_rt::faults::set_seed(seed);
        }
        if let Err(e) = epoc_rt::faults::arm_from_spec(spec) {
            eprintln!("error: bad --faults spec: {e}");
            return ExitCode::from(2);
        }
    }
    // Metrics stay live for the whole daemon lifetime, but span events
    // are a bounded-run tool: capture is off so memory stays flat. The
    // memo-hit counter `stats` reports is in the exposition from the
    // start: the first hit comes only with a circuit's third job. So are
    // the duration search's stall and reopen counters, which only some
    // GRAPE searches bump.
    telemetry::enable();
    telemetry::set_span_capture(false);
    for name in ["pipeline.memo_hits", "grape.stalls", "grape.reopened"] {
        telemetry::counter_declare(name);
    }
    if let Some(path) = &args.log {
        if let Err(e) = telemetry::log_open(path) {
            eprintln!("error: cannot open --log {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let mut service = Service::new(&args);
    let code = match &args.socket {
        #[cfg(unix)]
        Some(path) => serve_socket(&mut service, path, args.queue_limit, args.line_limit),
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("error: --socket is only supported on Unix platforms");
            ExitCode::from(2)
        }
        None => {
            let stdin = std::io::BufReader::new(std::io::stdin());
            let mut stdout = std::io::stdout().lock();
            serve(&mut service, stdin, &mut stdout, args.queue_limit, args.line_limit);
            ExitCode::SUCCESS
        }
    };
    service.finish();
    telemetry::log_close();
    code
}
