//! `trace_check` — structural validator for the observability artifacts.
//!
//! Validates the three export formats the telemetry layer promises, so CI
//! smoke steps fail on malformed output instead of silently shipping:
//!
//! * Chrome trace-event JSON (`epocc --trace`): a non-empty `traceEvents`
//!   array of well-formed `"X"` events and one span per pipeline stage;
//! * the structured JSONL event log (`epocd --log`): one JSON object per
//!   line, each carrying `ts_ns`, a known `level`, and an `event` name;
//! * the Prometheus text exposition (`epocc --metrics-file`, or the
//!   `metrics` field of epocd's `metrics` command written to a file):
//!   `# TYPE` headers and `name{labels} value` sample lines only.
//!
//! ```sh
//! trace_check trace.json                # stage spans only
//! trace_check --require-qoc trace.json  # also demand GRAPE/QSearch spans
//! trace_check --require-recovery trace.json  # demand recovery.* counters
//! trace_check --log epocd.jsonl         # JSONL log schema
//! trace_check --metrics m.prom          # Prometheus exposition grammar
//! trace_check --require-jobs --log epocd.jsonl --metrics m.prom
//! trace_check --require-event job.rejected --log epocd.jsonl
//! ```
//!
//! `--require-recovery` backs the CI `chaos-smoke` step: a compile with
//! fault injection armed must surface its recovery ladder in the
//! `epocCounters` section, or degradation happened silently.
//! `--require-jobs` backs the `obs-smoke` step: the log must attribute
//! events to per-service job ids (admission and completion for at least
//! one job >= 1), and the exposition must carry summary quantiles and no
//! `job="N"` series — per-job series grow with every job a daemon serves.
//! `--require-event NAME` (repeatable) backs the `resilience-smoke`
//! step: the log must contain at least one line whose `event` is NAME —
//! e.g. a flood test asserting `job.rejected` actually got logged.

use epoc_rt::json::Json;
use std::process::ExitCode;

/// Stage spans every EPOC compile must emit (cat `"stage"`). A compile
/// also emits `verify`, which is not required: the benchmark's traced
/// re-drive of the pipeline, whose traces this binary also checks, has
/// no such span.
const STAGES: [&str; 5] = ["zx", "partition", "synth", "regroup", "pulse"];

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_check: FAIL: {msg}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_check [--require-qoc] [--require-recovery] [--require-jobs] \
         [--require-event NAME]... [--log FILE] [--metrics FILE] [<trace.json>]"
    );
    ExitCode::from(2)
}

/// Validates a Chrome trace file; returns a one-line summary on success.
fn check_trace(
    path: &str,
    require_qoc: bool,
    require_recovery: bool,
) -> Result<String, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&source).map_err(|e| format!("{path} is not valid JSON: {e}"))?;

    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("top-level \"traceEvents\" array missing".into());
    };
    if events.is_empty() {
        return Err("traceEvents is empty — was telemetry enabled?".into());
    }

    // Every event must be a complete ("X") event with the full field set
    // and lossless integer timestamps in args.
    let mut spans: Vec<(String, String)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = match e.get("name").and_then(Json::as_str) {
            Some(n) => n.to_string(),
            None => return Err(format!("event {i}: missing \"name\"")),
        };
        let cat = match e.get("cat").and_then(Json::as_str) {
            Some(c) => c.to_string(),
            None => return Err(format!("event {i} ({name}): missing \"cat\"")),
        };
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i} ({name}): ph is not \"X\""));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            if e.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i} ({name}): missing numeric \"{field}\""));
            }
        }
        let Some(args) = e.get("args") else {
            return Err(format!("event {i} ({name}): missing \"args\""));
        };
        for field in ["ts_ns", "dur_ns", "depth", "job"] {
            if args.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i} ({name}): missing args.{field}"));
            }
        }
        spans.push((cat, name));
    }

    for stage in STAGES {
        if !spans.iter().any(|(c, n)| c == "stage" && n == stage) {
            return Err(format!("no \"stage\" span named \"{stage}\""));
        }
    }
    if require_qoc {
        for (cat, name) in [("qoc", "grape"), ("synth", "qsearch")] {
            if !spans.iter().any(|(c, n)| c == cat && n == name) {
                return Err(format!("no \"{cat}\" span named \"{name}\""));
            }
        }
    }
    if require_recovery {
        let Some(Json::Obj(counters)) = doc.get("epocCounters") else {
            return Err("top-level \"epocCounters\" object missing".into());
        };
        if !counters.iter().any(|(k, _)| k.starts_with("recovery.")) {
            return Err(
                "no recovery.* counter — did the armed faults trigger any ladder rung?".into(),
            );
        }
    }

    Ok(format!(
        "{path}: {} events, all {} stage spans present{}{}",
        events.len(),
        STAGES.len(),
        if require_qoc { ", grape + qsearch present" } else { "" },
        if require_recovery { ", recovery counters present" } else { "" }
    ))
}

/// Validates a structured JSONL event log; returns a summary on success.
fn check_log(
    path: &str,
    require_jobs: bool,
    require_events: &[String],
) -> Result<String, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = 0usize;
    let mut attributed = 0usize;
    let mut admitted = false;
    let mut done = false;
    let mut missing: Vec<&str> = require_events.iter().map(String::as_str).collect();
    for (i, line) in source.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = Json::parse(line)
            .map_err(|e| format!("{path}:{}: not valid JSON: {e}", i + 1))?;
        if entry.get("ts_ns").and_then(Json::as_f64).is_none() {
            return Err(format!("{path}:{}: missing numeric \"ts_ns\"", i + 1));
        }
        match entry.get("level").and_then(Json::as_str) {
            Some("info" | "warn" | "error") => {}
            Some(other) => {
                return Err(format!("{path}:{}: unknown level \"{other}\"", i + 1))
            }
            None => return Err(format!("{path}:{}: missing \"level\"", i + 1)),
        }
        let Some(event) = entry.get("event").and_then(Json::as_str) else {
            return Err(format!("{path}:{}: missing \"event\"", i + 1));
        };
        missing.retain(|name| *name != event);
        let job = entry.get("job").and_then(Json::as_f64).unwrap_or(0.0);
        if job >= 1.0 {
            attributed += 1;
            if event == "job.admitted" {
                admitted = true;
            }
            if event == "job.done" {
                done = true;
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: log is empty — was --log passed to epocd?"));
    }
    if require_jobs {
        if attributed == 0 {
            return Err(format!("{path}: no log line carries a job id >= 1"));
        }
        if !admitted || !done {
            return Err(format!(
                "{path}: job lifecycle incomplete (admitted: {admitted}, done: {done})"
            ));
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "{path}: required event(s) never logged: {}",
            missing.join(", ")
        ));
    }
    Ok(format!(
        "{path}: {lines} log lines valid{}{}",
        if require_jobs {
            format!(", {attributed} attributed to jobs")
        } else {
            String::new()
        },
        if require_events.is_empty() {
            String::new()
        } else {
            format!(", {} required event(s) present", require_events.len())
        }
    ))
}

/// Validates a Prometheus text exposition; returns a summary on success.
///
/// Accepts either the raw text (from `epocc --metrics-file`) or one
/// epocd `metrics` response line (`{"ok":true,"metrics":"..."}`) — the
/// line protocol JSON-escapes the multi-line exposition, so this is how
/// CI validates the live socket exposition without an unescaping shim.
fn check_metrics(path: &str, require_jobs: bool) -> Result<String, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let source = if source.trim_start().starts_with('{') {
        let doc = Json::parse(source.trim())
            .map_err(|e| format!("{path} looks like JSON but does not parse: {e}"))?;
        match doc.get("metrics").and_then(Json::as_str) {
            Some(text) => text.to_string(),
            None => return Err(format!("{path}: JSON input has no \"metrics\" string field")),
        }
    } else {
        source
    };
    let mut samples = 0usize;
    let mut types = 0usize;
    let mut job_series = None;
    let mut quantiles = false;
    for (i, line) in source.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if !rest.trim_start().starts_with("TYPE ") {
                return Err(format!("{path}:{}: comment is not a # TYPE line", i + 1));
            }
            types += 1;
            continue;
        }
        // Sample line: `name{labels} value` or `name value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{path}:{}: no value on sample line", i + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("{path}:{}: non-numeric value '{value}'", i + 1))?;
        let name = series.split('{').next().unwrap_or(series);
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("{path}:{}: malformed metric name '{name}'", i + 1));
        }
        if !name.starts_with("epoc_") {
            return Err(format!("{path}:{}: name '{name}' lacks the epoc_ prefix", i + 1));
        }
        if series.contains("job=\"") {
            job_series = job_series.or(Some(i + 1));
        }
        if series.contains("quantile=\"") {
            quantiles = true;
        }
        samples += 1;
    }
    if samples == 0 {
        return Err(format!("{path}: no samples — was telemetry enabled?"));
    }
    if types == 0 {
        return Err(format!("{path}: no # TYPE headers"));
    }
    if require_jobs {
        if let Some(line) = job_series {
            return Err(format!("{path}:{line}: per-job series (job=\"N\") in the exposition"));
        }
        if !quantiles {
            return Err(format!("{path}: no summary quantile samples"));
        }
    }
    Ok(format!(
        "{path}: {samples} samples, {types} type headers{}",
        if require_jobs { ", quantiles present, no per-job series" } else { "" }
    ))
}

fn main() -> ExitCode {
    let mut require_qoc = false;
    let mut require_recovery = false;
    let mut require_jobs = false;
    let mut require_events: Vec<String> = Vec::new();
    let mut log_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut path = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--require-qoc" => require_qoc = true,
            "--require-recovery" => require_recovery = true,
            "--require-jobs" => require_jobs = true,
            "--require-event" => match args.next() {
                Some(name) => require_events.push(name),
                None => return usage(),
            },
            "--log" => match args.next() {
                Some(p) => log_path = Some(p),
                None => return usage(),
            },
            "--metrics" => match args.next() {
                Some(p) => metrics_path = Some(p),
                None => return usage(),
            },
            other if other.starts_with('-') => return usage(),
            other => path = other.to_string(),
        }
    }
    if path.is_empty() && log_path.is_none() && metrics_path.is_none() {
        return usage();
    }

    let mut summaries = Vec::new();
    if !path.is_empty() {
        match check_trace(&path, require_qoc, require_recovery) {
            Ok(s) => summaries.push(s),
            Err(e) => return fail(&e),
        }
    }
    if !require_events.is_empty() && log_path.is_none() {
        eprintln!("trace_check: --require-event needs --log FILE");
        return usage();
    }
    if let Some(p) = &log_path {
        match check_log(p, require_jobs, &require_events) {
            Ok(s) => summaries.push(s),
            Err(e) => return fail(&e),
        }
    }
    if let Some(p) = &metrics_path {
        match check_metrics(p, require_jobs) {
            Ok(s) => summaries.push(s),
            Err(e) => return fail(&e),
        }
    }
    for s in summaries {
        println!("trace_check: OK: {s}");
    }
    ExitCode::SUCCESS
}
