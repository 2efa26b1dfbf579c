//! Observability suite for the `epocd` service: job-scoped attribution,
//! gauges, percentiles, the structured JSONL log, and the live metrics
//! exposition and its bounded size — driven through the real binaries,
//! the same way an operator would see them.
//!
//! The invariant underneath all of it: telemetry is strictly off the
//! report path. These tests read *only* the observability artifacts;
//! report byte-determinism has its own suites
//! (`pipeline_parallel_determinism`, `telemetry_trace`).

use epoc_rt::json::Json;
use std::io::Write;
use std::process::{Command, Stdio};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("epoc-obs-{}-{name}", std::process::id()))
}

/// Runs `epocd` with `extra_args`, feeding `input` on stdin; returns
/// (stdout, stderr).
fn run_epocd(extra_args: &[&str], input: &str) -> (String, String) {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "1", "--no-regroup", "--workers", "2"])
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "epocd exited nonzero: {out:?}");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Extracts `stats` from a `{"ok":true,"stats":{...}}` response line.
fn parse_stats(line: &str) -> Json {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad stats line {line}: {e}"));
    doc.get("stats").cloned().unwrap_or_else(|| panic!("no stats object in {line}"))
}

fn as_u64(j: Option<&Json>) -> u64 {
    j.and_then(Json::as_f64).map(|f| f as u64).unwrap_or(0)
}

/// Two identical jobs through one daemon: `stats` must expose gauges and
/// latency percentiles, the two reports must tell the jobs apart — job 1
/// paid the misses and the GRAPE time, job 2 rode the cache — and the
/// `metrics` command must expose the service totals as Prometheus text
/// with summary quantiles and no per-job series. After 20 more jobs,
/// `stats` has the same key paths and `metrics` as many lines: the
/// daemon's telemetry does not grow with the jobs it serves.
#[test]
fn epocd_stats_and_metrics_attribute_jobs() {
    let job = "{\"id\":1,\"bench\":\"qaoa_n6\"}\n";
    let probe = "{\"cmd\":\"stats\"}\n{\"cmd\":\"metrics\"}\n";
    let input = [&job.repeat(2), probe, &job.repeat(20), probe, "{\"cmd\":\"shutdown\"}\n"];
    let (stdout, _) = run_epocd(&[], &input.concat());
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 27, "expected 27 response lines: {stdout}");

    let stats = parse_stats(lines[2]);
    let gauges = stats.get("gauges").expect("stats.gauges missing");
    assert_eq!(as_u64(gauges.get("epocd.inflight_jobs")), 0, "inflight after both jobs done");
    assert!(as_u64(gauges.get("pulse_lib.entries")) > 0, "no library entries gauge");
    assert!(as_u64(gauges.get("pulse_lib.resident_bytes")) > 0, "no resident bytes gauge");
    assert_eq!(
        as_u64(gauges.get("pulse_lib.entries")),
        as_u64(stats.get("library_entries")),
        "entries gauge disagrees with the store's own count"
    );
    assert_eq!(
        as_u64(gauges.get("pulse_lib.resident_bytes")),
        as_u64(stats.get("library_bytes")),
        "resident-bytes gauge disagrees with the store's own accounting"
    );

    let lat = stats
        .get("percentiles")
        .and_then(|p| p.get("epocd.job_latency_ns"))
        .expect("no job-latency percentiles");
    assert_eq!(as_u64(lat.get("count")), 2);
    let (p50, p95, p99) = (as_u64(lat.get("p50")), as_u64(lat.get("p95")), as_u64(lat.get("p99")));
    assert!(p50 > 0 && p50 <= p95 && p95 <= p99, "bad quantile order: {p50} {p95} {p99}");

    let stages = |line: &str| Json::parse(line).unwrap().get("report").unwrap().get("stages").cloned();
    let (job1, job2) = (stages(lines[0]).unwrap(), stages(lines[1]).unwrap());
    assert!(as_u64(job1.get("cache_misses")) > 0, "job 1 (cold) shows no misses: {job1:?}");
    assert!(as_u64(job1.get("grape_iterations")) > 0, "job 1 (cold) shows no GRAPE work");
    assert_eq!(as_u64(job2.get("cache_misses")), 0, "job 2 (warm) shows misses: {job2:?}");
    assert_eq!(as_u64(job2.get("grape_iterations")), 0, "job 2 (warm) shows GRAPE work");
    assert!(as_u64(job2.get("cache_hits")) > 0, "job 2 (warm) shows no hits");

    let metrics = Json::parse(lines[3])
        .expect("metrics response is not JSON")
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics response lacks the text field")
        .to_string();
    assert!(metrics.contains("# TYPE epoc_epocd_jobs counter"), "{metrics}");
    assert!(metrics.contains("epoc_epocd_jobs 2"), "{metrics}");
    assert!(metrics.contains("# TYPE epoc_pulse_lib_resident_bytes gauge"), "{metrics}");
    assert!(
        metrics.contains("epoc_epocd_job_latency_ns{quantile=\"0.99\"}"),
        "no p99 summary sample: {metrics}"
    );
    assert!(!metrics.contains("job=\""), "per-job series in the exposition: {metrics}");

    assert!(lines[24].contains(r#""jobs":22,"#), "{}", lines[24]);
    // Every `stats` value is an integer, so without its digits the answer
    // is its key paths at every nesting level.
    let keys = |stats: &str| stats.replace(|c: char| c.is_ascii_digit(), "");
    assert_eq!(keys(lines[2]), keys(lines[24]), "stats grew with the jobs served");
    let exposition = |line: &str| Json::parse(line).unwrap().get("metrics").cloned();
    let count = |line| exposition(line).as_ref().and_then(Json::as_str).map(|m| m.lines().count());
    assert_eq!(count(lines[3]), count(lines[25]), "metrics grew with the jobs served");
}

/// Cold→warm restart, watched through the observability surface: the
/// cold daemon's stats show misses and a populated library; the warm
/// daemon starts with the entries/resident-bytes gauges already loaded
/// and serves its job hit-only. Job ids restart with the process — both
/// logs attribute their lines to job 1.
#[test]
fn gauges_move_across_cold_warm_restart_and_jobs_hit_the_log() {
    let lib = temp_path("restart-lib.json");
    let cold_log = temp_path("cold.jsonl");
    let warm_log = temp_path("warm.jsonl");
    std::fs::remove_file(&lib).ok();

    let lib_s = lib.to_str().unwrap().to_string();
    let (cold_out, _) = run_epocd(
        &["--library", &lib_s, "--log", cold_log.to_str().unwrap()],
        concat!(
            r#"{"id":7,"bench":"qaoa_n6"}"#, "\n",
            r#"{"cmd":"stats"}"#, "\n",
            r#"{"cmd":"shutdown"}"#, "\n",
        ),
    );
    let cold_stats = parse_stats(cold_out.lines().nth(1).unwrap());
    let cold_entries = as_u64(cold_stats.get("library_entries"));
    assert!(cold_entries > 0);
    assert!(as_u64(cold_stats.get("cache_misses")) > 0, "cold run never missed");

    let (warm_out, stderr) = run_epocd(
        &["--library", &lib_s, "--log", warm_log.to_str().unwrap()],
        concat!(
            r#"{"cmd":"stats"}"#, "\n",
            r#"{"id":8,"bench":"qaoa_n6"}"#, "\n",
            r#"{"cmd":"stats"}"#, "\n",
            r#"{"cmd":"shutdown"}"#, "\n",
        ),
    );
    assert!(stderr.contains("warm-started"), "no warm start: {stderr}");
    let warm_lines: Vec<&str> = warm_out.lines().collect();
    // Before any job: the load already drove the resident gauges up.
    let preload = parse_stats(warm_lines[0]);
    let pre_gauges = preload.get("gauges").expect("gauges missing");
    assert_eq!(
        as_u64(pre_gauges.get("pulse_lib.entries")),
        cold_entries,
        "warm start did not restore the entries gauge"
    );
    assert!(as_u64(pre_gauges.get("pulse_lib.resident_bytes")) > 0);
    assert_eq!(as_u64(preload.get("cache_misses")), 0);
    // After the job: hits moved, misses did not.
    let after = parse_stats(warm_lines[2]);
    assert_eq!(as_u64(after.get("cache_misses")), 0, "warm daemon missed");
    assert!(as_u64(after.get("cache_hits")) > 0, "warm daemon never hit");

    // Both logs carry job-scoped lifecycle events for *their* job 1.
    for (path, req_id) in [(&cold_log, 7.0), (&warm_log, 8.0)] {
        let text = std::fs::read_to_string(path).unwrap();
        let entries: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let admitted = entries
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("job.admitted"))
            .unwrap_or_else(|| panic!("{}: no job.admitted", path.display()));
        assert_eq!(admitted.get("job").and_then(Json::as_f64), Some(1.0));
        assert_eq!(admitted.get("request_id").and_then(Json::as_f64), Some(req_id));
        let done = entries
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("job.done"))
            .unwrap_or_else(|| panic!("{}: no job.done", path.display()));
        assert_eq!(done.get("job").and_then(Json::as_f64), Some(1.0));
        assert!(
            entries.iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some("checkpoint.saved")
            }),
            "{}: checkpoint outcome never logged",
            path.display()
        );
    }
    // The cold log recorded misses for job 1; the warm log recorded none.
    let cold_done = std::fs::read_to_string(&cold_log).unwrap();
    assert!(cold_done.contains(r#""event":"job.done""#));
    let warm_done_line = std::fs::read_to_string(&warm_log)
        .unwrap()
        .lines()
        .find(|l| l.contains(r#""event":"job.done""#))
        .map(str::to_string)
        .unwrap();
    assert!(warm_done_line.contains(r#""cache_misses":0"#), "{warm_done_line}");

    std::fs::remove_file(&lib).ok();
    std::fs::remove_file(&cold_log).ok();
    std::fs::remove_file(&warm_log).ok();
}

/// `trace_check` accepts the real artifacts and rejects doctored ones —
/// the validator the CI `obs-smoke` step leans on must itself be tested.
#[test]
fn trace_check_validates_logs_and_metrics() {
    let check = env!("CARGO_BIN_EXE_trace_check");
    let log = temp_path("check.jsonl");
    let metrics_line = temp_path("check-metrics.json");

    let (stdout, _) = run_epocd(
        &["--log", log.to_str().unwrap()],
        concat!(
            r#"{"id":1,"bench":"ghz_n4"}"#, "\n",
            r#"{"cmd":"metrics"}"#, "\n",
            r#"{"cmd":"shutdown"}"#, "\n",
        ),
    );
    std::fs::write(&metrics_line, stdout.lines().nth(1).unwrap()).unwrap();

    let ok = Command::new(check)
        .args(["--require-jobs", "--log"])
        .arg(&log)
        .arg("--metrics")
        .arg(&metrics_line)
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "trace_check rejected valid artifacts: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // A log whose lines never carry a job id must fail --require-jobs.
    let jobless = temp_path("jobless.jsonl");
    std::fs::write(
        &jobless,
        "{\"ts_ns\":1,\"level\":\"info\",\"event\":\"batch.begin\",\"size\":1}\n",
    )
    .unwrap();
    let bad = Command::new(check).args(["--require-jobs", "--log"]).arg(&jobless).output().unwrap();
    assert!(!bad.status.success(), "trace_check accepted a job-free log");

    // A per-job series fails --require-jobs: it grows with every job.
    let per_job = temp_path("per-job.prom");
    let prom = "# TYPE epoc_x summary\nepoc_x{quantile=\"0.5\"} 1\nepoc_x{job=\"1\"} 1\n";
    std::fs::write(&per_job, prom).unwrap();
    let mut bad = Command::new(check);
    bad.args(["--require-jobs", "--log"]).arg(&log).arg("--metrics").arg(&per_job);
    assert!(!bad.output().unwrap().status.success(), "trace_check accepted a per-job series");

    // Truncated exposition (no samples) must fail.
    let empty = temp_path("empty.prom");
    std::fs::write(&empty, "# TYPE epoc_x counter\n").unwrap();
    let bad = Command::new(check).arg("--metrics").arg(&empty).output().unwrap();
    assert!(!bad.status.success(), "trace_check accepted a sample-free exposition");

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&metrics_line).ok();
    std::fs::remove_file(&jobless).ok();
    std::fs::remove_file(&per_job).ok();
    std::fs::remove_file(&empty).ok();
}

/// `epocc --metrics-file` writes a standalone Prometheus exposition that
/// `trace_check --metrics` accepts (one-shot compiles carry no job ids,
/// so no `--require-jobs` here — that's the daemon's dimension).
#[test]
fn epocc_metrics_file_is_valid_exposition() {
    let epocc = env!("CARGO_BIN_EXE_epocc");
    let check = env!("CARGO_BIN_EXE_trace_check");
    let path = temp_path("epocc.prom");
    let out = Command::new(epocc)
        .args(["--grape", "0", "--metrics-file"])
        .arg(&path)
        .arg("bench:ghz_n4")
        .output()
        .unwrap();
    assert!(out.status.success(), "epocc failed: {out:?}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("# TYPE epoc_pulse_lib_misses counter"), "{text}");
    assert!(text.contains("quantile=\"0.5\""), "no summary quantiles: {text}");
    let ok = Command::new(check).arg("--metrics").arg(&path).output().unwrap();
    assert!(
        ok.status.success(),
        "trace_check rejected epocc metrics: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    std::fs::remove_file(&path).ok();
}
