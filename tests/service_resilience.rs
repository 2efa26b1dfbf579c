//! Service-resilience suite: the write-ahead journal (property-tested
//! replay, torn-tail recovery at every truncation offset, kill -9
//! losslessness, torn appends) and epocd's admission control, panic
//! isolation, and graceful shutdown drain, on stdin and on a socket.

use epoc_circuit::Gate;
use epoc_qoc::{
    load_library_file, save_library_file, JournalWriter, KeyPolicy, PulseEntry, PulseLibrary,
};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("epoc-resilience-{}-{name}", std::process::id()))
}

fn entry(duration: f64, fidelity: f64, n_slots: usize) -> PulseEntry {
    PulseEntry { duration, fidelity, n_slots, waveform: None }
}

/// Replaying a journal reproduces the library that wrote it, for random
/// insert sequences (repeated keys overwrite, in both worlds). The
/// comparison is the canonical library file — byte equality, not just
/// entry counts.
#[test]
fn replayed_journal_reproduces_the_library() {
    epoc_rt::check::property("journal replay == direct inserts")
        .cases(24)
        .run(|g| {
            let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
            let path = temp_path("prop.jsonl");
            std::fs::remove_file(&path).ok();
            let journal = std::sync::Arc::new(JournalWriter::open_append(&path).unwrap());
            let sink = std::sync::Arc::clone(&journal);
            lib.set_insert_observer(Some(std::sync::Arc::new(move |key, e| {
                sink.append("grape", key, e).unwrap();
            })));
            let n = g.usize_in(1, 12);
            for _ in 0..n {
                // A small pool of distinct unitaries so overwrites occur.
                let u = match g.usize_in(0, 4) {
                    0 => Gate::H.unitary_matrix(),
                    1 => Gate::X.unitary_matrix(),
                    2 => Gate::Sx.unitary_matrix(),
                    3 => Gate::RZ(0.375).unitary_matrix(),
                    _ => Gate::RZ(1.5).unitary_matrix(),
                };
                let dur = g.f64_in(10.0, 500.0).round();
                lib.insert(&u, entry(dur, 0.999, dur as usize));
            }
            journal.sync().unwrap();

            let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
            let applied = load_library_file(&path, &[("grape", &restored)]).unwrap();
            assert_eq!(applied, n, "every journaled insert must apply");
            assert_eq!(restored.len(), lib.len());

            let file_a = temp_path("prop-a.json");
            let file_b = temp_path("prop-b.json");
            save_library_file(&file_a, &[("grape", &lib)]).unwrap();
            save_library_file(&file_b, &[("grape", &restored)]).unwrap();
            assert_eq!(
                std::fs::read_to_string(&file_a).unwrap(),
                std::fs::read_to_string(&file_b).unwrap(),
                "replayed library differs from the original"
            );
            for p in [&path, &file_a, &file_b] {
                std::fs::remove_file(p).ok();
            }
        });
}

/// Truncating the journal at EVERY byte offset — simulating a crash at
/// any point of an append — always recovers the longest prefix of fully
/// written records, and never errors: a torn tail is expected damage,
/// not corruption.
#[test]
fn truncation_at_every_offset_recovers_the_prefix() {
    let lib = PulseLibrary::new(KeyPolicy::PhaseAware);
    let path = temp_path("trunc-src.jsonl");
    std::fs::remove_file(&path).ok();
    let journal = JournalWriter::open_append(&path).unwrap();
    let unitaries = [
        Gate::H.unitary_matrix(),
        Gate::X.unitary_matrix(),
        Gate::Sx.unitary_matrix(),
    ];
    for (i, u) in unitaries.iter().enumerate() {
        journal.append("grape", &lib.cache_key(u), &entry(20.0 + i as f64, 0.999, 16)).unwrap();
    }
    journal.sync().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Record boundaries: byte offsets just past each newline.
    let boundaries: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
        .collect();
    assert_eq!(boundaries.len(), 3);

    let cut_path = temp_path("trunc-cut.jsonl");
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let restored = PulseLibrary::new(KeyPolicy::PhaseAware);
        let applied = load_library_file(&cut_path, &[("grape", &restored)])
            .unwrap_or_else(|e| panic!("cut at {cut}: replay errored: {e}"));
        // Complete records in the prefix: every boundary <= cut, plus a
        // tail that is a whole record merely missing its newline (cut
        // exactly one byte short of a boundary).
        let whole = boundaries.iter().filter(|&&b| b <= cut).count();
        let tail_is_whole_record = boundaries.contains(&(cut + 1));
        let expected = whole + usize::from(tail_is_whole_record);
        assert_eq!(applied, expected, "cut at {cut} applied the wrong record count");
        assert_eq!(restored.len(), expected, "cut at {cut}: wrong library size");
        // Replay is idempotent after its own truncation repair.
        let again = PulseLibrary::new(KeyPolicy::PhaseAware);
        assert_eq!(load_library_file(&cut_path, &[("grape", &again)]).unwrap(), expected);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut_path).ok();
}

/// Spawns epocd reading from a pipe, returning the child plus its stdin
/// and a buffered reader over its stdout.
fn spawn_epocd(args: &[&str]) -> (Child, std::process::ChildStdin, BufReader<std::process::ChildStdout>) {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    (child, stdin, stdout)
}

/// `kill -9` mid-batch loses zero completed inserts: the journaled
/// library fully reconstructs on restart — the warm job misses nothing
/// and runs zero GRAPE iterations, with no checkpoint ever written.
#[test]
fn kill_nine_mid_batch_loses_no_completed_inserts() {
    let lib = temp_path("kill9-lib.json");
    let journal = temp_path("kill9-journal.jsonl");
    std::fs::remove_file(&lib).ok();
    std::fs::remove_file(&journal).ok();
    let lib_s = lib.to_str().unwrap();
    let journal_s = journal.to_str().unwrap();

    let (mut child, mut stdin, mut stdout) = spawn_epocd(&[
        "--grape", "1", "--no-regroup", "--library", lib_s, "--journal", journal_s,
    ]);
    writeln!(stdin, r#"{{"id":1,"bench":"qaoa_n6"}}"#).unwrap();
    stdin.flush().unwrap();
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "cold job failed: {line}");
    // The job answered; its inserts are in the journal. Kill the daemon
    // before any checkpoint (stdin stays open, so no EOF checkpoint).
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(!lib.exists(), "a checkpoint ran — the test would prove nothing");
    assert!(journal.exists() && journal.metadata().unwrap().len() > 0, "journal is empty");

    let (child, mut stdin, mut stdout) = spawn_epocd(&[
        "--grape", "1", "--no-regroup", "--library", lib_s, "--journal", journal_s,
    ]);
    writeln!(stdin, r#"{{"id":2,"bench":"qaoa_n6"}}"#).unwrap();
    writeln!(stdin, r#"{{"cmd":"shutdown"}}"#).unwrap();
    drop(stdin);
    let mut warm = String::new();
    stdout.read_line(&mut warm).unwrap();
    assert!(warm.contains(r#""ok":true"#), "warm job failed: {warm}");
    assert!(
        warm.contains(r#""cache_misses":0"#),
        "journal replay lost completed inserts: {warm}"
    );
    assert!(
        warm.contains(r#""grape_iterations":0"#),
        "warm restart re-ran GRAPE: {warm}"
    );
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replayed"), "no journal replay reported: {stderr}");
    // Shutdown checkpointed, which compacts the journal.
    assert!(lib.exists());
    assert_eq!(journal.metadata().unwrap().len(), 0, "checkpoint did not compact");
    std::fs::remove_file(&lib).ok();
    std::fs::remove_file(&journal).ok();
}

/// Sends one request line and reads its one response line.
fn request(out: &mut impl Write, input: &mut impl BufRead, line: &str) -> String {
    writeln!(out, "{line}").unwrap();
    out.flush().unwrap();
    let mut resp = String::new();
    input.read_line(&mut resp).unwrap();
    resp
}

/// `--checkpoint-every 1` checkpoints after a job that missed the cache
/// and not after one served wholly from the library, which inserted
/// nothing: the log holds exactly one `checkpoint.saved` event, the warm
/// job leaves the library file's bytes as they were, and the journal
/// stays compacted.
#[test]
fn checkpoint_every_skips_jobs_that_insert_nothing() {
    let lib = temp_path("every-lib.json");
    let journal = temp_path("every-journal.jsonl");
    let log = temp_path("every.log");
    for p in [&lib, &journal, &log] {
        std::fs::remove_file(p).ok();
    }
    let (child, mut stdin, mut stdout) = spawn_epocd(&[
        "--grape", "1", "--no-regroup",
        "--library", lib.to_str().unwrap(),
        "--journal", journal.to_str().unwrap(),
        "--checkpoint-every", "1",
        "--log", log.to_str().unwrap(),
    ]);
    // One request in flight at a time, so each job is a batch of its own;
    // the `stats` round trip after a job waits out its batch's checkpoint.
    let cold = request(&mut stdin, &mut stdout, r#"{"id":1,"bench":"qaoa_n6"}"#);
    assert!(cold.contains(r#""ok":true"#), "cold job failed: {cold}");
    assert!(!cold.contains(r#""cache_misses":0"#), "cold job never missed: {cold}");
    request(&mut stdin, &mut stdout, r#"{"cmd":"stats"}"#);
    let checkpointed = std::fs::read(&lib).expect("the cold job was not checkpointed");
    let warm = request(&mut stdin, &mut stdout, r#"{"id":2,"bench":"qaoa_n6"}"#);
    assert!(warm.contains(r#""cache_misses":0"#), "warm job missed: {warm}");
    request(&mut stdin, &mut stdout, r#"{"cmd":"stats"}"#);
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());

    let saved = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .filter(|l| l.contains(r#""event":"checkpoint.saved""#))
        .count();
    assert_eq!(saved, 1, "expected one checkpoint, for the cold job");
    assert_eq!(std::fs::read(&lib).unwrap(), checkpointed, "the warm job rewrote the library");
    assert_eq!(journal.metadata().unwrap().len(), 0, "the journal holds uncheckpointed inserts");
    for p in [&lib, &journal, &log] {
        std::fs::remove_file(p).ok();
    }
}

/// `--queue-limit 1` under a burst: the in-flight job completes, the
/// burst behind it gets typed `queue_full` rejections, commands stay
/// exempt, and the stats line accounts for every rejection.
#[test]
fn queue_limit_sheds_typed_rejections() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "1", "--queue-limit", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for i in 1..=4 {
        writeln!(stdin, r#"{{"id":{i},"bench":"qaoa_n6"}}"#).unwrap();
    }
    writeln!(stdin, r#"{{"cmd":"stats"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "expected 5 response lines: {stdout}");
    let ok = lines.iter().filter(|l| l.contains(r#""ok":true,"report""#)).count();
    let shed = lines.iter().filter(|l| l.contains(r#""rejected":"queue_full""#)).count();
    assert!(ok >= 1, "no job completed under the flood: {stdout}");
    assert!(shed >= 1, "queue limit 1 never shed under a 4-job burst: {stdout}");
    assert_eq!(ok + shed, 4, "jobs neither completed nor typed-rejected: {stdout}");
    let stats = lines.last().unwrap();
    assert!(
        stats.contains(&format!(r#""rejected":{shed}"#)),
        "stats disagree with shed count {shed}: {stats}"
    );
}

/// A line with a `cmd` key is a command whatever the key's value: a
/// non-string `cmd` answers `unknown command` and never compiles, so it
/// cannot slip a job past `--queue-limit`.
#[test]
fn non_string_cmd_is_an_unknown_command_not_a_job() {
    let (mut child, mut stdin, stdout) = spawn_epocd(&["--grape", "0", "--queue-limit", "1"]);
    for i in 1..=4 {
        writeln!(stdin, r#"{{"id":{i},"cmd":5,"bench":"qaoa_n6"}}"#).unwrap();
    }
    writeln!(stdin, r#"{{"cmd":"stats"}}"#).unwrap();
    drop(stdin);
    let lines: Vec<String> = stdout.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(lines.len(), 5, "expected 5 response lines: {lines:?}");
    for line in &lines[..4] {
        assert!(
            line.contains(r#""ok":false"#) && line.contains("unknown command 5"),
            "non-string cmd was not answered as an unknown command: {line}"
        );
    }
    assert!(
        lines[4].contains(r#""jobs":0"#) && lines[4].contains(r#""rejected":0"#),
        "a non-string cmd compiled or was shed as a job: {}",
        lines[4]
    );
}

/// A line nested deeper than the JSON parser accepts is answered as an
/// unparseable request, not a stack overflow, and the daemon serves the
/// next job.
#[test]
fn deeply_nested_line_is_an_error_not_fatal() {
    let (mut child, mut stdin, stdout) = spawn_epocd(&["--grape", "0"]);
    writeln!(stdin, "{}", "[".repeat(20_000)).unwrap();
    writeln!(stdin, r#"{{"id":2,"bench":"ghz_n4"}}"#).unwrap();
    drop(stdin);
    let lines: Vec<String> = stdout.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success(), "daemon died on the deep line");
    assert_eq!(lines.len(), 2, "expected 2 response lines: {lines:?}");
    assert!(
        lines[0].contains(r#""ok":false"#) && lines[0].contains("unparseable request"),
        "deep line not answered as unparseable: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""id":2"#) && lines[1].contains(r#""ok":true"#),
        "daemon did not serve the job after the deep line: {}",
        lines[1]
    );
}

/// An oversized request line is shed with a typed rejection and the
/// daemon keeps serving the next (well-sized) job.
#[test]
fn oversized_line_is_rejected_not_fatal() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "0", "--line-limit", "256"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let big = format!(r#"{{"id":1,"qasm":"{}"}}"#, "x".repeat(1000));
    writeln!(stdin, "{big}").unwrap();
    writeln!(stdin, r#"{{"id":2,"bench":"ghz_n4"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "expected 2 response lines: {stdout}");
    assert!(
        lines[0].contains(r#""rejected":"oversized""#),
        "no typed oversized rejection: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""id":2"#) && lines[1].contains(r#""ok":true"#),
        "daemon did not survive the oversized line: {}",
        lines[1]
    );
}

/// A panicking job (injected via the `epocd.panic` fault point) answers
/// as a typed failure and the daemon keeps serving.
#[test]
fn panicking_job_fails_typed_daemon_survives() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "0", "--faults", "epocd.panic=n1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, r#"{{"id":1,"bench":"ghz_n4"}}"#).unwrap();
    writeln!(stdin, r#"{{"id":2,"bench":"ghz_n4"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon died with the panicking job");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "expected 2 response lines: {stdout}");
    assert!(
        lines[0].contains(r#""ok":false"#) && lines[0].contains("panicked"),
        "panic not surfaced as a typed failure: {}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""id":2"#) && lines[1].contains(r#""ok":true"#),
        "daemon did not keep serving after the panic: {}",
        lines[1]
    );
}

/// Jobs queued behind a `shutdown` are shed with typed `shutting_down`
/// rejections — never silently dropped.
#[test]
fn shutdown_drains_queued_jobs_with_typed_rejections() {
    let exe = env!("CARGO_BIN_EXE_epocd");
    let mut child = Command::new(exe)
        .args(["--grape", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    // Job 1 is slow enough that shutdown and job 2 queue up behind it.
    writeln!(stdin, r#"{{"id":1,"bench":"qaoa_n6"}}"#).unwrap();
    writeln!(stdin, r#"{{"cmd":"shutdown"}}"#).unwrap();
    writeln!(stdin, r#"{{"id":2,"bench":"qaoa_n6"}}"#).unwrap();
    // Keep stdin open: the drain must come from shutdown, not EOF.
    let out_handle = std::thread::spawn(move || child.wait_with_output().unwrap());
    let out = out_handle.join().unwrap();
    drop(stdin);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "expected 3 response lines: {stdout}");
    assert!(lines[0].contains(r#""id":1"#) && lines[0].contains(r#""ok":true"#));
    assert!(lines[1].contains(r#""ok":true"#), "shutdown ack missing: {}", lines[1]);
    assert!(
        lines[2].contains(r#""id":2"#) && lines[2].contains(r#""rejected":"shutting_down""#),
        "queued job was not typed-rejected on drain: {}",
        lines[2]
    );
}

/// A torn journal append (the `pulse_lib.journal` fault tears the first)
/// loses only its own record: the next append cuts it off instead of
/// gluing onto it, so a restart replays every later record and moves
/// nothing aside.
#[test]
fn torn_journal_append_loses_only_that_record() {
    let (journal, aside) = (temp_path("torn.jsonl"), temp_path("torn.jsonl.corrupt"));
    for p in [&journal, &aside] {
        std::fs::remove_file(p).ok();
    }
    let flags = ["--grape", "1", "--no-regroup", "--journal", journal.to_str().unwrap()];
    let run = |faults: &[&str]| {
        let (child, mut stdin, mut stdout) = spawn_epocd(&[&flags[..], faults].concat());
        let resp = request(&mut stdin, &mut stdout, r#"{"id":1,"bench":"qaoa_n6"}"#);
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        (resp, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    run(&["--faults", "pulse_lib.journal=n1"]);
    let whole = std::fs::read_to_string(&journal).unwrap().lines().count();
    let (warm, stderr) = run(&[]);
    assert!(!aside.exists(), "the journal was moved aside: {stderr}");
    assert!(whole > 0 && stderr.contains(&format!("replayed {whole} pulses")), "{stderr}");
    assert!(warm.contains(r#""cache_misses":1,"#), "not only the torn record missed: {warm}");
    std::fs::remove_file(&journal).ok();
}

/// Starts `epocd --socket sock ARGS` and connects once it listens. The
/// daemon's pipes are returned to stay open: `eprintln!` panics on a
/// closed stderr.
#[cfg(unix)]
fn socket_epocd(
    sock: &std::path::Path,
    args: &[&str],
) -> (Child, impl Sized, std::os::unix::net::UnixStream, impl BufRead) {
    std::fs::remove_file(sock).ok();
    let (mut child, stdin, stdout) = spawn_epocd(&[&["--socket", sock.to_str().unwrap()], args].concat());
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    while !line.contains("listening on") {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "epocd exited before listening");
    }
    let stream = std::os::unix::net::UnixStream::connect(sock).unwrap();
    (child, (stdin, stdout, stderr), stream.try_clone().unwrap(), BufReader::new(stream))
}

/// `--socket PATH` refuses a PATH that holds a regular file (exit 2,
/// file untouched), and a long-lived socket connection is served like
/// stdin. After a cold job, the next round trip on the same connection
/// finds its batch ended: the `--checkpoint-every 1` checkpoint written
/// and the journal compacted. An oversized line answers `oversized`, a
/// burst past `--queue-limit` answers `queue_full`, and `shutdown`
/// checkpoints, still answers the job queued behind it, exits 0 and
/// removes the socket.
#[cfg(unix)]
#[test]
fn socket_is_served_like_stdin_and_spares_other_files() {
    let (sock, lib, journal) =
        (temp_path("serve.sock"), temp_path("socket-lib.json"), temp_path("socket.jsonl"));
    for p in [&lib, &journal] {
        std::fs::remove_file(p).ok();
    }
    std::fs::write(&sock, "precious").unwrap();
    let (mut child, _stdin, _stdout) = spawn_epocd(&["--socket", sock.to_str().unwrap()]);
    let mut first = String::new();
    BufReader::new(child.stderr.take().unwrap()).read_line(&mut first).unwrap();
    if first.contains("listening on") {
        child.kill().ok();
    }
    let status = child.wait().unwrap();
    assert!(first.starts_with("error:") && status.code() == Some(2), "{first} {status}");
    assert_eq!(std::fs::read_to_string(&sock).unwrap(), "precious");

    let (lib_s, journal_s) = (lib.to_str().unwrap(), journal.to_str().unwrap());
    let (mut child, _pipes, mut out, mut input) = socket_epocd(
        &sock,
        &["--grape", "1", "--no-regroup", "--library", lib_s, "--journal", journal_s,
          "--checkpoint-every", "1", "--queue-limit", "1", "--line-limit", "256"],
    );
    let cold = request(&mut out, &mut input, r#"{"id":1,"bench":"bell_n4"}"#);
    let stats = request(&mut out, &mut input, r#"{"cmd":"stats"}"#);
    // Observed with the connection open, asserted once the daemon has
    // exited, so a failure leaves no daemon behind.
    let (checkpointed, journal_len) = (lib.exists(), journal.metadata().map(|m| m.len()).ok());
    let mut burst = format!("{{\"id\":0,\"qasm\":\"{}\"}}\n", "x".repeat(1000));
    for i in 2..=5 {
        burst += &format!("{{\"id\":{i},\"bench\":\"qaoa_n6\"}}\n");
    }
    burst += "{\"cmd\":\"shutdown\"}\n{\"id\":6,\"bench\":\"qaoa_n6\"}\n";
    out.write_all(burst.as_bytes()).unwrap();
    let lines: Vec<String> = input.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success());
    assert!(!cold.contains(r#""cache_misses":0"#), "cold job never missed: {cold}");
    assert!(!stats.contains(r#""batches":0"#), "no batch ended: {stats}");
    assert!(checkpointed, "no checkpoint while the connection was open");
    assert_eq!(journal_len, Some(0), "the journal was not compacted");
    assert_eq!(lines.len(), 7, "expected 7 burst responses: {lines:?}");
    assert!(lines[0].contains(r#""rejected":"oversized""#), "{}", lines[0]);
    let ok = lines[1..5].iter().filter(|l| l.contains(r#""ok":true,"report""#)).count();
    let shed = lines[1..5].iter().filter(|l| l.contains(r#""rejected":"queue_full""#)).count();
    assert!(ok >= 1 && shed >= 1 && ok + shed == 4, "queue limit 1, 4-job burst: {lines:?}");
    assert!(lines[5].contains(r#""checkpoint""#), "shutdown did not checkpoint: {}", lines[5]);
    assert!(lines[6].contains(r#""id":6"#) && lines[6].contains("rejected"), "{}", lines[6]);
    assert!(!sock.exists(), "the socket file outlived the daemon");
    for p in [&lib, &journal] {
        std::fs::remove_file(p).ok();
    }
}
