//! The benchmark's own span recorder.
//!
//! Spans are opened around the benchmark's calls into each crate's public
//! functions and kept in memory (name, category, start, end, parent, job);
//! nothing inside the compiler is instrumented. At exit the spans are
//! written as the Chrome trace-event JSON that `epoc_rt::telemetry`
//! exports, so the repository's `trace_check` validates them, and rolled
//! up into per-layer self time.

use epoc_rt::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanRec {
    cat: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    depth: u32,
    job: u64,
    tid: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

fn lock() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    recorder()
        .spans
        .lock()
        .expect("span recorder lock is never held across a panic")
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ON.store(true, Ordering::SeqCst);
}

/// Suspends recording until the guard drops.
pub struct Pause(bool);

pub fn pause() -> Pause {
    Pause(ON.swap(false, Ordering::SeqCst))
}

impl Drop for Pause {
    fn drop(&mut self) {
        ON.store(self.0, Ordering::SeqCst);
    }
}

/// An open span; records its end when dropped.
#[must_use = "a span records its interval when dropped"]
pub struct Span(Option<usize>);

/// Opens a span under the innermost open span of this thread.
pub fn span(cat: &'static str, name: impl Into<String>) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span(None);
    }
    let (parent, depth) = STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied(), s.len() as u32)
    });
    let rec = SpanRec {
        cat,
        name: name.into(),
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        depth,
        job: JOB.with(Cell::get),
        tid: tid(),
    };
    let id = {
        let mut spans = lock();
        spans.push(rec);
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(id))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        let end = now_ns();
        lock()[id].end_ns = end;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.truncate(pos);
            }
        });
    }
}

/// Attributes spans opened on this thread to `job` while alive.
pub struct JobScope(u64);

impl JobScope {
    pub fn enter(job: u64) -> Self {
        JobScope(JOB.with(|j| j.replace(job)))
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        JOB.with(|j| j.set(self.0));
    }
}

/// The layer a span's time belongs to: the workspace crate it calls into.
fn layer(cat: &str, name: &str) -> &'static str {
    match (cat, name) {
        ("stage", "zx") | ("zx", _) => "zx",
        ("stage", "partition" | "regroup") | ("partition", _) => "partition",
        ("stage", "synth") | ("synth", _) => "synth",
        ("stage", "pulse") | ("pulse", _) => "pulse",
        ("qoc", _) => "qoc",
        ("linalg", _) => "linalg",
        ("circuit", "verify") => "circuit.verify",
        ("circuit", _) => "circuit",
        ("sim", _) => "sim",
        ("library", _) => "library",
        ("epocd", _) => "epocd",
        ("job", _) => "epoc",
        _ => "other",
    }
}

/// Self time per span: its duration minus the union of its children's
/// intervals (children on other threads included).
fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer self time (seconds) over every recorded span, plus the total
/// duration of the top-level `job` spans.
pub struct Rollup {
    pub self_s: BTreeMap<&'static str, f64>,
    pub job_s: f64,
    pub spans: usize,
}

impl Rollup {
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }
}

pub fn rollup() -> Rollup {
    let spans = lock().clone();
    let selfs = self_times(&spans);
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut job_s = 0.0;
    for (s, &t) in spans.iter().zip(&selfs) {
        *self_s.entry(layer(s.cat, &s.name)).or_insert(0.0) += t as f64 * 1e-9;
        if s.cat == "job" {
            job_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    Rollup {
        self_s,
        job_s,
        spans: spans.len(),
    }
}

/// The recorded spans as a Chrome trace-event document in the layout of
/// `epoc_rt::telemetry::chrome_trace` (`args.parent` added).
pub fn chrome_trace() -> Json {
    let spans = lock().clone();
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut args = Json::obj()
                .push("depth", u64::from(s.depth))
                .push("ts_ns", s.start_ns)
                .push("dur_ns", dur)
                .push("job", s.job)
                .push("id", i);
            if let Some(p) = s.parent {
                args = args.push("parent", p);
            }
            Json::obj()
                .push("name", s.name.as_str())
                .push("cat", s.cat)
                .push("ph", "X")
                .push("ts", s.start_ns as f64 / 1e3)
                .push("dur", dur as f64 / 1e3)
                .push("pid", 1u64)
                .push("tid", s.tid)
                .push("args", args)
        })
        .collect();
    Json::obj()
        .push("traceEvents", Json::Arr(events))
        .push("displayTimeUnit", "ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            cat: "job",
            name: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            depth: 0,
            job: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            rec(0, 100, None),
            rec(10, 40, Some(0)),
            rec(30, 50, Some(0)),
            rec(90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10);
        assert_eq!(t[1], 30);
    }
}
