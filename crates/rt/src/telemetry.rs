//! Hermetic tracing and metrics for the EPOC pipeline and the `epocd`
//! compilation service.
//!
//! A dependency-free replacement for the `tracing` + `metrics` +
//! `tracing-chrome` stack, small enough to audit in one sitting:
//!
//! * **Spans** — [`span`] returns an RAII guard; dropping it records a
//!   complete interval (name, category, thread id, nesting depth, start,
//!   duration) into the global registry. Nesting is tracked per thread, so
//!   a GRAPE span opened inside the pulse stage shows up one level deeper.
//! * **Job scopes** — [`TelemetryScope::enter`] tags the current thread
//!   with a job (correlation) id; every span event and log line recorded
//!   under it carries that id, and `epoc_rt::pool` propagates the id into
//!   its worker threads, so service jobs stay distinguishable in one
//!   shared registry.
//! * **Counters** — [`counter_add`] accumulates monotonically. Addition is
//!   commutative, so totals are *deterministic at any worker count* even
//!   though worker threads race on the registry lock — the property that
//!   lets the instrumented pipeline keep its byte-identical-report
//!   guarantee. Counters are keyed by name only, so a long-running
//!   service's registry does not grow with the jobs it serves.
//! * **Gauges** — [`gauge_set`]/[`gauge_add`] hold point-in-time levels
//!   (queue depth, inflight jobs, library resident bytes) that go up and
//!   down, unlike counters.
//! * **Histograms** — [`histogram_record`] buckets values on a log-2
//!   scale (bucket 0 holds zeros, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`),
//!   which covers nanoseconds-to-seconds and single-digit-to-millions
//!   counts with 65 fixed buckets and no allocation per sample.
//!   [`Histogram::percentile`] extracts p50/p95/p99 summaries at bucket
//!   resolution.
//! * **Structured log** — [`log_open`] arms a JSONL event sink
//!   (`{"ts_ns":…,"level":"info","job":…,"event":…,…}` per line) that
//!   services write operational events to; see [`log_event`].
//!
//! Everything is **off by default**: until [`enable`] is called, every
//! entry point is a single relaxed atomic load and an immediate return —
//! no lock, no allocation, no `Instant::now()`. Instrumented hot loops
//! therefore cost nothing in production runs.
//!
//! The registry exports to Chrome trace-event JSON ([`chrome_trace`],
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>), to a
//! human-readable text dump ([`metrics_text`]), and to Prometheus
//! exposition text ([`prometheus_text`]). Timestamps are relative to the
//! [`enable`]/[`reset`] epoch; exact integer nanoseconds ride along in
//! each event's `args` so tooling can assert on nesting without
//! floating-point slop.

use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Global on/off switch. Relaxed is enough: toggling enablement is not a
/// synchronization point, it only gates future recording.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span-event retention switch (see [`set_span_capture`]): when off,
/// spans still time out their RAII guards and bump depth bookkeeping,
/// but no [`SpanEvent`] is retained — services keep memory bounded.
static SPANS_ON: AtomicBool = AtomicBool::new(true);

/// Monotonic source of small per-thread ids (0 is reserved for "main",
/// i.e. whichever thread touches telemetry first).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small dense id for this thread (Chrome traces want integers, and
    /// `std::thread::ThreadId` has no stable integer accessor).
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Job (correlation) id attributed to spans and log lines recorded on
    /// this thread. 0 = unattributed.
    static JOB: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != u64::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// The job id attributed to telemetry recorded on this thread (0 when no
/// [`TelemetryScope`] is active). `epoc_rt::pool` reads this on the
/// dispatching thread and replicates it into its workers, so fanned-out
/// work inherits the dispatcher's attribution.
#[inline]
pub fn current_job() -> u64 {
    JOB.with(Cell::get)
}

/// RAII job scope: while the guard lives, spans and log lines on this
/// thread (and on pool workers computing on its behalf) are attributed
/// to `job`. Scopes nest; dropping restores the previous id.
///
/// Job ids are caller-assigned correlation ids — `epocd` uses a per-job
/// monotone sequence number. Id 0 means "unattributed" and is what
/// threads outside any scope record.
#[must_use = "a scope attributes telemetry only while it is alive"]
pub struct TelemetryScope {
    prev: u64,
}

impl TelemetryScope {
    /// Enters a job scope on the current thread.
    pub fn enter(job: u64) -> Self {
        let prev = JOB.with(|j| j.replace(job));
        TelemetryScope { prev }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        JOB.with(|j| j.set(self.prev));
    }
}

/// One completed span interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `"grape"`).
    pub name: &'static str,
    /// Category (e.g. `"qoc"`, `"stage"`).
    pub cat: &'static str,
    /// Start, in nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense thread id (0 = first thread to record).
    pub tid: u64,
    /// Nesting depth on its thread at the time the span opened.
    pub depth: u32,
    /// Job (correlation) id active when the span opened (0 when none).
    pub job: u64,
}

impl SpanEvent {
    /// End of the interval, in nanoseconds since the epoch. Saturating:
    /// a malformed clock (or a forged event near `u64::MAX`) clamps to
    /// `u64::MAX` instead of wrapping or panicking.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// A log-2 histogram: bucket 0 counts zeros, bucket `i ≥ 1` counts values
/// in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 65],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample seen.
    pub min: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        self.buckets[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The bucket index `value` falls into.
    pub fn bucket(value: u64) -> usize {
        match value {
            0 => 0,
            v => v.ilog2() as usize + 1,
        }
    }

    /// The largest value bucket `i` can hold: 0 for bucket 0, `2^i - 1`
    /// for `1 ≤ i < 64`, and `u64::MAX` for bucket 64.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`p` in `[0, 1]`) at log-2 bucket resolution: the
    /// upper edge of the first bucket whose cumulative count covers
    /// `ceil(p · count)` samples — i.e. a value at least `p` of the
    /// samples do not exceed. Returns 0 when the histogram is empty.
    /// Quantiles are a pure function of the bucket counts, so they are
    /// deterministic whenever the sample multiset is.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the edge to the observed extremes so p100 never
                // overshoots max and tiny quantiles never undershoot min.
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

struct Registry {
    epoch: Instant,
    events: Vec<SpanEvent>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            events: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::new()))
}

/// Turns recording on. Idempotent; does not clear previous data (call
/// [`reset`] for a clean slate).
pub fn enable() {
    registry(); // arm the epoch before the first span can race it
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Spans already open still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Gates span-*event* retention independently of the main switch.
/// Counters, gauges, histograms, and the structured log keep recording;
/// only the per-span event list stops growing. A long-running service
/// (epocd) turns this off so its memory footprint stays bounded while
/// live metrics stay on — span capture is a bounded-run (epocc
/// `--trace`) tool. Defaults to on.
pub fn set_span_capture(on: bool) {
    SPANS_ON.store(on, Ordering::Relaxed);
}

/// `true` when recording is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded spans, counters, and histograms and re-arms the
/// timestamp epoch. Leaves the enabled flag untouched.
pub fn reset() {
    let mut r = registry().lock().unwrap();
    *r = Registry::new();
}

/// An RAII span guard returned by [`span`]. Dropping it records the
/// interval. When telemetry is disabled the guard is inert and
/// constructing + dropping it does no work at all.
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    /// `None` when telemetry was disabled at open time. The tuple is
    /// (start, name, cat, depth, job) — the job id is latched at open
    /// time so a scope exiting mid-span cannot re-attribute it.
    open: Option<(Instant, &'static str, &'static str, u32, u64)>,
}

impl Span {
    /// An inert span (what [`span`] returns when disabled).
    pub const fn disabled() -> Self {
        Span { open: None }
    }

    /// `true` when this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((start, name, cat, depth, job)) = self.open.take() else {
            return;
        };
        let dur = start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if !SPANS_ON.load(Ordering::Relaxed) {
            return;
        }
        let tid = thread_id();
        let mut r = registry().lock().unwrap();
        let start_ns = start
            .checked_duration_since(r.epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        r.events.push(SpanEvent {
            name,
            cat,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            tid,
            depth,
            job,
        });
    }
}

/// Opens a span named `name` in category `cat`. Returns an RAII guard
/// that records the interval when dropped. When telemetry is disabled
/// this is one atomic load and returns an inert guard.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !is_enabled() {
        return Span::disabled();
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span {
        open: Some((Instant::now(), name, cat, depth, current_job())),
    }
}

/// Adds `delta` to the counter `name`. Counters merge by addition, so the
/// total is deterministic regardless of which thread recorded what. When
/// telemetry is disabled this is one atomic load.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    let mut r = registry().lock().unwrap();
    *r.counters.entry(name).or_insert(0) += delta;
}

/// Sets the gauge `name` to `value`. A gauge is a point-in-time level
/// (queue depth, inflight jobs, resident bytes) — last write wins.
/// When telemetry is disabled this is one atomic load.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    let mut r = registry().lock().unwrap();
    r.gauges.insert(name, value);
}

/// Adjusts the gauge `name` by a signed `delta` (saturating). Deltas are
/// commutative, so independent sources (e.g. several pulse libraries)
/// can maintain one shared level gauge without coordination. When
/// telemetry is disabled this is one atomic load.
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    let mut r = registry().lock().unwrap();
    let g = r.gauges.entry(name).or_insert(0);
    *g = g.saturating_add(delta);
}

/// The current value of gauge `name` (0 when never touched).
pub fn gauge_value(name: &str) -> i64 {
    registry()
        .lock()
        .unwrap()
        .gauges
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Snapshot of all gauges, sorted by name.
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    registry()
        .lock()
        .unwrap()
        .gauges
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect()
}

/// Records `value` into the log-2 histogram `name`. When telemetry is
/// disabled this is one atomic load.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut r = registry().lock().unwrap();
    r.histograms.entry(name).or_default().record(value);
}

/// The current value of counter `name` (0 when never touched).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Snapshot of all counters, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    registry()
        .lock()
        .unwrap()
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect()
}

/// Snapshot of all histograms, sorted by name.
pub fn histograms_snapshot() -> Vec<(String, Histogram)> {
    registry()
        .lock()
        .unwrap()
        .histograms
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// The histogram named `name`, when it has recorded anything.
pub fn histogram(name: &str) -> Option<Histogram> {
    registry().lock().unwrap().histograms.get(name).cloned()
}

/// Snapshot of all recorded span events, in completion order.
pub fn events_snapshot() -> Vec<SpanEvent> {
    registry().lock().unwrap().events.clone()
}

/// Severity of a structured log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Routine operational events (job admission, checkpoints).
    Info,
    /// Degraded-but-recovered events (recovery rungs, evictions).
    Warn,
    /// Failures (a job error, a failed checkpoint).
    Error,
}

impl LogLevel {
    /// The level's lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// Fast-path switch for the structured log, mirroring [`ENABLED`]: when
/// no sink is armed, [`log_event`] is one relaxed load.
static LOG_ON: AtomicBool = AtomicBool::new(false);

fn log_sink() -> &'static Mutex<Option<std::io::BufWriter<std::fs::File>>> {
    static SINK: OnceLock<Mutex<Option<std::io::BufWriter<std::fs::File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Arms the structured JSONL event log: every [`log_event`] appends one
/// compact JSON line to `path` (truncating any existing file). Logging is
/// independent of [`enable`] — a service can log operational events
/// without recording spans.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be created.
pub fn log_open(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    registry(); // arm the epoch so ts_ns starts near zero
    *log_sink().lock().unwrap_or_else(|e| e.into_inner()) =
        Some(std::io::BufWriter::new(file));
    LOG_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flushes and disarms the structured log sink. Idempotent.
pub fn log_close() {
    LOG_ON.store(false, Ordering::Relaxed);
    if let Some(mut w) = log_sink().lock().unwrap_or_else(|e| e.into_inner()).take() {
        let _ = w.flush();
    }
}

/// `true` when a structured log sink is armed.
#[inline]
pub fn is_logging() -> bool {
    LOG_ON.load(Ordering::Relaxed)
}

/// Appends one structured event line to the armed log sink (no-op when
/// none is). The line carries `ts_ns` (nanoseconds since the registry
/// epoch), the `level`, the active job id when inside a
/// [`TelemetryScope`], the `event` name, and every field of `fields`
/// (which must be a JSON object; other values are ignored). Each line is
/// flushed eagerly so a crashed service leaves a readable log.
pub fn log_event(level: LogLevel, event: &str, fields: Json) {
    if !is_logging() {
        return;
    }
    let ts_ns = {
        let r = registry().lock().unwrap();
        r.epoch.elapsed().as_nanos() as u64
    };
    let job = current_job();
    let mut line = Json::obj()
        .push("ts_ns", ts_ns)
        .push("level", level.as_str())
        .push("event", event);
    if job != 0 {
        line = line.push("job", job);
    }
    if let Json::Obj(entries) = fields {
        for (k, v) in entries {
            line = line.push(&k, v);
        }
    }
    let mut sink = log_sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = sink.as_mut() {
        let _ = writeln!(w, "{}", line.to_string_compact());
        let _ = w.flush();
    }
}

/// Maps a dotted metric name onto the Prometheus charset:
/// `pulse_lib.lookup_ns` → `epoc_pulse_lib_lookup_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("epoc_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// The quantiles [`prometheus_text`] exposes per histogram.
const PROM_QUANTILES: [(&str, f64); 3] = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

/// Renders counters, gauges, and histogram summaries in the Prometheus
/// text exposition format. Histograms become summaries with p50/p95/p99
/// quantiles plus `_sum`/`_count`. The output is deterministically sorted
/// (families by name), so two dumps of the same registry state are
/// byte-identical.
pub fn prometheus_text() -> String {
    use std::fmt::Write as _;
    let r = registry().lock().unwrap();
    let mut out = String::new();
    for (name, value) in &r.counters {
        let p = prom_name(name);
        let _ = writeln!(out, "# TYPE {p} counter");
        let _ = writeln!(out, "{p} {value}");
    }
    for (name, value) in &r.gauges {
        let p = prom_name(name);
        let _ = writeln!(out, "# TYPE {p} gauge");
        let _ = writeln!(out, "{p} {value}");
    }
    for (name, h) in &r.histograms {
        let p = prom_name(name);
        let _ = writeln!(out, "# TYPE {p} summary");
        for (label, q) in PROM_QUANTILES {
            let _ = writeln!(out, "{p}{{quantile=\"{label}\"}} {}", h.percentile(q));
        }
        let _ = writeln!(out, "{p}_sum {}", h.sum);
        let _ = writeln!(out, "{p}_count {}", h.count);
    }
    out
}

/// Renders everything recorded so far as a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ns", ...}` with one `"X"`
/// (complete) event per span. `ts`/`dur` are microseconds as the format
/// requires; exact integer nanoseconds are duplicated into `args.ts_ns` /
/// `args.dur_ns` for tooling that wants lossless arithmetic. Counter and
/// histogram totals ride along under the `"epocCounters"` /
/// `"epocHistograms"` keys (ignored by trace viewers).
pub fn chrome_trace() -> Json {
    let r = registry().lock().unwrap();
    let mut events = Vec::with_capacity(r.events.len());
    for e in &r.events {
        events.push(
            Json::obj()
                .push("name", e.name)
                .push("cat", e.cat)
                .push("ph", "X")
                .push("ts", e.start_ns as f64 / 1e3)
                .push("dur", e.dur_ns as f64 / 1e3)
                .push("pid", 1u64)
                .push("tid", e.tid)
                .push(
                    "args",
                    Json::obj()
                        .push("depth", e.depth as u64)
                        .push("ts_ns", e.start_ns)
                        .push("dur_ns", e.dur_ns)
                        .push("job", e.job),
                ),
        );
    }
    let mut counters = Json::obj();
    for (name, value) in &r.counters {
        counters = counters.push(name, *value);
    }
    let mut gauges = Json::obj();
    for (name, value) in &r.gauges {
        gauges = gauges.push(name, *value);
    }
    let mut histograms = Json::obj();
    for (name, h) in &r.histograms {
        let nonzero: Vec<Json> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(c)]))
            .collect();
        histograms = histograms.push(
            name,
            Json::obj()
                .push("count", h.count)
                .push("sum", h.sum)
                .push("min", if h.count == 0 { 0 } else { h.min })
                .push("max", h.max)
                .push("p50", h.percentile(0.50))
                .push("p95", h.percentile(0.95))
                .push("p99", h.percentile(0.99))
                .push("log2_buckets", Json::Arr(nonzero)),
        );
    }
    Json::obj()
        .push("traceEvents", Json::Arr(events))
        .push("displayTimeUnit", "ns")
        .push("epocCounters", counters)
        .push("epocGauges", gauges)
        .push("epocHistograms", histograms)
}

/// Renders counters, gauges, and histograms as an aligned,
/// human-readable text block (the `epocc --metrics` dump). Spans are
/// summarized per name.
/// Every section iterates a `BTreeMap`, so the dump is deterministically
/// sorted — two dumps of the same registry state are byte-identical.
pub fn metrics_text() -> String {
    use std::fmt::Write as _;
    let r = registry().lock().unwrap();
    let mut out = String::new();
    if !r.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &r.counters {
            let _ = writeln!(out, "  {name:<32} {value}");
        }
    }
    if !r.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &r.gauges {
            let _ = writeln!(out, "  {name:<32} {value}");
        }
    }
    if !r.histograms.is_empty() {
        out.push_str("histograms (log2 buckets):\n");
        for (name, h) in &r.histograms {
            let _ = writeln!(
                out,
                "  {name:<32} n={} mean={:.1} min={} max={} p50={} p95={} p99={}",
                h.count,
                h.mean(),
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
            );
        }
    }
    // Per-name span roll-up: count and total time.
    let mut rollup: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for e in &r.events {
        let slot = rollup.entry((e.cat, e.name)).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += e.dur_ns;
    }
    if !rollup.is_empty() {
        out.push_str("spans:\n");
        for ((cat, name), (count, total_ns)) in &rollup {
            let _ = writeln!(
                out,
                "  {:<32} n={count} total={:.3}ms",
                format!("{cat}/{name}"),
                *total_ns as f64 / 1e6
            );
        }
    }
    if out.is_empty() {
        out.push_str("telemetry: nothing recorded\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is global; tests in this binary serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = lock();
        disable();
        reset();
        {
            let s = span("test", "noop");
            assert!(!s.is_recording());
            counter_add("test.counter", 7);
            histogram_record("test.hist", 42);
        }
        assert!(events_snapshot().is_empty());
        assert_eq!(counter_value("test.counter"), 0);
        assert!(counters_snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let _guard = lock();
        reset();
        enable();
        {
            let _outer = span("test", "outer");
            {
                let _inner = span("test", "inner");
            }
        }
        disable();
        let events = events_snapshot();
        assert_eq!(events.len(), 2);
        // Inner completes first.
        let inner = &events[0];
        let outer = &events[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.tid, outer.tid);
        // Containment in exact integer nanoseconds.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        reset();
    }

    #[test]
    fn cross_thread_counter_merge_is_deterministic() {
        let _guard = lock();
        reset();
        enable();
        let run = || {
            reset();
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            counter_add("test.merge", t * 100 + i);
                        }
                    });
                }
            });
            counter_value("test.merge")
        };
        let a = run();
        let b = run();
        // Σ_{t<8} Σ_{i<100} (100t + i) = 100·100·(0+..+7) + 8·(0+..+99)
        let expected: u64 = (0..8u64).map(|t| (0..100).map(|i| t * 100 + i).sum::<u64>()).sum();
        assert_eq!(a, expected);
        assert_eq!(a, b, "counter totals must not depend on interleaving");
        disable();
        reset();
    }

    #[test]
    fn spans_from_worker_threads_get_distinct_tids() {
        let _guard = lock();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = span("test", "worker");
                });
            }
        });
        disable();
        let events = events_snapshot();
        assert_eq!(events.len(), 3);
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each worker thread gets its own tid");
        reset();
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 105);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
        assert!((h.mean() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let _guard = lock();
        reset();
        enable();
        {
            let _s = span("stage", "zx");
        }
        counter_add("zx.fusions", 3);
        histogram_record("partition.block_qubits", 2);
        disable();
        let doc = chrome_trace();
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("trace is valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("zx"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        let args = e.get("args").expect("args present");
        assert!(args.get("ts_ns").and_then(Json::as_f64).is_some());
        assert_eq!(
            parsed
                .get("epocCounters")
                .and_then(|c| c.get("zx.fusions"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(parsed
            .get("epocHistograms")
            .and_then(|h| h.get("partition.block_qubits"))
            .is_some());
        reset();
    }

    #[test]
    fn metrics_text_lists_counters_and_spans() {
        let _guard = lock();
        reset();
        enable();
        counter_add("pulse_lib.hits", 4);
        {
            let _s = span("stage", "pulse");
        }
        histogram_record("grape.iters_per_run", 37);
        disable();
        let text = metrics_text();
        assert!(text.contains("pulse_lib.hits"), "{text}");
        assert!(text.contains("stage/pulse"), "{text}");
        assert!(text.contains("grape.iters_per_run"), "{text}");
        reset();
        assert!(metrics_text().contains("nothing recorded"));
    }

    #[test]
    fn histogram_bucket_edges_cannot_panic() {
        // The satellite contract: malformed clocks (0, 1, u64::MAX) land
        // in valid buckets instead of panicking the sink.
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        // The sum saturates rather than wraps.
        h.record(u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(10), 1023);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn span_end_ns_saturates() {
        let e = SpanEvent {
            name: "forged",
            cat: "test",
            start_ns: u64::MAX - 1,
            dur_ns: 100,
            tid: 0,
            depth: 0,
            job: 0,
        };
        assert_eq!(e.end_ns(), u64::MAX);
    }

    #[test]
    fn percentiles_track_bucket_edges() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram has no quantiles");
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        // 6 samples: p50 covers rank 3 (value 3, bucket 2, upper edge 3).
        assert_eq!(h.percentile(0.50), 3);
        // p99 covers rank 6 → bucket of 1000 (upper edge 1023), clamped
        // to the observed max.
        assert_eq!(h.percentile(0.99), 1000);
        assert_eq!(h.percentile(1.0), 1000);
        // p0 clamps to at least one sample and never undershoots min.
        assert!(h.percentile(0.0) >= 1);
        // A single-sample histogram answers that sample for every p.
        let mut one = Histogram::default();
        one.record(37);
        assert_eq!(one.percentile(0.5), 37);
        assert_eq!(one.percentile(0.99), 37);
    }

    /// Scopes attribute spans; counters stay keyed by name, so adds inside
    /// and outside scopes land in one total and no per-job state appears.
    #[test]
    fn scopes_attribute_counters_and_spans() {
        let _guard = lock();
        reset();
        enable();
        counter_add("test.jobs.work", 1); // outside any scope
        {
            let _s1 = TelemetryScope::enter(7);
            assert_eq!(current_job(), 7);
            counter_add("test.jobs.work", 10);
            {
                let _nested = TelemetryScope::enter(8);
                assert_eq!(current_job(), 8);
                counter_add("test.jobs.work", 100);
                let _sp = span("test", "inner");
            }
            assert_eq!(current_job(), 7, "nested scope did not restore");
        }
        assert_eq!(current_job(), 0, "outer scope did not restore");
        disable();
        assert_eq!(counters_snapshot(), vec![("test.jobs.work".to_string(), 111)]);
        let events = events_snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].job, 8, "span not attributed to its scope");
        reset();
    }

    #[test]
    fn span_capture_toggle_bounds_event_growth() {
        let _guard = lock();
        reset();
        enable();
        set_span_capture(false);
        {
            let _s = span("test", "invisible");
            counter_add("test.spanoff.counter", 1);
        }
        set_span_capture(true);
        {
            let _s = span("test", "visible");
        }
        disable();
        let events = events_snapshot();
        assert_eq!(events.len(), 1, "span recorded while capture was off");
        assert_eq!(events[0].name, "visible");
        assert_eq!(
            counter_value("test.spanoff.counter"),
            1,
            "counters must keep recording with span capture off"
        );
        reset();
    }

    #[test]
    fn gauges_set_add_and_snapshot_sorted() {
        let _guard = lock();
        reset();
        enable();
        gauge_set("test.gauge.b", 5);
        gauge_set("test.gauge.a", -3);
        gauge_add("test.gauge.b", -2);
        gauge_add("test.gauge.c", 4);
        disable();
        assert_eq!(gauge_value("test.gauge.a"), -3);
        assert_eq!(gauge_value("test.gauge.b"), 3);
        assert_eq!(gauge_value("test.gauge.c"), 4);
        assert_eq!(gauge_value("test.gauge.untouched"), 0);
        let snap = gauges_snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["test.gauge.a", "test.gauge.b", "test.gauge.c"]);
        reset();
    }

    #[test]
    fn disabled_mode_ignores_gauges_and_job_counters() {
        let _guard = lock();
        disable();
        reset();
        gauge_set("test.off.gauge", 9);
        let _scope = TelemetryScope::enter(3);
        counter_add("test.off.counter", 2);
        assert_eq!(gauge_value("test.off.gauge"), 0);
        assert!(counters_snapshot().is_empty());
    }

    #[test]
    fn metrics_dumps_are_deterministically_sorted() {
        let _guard = lock();
        // Two registries populated in opposite orders must render
        // byte-identical text — the regression contract for diffing
        // metrics dumps across runs.
        let populate = |forward: bool| -> (String, String) {
            reset();
            enable();
            let names = ["test.sort.a", "test.sort.b", "test.sort.c"];
            let order: Vec<usize> = if forward { vec![0, 1, 2] } else { vec![2, 1, 0] };
            for &i in &order {
                counter_add(names[i], (i + 1) as u64);
                gauge_set(names[i], i as i64);
                histogram_record(names[i], 1 << i);
            }
            disable();
            let out = (metrics_text(), prometheus_text());
            reset();
            out
        };
        let (text_f, prom_f) = populate(true);
        let (text_r, prom_r) = populate(false);
        assert_eq!(text_f, text_r, "metrics_text depends on insertion order");
        assert_eq!(prom_f, prom_r, "prometheus_text depends on insertion order");
    }

    #[test]
    fn prometheus_text_exposes_all_families() {
        let _guard = lock();
        reset();
        enable();
        counter_add("test.prom.hits", 3);
        {
            let _s = TelemetryScope::enter(2);
            counter_add("test.prom.hits", 4);
        }
        gauge_set("test.prom.depth", 6);
        for v in [10u64, 20, 4000] {
            histogram_record("test.prom.lat_ns", v);
        }
        disable();
        let text = prometheus_text();
        assert!(text.contains("# TYPE epoc_test_prom_hits counter"), "{text}");
        assert!(text.contains("epoc_test_prom_hits 7"), "{text}");
        assert!(!text.contains("job="), "per-job series: {text}");
        assert!(text.contains("# TYPE epoc_test_prom_depth gauge"), "{text}");
        assert!(text.contains("epoc_test_prom_depth 6"), "{text}");
        assert!(text.contains("# TYPE epoc_test_prom_lat_ns summary"), "{text}");
        assert!(text.contains("epoc_test_prom_lat_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("epoc_test_prom_lat_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("epoc_test_prom_lat_ns_sum 4030"), "{text}");
        assert!(text.contains("epoc_test_prom_lat_ns_count 3"), "{text}");
        reset();
    }

    #[test]
    fn log_events_are_valid_jsonl_with_levels_and_jobs() {
        let _guard = lock();
        reset();
        let path = std::env::temp_dir()
            .join(format!("epoc-telemetry-log-{}.jsonl", std::process::id()));
        log_open(&path).unwrap();
        assert!(is_logging());
        log_event(LogLevel::Info, "job.admitted", Json::obj().push("source", "bench"));
        {
            let _s = TelemetryScope::enter(4);
            log_event(LogLevel::Warn, "recovery", Json::obj().push("rung", "r1"));
        }
        log_event(LogLevel::Error, "checkpoint.failed", Json::obj());
        log_close();
        assert!(!is_logging());
        log_event(LogLevel::Info, "after.close", Json::obj()); // must be a no-op
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let j = Json::parse(line).expect("log line is valid JSON");
            assert!(j.get("ts_ns").and_then(Json::as_f64).is_some());
            let level = j.get("level").and_then(Json::as_str).unwrap();
            assert!(matches!(level, "info" | "warn" | "error"), "{level}");
            assert!(j.get("event").and_then(Json::as_str).is_some());
        }
        let warn = Json::parse(lines[1]).unwrap();
        assert_eq!(warn.get("job").and_then(Json::as_f64), Some(4.0));
        assert_eq!(warn.get("rung").and_then(Json::as_str), Some("r1"));
        assert!(Json::parse(lines[0]).unwrap().get("job").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_rearms_epoch() {
        let _guard = lock();
        reset();
        enable();
        {
            let _s = span("test", "warm");
        }
        std::thread::sleep(Duration::from_millis(2));
        reset();
        {
            let _s = span("test", "fresh");
        }
        disable();
        let events = events_snapshot();
        assert_eq!(events.len(), 1);
        // A fresh epoch means the new span starts near zero, not 2ms in.
        assert!(
            events[0].start_ns < 1_500_000,
            "epoch not re-armed: start {}ns",
            events[0].start_ns
        );
        reset();
    }
}
