//! Span-based pipeline tracing with Chrome trace-event / Perfetto export.
//!
//! The metrics sink answers *why a schedule looks the way it does*; this
//! module answers *where the pipeline's wall time goes*. It records
//! **spans** (named, timed regions with key/value args) and **counters**
//! into a process-global ring shared by every pipeline stage — VM
//! execution and trace-cache loads, `MetaBuilder` preparation chunks,
//! and each lane-group walk of the multi-config machine kernel — and
//! serializes them as Chrome trace-event JSON that
//! loads directly in [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! The design keeps the disabled path nearly free:
//!
//! * The free functions ([`span`], [`counter`], [`tally`]) guard on one
//!   relaxed atomic load. Tracing defaults to **off**, and call sites sit
//!   at chunk/stage granularity (never per trace event), so the disabled
//!   cost is one predictable branch per ~16 K events.
//! * Recording never changes analysis results: spans observe timestamps,
//!   nothing else. `crates/core/tests/trace_identity.rs` pins the traced
//!   and untraced pipelines bit-identical across all machines.
//!
//! Timestamps are monotonic microseconds from a process-wide
//! [`Instant`] epoch (taken when the recorder is first touched), so spans
//! recorded on different threads order correctly in the viewer. Each
//! thread gets a small integer `tid` on first use, with its name emitted
//! as trace metadata.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// One completed span: a named region with monotonic start and duration
/// in microseconds, the recording thread, and its args.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (the trace event's `name`).
    pub name: String,
    /// Category tag (the trace event's `cat`), e.g. `"vm"`, `"lane"`.
    pub cat: &'static str,
    /// Start, microseconds from the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, Value)>,
}

impl SpanEvent {
    /// The value recorded for `key`, if any.
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One counter sample.
#[derive(Clone, Debug)]
pub struct CounterEvent {
    /// Counter name.
    pub name: String,
    /// Category tag.
    pub cat: &'static str,
    /// Sample time, microseconds from the process trace epoch.
    pub ts_us: u64,
    /// Recording thread.
    pub tid: u64,
    /// Running total at the sample time.
    pub value: u64,
}

/// A record in the trace log.
#[derive(Clone, Debug)]
pub enum TraceRecord {
    /// A completed span.
    Span(SpanEvent),
    /// A counter sample.
    Counter(CounterEvent),
}

/// Everything [`drain`] hands back: the recorded spans/counters plus the
/// thread-id → name table for the metadata events.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Spans and counter samples, in recording order per thread.
    pub records: Vec<TraceRecord>,
    /// `(tid, name)` for every thread that recorded anything.
    pub thread_names: Vec<(u64, String)>,
}

impl TraceLog {
    /// Iterator over just the spans.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.records.iter().filter_map(|r| match r {
            TraceRecord::Span(s) => Some(s),
            TraceRecord::Counter(_) => None,
        })
    }

    /// Total duration of all spans named `name`, in microseconds.
    pub fn span_total_us(&self, name: &str) -> u64 {
        self.spans().filter(|s| s.name == name).map(|s| s.dur_us).sum()
    }

    /// The log as Chrome trace-event JSON — the `{"traceEvents": [...]}`
    /// object format, loadable as-is in `chrome://tracing` and
    /// [ui.perfetto.dev](https://ui.perfetto.dev). Thread names become
    /// `"ph": "M"` metadata, spans complete (`"ph": "X"`) events, and
    /// counter samples `"ph": "C"` events.
    pub fn to_json(&self) -> Value {
        let threads = self.thread_names.iter().map(|(tid, name)| {
            Value::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", 0u64)
                .with("tid", *tid)
                .with("args", Value::object().with("name", name.as_str()))
        });
        let records = self.records.iter().map(|record| match record {
            TraceRecord::Span(s) => Value::object()
                .with("name", s.name.as_str())
                .with("cat", s.cat)
                .with("ph", "X")
                .with("ts", s.ts_us)
                .with("dur", s.dur_us)
                .with("pid", 0u64)
                .with("tid", s.tid)
                .with("args", Value::Object(s.args.clone())),
            TraceRecord::Counter(c) => Value::object()
                .with("name", c.name.as_str())
                .with("cat", c.cat)
                .with("ph", "C")
                .with("ts", c.ts_us)
                .with("pid", 0u64)
                .with("tid", c.tid)
                .with("args", Value::object().with("value", c.value)),
        });
        Value::object().with("displayTimeUnit", "ms").with(
            "traceEvents",
            Value::Array(threads.chain(records).collect()),
        )
    }
}

struct Recorder {
    epoch: Instant,
    records: Mutex<Vec<TraceRecord>>,
    thread_names: Mutex<Vec<(u64, String)>>,
    totals: Mutex<BTreeMap<String, u64>>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        records: Mutex::new(Vec::new()),
        thread_names: Mutex::new(Vec::new()),
        totals: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    static TID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The calling thread's trace id, assigned (and its name registered) on
/// first use.
fn tid() -> u64 {
    TID.with(|cell| match cell.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(id));
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{id}"));
            recorder().thread_names.lock().unwrap().push((id, name));
            id
        }
    })
}

/// Microseconds since the process trace epoch.
fn now_us() -> u64 {
    recorder().epoch.elapsed().as_micros() as u64
}

/// Turns span/counter recording on or off process-wide. Off by default;
/// `regen --trace` and `clfp analyze --trace-json` turn it on for the
/// run they export.
pub fn set_tracing(on: bool) {
    if on {
        // Pin the epoch before the first span so timestamps start near 0.
        let _ = recorder();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on (one relaxed atomic load —
/// this is the entire disabled-path cost of a free-function call site).
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every recorded span and counter sample out of the global log,
/// leaving the running counter totals (see [`counter_total`]) intact.
pub fn drain() -> TraceLog {
    let rec = recorder();
    TraceLog {
        records: std::mem::take(&mut *rec.records.lock().unwrap()),
        thread_names: rec.thread_names.lock().unwrap().clone(),
    }
}

/// An RAII span: created by [`span`], records one
/// complete trace event when dropped. Inert (no timestamps taken, no
/// allocation beyond the `None`) when tracing is off.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard(Option<SpanStart>);

struct SpanStart {
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, Value)>,
    start_us: u64,
}

impl SpanGuard {
    /// An inert guard that records nothing.
    pub fn inert() -> SpanGuard {
        SpanGuard(None)
    }

    /// Attaches an argument (ignored on an inert guard).
    pub fn arg(mut self, key: &'static str, value: impl Into<Value>) -> SpanGuard {
        if let Some(start) = &mut self.0 {
            start.args.push((key, value.into()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.0.take() {
            let end = now_us();
            let event = SpanEvent {
                name: start.name,
                cat: start.cat,
                ts_us: start.start_us,
                dur_us: end.saturating_sub(start.start_us),
                tid: tid(),
                args: start.args,
            };
            recorder()
                .records
                .lock()
                .unwrap()
                .push(TraceRecord::Span(event));
        }
    }
}

/// Opens a span covering the guard's lifetime. With tracing off this
/// returns an inert guard after one relaxed atomic load.
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    SpanGuard(Some(SpanStart {
        name: name.into(),
        cat,
        args: Vec::new(),
        start_us: now_us(),
    }))
}

/// Microseconds since the process trace epoch — for callers that
/// synthesize spans with [`record_span`] instead of using a guard.
pub fn now_monotonic_us() -> u64 {
    now_us()
}

/// Records a pre-measured span when tracing is on. For aggregated
/// regions whose wall time accumulates across many disjoint slices —
/// e.g. a lane group's whole walk, fed chunk by chunk — where a single
/// RAII guard would also count the time other groups spent interleaved
/// on the same thread.
pub fn record_span(
    name: impl Into<String>,
    cat: &'static str,
    ts_us: u64,
    dur_us: u64,
    args: Vec<(&'static str, Value)>,
) {
    if !tracing_enabled() {
        return;
    }
    let event = SpanEvent {
        name: name.into(),
        cat,
        ts_us,
        dur_us,
        tid: tid(),
        args,
    };
    recorder()
        .records
        .lock()
        .unwrap()
        .push(TraceRecord::Span(event));
}

/// Adds `delta` to the named running counter and records a sample —
/// only when tracing is on (hot-path safe; cf. [`tally`]).
pub fn counter(name: &str, cat: &'static str, delta: u64) {
    if tracing_enabled() {
        tally_in(name, cat, delta, true);
    }
}

/// Adds `delta` to the named running counter **unconditionally**, and
/// additionally records a counter sample when tracing is on. For rare
/// events whose totals must be queryable without a trace session — the
/// trace-cache hit/miss counters behind `clfp cache list` use this.
pub fn tally(name: &str, cat: &'static str, delta: u64) {
    tally_in(name, cat, delta, tracing_enabled());
}

fn tally_in(name: &str, cat: &'static str, delta: u64, record: bool) {
    let rec = recorder();
    let total = {
        let mut totals = rec.totals.lock().unwrap();
        let slot = totals.entry(name.to_string()).or_insert(0);
        *slot += delta;
        *slot
    };
    if record {
        let event = CounterEvent {
            name: name.to_string(),
            cat,
            ts_us: now_us(),
            tid: tid(),
            value: total,
        };
        rec.records.lock().unwrap().push(TraceRecord::Counter(event));
    }
}

/// The running total of the named counter (both [`counter`] and
/// [`tally`] feed it; [`drain`] leaves it intact).
pub fn counter_total(name: &str) -> u64 {
    recorder()
        .totals
        .lock()
        .unwrap()
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Every counter's running total, sorted by name.
pub fn counter_totals() -> Vec<(String, u64)> {
    recorder()
        .totals
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Zeroes every running counter total (test isolation).
pub fn reset_counters() {
    recorder().totals.lock().unwrap().clear();
}

/// Aggregate statistics for one span name, from [`aggregate_spans`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of recorded spans with this name.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
}

/// Groups a log's spans by name, sorted by total duration descending
/// (ties broken by name so output is deterministic).
pub fn aggregate_spans(log: &TraceLog) -> Vec<SpanStats> {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in log.spans() {
        let slot = by_name.entry(&span.name).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += span.dur_us;
    }
    let mut stats: Vec<SpanStats> = by_name
        .into_iter()
        .map(|(name, (count, total_us))| SpanStats {
            name: name.to_string(),
            count,
            total_us,
        })
        .collect();
    stats.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global log is process-wide, so the tests below run under one
    // lock to keep drains from interleaving (cargo runs tests in
    // parallel threads within a binary).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(false);
        drain();
        {
            let _span = span("quiet", "test").arg("k", 1u64);
            counter("quiet.counter", "test", 5);
        }
        let log = drain();
        assert!(log.records.is_empty(), "disabled tracer recorded events");
        assert_eq!(counter_total("quiet.counter"), 0, "counter() must gate");
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(true);
        drain();
        reset_counters();
        {
            let _outer = span("outer", "test").arg("workload", "qsort").arg("n", 3u64);
            let _inner = span("inner", "test");
            counter("events", "test", 7);
            counter("events", "test", 5);
        }
        set_tracing(false);
        let log = drain();
        let spans: Vec<_> = log.spans().collect();
        assert_eq!(spans.len(), 2);
        // Guards drop innermost-first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(
            spans[1].arg("workload"),
            Some(&Value::Str("qsort".to_string()))
        );
        assert_eq!(spans[1].arg("n"), Some(&Value::U64(3)));
        assert!(spans[1].ts_us <= spans[0].ts_us, "outer starts first");
        assert_eq!(counter_total("events"), 12);
        let samples: Vec<_> = log
            .records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Counter(c) => Some(c.value),
                TraceRecord::Span(_) => None,
            })
            .collect();
        assert_eq!(samples, vec![7, 12], "samples carry running totals");
        assert!(!log.thread_names.is_empty());
        reset_counters();
    }

    #[test]
    fn tally_accumulates_without_tracing() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(false);
        drain();
        reset_counters();
        tally("cache.hit", "cache", 2);
        tally("cache.hit", "cache", 1);
        tally("cache.miss", "cache", 1);
        assert_eq!(counter_total("cache.hit"), 3);
        assert_eq!(counter_total("cache.miss"), 1);
        assert!(drain().records.is_empty(), "tally must not record samples");
        let totals = counter_totals();
        assert_eq!(
            totals,
            vec![("cache.hit".to_string(), 3), ("cache.miss".to_string(), 1)]
        );
        reset_counters();
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_tracing(true);
        drain();
        {
            let _s = span("stage \"x\"", "suite").arg("ok", true).arg("f", 1.5);
            counter("n", "suite", 9);
        }
        set_tracing(false);
        let log = drain();
        let json = crate::json::render(&log.to_json());
        assert!(json.starts_with("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    {"));
        assert!(json.ends_with("\n  ]\n}\n"));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("stage \\\"x\\\""));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"f\": 1.5"));
        assert!(json.contains("\"value\": 9"));
        // Balanced braces/brackets outside strings — cheap structural
        // sanity without a JSON parser.
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON structure");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn aggregate_spans_groups_and_sorts() {
        let log = TraceLog {
            records: vec![
                TraceRecord::Span(SpanEvent {
                    name: "a".into(),
                    cat: "t",
                    ts_us: 0,
                    dur_us: 5,
                    tid: 0,
                    args: vec![],
                }),
                TraceRecord::Span(SpanEvent {
                    name: "b".into(),
                    cat: "t",
                    ts_us: 1,
                    dur_us: 20,
                    tid: 0,
                    args: vec![],
                }),
                TraceRecord::Span(SpanEvent {
                    name: "a".into(),
                    cat: "t",
                    ts_us: 9,
                    dur_us: 7,
                    tid: 1,
                    args: vec![],
                }),
            ],
            thread_names: vec![],
        };
        let stats = aggregate_spans(&log);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "b");
        assert_eq!(stats[0].total_us, 20);
        assert_eq!(stats[1].name, "a");
        assert_eq!(stats[1].count, 2);
        assert_eq!(stats[1].total_us, 12);
        assert_eq!(log.span_total_us("a"), 12);
    }
}
