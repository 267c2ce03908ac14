//! Span tracing: RAII guards writing complete events into bounded per-thread
//! ring buffers, drained to Chrome trace-event JSON (`chrome://tracing` /
//! `ui.perfetto.dev`).
//!
//! The tracer is process-global and **disabled by default** — a disabled
//! [`span`] call is one relaxed atomic load plus one thread-local read (the
//! request-correlation check) and returns `None`, so instrumented hot paths
//! pay no clock read and no allocation. When enabled, each thread records
//! into its own ring buffer (newest events win on overflow; the drop count
//! is kept), so recording never blocks another recording thread.
//!
//! Spans are request-correlated: an event records the id installed by
//! [`crate::request::begin`] on its thread (0 outside a request scope), and
//! closing spans charge their duration to the request's phase breakdown via
//! [`crate::request::record_phase`] — even while the tracer itself is off,
//! so slow-query records always carry a breakdown.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;
use crate::ring::{Rings, Slot};

/// Default per-thread ring capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 65_536;

/// One completed span: a Chrome trace "X" (complete) event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name, e.g. `solve/scan`.
    pub name: Cow<'static, str>,
    /// Start timestamp in microseconds since the tracer epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Recording thread's tracer-assigned id.
    pub tid: u64,
    /// Correlated request id ([`crate::request::current`] at close); `0`
    /// outside a request scope.
    pub request_id: u64,
}

thread_local! {
    static SLOT: Slot<TraceEvent> = const { OnceCell::new() };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RINGS: Rings<TraceEvent> = Rings::new(&SLOT, DEFAULT_THREAD_CAPACITY);

/// Turn span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the per-thread ring capacity (events kept per thread before the
/// oldest are dropped). Applies to future records on every thread.
pub fn set_thread_capacity(capacity: usize) {
    RINGS.set_capacity(capacity);
}

/// Microseconds since the tracer epoch (the first call fixes the epoch).
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Open a span named by a static string. Returns `None` when tracing is
/// disabled; the span records a complete event when the guard drops.
#[must_use = "the span records when the guard drops"]
pub fn span(name: &'static str) -> Option<SpanGuard> {
    span_cow(Cow::Borrowed(name))
}

/// Open a span with a runtime-built name (e.g. `solve/TDB++`).
#[must_use = "the span records when the guard drops"]
pub fn span_owned(name: String) -> Option<SpanGuard> {
    span_cow(Cow::Owned(name))
}

fn span_cow(name: Cow<'static, str>) -> Option<SpanGuard> {
    // A span is armed when the tracer records, or when a request scope is
    // active on this thread (the phase breakdown wants the timing even if
    // the trace ring doesn't) — otherwise the disabled fast path applies.
    if !is_enabled() && !crate::request::is_active() {
        return None;
    }
    Some(SpanGuard {
        name,
        start_us: now_us(),
    })
}

/// An open span; records a [`TraceEvent`] covering its lifetime on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: Cow<'static, str>,
    start_us: f64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start_us = self.start_us;
        let dur_us = (now_us() - start_us).max(0.0);
        crate::request::record_phase(&self.name, dur_us);
        record_complete(std::mem::take(&mut self.name), start_us, dur_us);
    }
}

/// Record a complete event directly (the span guards use this; tests and
/// custom instrumentation may too). A no-op while tracing is disabled.
pub fn record_complete(name: impl Into<Cow<'static, str>>, start_us: f64, dur_us: f64) {
    if !is_enabled() {
        return;
    }
    RINGS.push(|tid| TraceEvent {
        name: name.into(),
        start_us,
        dur_us,
        tid,
        request_id: crate::request::current(),
    });
}

/// Take every buffered event from every thread, ordered by start time.
pub fn drain() -> Vec<TraceEvent> {
    let mut events = RINGS.collect(true);
    events.sort_by(|a, b| {
        a.start_us
            .partial_cmp(&b.start_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.tid.cmp(&b.tid))
    });
    events
}

/// Total events dropped to ring overflow so far, across all threads.
pub fn dropped() -> u64 {
    RINGS.dropped()
}

/// Render events as a Chrome trace-event JSON document (the object form with
/// a `traceEvents` array of "X" complete events), loadable in
/// `chrome://tracing` and Perfetto. Request-correlated spans carry the id in
/// `args.request`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_with_events(events, &[])
}

/// [`chrome_trace_json`] plus flight-recorder events interleaved as Chrome
/// "i" (instant) events, so one export shows spans and structured events on
/// a shared timeline.
pub fn chrome_trace_json_with_events(
    spans: &[TraceEvent],
    events: &[crate::event::Event],
) -> String {
    let mut items = spans
        .iter()
        .map(|e| {
            let mut obj = Json::obj()
                .set("name", e.name.as_ref())
                .set("cat", "tdb")
                .set("ph", "X")
                .set("ts", e.start_us)
                .set("dur", e.dur_us)
                .set("pid", 1u64)
                .set("tid", e.tid);
            if e.request_id != 0 {
                obj = obj.set("args", Json::obj().set("request", e.request_id));
            }
            obj
        })
        .collect::<Vec<_>>();
    for e in events {
        let mut args = Json::obj().set("level", e.level.as_str());
        if e.request_id != 0 {
            args = args.set("request", e.request_id);
        }
        for (k, v) in &e.fields {
            args = args.set(k, Json::from(v));
        }
        items.push(
            Json::obj()
                .set("name", e.target)
                .set("cat", "tdb-event")
                .set("ph", "i")
                .set("s", "p")
                .set("ts", e.ts_us)
                .set("pid", 1u64)
                .set("tid", 0u64)
                .set("args", args),
        );
    }
    Json::obj()
        .set("traceEvents", Json::Arr(items))
        .set("displayTimeUnit", "ms")
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The tracer is process-global; tests that flip it on serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _guard = lock();
        set_enabled(false);
        drain();
        assert!(span("test/disabled").is_none());
        record_complete("test/disabled", 0.0, 1.0);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_record_complete_events_on_drop() {
        let _guard = lock();
        set_enabled(true);
        drain();
        {
            let _outer = span("test/outer");
            let _inner = span_owned(format!("test/inner-{}", 1));
        }
        set_enabled(false);
        let events = drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert!(names.contains(&"test/outer"), "{names:?}");
        assert!(names.contains(&"test/inner-1"), "{names:?}");
        for e in &events {
            assert!(e.dur_us >= 0.0);
        }
        // Inner starts at or after outer, and is sorted accordingly.
        let outer = events.iter().position(|e| e.name == "test/outer").unwrap();
        let inner = events
            .iter()
            .position(|e| e.name == "test/inner-1")
            .unwrap();
        assert!(events[outer].start_us <= events[inner].start_us);
    }

    #[test]
    fn chrome_json_has_the_trace_events_shape() {
        let events = vec![TraceEvent {
            name: Cow::Borrowed("solve/scan"),
            start_us: 10.5,
            dur_us: 2.25,
            tid: 3,
            request_id: 0,
        }];
        let text = chrome_trace_json(&events);
        assert!(text.contains("\"traceEvents\": ["));
        assert!(text.contains("\"name\": \"solve/scan\""));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ts\": 10.5"));
        assert!(text.contains("\"dur\": 2.25"));
        assert!(text.contains("\"displayTimeUnit\": \"ms\""));
        assert!(
            !text.contains("\"request\""),
            "uncorrelated spans omit args"
        );
    }

    #[test]
    fn chrome_json_interleaves_spans_and_instant_events() {
        let spans = vec![TraceEvent {
            name: Cow::Borrowed("serve/breakers"),
            start_us: 5.0,
            dur_us: 1.0,
            tid: 2,
            request_id: 11,
        }];
        let events = vec![crate::event::Event {
            seq: 1,
            level: crate::event::Level::Warn,
            ts_us: 5.5,
            target: "serve/slow_query",
            request_id: 11,
            fields: vec![("verb", crate::event::Value::from("BREAKERS?"))],
        }];
        let text = chrome_trace_json_with_events(&spans, &events);
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"name\": \"serve/slow_query\""));
        assert!(text.contains("\"request\": 11"));
        assert!(text.contains("\"verb\": \"BREAKERS?\""));
    }

    #[test]
    fn spans_inside_a_request_scope_carry_the_id_and_feed_the_breakdown() {
        let _guard = lock();
        set_enabled(true);
        drain();
        {
            let _scope = crate::request::begin(23);
            let _span = span("test/correlated");
        }
        set_enabled(false);
        let events = drain();
        let e = events
            .iter()
            .find(|e| e.name == "test/correlated")
            .expect("span recorded");
        assert_eq!(e.request_id, 23);
    }

    #[test]
    fn request_scope_arms_spans_even_with_the_tracer_off() {
        let _guard = lock();
        set_enabled(false);
        drain();
        let _scope = crate::request::begin(31);
        {
            let _span = span("test/phase_only");
            assert!(_span.is_some(), "request scope must arm the span");
        }
        assert!(drain().is_empty(), "tracer off: ring stays empty");
        let phases = crate::request::take_breakdown();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "test/phase_only");
        assert_eq!(phases[0].count, 1);
    }
}
