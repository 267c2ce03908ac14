//! The flight recorder: a bounded ring of structured events (level,
//! monotonic timestamp, static target, small key-value payload) cheap enough
//! to leave on in production.
//!
//! The recorder follows the span tracer's discipline exactly: it is
//! process-global, **disabled by default**, and a disabled [`crate::event!`]
//! is a single relaxed atomic load — no clock read, no payload allocation.
//! When enabled, each thread records into its own bounded ring (oldest
//! events are dropped on overflow, with an exact per-ring drop count), so a
//! recording thread never blocks another and a concurrent [`drain`] never
//! blocks recording for longer than one ring's lock.
//!
//! Events drain to JSONL ([`jsonl`]) and to the Chrome trace writer as
//! instant events ([`crate::trace::chrome_trace_json_with_events`]), and
//! carry the active request id from [`crate::request`] so slow-query
//! records line up with the spans of the request that produced them.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Json;
use crate::ring::{Rings, Slot};

/// Default per-thread ring capacity, in events.
pub const DEFAULT_THREAD_CAPACITY: usize = 8_192;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics.
    Debug,
    /// Notable but expected state changes.
    Info,
    /// Something is off but the process copes.
    Warn,
    /// A request or maintenance action failed.
    Error,
}

impl Level {
    /// Lower-case name, as rendered in JSONL.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A small payload value attached to an event field.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text (static or owned).
    Str(Cow<'static, str>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Cow::Owned(v))
    }
}

impl From<&Value> for Json {
    fn from(v: &Value) -> Json {
        match v {
            Value::U64(x) => Json::Int(*x),
            Value::I64(x) => {
                if *x >= 0 {
                    Json::Int(*x as u64)
                } else {
                    Json::Num(*x as f64)
                }
            }
            Value::F64(x) => Json::Num(*x),
            Value::Bool(b) => Json::Bool(*b),
            Value::Str(s) => Json::Str(s.clone().into_owned()),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-wide record sequence number (total order across threads).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Microseconds since the tracer epoch ([`crate::trace::now_us`]).
    pub ts_us: f64,
    /// Static event target, e.g. `serve/slow_query`.
    pub target: &'static str,
    /// Correlated request id ([`crate::request::current`]); `0` when the
    /// event was recorded outside a request scope.
    pub request_id: u64,
    /// Key-value payload.
    pub fields: Vec<(&'static str, Value)>,
}

thread_local! {
    static SLOT: Slot<Event> = const { OnceCell::new() };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static RINGS: Rings<Event> = Rings::new(&SLOT, DEFAULT_THREAD_CAPACITY);

/// Turn event recording on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether events are currently recorded — the `event!` macro's one relaxed
/// load on the disabled fast path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Set the per-thread ring capacity (events kept per thread before the
/// oldest are dropped). Applies to future records on every thread.
pub fn set_thread_capacity(capacity: usize) {
    RINGS.set_capacity(capacity);
}

/// Record one event. Prefer the [`crate::event!`] macro, which skips the
/// payload construction entirely while the recorder is disabled.
pub fn record(level: Level, target: &'static str, fields: Vec<(&'static str, Value)>) {
    if !is_enabled() {
        return;
    }
    let event = Event {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        level,
        ts_us: crate::trace::now_us(),
        target,
        request_id: crate::request::current(),
        fields,
    };
    RINGS.push(|_| event);
}

fn collect(take: bool) -> Vec<Event> {
    let mut events = RINGS.collect(take);
    events.sort_by_key(|e| e.seq);
    events
}

/// Take every buffered event from every thread, in record order.
pub fn drain() -> Vec<Event> {
    collect(true)
}

/// Copy the buffered events without clearing them (the `GET /events` HTTP
/// endpoint uses this so scraping doesn't race post-mortem drains).
pub fn recent() -> Vec<Event> {
    collect(false)
}

/// Total events dropped to ring overflow so far, across all threads. Drops
/// survive [`drain`]; the count only moves forward.
pub fn dropped() -> u64 {
    RINGS.dropped()
}

/// Render events as JSON Lines: one compact object per event with `seq`,
/// `ts_us`, `level`, `target`, `request` (when correlated), and the payload
/// fields nested under `fields`.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let mut fields = Json::obj();
        for (k, v) in &e.fields {
            fields = fields.set(k, Json::from(v));
        }
        let mut obj = Json::obj()
            .set("seq", e.seq)
            .set("ts_us", e.ts_us)
            .set("level", e.level.as_str())
            .set("target", e.target);
        if e.request_id != 0 {
            obj = obj.set("request", e.request_id);
        }
        out.push_str(&obj.set("fields", fields).render_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder is process-global; tests that flip it on serialize here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = lock();
        set_enabled(false);
        drain();
        record(Level::Info, "test/off", vec![("k", Value::U64(1))]);
        crate::event!(Level::Info, "test/off", k = 2u64);
        assert!(drain().is_empty());
    }

    #[test]
    fn events_carry_payload_and_sequence() {
        let _guard = lock();
        set_enabled(true);
        drain();
        crate::event!(
            Level::Warn,
            "test/payload",
            n = 41u64,
            name = "x",
            ratio = 0.5,
            ok = true
        );
        crate::event!(Level::Debug, "test/payload2");
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(events[0].level, Level::Warn);
        assert_eq!(events[0].target, "test/payload");
        assert_eq!(events[0].request_id, 0);
        assert_eq!(events[0].fields[0], ("n", Value::U64(41)));
        assert_eq!(
            events[0].fields[1],
            ("name", Value::Str(Cow::Borrowed("x")))
        );
        assert!(events[1].fields.is_empty());
    }

    #[test]
    fn recent_does_not_consume_and_drops_are_exact() {
        let _guard = lock();
        set_enabled(true);
        drain();
        let before = dropped();
        set_thread_capacity(4);
        for i in 0..10u64 {
            crate::event!(Level::Info, "test/overflow", i = i);
        }
        let peek = recent();
        let mine: Vec<&Event> = peek
            .iter()
            .filter(|e| e.target == "test/overflow")
            .collect();
        assert_eq!(mine.len(), 4, "ring keeps the newest `capacity` events");
        // Newest-in-order: the survivors are the last four, in record order.
        let is: Vec<u64> = mine
            .iter()
            .map(|e| match e.fields[0].1 {
                Value::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(is, vec![6, 7, 8, 9]);
        assert_eq!(dropped() - before, 6, "exactly the overflowed events count");
        let drained = drain();
        assert!(drained.iter().any(|e| e.target == "test/overflow"));
        assert!(drain().is_empty(), "drain consumes");
        set_thread_capacity(DEFAULT_THREAD_CAPACITY);
        set_enabled(false);
    }

    #[test]
    fn events_pick_up_the_active_request_id() {
        let _guard = lock();
        set_enabled(true);
        drain();
        {
            let _scope = crate::request::begin(17);
            crate::event!(Level::Info, "test/correlated");
        }
        crate::event!(Level::Info, "test/uncorrelated");
        set_enabled(false);
        let events = drain();
        let by_target = |t: &str| events.iter().find(|e| e.target == t).unwrap();
        assert_eq!(by_target("test/correlated").request_id, 17);
        assert_eq!(by_target("test/uncorrelated").request_id, 0);
    }

    #[test]
    fn drop_counter_export_is_monotone_and_idempotent() {
        let _guard = lock();
        // Force at least one event drop on a tiny ring.
        set_enabled(true);
        drain();
        set_thread_capacity(1);
        crate::event!(Level::Debug, "test/drop1");
        crate::event!(Level::Debug, "test/drop2");
        set_thread_capacity(DEFAULT_THREAD_CAPACITY);
        set_enabled(false);
        drain();

        crate::export_drop_counters();
        let c = crate::global().counter("tdb_obs_events_dropped_total");
        let first = c.get();
        assert!(first >= 1, "at least the forced drop is exported");
        crate::export_drop_counters();
        assert_eq!(c.get(), first, "re-export without new drops adds nothing");
    }

    #[test]
    fn jsonl_renders_one_compact_line_per_event() {
        let events = vec![Event {
            seq: 3,
            level: Level::Error,
            ts_us: 12.5,
            target: "serve/slow_query",
            request_id: 9,
            fields: vec![
                ("verb", Value::Str(Cow::Borrowed("BREAKERS?"))),
                ("n", Value::U64(2)),
            ],
        }];
        let text = jsonl(&events);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"level\":\"error\""));
        assert!(text.contains("\"target\":\"serve/slow_query\""));
        assert!(text.contains("\"request\":9"));
        assert!(text.contains("\"verb\":\"BREAKERS?\""));
        assert!(text.ends_with('\n'));
    }
}
