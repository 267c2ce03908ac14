//! `tdb-obs` — zero-dependency observability for the TDB workspace: a named
//! metrics registry (counters, gauges, log2 latency histograms), RAII trace
//! spans drained to Chrome trace-event JSON, a structured-event flight
//! recorder, thread-scoped request correlation, and a Prometheus-style text
//! exposition renderer.
//!
//! # Overhead contract
//!
//! Instrumentation in solver and serve hot paths must be free to leave
//! compiled in. The crate guarantees:
//!
//! * **Disabled fast path.** With a registry disabled
//!   ([`Registry::set_enabled`]`(false)`) a histogram record or timer start
//!   is a single relaxed atomic load — no clock read, no allocation. The
//!   tracer and the flight recorder are disabled by default: a disabled
//!   [`trace::span`] is one relaxed load plus one thread-local read (the
//!   request-correlation check) returning `None`, and a disabled [`event!`]
//!   is one relaxed load that skips the payload construction entirely.
//! * **Enabled cost.** A histogram record is two relaxed `fetch_add`s; a
//!   timer adds one monotonic clock read at start and one at drop. Counters
//!   and gauges are always a single relaxed `fetch_add` (they are *not*
//!   gated, because engine correctness counters double as metrics).
//! * **Measured budget.** End-to-end instrumentation overhead on the
//!   standard TDB++ scenario stays below 2% with the registry *and* the
//!   flight recorder enabled; `cargo bench -p tdb-bench --bench
//!   observability` measures this end to end and reports the per-primitive
//!   costs.
//!
//! # Pieces
//!
//! * [`Registry`] / [`global()`] — named metrics; hot paths cache handles via
//!   the [`counter!`], [`gauge!`] and [`histogram!`] macros.
//! * [`Histogram`] — lock-free fixed-bucket log2 latency histogram with
//!   nearest-rank [`Percentiles`]; also usable standalone (the bench harness
//!   records batch and read latencies into one).
//! * [`trace`] — span guards, per-thread ring buffers,
//!   [`trace::chrome_trace_json`] for `chrome://tracing`.
//! * [`event`] — the flight recorder: bounded rings of structured events
//!   recorded by the [`event!`] macro, drained to JSONL or interleaved into
//!   the Chrome trace ([`trace::chrome_trace_json_with_events`]).
//! * [`request`] — thread-scoped request ids stamping spans and events, plus
//!   the per-request phase breakdown behind `tdb-serve`'s slow-query log.
//! * [`Registry::render_prometheus`] — text exposition, served by `tdb-serve`
//!   under the `METRICS` protocol verb and `GET /metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod request;
mod ring;
pub mod trace;

pub use event::Level;
pub use histogram::{format_secs, Histogram, HistogramSnapshot, HistogramTimer, Percentiles};
pub use json::Json;
pub use registry::{global, Counter, Gauge, Registry};

/// Raise the global-registry counters `tdb_obs_trace_dropped_total` and
/// `tdb_obs_events_dropped_total` to the rings' current overflow-drop totals,
/// so silent telemetry loss is itself observable. Exposition paths (the
/// `METRICS` verb, `GET /metrics`) call this just before rendering.
pub fn export_drop_counters() {
    for (name, total) in [
        ("tdb_obs_trace_dropped_total", trace::dropped()),
        ("tdb_obs_events_dropped_total", event::dropped()),
    ] {
        let counter = global().counter(name);
        let seen = counter.get();
        if total > seen {
            counter.add(total - seen);
        }
    }
}

/// A `&'static` [`Counter`] in the [`global()`] registry, resolved once per
/// call site: `counter!("tdb_solves_total").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A `&'static` [`Gauge`] in the [`global()`] registry, resolved once per
/// call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A `&'static` [`Histogram`] in the [`global()`] registry, resolved once per
/// call site: `let _t = histogram!("tdb_solve_scan_seconds").start();`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        CELL.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Record a structured event into the flight recorder:
/// `event!(Level::Warn, "serve/slow_query", verb = "BREAKERS?", latency_us = 1500u64)`.
///
/// Field values go through [`event::Value::from`] (unsigned/signed integers,
/// floats, bools, `&'static str`, `String`). While the recorder is disabled
/// the whole call is one relaxed atomic load — field expressions are not
/// evaluated.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        if $crate::event::is_enabled() {
            $crate::event::record(
                $level,
                $target,
                ::std::vec![$((stringify!($key), $crate::event::Value::from($value))),*],
            );
        }
    }};
}
