//! The Chrome trace export end to end, through the `tdb` façade: with the
//! span tracer and the flight recorder on, a `TDB++`-seeded `DynamicCover`
//! that applies a batch and re-minimizes must leave the solver's and the
//! engine's phase spans and the solver's `core/solve` event, and the export
//! must carry one Chrome event per span and per recorded event.
//!
//! The tracer and the recorder are process-global, so this file holds a
//! single test.

use tdb::obs::{event, trace};
use tdb::prelude::*;

/// The phase spans one seed solve, one batch and one minimize must open.
const REQUIRED_SPANS: [&str; 5] = [
    "solve/TDB++",
    "solve/scan",
    "solve/minimize",
    "dynamic/apply",
    "dynamic/minimize",
];

#[test]
fn solver_and_engine_phases_reach_the_chrome_trace() {
    let (traced, recorded) = (trace::is_enabled(), event::is_enabled());
    trace::set_enabled(true);
    event::set_enabled(true);
    trace::drain();
    event::drain();

    let graph = tdb::graph::gen::erdos_renyi_gnm(300, 1_200, 7);
    let doomed: Vec<(VertexId, VertexId)> = graph
        .edges()
        .step_by(40)
        .map(|e| (e.source, e.target))
        .collect();
    let mut live = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph, &HopConstraint::new(4))
        .unwrap();
    let mut batch = EdgeBatch::new();
    for (u, v) in doomed {
        batch.remove(u, v);
    }
    for i in 0..30u32 {
        batch.insert((i * 7) % 300, (i * 13 + 1) % 300);
    }
    live.apply(&batch);
    assert!(live.is_dirty(), "the batch must dirty the cover");
    live.minimize();
    assert!(live.is_valid());

    trace::set_enabled(traced);
    event::set_enabled(recorded);
    let spans = trace::drain();
    let events = event::drain();

    for name in REQUIRED_SPANS {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no {name} span among {} spans",
            spans.len()
        );
    }
    assert!(spans.iter().all(|s| s.dur_us >= 0.0));
    assert!(
        events.iter().any(|e| e.target == "core/solve"),
        "no core/solve event among {} events",
        events.len()
    );

    let json = trace::chrome_trace_json_with_events(&spans, &events);
    assert_eq!(json.matches("\"ph\": \"X\"").count(), spans.len());
    assert_eq!(json.matches("\"ph\": \"i\"").count(), events.len());
}
