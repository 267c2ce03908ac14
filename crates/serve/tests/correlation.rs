//! End-to-end request correlation: a slow `BREAKERS?` request must produce a
//! `serve/slow_query` flight-recorder event whose request id matches the
//! ids stamped on the snapshot-reader spans in the drained trace, and whose
//! phase breakdown names those spans.
//!
//! This file is its own test binary (one test), so it owns the process-global
//! tracer and flight recorder for its lifetime.

use std::time::Duration;

use tdb_core::{Algorithm, HopConstraint, Solver};
use tdb_dynamic::SolveDynamic;
use tdb_graph::builder::graph_from_edges;
use tdb_serve::{CoverServer, ServeClient, ServeConfig};

fn str_field<'e>(event: &'e tdb_obs::event::Event, key: &str) -> Option<&'e str> {
    event.fields.iter().find_map(|(k, v)| match v {
        tdb_obs::event::Value::Str(s) if *k == key => Some(s.as_ref()),
        _ => None,
    })
}

#[test]
fn slow_breakers_event_and_reader_spans_share_one_request_id() {
    tdb_obs::trace::set_enabled(true);
    tdb_obs::event::set_enabled(true);
    let _ = tdb_obs::trace::drain();
    let _ = tdb_obs::event::drain();

    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(
            graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            &HopConstraint::new(4),
        )
        .unwrap();
    let server = CoverServer::start(
        dynamic,
        ServeConfig {
            // Every request overruns a zero threshold: the BREAKERS? below is
            // deterministically captured as a slow query.
            slow_request_threshold: Some(Duration::ZERO),
            ..Default::default()
        },
    )
    .unwrap();

    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let answer = client.breakers(0, 2).unwrap();
    assert!(!answer.breakers.is_empty(), "2 is reachable from 0");
    client.shutdown().unwrap();
    server.join();

    tdb_obs::trace::set_enabled(false);
    tdb_obs::event::set_enabled(false);
    let spans = tdb_obs::trace::drain();
    let events = tdb_obs::event::drain();

    // The slow-query record for the BREAKERS? request.
    let slow: Vec<_> = events
        .iter()
        .filter(|e| e.target == "serve/slow_query" && str_field(e, "verb") == Some("BREAKERS?"))
        .collect();
    assert_eq!(
        slow.len(),
        1,
        "exactly one slow BREAKERS? record: {slow:#?}"
    );
    let slow = slow[0];
    assert_ne!(slow.request_id, 0, "slow-query events are correlated");
    assert_eq!(str_field(slow, "args"), Some("0 2"));

    // The snapshot-reader spans for that same request carry the same id.
    let breaker_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "serve/breakers")
        .collect();
    assert_eq!(breaker_spans.len(), 1, "one BREAKERS? was served");
    assert_eq!(
        breaker_spans[0].request_id, slow.request_id,
        "the reader span and the slow-query event correlate"
    );
    for inner in ["serve/bfs_forward", "serve/bfs_backward"] {
        let span = spans
            .iter()
            .find(|s| s.name == inner)
            .unwrap_or_else(|| panic!("{inner} span recorded"));
        assert_eq!(span.request_id, slow.request_id, "{inner} correlates");
    }

    // The phase breakdown in the event names the reader span.
    let phases = str_field(slow, "phases").expect("phases field present");
    assert!(
        phases.contains("serve/breakers"),
        "breakdown lists the reader phase: {phases:?}"
    );
    assert!(
        str_field(slow, "latency_us").is_none(),
        "latency is numeric, not a string"
    );
    assert!(
        slow.fields.iter().any(|(k, _)| *k == "latency_us"),
        "latency recorded"
    );
}
