//! The operational surfaces, exercised offline over raw sockets: the
//! HTTP/1.0 exposition endpoints (`/metrics`, `/healthz`, `/events`), the
//! `HEALTH?` verb, and the watchdog's stall classification and recovery
//! under an injected writer sleep.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tdb_core::{Algorithm, HopConstraint, Solver};
use tdb_dynamic::SolveDynamic;
use tdb_graph::builder::graph_from_edges;
use tdb_serve::{
    health::reasons, CoverServer, EngineConfig, HealthConfig, ServeClient, ServeConfig,
};

fn start_server(config: ServeConfig) -> CoverServer {
    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(
            graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            &HopConstraint::new(4),
        )
        .unwrap();
    CoverServer::start(dynamic, config).unwrap()
}

/// A raw HTTP/1.0 request: returns (status code, body).
fn http_request(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(
        addr,
        &format!("GET {path} HTTP/1.0\r\nHost: test\r\nUser-Agent: offline-smoke\r\n\r\n"),
    )
}

#[test]
fn http_endpoints_serve_metrics_health_and_events() {
    tdb_obs::event::set_enabled(true);
    let server = start_server(ServeConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        // Zero threshold: the cover query below is recorded as a slow query,
        // so /events deterministically has at least one correlated record.
        slow_request_threshold: Some(Duration::ZERO),
        ..Default::default()
    });
    let http = server.http_addr().expect("http listener configured");

    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.cover(0).unwrap();

    // /metrics: serve-layer registry, build info, and the drop counters the
    // exporter refreshes on every scrape.
    let (status, body) = http_get(http, "/metrics");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("tdb_serve_request_seconds_cover"), "{body}");
    assert!(body.contains("tdb_build_info{"), "{body}");
    assert!(body.contains("version="), "{body}");
    assert!(body.contains("tdb_process_start_time_seconds"), "{body}");
    assert!(body.contains("tdb_obs_events_dropped_total"), "{body}");
    assert!(body.contains("tdb_obs_trace_dropped_total"), "{body}");

    // /healthz: a healthy writer answers 200 ok.
    let (status, body) = http_get(http, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("ok"), "{body}");

    // /events: the slow cover query is visible as JSON Lines, correlated.
    let (status, body) = http_get(http, "/events");
    assert_eq!(status, 200);
    let slow_line = body
        .lines()
        .find(|l| l.contains("serve/slow_query") && l.contains("COVER?"))
        .unwrap_or_else(|| panic!("slow-query event exposed: {body}"));
    assert!(slow_line.contains("\"request\":"), "{slow_line}");
    assert!(slow_line.contains("\"latency_us\":"), "{slow_line}");

    // Unknown paths and non-GET methods are rejected, with query strings
    // ignored for routing.
    assert_eq!(http_get(http, "/nope").0, 404);
    assert_eq!(http_get(http, "/healthz?verbose=1").0, 200);
    let (status, _) = http_request(http, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, 405);

    // The line protocol still works alongside the HTTP listener.
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn watchdog_classifies_an_injected_stall_and_recovers() {
    let server = start_server(ServeConfig {
        engine: EngineConfig {
            health: HealthConfig {
                stall_after: Duration::from_millis(50),
                ..Default::default()
            },
            ..Default::default()
        },
        http_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    });
    let http = server.http_addr().unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    // Healthy at start: the writer beats on every queue tick.
    assert_eq!(client.health_status().unwrap(), "ok");
    let pairs = client.health().unwrap();
    for key in [
        "status",
        "reasons",
        "heartbeat_age_ms",
        "publish_age_ms",
        "queue_depth",
        "queue_capacity",
        "epoch",
    ] {
        assert!(
            pairs.iter().any(|(k, _)| k == key),
            "HEALTH key {key} present: {pairs:?}"
        );
    }

    // Inject a writer nap much longer than the stall threshold and wait for
    // the watchdog to notice the heartbeat aging out.
    server.inject_writer_sleep(Duration::from_millis(400));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let pairs = client.health().unwrap();
        let status = pairs.iter().find(|(k, _)| k == "status").unwrap().1.clone();
        if status == "stalled" {
            let reasons_field = &pairs.iter().find(|(k, _)| k == "reasons").unwrap().1;
            assert!(
                reasons_field.contains(reasons::WRITER_STALLED),
                "machine-readable reason present: {pairs:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stall never classified: {pairs:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A stalled writer turns /healthz into a 503 for load balancers.
    let (status, body) = http_get(http, "/healthz");
    if status == 503 {
        assert!(body.starts_with("stalled"), "{body}");
        assert!(body.contains(reasons::WRITER_STALLED), "{body}");
    } // else: the nap ended between the two probes; the verb check above
      // already pinned the stalled classification.

    // Clearing the nap recovers the writer: the next heartbeat flips the
    // classification back to ok without a restart.
    server.inject_writer_sleep(Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if client.health_status().unwrap() == "ok" {
            break;
        }
        assert!(Instant::now() < deadline, "writer never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = http_get(http, "/healthz");
    assert_eq!(status, 200, "{body}");

    client.shutdown().unwrap();
    server.join();
}
