//! End-to-end tests of the TCP transport: protocol round trips, update
//! visibility across epochs, concurrent clients, graceful shutdown.

use std::time::{Duration, Instant};

use tdb_core::{Algorithm, HopConstraint, Solver};
use tdb_dynamic::SolveDynamic;
use tdb_graph::builder::graph_from_edges;
use tdb_graph::{GraphView, VertexId};
use tdb_serve::{ClientError, CoverServer, ServeClient, ServeConfig};

fn start_server(edges: &[(VertexId, VertexId)], k: usize) -> CoverServer {
    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph_from_edges(edges), &HopConstraint::new(k))
        .unwrap();
    CoverServer::start(dynamic, ServeConfig::default()).unwrap()
}

fn wait_for_epoch(client: &mut ServeClient, at_least: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let epoch = client.stat_u64("epoch").unwrap();
        if epoch >= at_least {
            return epoch;
        }
        assert!(
            Instant::now() < deadline,
            "epoch {at_least} never published"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn cover_breakers_and_snapshot_round_trip() {
    // Two triangles sharing vertex 2: cover = {2}.
    let server = start_server(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 4);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    client.ping().unwrap();
    let hit = client.cover(2).unwrap();
    assert!(hit.contained);
    assert_eq!(hit.cost, 1, "uniform costs: total cost = cover size");
    assert!(!hit.exhausted, "the resident cover is always complete");
    let miss = client.cover(0).unwrap();
    assert!(!miss.contained);
    assert_eq!(hit.epoch, miss.epoch, "quiet server stays on one epoch");

    let b = client.breakers(1, 2).unwrap();
    assert_eq!(b.breakers, vec![2]);

    let explain = client.explain(2).unwrap();
    let field = |key: &str| {
        explain
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(field("vertex"), "2");
    assert_eq!(field("in_cover"), "1");
    assert_eq!(field("cost"), "1");
    assert_eq!(field("cycles"), "2", "vertex 2 breaks both triangles");
    assert_eq!(field("truncated"), "0");
    assert!(client.explain(999).is_err(), "out-of-range vertex is ERR");

    let residual = client.residual().unwrap();
    let field = |key: &str| {
        residual
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(field("count"), "0", "a healthy service has no residual");
    assert_eq!(field("truncated"), "0");

    let snap = client.snapshot().unwrap();
    let get = |key: &str| {
        snap.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    assert_eq!(get("vertices"), "5");
    assert_eq!(get("edges"), "6");
    assert_eq!(get("cover"), "1");
    assert_eq!(get("k"), "4");

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn updates_become_visible_at_a_later_epoch() {
    let server = start_server(&[(0, 1), (1, 2)], 4);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    assert!(!client.cover(0).unwrap().contained);
    assert_eq!(client.breakers(2, 0).unwrap().breakers, vec![] as Vec<u32>);

    client.insert(2, 0).unwrap(); // closes the triangle
    wait_for_epoch(&mut client, 1);
    // Exactly one vertex of the triangle must now be covered.
    let covered: Vec<bool> = (0..3).map(|v| client.cover(v).unwrap().contained).collect();
    assert_eq!(covered.iter().filter(|&&c| c).count(), 1, "{covered:?}");
    // And BREAKERS? on the new edge implicates it.
    let b = client.breakers(2, 0).unwrap();
    assert_eq!(b.breakers.len(), 1);
    assert!(covered[b.breakers[0] as usize]);

    // Deleting an edge of the triangle leaves the cover valid (periodic
    // minimize may or may not have pruned yet — validity is the invariant).
    client.delete(0, 1).unwrap();
    let applied_target = client.stat_u64("enqueued").unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while client.stat_u64("applied").unwrap() < applied_target {
        assert!(Instant::now() < deadline, "updates never drained");
        std::thread::sleep(Duration::from_millis(2));
    }

    client.shutdown().unwrap();
    let cover = server.join();
    assert!(cover.is_valid());
    assert!(cover.graph().contains_edge(2, 0));
    assert!(!cover.graph().contains_edge(0, 1));
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let server = start_server(&[(0, 1), (1, 0)], 4);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    // An out-of-range vertex is answered (OUT), not an error.
    assert!(!client.cover(999).unwrap().contained);
    // `BREAKERS?` with equal endpoints is legal and empty.
    assert!(client.breakers(3, 3).unwrap().breakers.is_empty());

    // Malformed input draws ERR but the connection keeps serving. Speak the
    // raw protocol over a plain TcpStream.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut lines = BufReader::new(raw.try_clone().unwrap());
    let mut say = |raw: &mut std::net::TcpStream, req: &str| {
        writeln!(raw, "{req}").unwrap();
        let mut line = String::new();
        lines.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    assert!(say(&mut raw, "FROBNICATE 1 2").starts_with("ERR "));
    assert!(say(&mut raw, "COVER?").starts_with("ERR "));
    assert!(say(&mut raw, "INSERT 1 not-a-number").starts_with("ERR "));
    // ...and the very same connection still answers well-formed requests.
    assert_eq!(say(&mut raw, "PING"), "OK PONG");

    assert!(client.stat_u64("errors").unwrap() >= 3);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn a_request_line_past_the_cap_is_refused_and_closes_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let server = start_server(&[(0, 1), (1, 2), (2, 0)], 4);
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A server without the cap never answers; fail instead of hanging.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut lines = BufReader::new(raw.try_clone().unwrap());
    // 64 KiB without a newline. The server may close before it has read
    // all of it, so a failed write is not an error here.
    let _ = raw.write_all(&[b'A'; 64 * 1024]);
    let mut line = String::new();
    lines.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR request line longer than 1024 bytes");
    // The server sends FIN before it closes, so the rest is EOF, not a
    // reset, though it never read most of the line.
    line.clear();
    assert_eq!(lines.read_line(&mut line).unwrap(), 0, "{line:?}");

    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.stat_u64("errors").unwrap(), 1);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn insert_above_max_vertex_id_is_refused_before_it_is_queued() {
    use std::sync::atomic::Ordering;

    let vertices = |client: &mut ServeClient| -> u64 {
        let pairs = client.snapshot().unwrap();
        let (_, v) = pairs.iter().find(|(k, _)| k == "vertices").unwrap();
        v.parse().unwrap()
    };
    // The default limit: u32::MAX would size the engine's scratch to 2^32
    // vertices, so it is refused before anything is queued.
    let server = start_server(&[(0, 1), (1, 2), (2, 0)], 4);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    match client.insert(u32::MAX, 0) {
        Err(ClientError::Server(m)) => assert_eq!(
            m,
            "INSERT: vertex id 4294967295 above max_vertex_id 4194303"
        ),
        other => panic!("expected ERR, got {other:?}"),
    }
    client.ping().unwrap();
    assert_eq!(vertices(&mut client), 3);
    assert_eq!(client.stat_u64("queued").unwrap(), 0);
    assert_eq!(server.server_stats().errors.load(Ordering::Relaxed), 1);
    client.shutdown().unwrap();
    server.join();

    // A seed graph with more vertices than the setting raises the limit to
    // its own last id: here 3.
    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(
            graph_from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]),
            &HopConstraint::new(4),
        )
        .unwrap();
    let server = CoverServer::start(
        dynamic,
        ServeConfig {
            max_vertex_id: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    client.insert(3, 1).unwrap();
    assert!(matches!(client.insert(4, 0), Err(ClientError::Server(_))));
    assert!(matches!(client.insert(0, 4), Err(ClientError::Server(_))));
    wait_for_epoch(&mut client, 1);
    assert_eq!(vertices(&mut client), 4);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn concurrent_clients_share_one_server() {
    let server = start_server(&[(0, 1), (1, 2), (2, 0)], 4);
    let addr = server.local_addr();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                let mut hits = 0usize;
                // 99 queries, 33 per triangle vertex — exactly one of the
                // three is covered, so every reader must count 33 hits.
                for v in 0..99u32 {
                    if c.cover(v % 3).unwrap().contained {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    for r in readers {
        assert_eq!(r.join().unwrap(), 33);
    }
    let stats = server.server_stats();
    assert!(stats.connections.load(std::sync::atomic::Ordering::Relaxed) >= 4);
    server.shutdown();
}

#[test]
fn shutdown_via_client_unblocks_join_and_later_connects_fail() {
    let server = start_server(&[(0, 1), (1, 0)], 4);
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    let cover = server.join();
    assert!(cover.is_valid());
    // The listener is gone; a fresh connect (or a request on the old
    // connection) now fails.
    let mut failed = false;
    for _ in 0..50 {
        match ServeClient::connect(addr) {
            Err(ClientError::Io(_)) => {
                failed = true;
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(
        failed,
        "connections must stop being accepted after shutdown"
    );
}

#[test]
fn metrics_verb_serves_prometheus_exposition() {
    let server = start_server(&[(0, 1), (1, 2), (2, 0)], 4);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    // Generate some traffic so the per-verb histograms have samples and the
    // writer publishes at least one post-seed epoch.
    client.cover(2).unwrap();
    client.insert(2, 3).unwrap();
    client.insert(3, 0).unwrap();
    wait_for_epoch(&mut client, 1);
    client.stats().unwrap();

    let exposition = client.metrics().unwrap();
    // Serve-layer metrics from the engine registry.
    assert!(exposition.contains("# TYPE tdb_serve_epoch_publish_seconds histogram"));
    assert!(
        exposition.contains("tdb_serve_epoch_publish_seconds_count"),
        "epoch latency histogram present:\n{exposition}"
    );
    assert!(exposition.contains("# TYPE tdb_serve_request_seconds_cover histogram"));
    assert!(exposition.contains("tdb_serve_request_seconds_insert_count"));
    assert!(exposition.contains("tdb_serve_ops_applied_total 2"));
    // Process-global metrics: the seed solve and the dynamic repairs ran in
    // this process, so the solver and dynamic instrumentation is populated.
    assert!(exposition.contains("# TYPE tdb_solve_scan_seconds histogram"));
    assert!(exposition.contains("tdb_dynamic_apply_seconds_count"));
    assert!(exposition.contains("tdb_solves_total"));

    // The epoch latency histogram actually recorded the applied batches.
    let count_line = exposition
        .lines()
        .find(|l| l.starts_with("tdb_serve_epoch_publish_seconds_count"))
        .unwrap();
    let batches: u64 = count_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(batches >= 1, "at least one batch published: {count_line}");

    // The connection keeps working after the multi-line response.
    client.ping().unwrap();
    let hit = client.cover(2).unwrap();
    assert!(hit.contained);
    server.shutdown();
}

#[test]
fn hostile_label_values_cannot_break_metrics_framing() {
    // A label value containing the exposition's own framing header (and a
    // backslash and quote for good measure) must be escaped to a single
    // line, so the `OK METRICS <n>` line count stays truthful and the
    // connection survives the round trip.
    let server = start_server(&[(0, 1), (1, 2), (2, 0)], 4);
    let hostile = "evil\nOK METRICS 0\nERR \"quoted\\path\"";
    server
        .registry()
        .labeled_gauge("tdb_test_hostile_info", &[("origin", hostile)])
        .set(1);

    let mut client = ServeClient::connect(server.local_addr()).unwrap();
    let exposition = client.metrics().unwrap();
    let line = exposition
        .lines()
        .find(|l| l.starts_with("tdb_test_hostile_info"))
        .expect("hostile gauge rendered");
    assert!(
        line.contains("\\nOK METRICS 0\\n"),
        "newlines are escaped, not emitted: {line}"
    );
    assert!(line.contains("\\\\path"), "backslashes escaped: {line}");
    assert!(line.contains("\\\"quoted"), "quotes escaped: {line}");
    assert!(
        line.ends_with("\"} 1"),
        "still one well-formed sample: {line}"
    );

    // Framing stayed intact: the connection still answers afterwards.
    client.ping().unwrap();
    assert!(client.cover(0).unwrap().contained || !exposition.is_empty());
    server.shutdown();
}
