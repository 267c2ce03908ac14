//! Serving demo: a resident hop-constrained cover service under live load.
//!
//! A fraud-screening deployment keeps one cover of the transaction graph
//! resident: screening workers ask "is this account a designated breaker?"
//! and "which breakers would intercept a transfer u -> v?" thousands of times
//! a second, while the ledger streams edge updates in. `tdb-serve` keeps the
//! two paths apart — a single writer applies updates and publishes immutable
//! epoch-stamped snapshots; readers answer from the latest snapshot over a
//! line-based TCP protocol and never wait on a repair.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use std::time::{Duration, Instant};

use tdb::prelude::*;
use tdb_core::Algorithm;

fn main() {
    // A synthetic transaction graph: 2k accounts, 8k transfer edges.
    let graph = tdb::graph::gen::erdos_renyi_gnm(2_000, 8_000, 0x5EED);
    let constraint = HopConstraint::new(4);
    println!(
        "transaction graph: {} vertices, {} edges, k = {}",
        graph.num_vertices(),
        graph.num_edges(),
        constraint.max_hops
    );

    // Seed the cover once, then hand it to the resident server.
    let t = Instant::now();
    let dynamic = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph, &constraint)
        .expect("unbudgeted solve cannot fail");
    println!(
        "seed cover: {} breakers in {:.1}ms\n",
        dynamic.cover().len(),
        t.elapsed().as_secs_f64() * 1e3
    );
    let server = CoverServer::start(
        dynamic,
        ServeConfig {
            // Also expose GET /metrics, /healthz and /events for stock
            // scrapers (the line protocol's METRICS / HEALTH? equivalents).
            http_addr: Some("127.0.0.1:0".to_string()),
            ..Default::default()
        },
    )
    .expect("binding a loopback port cannot fail");
    println!("serving on {}", server.local_addr());
    if let Some(http) = server.http_addr() {
        println!("http exposition on http://{http}/metrics /healthz /events");
    }

    // A screening worker: membership and breaker queries over TCP.
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let probe = 42;
    let answer = client.cover(probe).expect("COVER?");
    println!(
        "COVER? {probe}     -> {} (epoch {})",
        if answer.contained { "IN" } else { "OUT" },
        answer.epoch
    );
    let (u, v) = (7, 1_200);
    let breakers = client.breakers(u, v).expect("BREAKERS?");
    println!(
        "BREAKERS? {u} {v} -> {} candidate breaker(s) on short cycles through a hypothetical {u}->{v}",
        breakers.breakers.len()
    );

    // The ledger streams updates; each acknowledged op becomes visible at a
    // later epoch. Insert a tight cycle and watch the epoch advance.
    let before = client.stat_u64("epoch").expect("STATS");
    for (a, b) in [(1_990, 1_991), (1_991, 1_992), (1_992, 1_990)] {
        client.insert(a, b).expect("INSERT");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut epoch = before;
    while epoch <= before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        epoch = client.stat_u64("epoch").expect("STATS");
    }
    println!("\ninserted a 3-cycle: epoch {before} -> {epoch}");
    let covered = (1_990..1_993)
        .filter(|&a| client.cover(a).expect("COVER?").contained)
        .count();
    println!("the new cycle is broken by {covered} breaker(s) among its own vertices");

    // The watchdog keeps the deployment honest: writer heartbeat, queue
    // saturation, publish staleness.
    println!(
        "HEALTH?           -> {}",
        client.health_status().expect("HEALTH?")
    );

    // Graceful shutdown returns the final engine state for persistence.
    client.shutdown().expect("SHUTDOWN");
    let cover = server.join();
    println!(
        "\nshut down cleanly: final cover {} breakers, valid {}",
        cover.cover().len(),
        cover.is_valid()
    );
}
