//! Sharded solving: partition a multi-component graph into its strongly
//! connected components and solve them as independent shards.
//!
//! Real service graphs — payment flows per region, dependency graphs per
//! tenant — decompose into many medium-sized SCCs joined by acyclic traffic.
//! Every hop-constrained cycle lives inside one SCC, so the cover problem
//! shards exactly: a request with `sharding` set solves the components
//! concurrently and merges the per-shard covers, reproducing the unsharded
//! result.
//!
//! ```text
//! cargo run --release --example sharded_solve
//! ```

use std::time::Instant;

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::gen::{multi_scc_chain, MultiSccConfig};

/// Four "regional" transaction blobs (rings with chords, one SCC each)
/// chained by one-way settlement edges, plus an acyclic reporting tail.
fn regional_graph() -> CsrGraph {
    multi_scc_chain(&MultiSccConfig::uniform(4, 2_000, 8_000, 2, 0x5EED))
}

fn main() {
    let g = regional_graph();
    let constraint = HopConstraint::new(5);
    println!(
        "regional transaction graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // The partition is inspectable on its own.
    let partition = Partitioner::new().partition(&g);
    println!(
        "partition: {} non-trivial SCCs (largest {}), {} trivial vertices\n",
        partition.shards.len(),
        partition.shards.first().map_or(0, |s| s.len()),
        partition.trivial_vertices
    );

    let start = Instant::now();
    let plain = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&g, &constraint)
        .expect("unbudgeted solve cannot fail");
    let plain_time = start.elapsed();

    let start = Instant::now();
    let sharded = Solver::from_request(CoverRequest {
        sharding: ShardingMode::Auto,
        ..CoverRequest::new(Algorithm::TdbPlusPlus, constraint.max_hops)
    })
    .solve(&g, &constraint)
    .expect("unbudgeted solve cannot fail");
    let sharded_time = start.elapsed();

    println!(
        "whole-graph solve: cover {:>5} vertices in {:>8.3?}",
        plain.cover_size(),
        plain_time
    );
    println!(
        "sharded solve:     cover {:>5} vertices in {:>8.3?}  ({})",
        sharded.cover_size(),
        sharded_time,
        sharded.metrics.algorithm
    );
    assert_eq!(
        sharded.cover, plain.cover,
        "sharding must reproduce the unsharded cover"
    );

    let v = verify_cover(&g, &sharded.cover, &constraint);
    assert!(v.is_valid_and_minimal());
    println!("\ncovers identical, valid, and minimal — partitioning is exact");
}
