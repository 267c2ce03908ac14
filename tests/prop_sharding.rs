//! Property tests: the SCC-partitioned solve is equivalent to the
//! whole-graph solve on random multi-SCC graphs.
//!
//! The partition argument (every constrained cycle lives inside one strongly
//! connected component, and the extraction's id remap is monotone) claims
//! that sharding never changes the result. These cases stress it over random
//! component structures — including the degenerate shapes where partitioning
//! must gracefully do nothing: a single SCC spanning the whole graph, and an
//! all-trivial (acyclic) graph with no shards at all.
//!
//! Deterministic xoshiro256** cases instead of proptest (offline build);
//! every case reproduces from its printed seed.

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{random_edge_list, Xoshiro256};
use tdb_graph::Condensation;

/// A random graph with a planted multi-component macro structure: 1..=5
/// blocks, each either a cycle-guaranteed ring-plus-chords blob, a random
/// blob (any SCC structure), or a path (all-trivial), chained by one-way
/// bridges so that blocks never merge into one component.
fn random_multi_scc(rng: &mut Xoshiro256) -> CsrGraph {
    let blocks = 1 + rng.next_index(5);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut base = 0u32;
    for i in 0..blocks {
        let n = 3 + rng.next_index(12) as u32;
        match rng.next_index(3) {
            0 => {
                // Ring + random chords: one SCC of size n.
                for v in 0..n {
                    edges.push((base + v, base + (v + 1) % n));
                }
                for _ in 0..rng.next_index(3 * n as usize) {
                    let u = base + rng.next_bounded(n as u64) as u32;
                    let v = base + rng.next_bounded(n as u64) as u32;
                    if u != v {
                        edges.push((u, v));
                    }
                }
            }
            1 => {
                // Fully random block: arbitrary internal SCC structure.
                for (u, v) in random_edge_list(rng, n, 4 * n as usize) {
                    if u != v {
                        edges.push((base + u, base + v));
                    }
                }
            }
            _ => {
                // Directed path: all-trivial SCCs.
                for v in 0..n - 1 {
                    edges.push((base + v, base + v + 1));
                }
            }
        }
        if i + 1 < blocks {
            // One-way bridge to the next block keeps components separate.
            edges.push((base + rng.next_bounded(n as u64) as u32, base + n));
        }
        base += n;
    }
    graph_from_edges(&edges)
}

fn check_equivalence(g: &CsrGraph, k: usize, algorithm: Algorithm, seed_label: u64) {
    let constraint = HopConstraint::new(k);
    let plain = Solver::new(algorithm)
        .solve(g, &constraint)
        .expect("unbudgeted solve cannot fail");
    for threads in [1usize, 4] {
        let sharded = Solver::from_request(CoverRequest {
            sharding: ShardingMode::Threads(threads),
            ..CoverRequest::new(algorithm, k)
        })
        .solve(g, &constraint)
        .expect("unbudgeted solve cannot fail");
        assert_eq!(
            sharded.cover, plain.cover,
            "case {seed_label}, {algorithm}, k={k}, threads={threads}: covers differ"
        );
        assert_eq!(sharded.cover.len(), plain.cover.len());
        let v = verify_cover(g, &sharded.cover, &constraint);
        assert!(
            v.is_valid,
            "case {seed_label}, {algorithm}, k={k}: invalid, witness {:?}",
            v.witness
        );
    }
}

#[test]
fn partitioned_solve_equals_whole_graph_solve_on_random_multi_scc_graphs() {
    for case in 0..40u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x5AD_u64 ^ (case << 8));
        let g = random_multi_scc(&mut rng);
        let k = 3 + rng.next_index(3);
        check_equivalence(&g, k, Algorithm::TdbPlusPlus, case);
        if case % 4 == 0 {
            // The slower families on a quarter of the cases.
            check_equivalence(&g, k, Algorithm::BurPlus, case);
            check_equivalence(&g, k, Algorithm::DarcDv, case);
        }
    }
}

#[test]
fn single_scc_graph_partitions_into_one_shard_and_agrees() {
    // A complete digraph is one SCC covering every vertex: the partition has
    // exactly one shard, which must behave as an identity transformation.
    let g = tdb_graph::gen::complete_digraph(9);
    let cond = Condensation::of(&g);
    assert_eq!(cond.non_trivial().count(), 1);
    assert_eq!(cond.trivial_vertices(), 0);
    for algorithm in [Algorithm::TdbPlusPlus, Algorithm::BurPlus] {
        check_equivalence(&g, 4, algorithm, u64::MAX);
    }
}

#[test]
fn all_trivial_graph_partitions_into_zero_shards_and_agrees() {
    // A DAG has no non-trivial SCC: the sharded path must produce the same
    // (empty) cover without ever invoking the algorithm.
    let g = tdb_graph::gen::layered_dag(5, 6);
    let cond = Condensation::of(&g);
    assert_eq!(cond.non_trivial().count(), 0);
    let run = CoverRequest {
        sharding: ShardingMode::Auto,
        ..CoverRequest::new(Algorithm::TdbPlusPlus, 5)
    }
    .solve(&g)
    .unwrap();
    assert!(run.cover.is_empty());
    assert_eq!(run.metrics.scc_released as usize, g.num_vertices());
    assert_eq!(run.metrics.cycle_queries, 0);
    check_equivalence(&g, 5, Algorithm::TdbPlusPlus, u64::MAX - 1);
}

#[test]
fn sharding_composes_with_two_cycle_modes_on_random_graphs() {
    for case in 0..12u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x7C_u64 ^ (case << 9));
        let g = random_multi_scc(&mut rng);
        for mode in [TwoCycleMode::Integrated, TwoCycleMode::Separate] {
            let request = CoverRequest {
                include_two_cycles: true,
                two_cycle_mode: mode,
                ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
            };
            let plain = request.solve(&g).unwrap();
            let sharded = CoverRequest {
                sharding: ShardingMode::Threads(2),
                ..request
            }
            .solve(&g)
            .unwrap();
            assert_eq!(sharded.cover, plain.cover, "case {case}, {mode:?}");
            assert!(
                is_valid_cover(&g, &sharded.cover, &HopConstraint::with_two_cycles(4)),
                "case {case}, {mode:?}"
            );
        }
    }
}
