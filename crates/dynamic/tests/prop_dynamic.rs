//! Property-style tests for the incremental maintenance engine: after any
//! random insert/delete sequence the dynamic cover must agree with a
//! from-scratch solve of the final graph — valid per the independent verifier,
//! minimal after re-minimization, and of comparable size. Every
//! `minimize()` must also return exactly the cover of a full Algorithm 7
//! pass (`minimal_prune`) over the materialized graph.
//!
//! Deterministic random cases driven by the vendored xoshiro256** RNG replace
//! proptest (the workspace builds offline, matching `prop_core.rs`); each case
//! is reproducible from its printed seed.

use std::ops::Range;

use tdb_core::prelude::*;
use tdb_core::verify::verify_by_enumeration;
use tdb_dynamic::{DynamicConfig, DynamicCover, EdgeBatch, EdgeOp, SolveDynamic};
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{multi_scc_chain, random_edge_list, MultiSccConfig, Xoshiro256};
use tdb_graph::{CsrGraph, Graph, GraphView, VertexId};

fn random_graph(rng: &mut Xoshiro256, n: u32, max_edges: usize) -> CsrGraph {
    graph_from_edges(&random_edge_list(rng, n, max_edges))
}

/// A random stream of insertions and removals with both endpoints in
/// `vertices`. Removals are drawn from the live edges inside that range so a
/// meaningful fraction actually hits.
fn random_ops(
    rng: &mut Xoshiro256,
    g: &CsrGraph,
    vertices: Range<VertexId>,
    count: usize,
) -> Vec<EdgeOp> {
    let mut live: Vec<(VertexId, VertexId)> = g
        .edges()
        .map(|e| (e.source, e.target))
        .filter(|(u, v)| vertices.contains(u) && vertices.contains(v))
        .collect();
    let span = vertices.len();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let remove = !live.is_empty() && rng.next_index(3) == 0;
        if remove {
            let idx = rng.next_index(live.len());
            let (u, v) = live.swap_remove(idx);
            ops.push(EdgeOp::Remove(u, v));
        } else {
            let u = vertices.start + rng.next_index(span) as VertexId;
            let v = vertices.start + rng.next_index(span) as VertexId;
            if u == v {
                continue;
            }
            live.push((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
    }
    ops
}

/// Run `minimize()` and check it against a full Algorithm 7 pass: the result
/// equals `minimal_prune` run over the whole pre-minimize cover of the
/// materialized graph, and it is valid and minimal.
fn minimize_and_check(dynamic: &mut DynamicCover, label: &str) {
    let g = dynamic.materialize();
    let constraint = *dynamic.constraint();
    let mut expected = dynamic.cover().clone();
    let mut metrics = RunMetrics::new(
        "full-pass",
        constraint.max_hops,
        constraint.include_two_cycles,
    );
    let expected_removed = minimal_prune(
        &g,
        &mut expected,
        &constraint,
        SearchEngine::Block,
        &mut metrics,
    );
    let removed = dynamic.minimize();
    assert_eq!(
        dynamic.cover(),
        &expected,
        "{label}: minimize differs from a full pass"
    );
    assert_eq!(removed, expected_removed, "{label}: removed count");
    assert!(!dynamic.is_dirty(), "{label}: still dirty");
    let v = verify_cover(&g, dynamic.cover(), &constraint);
    assert!(v.is_valid, "{label}: invalid after minimize");
    assert!(
        v.is_minimal,
        "{label}: redundant after minimize: {:?}",
        v.redundant
    );
}

/// After every batch of an arbitrary update sequence the dynamic cover is
/// valid (checked both by the block verifier and by brute-force enumeration)
/// and the re-minimization that follows equals a full Algorithm 7 pass; the
/// final cover is within a small factor of the from-scratch solver's size.
#[test]
fn incremental_matches_scratch_after_random_churn() {
    for case in 0..32u64 {
        let mut rng = Xoshiro256::seed_from_u64(9000 + case);
        let g = random_graph(&mut rng, 16, 50);
        let k = 3 + rng.next_index(3);
        let constraint = HopConstraint::new(k);
        let ops = random_ops(&mut rng, &g, 0..16, 60);

        let mut dynamic = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(g, &constraint)
            .unwrap();
        for (i, chunk) in ops.chunks(10).enumerate() {
            let batch: EdgeBatch = chunk.iter().copied().collect();
            dynamic.apply(&batch);
            // The headline invariant: valid after *every* batch.
            assert!(dynamic.is_valid(), "case {case}: invalid mid-stream");
            assert!(
                verify_by_enumeration(
                    &dynamic.materialize(),
                    dynamic.cover(),
                    &constraint,
                    1_000_000
                )
                .is_ok(),
                "case {case}, batch {i}: brute-force found an uncovered cycle"
            );
            minimize_and_check(&mut dynamic, &format!("case {case}, batch {i}"));
        }

        let final_graph = dynamic.materialize();

        // Size parity with a from-scratch solve. Minimal covers are not
        // unique, so exact equality is not required — but the maintained
        // cover must stay in the same league as the static solver's.
        let scratch = Solver::new(Algorithm::TdbPlusPlus)
            .solve(&final_graph, &constraint)
            .unwrap();
        assert!(
            dynamic.cover().len() <= 2 * scratch.cover_size() + 2,
            "case {case}: dynamic {} vs scratch {}",
            dynamic.cover().len(),
            scratch.cover_size()
        );
        if scratch.cover_size() == 0 {
            assert!(dynamic.cover().is_empty(), "case {case}");
        }
    }
}

/// Tearing a graph all the way down leaves an empty cover, and rebuilding it
/// edge-for-edge leaves a cover equivalent to solving the rebuilt graph.
#[test]
fn teardown_and_rebuild_round_trip() {
    for case in 0..16u64 {
        let mut rng = Xoshiro256::seed_from_u64(11_000 + case);
        let g = random_graph(&mut rng, 14, 40);
        let constraint = HopConstraint::new(4);
        let edges: Vec<(VertexId, VertexId)> = g.edges().map(|e| (e.source, e.target)).collect();

        let mut dynamic = DynamicCover::new(g, constraint);
        for &(u, v) in &edges {
            dynamic.remove_edge(u, v);
        }
        assert_eq!(dynamic.graph().edge_count(), 0, "case {case}");
        dynamic.minimize();
        assert!(
            dynamic.cover().is_empty(),
            "case {case}: empty graph, nonempty cover"
        );

        for &(u, v) in &edges {
            dynamic.insert_edge(u, v);
        }
        assert!(dynamic.is_valid(), "case {case}");
        dynamic.minimize();
        let rebuilt = dynamic.materialize();
        assert_eq!(rebuilt.num_edges(), edges.len(), "case {case}");
        let v = verify_cover(&rebuilt, dynamic.cover(), &constraint);
        assert!(v.is_valid && v.is_minimal, "case {case}");
    }
}

/// The engine behaves identically across compaction policies: compacting
/// aggressively, lazily, or never must produce the same cover trajectory.
#[test]
fn compaction_policy_does_not_change_results() {
    for case in 0..12u64 {
        let mut rng = Xoshiro256::seed_from_u64(13_000 + case);
        let g = random_graph(&mut rng, 16, 50);
        let constraint = HopConstraint::new(4);
        let ops = random_ops(&mut rng, &g, 0..16, 50);

        let covers: Vec<Vec<VertexId>> = [1usize, 16, usize::MAX]
            .into_iter()
            .map(|threshold| {
                let mut d = Solver::new(Algorithm::TdbPlusPlus)
                    .solve_dynamic_with_config(
                        g.clone(),
                        &constraint,
                        DynamicConfig {
                            compaction_threshold: threshold,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                for (i, chunk) in ops.chunks(10).enumerate() {
                    for &op in chunk {
                        match op {
                            EdgeOp::Insert(u, v) => {
                                d.insert_edge(u, v);
                            }
                            EdgeOp::Remove(u, v) => {
                                d.remove_edge(u, v);
                            }
                        }
                    }
                    let label = format!("case {case}, threshold {threshold}, chunk {i}");
                    minimize_and_check(&mut d, &label);
                }
                d.cover().iter().collect()
            })
            .collect();
        assert_eq!(covers[0], covers[1], "case {case}: threshold 1 vs 16");
        assert_eq!(covers[1], covers[2], "case {case}: threshold 16 vs never");
    }
}

/// Churn confined to one block of a chain of strongly connected blocks: the
/// shape where re-checking only the touched component would skip the cover
/// vertices of every other block. Every `minimize()` must still equal a full
/// Algorithm 7 pass.
#[test]
fn multi_scc_churn_in_one_block_matches_a_full_pass() {
    // Cover vertices outside the churned block, summed over every pass, and
    // vertices pruned: both must be nonzero for the family to exercise the
    // shape at all.
    let (mut outside, mut pruned) = (0usize, 0usize);
    for case in 0..24u64 {
        let mut rng = Xoshiro256::seed_from_u64(15_000 + case);
        let blocks = 3 + rng.next_index(3);
        let size = 6 + rng.next_index(6) as u32;
        let config = MultiSccConfig::uniform(blocks, size, 2 * size as usize, 3, case);
        let g = multi_scc_chain(&config);
        let k = 3 + rng.next_index(3);
        let constraint = HopConstraint::new(k);
        let block = rng.next_index(blocks) as VertexId;
        let churned = block * size..(block + 1) * size;
        let ops = random_ops(&mut rng, &g, churned.clone(), 60);

        let mut dynamic = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(g, &constraint)
            .unwrap();
        for (i, chunk) in ops.chunks(10).enumerate() {
            let batch: EdgeBatch = chunk.iter().copied().collect();
            dynamic.apply(&batch);
            assert!(dynamic.is_valid(), "case {case}, batch {i}: invalid");
            outside += dynamic
                .cover()
                .iter()
                .filter(|v| !churned.contains(v))
                .count();
            let before = dynamic.cover().len();
            minimize_and_check(&mut dynamic, &format!("case {case}, batch {i}"));
            pruned += before - dynamic.cover().len();
        }
    }
    assert!(
        outside > 0 && pruned > 0,
        "{outside} outside, {pruned} pruned"
    );
}
