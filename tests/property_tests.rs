//! Property-style tests over random graphs: every fast algorithm must agree
//! with brute-force ground truth on validity, minimality, and cycle existence.
//!
//! The workspace builds offline, so instead of proptest these run a fixed
//! number of deterministic cases drawn from the vendored xoshiro256** RNG:
//! every case is reproducible from its printed seed.

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_cycle::enumerate::enumerate_cycles;
use tdb_cycle::{find_cycle_through, BlockSearcher};
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{random_edge_list, Xoshiro256};

/// A random directed graph with up to `n` vertices and `max_edges` edges,
/// described as an edge list (duplicates and self-loops are normalized away by
/// the builder).
fn random_graph(rng: &mut Xoshiro256, n: u32, max_edges: usize) -> CsrGraph {
    graph_from_edges(&random_edge_list(rng, n, max_edges))
}

fn random_k(rng: &mut Xoshiro256, lo: usize, hi: usize) -> usize {
    lo + rng.next_index(hi - lo)
}

fn solve(g: &CsrGraph, constraint: &HopConstraint, algorithm: Algorithm) -> CoverRun {
    Solver::new(algorithm)
        .solve(g, constraint)
        .expect("unbudgeted solve cannot fail")
}

/// Brute-force check that `cover` hits every constrained cycle.
fn brute_force_valid(g: &CsrGraph, cover: &CycleCover, constraint: &HopConstraint) -> bool {
    let active = ActiveSet::all_active(g.num_vertices());
    enumerate_cycles(g, &active, constraint, 1_000_000)
        .into_iter()
        .all(|c| c.iter().any(|&v| cover.contains(v)))
}

/// The block/barrier DFS answers exactly the same existence question as the
/// exhaustive DFS, for every vertex, both 2-cycle modes, and several k.
#[test]
fn block_dfs_agrees_with_naive_dfs() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(case);
        let g = random_graph(&mut rng, 18, 70);
        let k = random_k(&mut rng, 3, 6);
        let active = ActiveSet::all_active(g.num_vertices());
        let mut searcher = BlockSearcher::new(g.num_vertices());
        for include2 in [false, true] {
            let constraint = if include2 {
                HopConstraint::with_two_cycles(k)
            } else {
                HopConstraint::new(k)
            };
            for v in g.vertices() {
                let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
                let fast = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
                assert_eq!(
                    naive, fast,
                    "case {case}: vertex {v} k {k} include2 {include2}"
                );
            }
        }
    }
}

/// Every algorithm produces a cover that brute-force enumeration confirms,
/// and the minimality flag from the verifier is consistent with it.
#[test]
fn all_algorithms_produce_brute_force_valid_covers() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(1000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = random_k(&mut rng, 3, 6);
        let constraint = HopConstraint::new(k);
        for algorithm in [
            Algorithm::Bur,
            Algorithm::BurPlus,
            Algorithm::DarcDv,
            Algorithm::TdbPlusPlus,
            Algorithm::TdbExtended,
        ] {
            let run = solve(&g, &constraint, algorithm);
            assert!(
                brute_force_valid(&g, &run.cover, &constraint),
                "case {case}: {algorithm} produced an uncovered cycle"
            );
            let verdict = verify_cover(&g, &run.cover, &constraint);
            assert!(
                verdict.is_valid,
                "case {case}: {algorithm} flagged invalid by the verifier"
            );
        }
    }
}

/// The minimal algorithms (BUR+, the TDB family) never return a cover with
/// an individually redundant vertex.
#[test]
fn minimal_algorithms_are_minimal() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(2000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = random_k(&mut rng, 3, 6);
        let constraint = HopConstraint::new(k);
        for algorithm in [Algorithm::BurPlus, Algorithm::TdbPlusPlus] {
            let run = solve(&g, &constraint, algorithm);
            let verdict = verify_cover(&g, &run.cover, &constraint);
            assert!(
                verdict.is_minimal,
                "case {case}: {algorithm} left redundant vertices {:?}",
                verdict.redundant
            );
        }
    }
}

/// The TDB variants all compute the same cover, and the `TDB++X` extension
/// matches them too.
#[test]
fn tdb_variants_identical() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(3000 + case);
        let g = random_graph(&mut rng, 20, 80);
        let k = random_k(&mut rng, 3, 6);
        let constraint = HopConstraint::new(k);
        let reference = solve(&g, &constraint, Algorithm::Tdb);
        for algorithm in [
            Algorithm::TdbPlus,
            Algorithm::TdbPlusPlus,
            Algorithm::TdbExtended,
        ] {
            let run = solve(&g, &constraint, algorithm);
            assert_eq!(
                run.cover, reference.cover,
                "case {case}: {algorithm} differs"
            );
        }
    }
}

/// A cover for cycles of length up to `k` is automatically valid for every
/// smaller hop bound (the requirement shrinks), and stays minimal for its
/// own bound. (Cover *size* is not necessarily monotone in `k` for a
/// heuristic scan, so only the containment property is asserted.)
#[test]
fn k_cover_is_valid_for_smaller_k() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(4000 + case);
        let g = random_graph(&mut rng, 16, 60);
        let k = random_k(&mut rng, 4, 7);
        let big = solve(&g, &HopConstraint::new(k), Algorithm::TdbPlusPlus);
        let small_constraint = HopConstraint::new(k - 1);
        assert!(
            is_valid_cover(&g, &big.cover, &small_constraint),
            "case {case}"
        );
        assert!(
            verify_cover(&g, &big.cover, &HopConstraint::new(k)).is_minimal,
            "case {case}"
        );
    }
}

/// A cover for cycles of length `2..=k` is automatically a cover for
/// `3..=k` (the requirement is a superset), and it is brute-force valid.
/// Note the cover *size* is not monotone between the two modes: a kept
/// 2-cycle endpoint can cover several longer cycles at once, so the
/// with-2-cycles cover of a heuristic scan can be smaller.
#[test]
fn two_cycle_mode_is_a_superset_requirement() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(5000 + case);
        let g = random_graph(&mut rng, 16, 60);
        let k = random_k(&mut rng, 3, 6);
        let with = solve(
            &g,
            &HopConstraint::with_two_cycles(k),
            Algorithm::TdbPlusPlus,
        );
        assert!(
            brute_force_valid(&g, &with.cover, &HopConstraint::with_two_cycles(k)),
            "case {case}"
        );
        assert!(
            is_valid_cover(&g, &with.cover, &HopConstraint::new(k)),
            "case {case}"
        );
        assert!(
            verify_cover(&g, &with.cover, &HopConstraint::with_two_cycles(k)).is_minimal,
            "case {case}"
        );
    }
}

/// Removing the cover really leaves the graph free of short cycles, and the
/// cover never contains vertices that were never on any short cycle.
#[test]
fn cover_vertices_lie_on_cycles() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(6000 + case);
        let g = random_graph(&mut rng, 16, 60);
        let k = random_k(&mut rng, 3, 6);
        let constraint = HopConstraint::new(k);
        let run = solve(&g, &constraint, Algorithm::TdbPlusPlus);
        let all_active = ActiveSet::all_active(g.num_vertices());
        let mut searcher = BlockSearcher::new(g.num_vertices());
        for v in run.cover.iter() {
            assert!(
                searcher.is_on_constrained_cycle(&g, &all_active, v, &constraint),
                "case {case}: cover vertex {v} is not on any constrained cycle of the full graph"
            );
        }
    }
}

/// The DARC edge transversal (the algorithm the baseline is built from)
/// intersects every constrained cycle when viewed as an edge set.
#[test]
fn darc_edge_transversal_hits_every_cycle() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(7000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = random_k(&mut rng, 3, 5);
        let constraint = HopConstraint::new(k);
        let transversal = tdb_core::darc::darc_edge_transversal(&g, &constraint);
        let selected: std::collections::HashSet<_> = transversal.edges.iter().copied().collect();
        let active = ActiveSet::all_active(g.num_vertices());
        for cycle in enumerate_cycles(&g, &active, &constraint, 100_000) {
            let hit = cycle.iter().enumerate().any(|(i, &u)| {
                let v = cycle[(i + 1) % cycle.len()];
                selected.contains(&tdb_graph::Edge::new(u, v))
            });
            assert!(
                hit,
                "case {case}: cycle {cycle:?} misses the edge transversal"
            );
        }
    }
}
