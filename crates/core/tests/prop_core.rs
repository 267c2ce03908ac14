//! Property-style tests for the cover algorithms, at the crate level: validity
//! and minimality against brute-force enumeration, and structural relations
//! between the algorithm families.
//!
//! Deterministic random cases driven by the vendored xoshiro256** RNG replace
//! proptest (the workspace builds offline); each case is reproducible from its
//! printed seed.

use tdb_core::prelude::*;
use tdb_core::verify::verify_by_enumeration;
use tdb_cycle::enumerate::enumerate_cycles;
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{random_edge_list, Xoshiro256};
use tdb_graph::{ActiveSet, CsrGraph, Graph};

fn random_graph(rng: &mut Xoshiro256, n: u32, max_edges: usize) -> CsrGraph {
    graph_from_edges(&random_edge_list(rng, n, max_edges))
}

/// The top-down cover is brute-force valid, minimal, and never larger than
/// the total number of constrained cycles (each kept vertex kills at least
/// one otherwise-uncovered cycle).
#[test]
fn top_down_structural_bounds() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(case);
        let g = random_graph(&mut rng, 16, 60);
        let k = 3 + rng.next_index(3);
        let constraint = HopConstraint::new(k);
        let run = Solver::new(Algorithm::TdbPlusPlus)
            .solve(&g, &constraint)
            .unwrap();
        assert!(
            verify_by_enumeration(&g, &run.cover, &constraint, 1_000_000).is_ok(),
            "case {case}"
        );
        assert!(
            verify_cover(&g, &run.cover, &constraint).is_minimal,
            "case {case}"
        );
        let active = ActiveSet::all_active(g.num_vertices());
        let total_cycles = enumerate_cycles(&g, &active, &constraint, 1_000_000).len();
        assert!(
            run.cover_size() <= total_cycles,
            "case {case}: cover {} larger than cycle count {total_cycles}",
            run.cover_size()
        );
        if total_cycles == 0 {
            assert!(run.cover.is_empty(), "case {case}");
        } else {
            assert!(!run.cover.is_empty(), "case {case}");
        }
    }
}

/// BUR+ equals BUR followed by the stand-alone minimal pruning pass.
#[test]
fn bur_plus_is_bur_plus_pruning() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(1000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = 3 + rng.next_index(3);
        let constraint = HopConstraint::new(k);
        let plain = Solver::new(Algorithm::Bur).solve(&g, &constraint).unwrap();
        let plus = Solver::new(Algorithm::BurPlus)
            .solve(&g, &constraint)
            .unwrap();
        let mut manual = plain.cover.clone();
        let mut metrics = RunMetrics::new("manual", k, false);
        minimal_prune(
            &g,
            &mut manual,
            &constraint,
            SearchEngine::Naive,
            &mut metrics,
        );
        assert_eq!(&manual, &plus.cover, "case {case}");
        assert!(plus.cover_size() <= plain.cover_size(), "case {case}");
    }
}

/// The DARC-DV baseline is valid (brute force) even though it is allowed to
/// be larger than the other covers.
#[test]
fn darc_dv_brute_force_valid() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(2000 + case);
        let g = random_graph(&mut rng, 12, 40);
        let k = 3 + rng.next_index(2);
        let constraint = HopConstraint::new(k);
        let run = Solver::new(Algorithm::DarcDv)
            .solve(&g, &constraint)
            .unwrap();
        assert!(
            verify_by_enumeration(&g, &run.cover, &constraint, 1_000_000).is_ok(),
            "case {case}"
        );
    }
}

/// Every vertex the verifier reports as redundant really can be removed on
/// its own without exposing a cycle.
#[test]
fn reported_redundancy_is_real() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(3000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = 3 + rng.next_index(3);
        let constraint = HopConstraint::new(k);
        // Deliberately oversized cover: every vertex with positive degree.
        let oversized: CycleCover = g
            .vertices()
            .filter(|&v| g.out_degree(v) > 0 || g.in_degree(v) > 0)
            .collect();
        for v in tdb_core::minimal::redundant_vertices(&g, &oversized, &constraint) {
            let mut without = oversized.clone();
            without.remove(v);
            assert!(
                verify_by_enumeration(&g, &without, &constraint, 1_000_000).is_ok(),
                "case {case}: removing {v} was reported safe but exposes a cycle"
            );
        }
    }
}

/// The combined 2-cycle + top-down strategy (a `Separate` TDB++ request)
/// always yields a cover valid for the 2..=k constraint.
#[test]
fn combined_two_cycle_strategy_valid() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from_u64(4000 + case);
        let g = random_graph(&mut rng, 14, 50);
        let k = 3 + rng.next_index(3);
        let run = CoverRequest {
            include_two_cycles: true,
            two_cycle_mode: TwoCycleMode::Separate,
            ..CoverRequest::new(Algorithm::TdbPlusPlus, k)
        }
        .solve(&g)
        .unwrap();
        assert!(
            verify_by_enumeration(
                &g,
                &run.cover,
                &HopConstraint::with_two_cycles(k),
                1_000_000
            )
            .is_ok(),
            "case {case}"
        );
    }
}
