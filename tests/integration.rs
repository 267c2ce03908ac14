//! Cross-crate integration tests: dataset proxies flow through generation,
//! serialization, every cover algorithm (via the unified `Solver`), and
//! independent verification.

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_datasets::{synthesize, Dataset, SynthesisConfig};
use tdb_graph::io;

fn tiny_proxy(dataset: Dataset) -> CsrGraph {
    synthesize(
        dataset,
        &SynthesisConfig {
            scale: 0.003,
            seed: 42,
            max_edges: 2_500,
            max_vertices: 1_200,
        },
    )
}

fn solve(g: &CsrGraph, constraint: &HopConstraint, algorithm: Algorithm) -> CoverRun {
    Solver::new(algorithm)
        .solve(g, constraint)
        .expect("unbudgeted solve cannot fail")
}

#[test]
fn every_algorithm_is_valid_on_dataset_proxies() {
    let constraint = HopConstraint::new(4);
    for dataset in [Dataset::WikiVote, Dataset::AsCaida, Dataset::Gnutella31] {
        let g = tiny_proxy(dataset);
        for algorithm in Algorithm::all() {
            let run = solve(&g, &constraint, algorithm);
            let verification = verify_cover(&g, &run.cover, &constraint);
            assert!(
                verification.is_valid,
                "{algorithm} invalid on {dataset:?}: witness {:?}",
                verification.witness
            );
        }
    }
}

#[test]
fn graph_io_round_trip_preserves_cover_results() {
    let g = tiny_proxy(Dataset::Slashdot0902);
    let constraint = HopConstraint::new(4);
    let solver = Solver::new(Algorithm::TdbPlusPlus);
    let before = solver.solve(&g, &constraint).unwrap();

    let dir = std::env::temp_dir().join(format!("tdb_integration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Text round trip.
    let text_path = dir.join("proxy.txt");
    io::write_edge_list(&g, &text_path).unwrap();
    let text_graph = io::read_edge_list(&text_path).unwrap();
    let after_text = solver.solve(&text_graph, &constraint).unwrap();
    assert_eq!(before.cover, after_text.cover);

    // Binary round trip.
    let bin_path = dir.join("proxy.tdbg");
    io::write_binary(&g, &bin_path).unwrap();
    let bin_graph = io::read_binary(&bin_path).unwrap();
    let after_bin = solver.solve(&bin_graph, &constraint).unwrap();
    assert_eq!(before.cover, after_bin.cover);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cover_size_ordering_matches_the_paper_trend() {
    // Table III / Figure 7: BUR+ produces the smallest covers, DARC-DV the
    // largest, TDB++ sits close to BUR+. Summed over several proxies the
    // ordering is robust even at tiny scale.
    let constraint = HopConstraint::new(4);
    let mut total_bur_plus = 0usize;
    let mut total_darc = 0usize;
    let mut total_tdb = 0usize;
    for dataset in [
        Dataset::WikiVote,
        Dataset::AsCaida,
        Dataset::Gnutella31,
        Dataset::EmailEuAll,
    ] {
        let g = tiny_proxy(dataset);
        total_bur_plus += solve(&g, &constraint, Algorithm::BurPlus).cover_size();
        total_darc += solve(&g, &constraint, Algorithm::DarcDv).cover_size();
        total_tdb += solve(&g, &constraint, Algorithm::TdbPlusPlus).cover_size();
    }
    assert!(
        total_bur_plus <= total_darc,
        "BUR+ total {total_bur_plus} should not exceed DARC-DV total {total_darc}"
    );
    assert!(
        total_tdb <= total_darc,
        "TDB++ total {total_tdb} should not exceed DARC-DV total {total_darc}"
    );
    assert!(
        total_tdb as f64 <= total_bur_plus as f64 * 1.6 + 4.0,
        "TDB++ total {total_tdb} strays too far from BUR+ total {total_bur_plus}"
    );
}

#[test]
fn tdb_variants_report_decreasing_search_effort() {
    // Figure 10: the block DFS and the BFS filter each cut work. Wall-clock is
    // noisy in CI, so the assertion is on the amount of search performed.
    let g = tiny_proxy(Dataset::WikiTalk);
    let constraint = HopConstraint::new(5);
    let tdb_plus = solve(&g, &constraint, Algorithm::TdbPlus);
    let tdb_pp = solve(&g, &constraint, Algorithm::TdbPlusPlus);
    assert_eq!(tdb_plus.cover, tdb_pp.cover);
    assert!(
        tdb_pp.metrics.cycle_queries <= tdb_plus.metrics.cycle_queries,
        "BFS filter should never increase the number of DFS queries ({} vs {})",
        tdb_pp.metrics.cycle_queries,
        tdb_plus.metrics.cycle_queries
    );
    assert!(tdb_pp.metrics.filter_released > 0);
}

#[test]
fn two_cycle_table_ratio_exceeds_one_on_reciprocal_proxies() {
    // Table IV: including 2-cycles grows the cover substantially on graphs with
    // reciprocated edges.
    let g = tiny_proxy(Dataset::Slashdot0902);
    let without = solve(&g, &HopConstraint::new(5), Algorithm::TdbPlusPlus);
    let with = solve(
        &g,
        &HopConstraint::with_two_cycles(5),
        Algorithm::TdbPlusPlus,
    );
    assert!(with.cover_size() > without.cover_size());
    assert!(verify_cover(&g, &with.cover, &HopConstraint::with_two_cycles(5)).is_valid);
}

#[test]
fn runtime_gap_tdb_vs_darc_on_a_dense_proxy() {
    // Table III headline: TDB++ is orders of magnitude faster than DARC-DV.
    // At this proxy size the measured gap is well over an order of magnitude,
    // so a conservative 3x assertion is safe against CI noise.
    let g = synthesize(
        Dataset::Slashdot0902,
        &SynthesisConfig {
            scale: 0.0015,
            seed: 42,
            max_edges: 3_000,
            max_vertices: 1_000,
        },
    );
    let constraint = HopConstraint::new(5);
    let darc = solve(&g, &constraint, Algorithm::DarcDv);
    let tdb = solve(&g, &constraint, Algorithm::TdbPlusPlus);
    assert!(
        darc.metrics.elapsed > tdb.metrics.elapsed * 3,
        "expected DARC-DV ({:?}) to be much slower than TDB++ ({:?})",
        darc.metrics.elapsed,
        tdb.metrics.elapsed
    );
}

#[test]
fn scaling_the_proxy_grows_the_cover() {
    // Sanity link between tdb-datasets and tdb-core: a larger proxy of the same
    // dataset has at least as many short cycles to cover.
    let constraint = HopConstraint::new(4);
    let small = synthesize(
        Dataset::WikiVote,
        &SynthesisConfig {
            scale: 0.002,
            ..SynthesisConfig::tiny()
        },
    );
    let large = synthesize(
        Dataset::WikiVote,
        &SynthesisConfig {
            scale: 0.02,
            ..SynthesisConfig::tiny()
        },
    );
    let small_run = solve(&small, &constraint, Algorithm::TdbPlusPlus);
    let large_run = solve(&large, &constraint, Algorithm::TdbPlusPlus);
    assert!(large_run.cover_size() >= small_run.cover_size());
}
