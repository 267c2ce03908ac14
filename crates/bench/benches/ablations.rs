//! Ablation benches for the design choices called out in `DESIGN.md` §7.
//!
//! * `ablation_engine` — block DFS vs naive DFS as the per-query primitive
//!   (the TDB → TDB+ step in isolation, measured on raw queries).
//! * `ablation_filter` — BFS filter on/off and the exact-filter extension
//!   (the TDB+ → TDB++ → TDB++X ladder).
//! * `ablation_scc` — SCC pre-filter on/off.
//! * `ablation_order` — vertex scan order sensitivity.
//! * `ablation_minimal_engine` — Algorithm 7 driven by the naive vs block DFS.
//!
//! The scan-order ablation runs a [`CoverRequest`]; the filter, SCC
//! and minimize-engine ablations toggle family options the [`Algorithm`]
//! enum does not name, so they call the families' `_with` entry points
//! directly, and the raw-query ablation touches the search primitives.

use tdb_bench::bench_support::small_proxy;
use tdb_bench::microbench::Microbench;
use tdb_core::prelude::*;
use tdb_cycle::{find_cycle_through, BlockSearcher};
use tdb_datasets::Dataset;
use tdb_graph::{ActiveSet, CsrGraph, Graph};

/// Cover size of a top-down solve under `config`.
fn top_down_size(config: &TopDownConfig, g: &CsrGraph, constraint: &HopConstraint) -> usize {
    top_down_cover_with(g, constraint, config, &mut SolveContext::new())
        .expect("unbudgeted solve cannot fail")
        .cover_size()
}

/// Cover size of a bottom-up solve under `config`.
fn bottom_up_size(config: &BottomUpConfig, g: &CsrGraph, constraint: &HopConstraint) -> usize {
    bottom_up_cover_with(g, constraint, config, &mut SolveContext::new())
        .expect("unbudgeted solve cannot fail")
        .cover_size()
}

fn bench_engine_queries(bench: &Microbench) {
    let g = small_proxy(Dataset::WikiVote, 4000);
    let active = ActiveSet::all_active(g.num_vertices());
    let constraint = HopConstraint::new(5);
    let mut searcher = BlockSearcher::new(g.num_vertices());
    bench.bench("ablation_engine/block_dfs_all_vertices", || {
        let mut hits = 0usize;
        for v in g.vertices() {
            if searcher.is_on_constrained_cycle(&g, &active, v, &constraint) {
                hits += 1;
            }
        }
        hits
    });
    bench.bench("ablation_engine/naive_dfs_all_vertices", || {
        let mut hits = 0usize;
        for v in g.vertices() {
            if find_cycle_through(&g, &active, v, &constraint).is_some() {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_filters(bench: &Microbench) {
    let g = small_proxy(Dataset::WebGoogle, 8000);
    let constraint = HopConstraint::new(5);
    for (label, config) in [
        ("tdb_plus_no_filter", TopDownConfig::tdb_plus()),
        ("tdb_plus_plus_bfs_filter", TopDownConfig::tdb_plus_plus()),
        ("tdb_extended_exact_filter", TopDownConfig::extended()),
    ] {
        bench.bench(&format!("ablation_filter/{label}"), || {
            top_down_size(&config, &g, &constraint)
        });
    }
}

fn bench_scc_prefilter(bench: &Microbench) {
    // Citation-class proxies have a large acyclic fringe, the best case for the
    // SCC pre-filter.
    let g = small_proxy(Dataset::Citeseer, 8000);
    let constraint = HopConstraint::new(5);
    let without = TopDownConfig::tdb_plus_plus();
    let with = TopDownConfig {
        scc_prefilter: true,
        ..TopDownConfig::tdb_plus_plus()
    };
    bench.bench("ablation_scc/without_scc_prefilter", || {
        top_down_size(&without, &g, &constraint)
    });
    bench.bench("ablation_scc/with_scc_prefilter", || {
        top_down_size(&with, &g, &constraint)
    });
}

fn bench_scan_order(bench: &Microbench) {
    let g = small_proxy(Dataset::WikiVote, 4000);
    let constraint = HopConstraint::new(5);
    for (label, order) in [
        ("ascending", ScanOrder::Ascending),
        ("degree_descending", ScanOrder::DegreeDescending),
        ("degree_ascending", ScanOrder::DegreeAscending),
        ("random", ScanOrder::Random(7)),
    ] {
        let solver = Solver::from_request(CoverRequest {
            scan_order: order,
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 5)
        });
        bench.bench(&format!("ablation_order/{label}"), || {
            solver.solve(&g, &constraint).unwrap().cover_size()
        });
    }
}

fn bench_minimal_engine(bench: &Microbench) {
    let g = small_proxy(Dataset::AsCaida, 2500);
    let constraint = HopConstraint::new(4);
    for (label, engine) in [
        ("naive_find_cycle", SearchEngine::Naive),
        ("block_dfs", SearchEngine::Block),
    ] {
        let mut config = BottomUpConfig::bur_plus();
        config.minimal_engine = engine;
        bench.bench(&format!("ablation_minimal_engine/{label}"), || {
            bottom_up_size(&config, &g, &constraint)
        });
    }
}

fn main() {
    let bench = Microbench::new("ablations");
    bench_engine_queries(&bench);
    bench_filters(&bench);
    bench_scc_prefilter(&bench);
    bench_scan_order(&bench);
    bench_minimal_engine(&bench);
}
