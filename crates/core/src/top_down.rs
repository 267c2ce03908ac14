//! The top-down cover family — `TDB`, `TDB+`, `TDB++` (Section VI, Algorithm 8)
//! plus the extensions evaluated in the ablation benches.
//!
//! The top-down process is the opposite of the bottom-up one: it starts from
//! the *full* cover (every vertex) and an empty working graph `G0`, then scans
//! the vertices once. For each vertex `v` it tentatively re-inserts `v`'s edges
//! into `G0` and asks whether that creates a hop-constrained cycle through `v`:
//!
//! * if **no**, `v` is not needed — it is released from the cover and its edges
//!   stay in `G0`;
//! * if **yes**, `v` stays in the cover and its edges are removed again.
//!
//! `G0` is therefore always the subgraph induced by the released vertices (plus
//! the vertex currently under test), which this implementation represents with
//! an [`ActiveSet`] instead of a materialized graph — activating a vertex *is*
//! inserting its in- and out-edges.
//!
//! The three paper variants differ only in how the per-vertex question is
//! answered:
//!
//! * **TDB** — the naive bounded DFS (Algorithm 5),
//! * **TDB+** — the `O(k·m)` block/barrier DFS (Algorithms 9–10),
//! * **TDB++** — TDB+ preceded by the linear BFS filter (Algorithm 11).
//!
//! Both engines of `tdb-cycle` do less work than the paper's versions and give
//! the same answers: the block DFS starts its barriers from a `k − 2`-hop
//! backward BFS ball around `v` rather than from 0, and the BFS filter stops at
//! the first closed walk it finds rather than finishing its `k − 1`-hop ball.
//! Covers, metrics and witnesses are those of the paper's algorithms; only the
//! engines' own work counters (`SearchStats`) and the timings differ.
//!
//! Correctness and minimality of the result follow the argument of Theorem 7:
//! when the scan finishes, any remaining cycle would have had all of its
//! vertices released, but then its last-scanned vertex would have seen the
//! cycle and been kept; and every kept vertex has a witness cycle whose other
//! vertices are all released, so it cannot be dropped either.

use tdb_cycle::bfs_filter::FilterDecision;
use tdb_cycle::HopConstraint;
use tdb_graph::scc::tarjan_scc;
use tdb_graph::{Graph, VertexId};

use crate::cover::{CoverRun, CycleCover, RunMetrics};
use crate::minimal::SearchEngine;
use crate::solver::{SolveContext, SolveError, SolveScratch};
use crate::stats::Timer;

/// Order in which the top-down scan processes vertices.
///
/// The paper scans in ascending vertex id; the alternatives quantify how much
/// the cover size depends on that choice (ablation `ablation_order`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanOrder {
    /// Ascending vertex id (the paper's order).
    #[default]
    Ascending,
    /// Descending total degree (hubs first — hubs tend to be kept, covering
    /// many cycles early).
    DegreeDescending,
    /// Ascending total degree (leaves first).
    DegreeAscending,
    /// Deterministic pseudo-random permutation with the given seed.
    Random(u64),
}

/// Configuration of the top-down algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopDownConfig {
    /// Engine answering the per-vertex cycle-existence question.
    pub engine: SearchEngine,
    /// Run the BFS filter (Algorithm 11) before the DFS.
    pub bfs_filter: bool,
    /// Extension: let the BFS filter also *prove* vertices necessary (skip the
    /// DFS when the shortest closed walk is an admissible cycle).
    pub exact_filter: bool,
    /// Extension: release all vertices outside non-trivial strongly connected
    /// components up front, without any per-vertex search.
    pub scc_prefilter: bool,
    /// Vertex scan order.
    pub scan_order: ScanOrder,
}

impl Default for TopDownConfig {
    fn default() -> Self {
        TopDownConfig::tdb_plus_plus()
    }
}

impl TopDownConfig {
    /// Plain `TDB`: naive DFS, no filters.
    pub fn tdb() -> Self {
        TopDownConfig {
            engine: SearchEngine::Naive,
            bfs_filter: false,
            exact_filter: false,
            scc_prefilter: false,
            scan_order: ScanOrder::Ascending,
        }
    }

    /// `TDB+`: block DFS, no BFS filter.
    pub fn tdb_plus() -> Self {
        TopDownConfig {
            engine: SearchEngine::Block,
            ..TopDownConfig::tdb()
        }
    }

    /// `TDB++`: block DFS preceded by the BFS filter — the paper's flagship
    /// configuration.
    pub fn tdb_plus_plus() -> Self {
        TopDownConfig {
            engine: SearchEngine::Block,
            bfs_filter: true,
            ..TopDownConfig::tdb()
        }
    }

    /// Extension: `TDB++` with the exact-filter shortcut and SCC pre-filter.
    pub fn extended() -> Self {
        TopDownConfig {
            engine: SearchEngine::Block,
            bfs_filter: true,
            exact_filter: true,
            scc_prefilter: true,
            scan_order: ScanOrder::Ascending,
        }
    }

    /// Set the scan order (builder style).
    pub fn with_scan_order(mut self, order: ScanOrder) -> Self {
        self.scan_order = order;
        self
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match (
            self.engine,
            self.bfs_filter,
            self.exact_filter || self.scc_prefilter,
        ) {
            (SearchEngine::Naive, false, false) => "TDB",
            (SearchEngine::Block, false, false) => "TDB+",
            (SearchEngine::Block, true, false) => "TDB++",
            (SearchEngine::Block, true, true) => "TDB++X",
            _ => "TDB*",
        }
    }
}

/// Compute the scan order as an explicit permutation of the vertex ids, into a
/// reusable buffer.
fn scan_permutation_into<G: Graph>(g: &G, order: ScanOrder, vertices: &mut Vec<VertexId>) {
    let n = g.num_vertices();
    vertices.clear();
    vertices.extend(0..n as VertexId);
    match order {
        ScanOrder::Ascending => {}
        ScanOrder::DegreeDescending => {
            vertices.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v) + g.in_degree(v)));
        }
        ScanOrder::DegreeAscending => {
            vertices.sort_by_key(|&v| g.out_degree(v) + g.in_degree(v));
        }
        ScanOrder::Random(seed) => {
            let mut rng = tdb_graph::gen::Xoshiro256::seed_from_u64(seed);
            rng.shuffle(vertices);
        }
    }
}

/// Refine a scan permutation for a weight-aware solve: stable-sort so that
/// costlier vertices are scanned *first*. Early-scanned vertices face a sparse
/// `G0` and tend to be released; late-scanned ones face the dense end of the
/// scan and tend to be kept — so scanning expensive vertices early biases the
/// kept (cover) positions toward cheap vertices without changing any
/// keep/release decision's correctness (the scan is correct under any
/// permutation). The sort is stable and keyed on cost alone, so under equal
/// weights it is the identity and the unweighted scan order is preserved
/// bit-exactly.
fn order_costly_first(costs: &tdb_graph::CostModel, vertices: &mut [VertexId]) {
    if costs.is_uniform() {
        return;
    }
    vertices.sort_by_key(|&v| std::cmp::Reverse(costs.cost(v)));
}

/// Budget- and progress-aware top-down cover computation.
///
/// Checks `ctx`'s deadline once per scanned vertex and reports progress as the
/// scan advances; the completed run's metrics are folded into `ctx`'s totals.
pub fn top_down_cover_with<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    config: &TopDownConfig,
    ctx: &mut SolveContext,
) -> Result<CoverRun, SolveError> {
    let mut scratch = ctx.take_scratch();
    let result = top_down_scan(g, constraint, config, ctx, &mut scratch);
    ctx.restore_scratch(scratch);
    result
}

/// The scan itself, factored out so the entry point can hand the borrowed
/// scratch back to the context on *every* exit path (including a budget
/// overrun surfacing through `?`).
fn top_down_scan<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    config: &TopDownConfig,
    ctx: &mut SolveContext,
    scratch: &mut SolveScratch,
) -> Result<CoverRun, SolveError> {
    ctx.ensure_armed();
    let _solve_span = tdb_obs::trace::span_owned(format!("solve/{}", config.name()));
    let timer = Timer::start();
    let n = g.num_vertices();
    let mut metrics = RunMetrics::new(
        config.name(),
        constraint.max_hops,
        constraint.include_two_cycles,
    );
    metrics.working_edges = g.num_edges();

    // G0 starts empty: nothing is active, everything is (conceptually) covered.
    scratch.reset_active(n, false);
    let mut cover_vertices: Vec<VertexId> = Vec::new();

    // Optional SCC pre-filter: a vertex in a trivial SCC (and, when 2-cycles
    // matter, without any reciprocated edge) can never lie on a constrained
    // cycle of the full graph, let alone of a subgraph — release it for free.
    scratch.reset_prereleased(n);
    if config.scc_prefilter {
        let _span = tdb_obs::trace::span("solve/scc_prefilter");
        let _timer = tdb_obs::histogram!("tdb_solve_scc_prefilter_seconds").start();
        let scc = tarjan_scc(g);
        let candidates = scc.cycle_candidates();
        for v in 0..n as VertexId {
            if !candidates[v as usize] {
                scratch.prereleased.insert(v as usize);
                scratch.active.activate(v);
                metrics.scc_released += 1;
            }
        }
    }

    scan_permutation_into(g, config.scan_order, &mut scratch.order);
    order_costly_first(ctx.vertex_costs(), &mut scratch.order);
    let total = scratch.order.len() as u64;
    let _scan_span = tdb_obs::trace::span("solve/scan");
    let _scan_timer = tdb_obs::histogram!("tdb_solve_scan_seconds").start();
    for scanned in 0..scratch.order.len() {
        let v = scratch.order[scanned];
        ctx.checkpoint()?;
        ctx.report_progress(scanned as u64, total, cover_vertices.len() as u64);
        if scratch.prereleased.contains(v as usize) {
            continue;
        }
        // Tentatively insert v's in- and out-edges into G0 (Algorithm 8 line 3).
        scratch.active.activate(v);

        if config.bfs_filter {
            let decision = {
                // Sampled 1-in-64: a per-decision timer costs two clock reads
                // per scanned vertex, which alone would blow the documented
                // 2% overhead budget on millisecond-scale solves. Sampling
                // preserves the latency distribution at 1/64th the cost.
                let _timer = if scanned & 0x3F == 0 {
                    tdb_obs::histogram!("tdb_solve_bfs_filter_seconds").start()
                } else {
                    None
                };
                if config.exact_filter {
                    scratch
                        .filter
                        .decide_exact(g, &scratch.active, v, constraint)
                } else {
                    scratch.filter.decide(g, &scratch.active, v, constraint)
                }
            };
            match decision {
                FilterDecision::Prune => {
                    // No constrained cycle can pass through v: release it.
                    metrics.filter_released += 1;
                    continue;
                }
                FilterDecision::ProvenNecessary(_) => {
                    cover_vertices.push(v);
                    scratch.active.deactivate(v);
                    continue;
                }
                FilterDecision::NeedsVerification => {}
            }
        }

        metrics.cycle_queries += 1;
        let necessary = match config.engine {
            SearchEngine::Block => {
                scratch
                    .block
                    .is_on_constrained_cycle(g, &scratch.active, v, constraint)
            }
            SearchEngine::Naive => scratch
                .naive
                .find_cycle_through(g, &scratch.active, v, constraint)
                .is_some(),
        };
        if necessary {
            // Keep v in the cover and take its edges back out of G0.
            cover_vertices.push(v);
            scratch.active.deactivate(v);
        }
        // Otherwise v stays active: released from the cover.
    }

    drop(_scan_timer);
    drop(_scan_span);
    metrics.elapsed = timer.elapsed();
    ctx.report_progress(total, total, cover_vertices.len() as u64);
    ctx.accumulate(&metrics);
    Ok(CoverRun {
        cover: CycleCover::from_vertices(cover_vertices),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom_up::{bottom_up_cover_with, BottomUpConfig};
    use crate::verify::verify_cover;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{
        complete_digraph, directed_cycle, erdos_renyi_gnm, layered_dag, preferential_attachment,
        small_world, PreferentialConfig,
    };

    fn top_down_cover<G: Graph>(
        g: &G,
        constraint: &HopConstraint,
        config: &TopDownConfig,
    ) -> CoverRun {
        top_down_cover_with(g, constraint, config, &mut SolveContext::new())
            .expect("unbudgeted solve cannot fail")
    }

    fn bottom_up_cover<G: Graph>(
        g: &G,
        constraint: &HopConstraint,
        config: &BottomUpConfig,
    ) -> CoverRun {
        bottom_up_cover_with(g, constraint, config, &mut SolveContext::new())
            .expect("unbudgeted solve cannot fail")
    }

    fn all_variants() -> Vec<TopDownConfig> {
        vec![
            TopDownConfig::tdb(),
            TopDownConfig::tdb_plus(),
            TopDownConfig::tdb_plus_plus(),
            TopDownConfig::extended(),
        ]
    }

    fn assert_valid_and_minimal(g: &impl Graph, run: &CoverRun, constraint: &HopConstraint) {
        let v = verify_cover(g, &run.cover, constraint);
        assert!(
            v.is_valid,
            "{} produced an invalid cover, witness {:?}",
            run.metrics.algorithm, v.witness
        );
        assert!(
            v.is_minimal,
            "{} produced a non-minimal cover, redundant {:?}",
            run.metrics.algorithm, v.redundant
        );
    }

    #[test]
    fn single_cycle_covered_by_one_vertex() {
        let g = directed_cycle(5);
        let constraint = HopConstraint::new(5);
        for config in all_variants() {
            let run = top_down_cover(&g, &constraint, &config);
            assert_eq!(run.cover_size(), 1, "{}", config.name());
            assert_valid_and_minimal(&g, &run, &constraint);
        }
    }

    #[test]
    fn long_cycle_outside_constraint_needs_nothing() {
        let g = directed_cycle(9);
        let constraint = HopConstraint::new(5);
        for config in all_variants() {
            let run = top_down_cover(&g, &constraint, &config);
            assert_eq!(run.cover_size(), 0, "{}", config.name());
        }
    }

    #[test]
    fn acyclic_graphs_need_nothing() {
        let g = layered_dag(5, 4);
        let constraint = HopConstraint::new(7);
        for config in all_variants() {
            let run = top_down_cover(&g, &constraint, &config);
            assert!(run.cover.is_empty(), "{}", config.name());
        }
    }

    #[test]
    fn all_variants_produce_identical_covers() {
        // The paper notes (Section VII-B) that TDB, TDB+ and TDB++ return the
        // same result set — the filters only skip work, never change decisions.
        for seed in 0..6u64 {
            let g = erdos_renyi_gnm(50, 220, seed);
            let constraint = HopConstraint::new(4);
            let reference = top_down_cover(&g, &constraint, &TopDownConfig::tdb());
            for config in [
                TopDownConfig::tdb_plus(),
                TopDownConfig::tdb_plus_plus(),
                TopDownConfig::extended(),
            ] {
                let run = top_down_cover(&g, &constraint, &config);
                assert_eq!(
                    run.cover,
                    reference.cover,
                    "{} differs from TDB on seed {seed}",
                    config.name()
                );
            }
        }
    }

    #[test]
    fn covers_are_valid_and_minimal_on_random_graphs() {
        for seed in 0..6u64 {
            let g = erdos_renyi_gnm(45, 200, seed + 30);
            for k in [3usize, 4, 5] {
                let constraint = HopConstraint::new(k);
                let run = top_down_cover(&g, &constraint, &TopDownConfig::tdb_plus_plus());
                assert_valid_and_minimal(&g, &run, &constraint);
            }
        }
    }

    #[test]
    fn covers_are_valid_on_scale_free_and_small_world_graphs() {
        let pa = preferential_attachment(&PreferentialConfig {
            num_vertices: 150,
            out_degree: 3,
            reciprocity: 0.25,
            random_rewire: 0.1,
            seed: 7,
        });
        let sw = small_world(120, 2, 0.2, 9);
        for g in [pa, sw] {
            for constraint in [HopConstraint::new(4), HopConstraint::with_two_cycles(4)] {
                let run = top_down_cover(&g, &constraint, &TopDownConfig::tdb_plus_plus());
                assert_valid_and_minimal(&g, &run, &constraint);
            }
        }
    }

    #[test]
    fn two_cycle_mode_grows_the_cover() {
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 200,
            out_degree: 3,
            reciprocity: 0.5,
            random_rewire: 0.1,
            seed: 11,
        });
        let without = top_down_cover(&g, &HopConstraint::new(5), &TopDownConfig::tdb_plus_plus());
        let with = top_down_cover(
            &g,
            &HopConstraint::with_two_cycles(5),
            &TopDownConfig::tdb_plus_plus(),
        );
        assert!(
            with.cover_size() > without.cover_size(),
            "with 2-cycles {} <= without {}",
            with.cover_size(),
            without.cover_size()
        );
        assert_valid_and_minimal(&g, &with, &HopConstraint::with_two_cycles(5));
    }

    #[test]
    fn top_down_size_is_comparable_to_bottom_up() {
        // Table III: TDB++ covers are within a few percent of BUR+ covers. On
        // small random graphs we allow a generous 35% band to keep the test
        // robust while still catching gross regressions.
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(60, 300, seed + 70);
            let constraint = HopConstraint::new(4);
            let td = top_down_cover(&g, &constraint, &TopDownConfig::tdb_plus_plus());
            let bu = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
            let td_size = td.cover_size() as f64;
            let bu_size = bu.cover_size() as f64;
            if bu_size > 0.0 {
                assert!(
                    td_size <= bu_size * 1.35 + 2.0,
                    "seed {seed}: TDB++ {td_size} much larger than BUR+ {bu_size}"
                );
            }
        }
    }

    #[test]
    fn scan_order_changes_are_still_valid_and_minimal() {
        let g = complete_digraph(7);
        let constraint = HopConstraint::new(4);
        for order in [
            ScanOrder::Ascending,
            ScanOrder::DegreeDescending,
            ScanOrder::DegreeAscending,
            ScanOrder::Random(3),
        ] {
            let config = TopDownConfig::tdb_plus_plus().with_scan_order(order);
            let run = top_down_cover(&g, &constraint, &config);
            assert_valid_and_minimal(&g, &run, &constraint);
        }
    }

    #[test]
    fn filter_and_scc_counters_are_populated() {
        // A graph with a large acyclic fringe: prefilters should fire.
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 0)];
        for i in 3..60u32 {
            edges.push((i - 1, i));
        }
        let g = graph_from_edges(&edges);
        let constraint = HopConstraint::new(4);
        let run = top_down_cover(&g, &constraint, &TopDownConfig::tdb_plus_plus());
        assert!(run.metrics.filter_released > 0);
        let run = top_down_cover(&g, &constraint, &TopDownConfig::extended());
        assert!(run.metrics.scc_released > 40);
        assert_eq!(run.cover_size(), 1);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(TopDownConfig::tdb().name(), "TDB");
        assert_eq!(TopDownConfig::tdb_plus().name(), "TDB+");
        assert_eq!(TopDownConfig::tdb_plus_plus().name(), "TDB++");
        assert_eq!(TopDownConfig::extended().name(), "TDB++X");
    }
}
