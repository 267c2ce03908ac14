//! The bottom-up cover algorithm (`BUR`, Algorithms 4–6 of Section V).
//!
//! The bottom-up approach starts from the empty cover and grows it: for every
//! vertex `v_i` of the graph it repeatedly searches for a hop-constrained cycle
//! starting at `v_i` in the current reduced graph, bumps a hit counter `H` for
//! every vertex on the found cycle, inserts the vertex with the highest hit
//! count into the cover, and removes that vertex's edges (here: deactivates the
//! vertex). The hit-count heuristic (Algorithm 6, `FindCoverNode`) prefers hub
//! vertices that have appeared on many cycles, which keeps the resulting cover
//! small — the paper shows `BUR+` produces the smallest covers of all evaluated
//! algorithms, at the cost of `O(n^{k+1})` worst-case time because the inner
//! search (`FindCycle`, Algorithm 5) is an exhaustive bounded DFS.
//!
//! `BUR+` is `BUR` followed by the minimal-pruning pass of Algorithm 7
//! ([`crate::minimal`]).

use tdb_cycle::HopConstraint;
use tdb_graph::{Graph, VertexId};

use crate::cover::{CoverRun, CycleCover, RunMetrics};
use crate::minimal::{minimal_prune_with, SearchEngine};
use crate::solver::{SolveContext, SolveError, SolveScratch};
use crate::stats::Timer;

/// Configuration of the bottom-up algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BottomUpConfig {
    /// Run the minimal-pruning pass of Algorithm 7 afterwards (`BUR+`).
    pub minimal: bool,
    /// Which search engine the minimal pass uses. The paper's BUR+ uses the
    /// naive `FindCycle`; the block engine is offered as an ablation.
    pub minimal_engine: SearchEngine,
}

impl Default for BottomUpConfig {
    fn default() -> Self {
        BottomUpConfig {
            minimal: true,
            minimal_engine: SearchEngine::Naive,
        }
    }
}

impl BottomUpConfig {
    /// Plain `BUR` (no minimal pruning).
    pub fn bur() -> Self {
        BottomUpConfig {
            minimal: false,
            minimal_engine: SearchEngine::Naive,
        }
    }

    /// `BUR+` (with the Algorithm-7 minimal pruning pass).
    pub fn bur_plus() -> Self {
        BottomUpConfig::default()
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        if self.minimal {
            "BUR+"
        } else {
            "BUR"
        }
    }
}

/// Budget- and progress-aware bottom-up cover computation.
///
/// The exhaustive inner search makes this the family that needs a budget most:
/// the context's deadline is checked before every cycle query, including the
/// ones issued by the minimal-pruning pass.
pub fn bottom_up_cover_with<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    config: &BottomUpConfig,
    ctx: &mut SolveContext,
) -> Result<CoverRun, SolveError> {
    ctx.ensure_armed();
    let timer = Timer::start();
    let n = g.num_vertices();
    let mut metrics = RunMetrics::new(
        config.name(),
        constraint.max_hops,
        constraint.include_two_cycles,
    );
    metrics.working_edges = g.num_edges();

    let mut scratch = ctx.take_scratch();
    let grown = bottom_up_grow(g, constraint, ctx, &mut metrics, &mut scratch);
    ctx.restore_scratch(scratch);

    let mut cover = CycleCover::from_vertices(grown?);

    if config.minimal {
        let removed = minimal_prune_with(
            g,
            &mut cover,
            constraint,
            config.minimal_engine,
            &mut metrics,
            ctx,
        )?;
        metrics.minimal_pruned = removed as u64;
    }

    metrics.elapsed = timer.elapsed();
    ctx.report_progress(n as u64, n as u64, cover.len() as u64);
    ctx.accumulate(&metrics);
    Ok(CoverRun { cover, metrics })
}

/// The growth phase of Algorithm 4, factored out so the entry point can hand
/// the borrowed scratch back to the context on every exit path.
fn bottom_up_grow<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
    metrics: &mut RunMetrics,
    scratch: &mut SolveScratch,
) -> Result<Vec<VertexId>, SolveError> {
    let n = g.num_vertices();
    // H[v]: how many discovered cycles vertex v appeared on so far (Algorithm 4
    // line 2). The counter persists across start vertices, which is what makes
    // the heuristic favour globally popular vertices.
    scratch.reset_hit_count(n);
    scratch.reset_active(n, true);
    let mut cover_vertices: Vec<VertexId> = Vec::new();
    let costs = ctx.vertex_costs().clone();

    for start in 0..n as VertexId {
        ctx.report_progress(start as u64, n as u64, cover_vertices.len() as u64);
        loop {
            ctx.checkpoint()?;
            metrics.cycle_queries += 1;
            let Some(cycle) =
                scratch
                    .naive
                    .find_cycle_through(g, &scratch.active, start, constraint)
            else {
                break;
            };
            // Update hit counts for every vertex on the cycle (lines 6–7).
            for &v in &cycle {
                scratch.hit_count[v as usize] += 1;
            }
            // FindCoverNode (Algorithm 6): the cycle vertex with the highest
            // hit count; ties resolved towards the earliest position on the
            // cycle, matching the pseudocode's strict `>` comparison. Under a
            // non-uniform cost model the criterion becomes hits *per unit
            // cost*, compared exactly via u128 cross-multiplication — with
            // equal costs the comparison reduces to the original strict `>`,
            // so the unweighted pick is preserved bit-exactly.
            let mut cover_vertex = cycle[0];
            let mut best_hits = scratch.hit_count[cover_vertex as usize];
            let mut best_cost = costs.cost(cover_vertex);
            for &v in &cycle[1..] {
                let hits = scratch.hit_count[v as usize];
                let cost = costs.cost(v);
                if (hits as u128) * (best_cost as u128) > (best_hits as u128) * (cost as u128) {
                    best_hits = hits;
                    best_cost = cost;
                    cover_vertex = v;
                }
            }
            cover_vertices.push(cover_vertex);
            scratch.active.deactivate(cover_vertex);
        }
    }
    Ok(cover_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_cover;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{complete_digraph, directed_cycle, erdos_renyi_gnm, layered_dag};

    fn bottom_up_cover<G: Graph>(
        g: &G,
        constraint: &HopConstraint,
        config: &BottomUpConfig,
    ) -> CoverRun {
        bottom_up_cover_with(g, constraint, config, &mut SolveContext::new())
            .expect("unbudgeted solve cannot fail")
    }

    fn check_valid(g: &impl Graph, run: &CoverRun, constraint: &HopConstraint) {
        let v = verify_cover(g, &run.cover, constraint);
        assert!(v.is_valid, "cover invalid, witness: {:?}", v.witness);
    }

    #[test]
    fn single_cycle_needs_one_vertex() {
        let g = directed_cycle(5);
        let constraint = HopConstraint::new(5);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        assert_eq!(run.cover_size(), 1);
        check_valid(&g, &run, &constraint);
    }

    #[test]
    fn cycle_longer_than_k_needs_no_cover() {
        let g = directed_cycle(8);
        let constraint = HopConstraint::new(5);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        assert_eq!(run.cover_size(), 0);
    }

    #[test]
    fn acyclic_graph_has_empty_cover() {
        let g = layered_dag(4, 3);
        let run = bottom_up_cover(&g, &HopConstraint::new(6), &BottomUpConfig::bur_plus());
        assert!(run.cover.is_empty());
    }

    #[test]
    fn complete_graph_cover_is_valid_and_minimal_shape() {
        let g = complete_digraph(6);
        let constraint = HopConstraint::new(4);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        check_valid(&g, &run, &constraint);
        // Removing all triangles from K6 needs at least n - 2 = 4 vertices.
        assert!(run.cover_size() >= 4, "size {}", run.cover_size());
        let v = verify_cover(&g, &run.cover, &constraint);
        assert!(v.is_minimal, "redundant vertices: {:?}", v.redundant);
    }

    #[test]
    fn bur_plus_never_larger_than_bur() {
        for seed in 0..5u64 {
            let g = erdos_renyi_gnm(40, 160, seed);
            let constraint = HopConstraint::new(4);
            let plain = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur());
            let plus = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
            assert!(plus.cover_size() <= plain.cover_size());
            check_valid(&g, &plain, &constraint);
            check_valid(&g, &plus, &constraint);
        }
    }

    #[test]
    fn bur_plus_is_minimal_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi_gnm(35, 140, seed + 50);
            let constraint = HopConstraint::new(4);
            let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
            let v = verify_cover(&g, &run.cover, &constraint);
            assert!(v.is_valid);
            assert!(v.is_minimal, "redundant: {:?}", v.redundant);
        }
    }

    #[test]
    fn two_cycle_mode_covers_bidirectional_pairs() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let constraint = HopConstraint::with_two_cycles(5);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        assert_eq!(run.cover_size(), 2);
        check_valid(&g, &run, &constraint);
        // Default mode ignores the 2-cycles entirely.
        let run = bottom_up_cover(&g, &HopConstraint::new(5), &BottomUpConfig::bur_plus());
        assert_eq!(run.cover_size(), 0);
    }

    #[test]
    fn hub_vertex_is_preferred_by_hit_counts() {
        // Three triangles all sharing vertex 0 (the motivation example of
        // Figure 3): the heuristic should cover everything with vertex 0 after
        // pruning.
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 3),
            (3, 4),
            (4, 0),
            (0, 5),
            (5, 6),
            (6, 0),
        ]);
        let constraint = HopConstraint::new(3);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        assert_eq!(run.cover_size(), 1);
        assert!(run.cover.contains(0));
    }

    #[test]
    fn metrics_are_populated() {
        let g = directed_cycle(4);
        let constraint = HopConstraint::new(4);
        let run = bottom_up_cover(&g, &constraint, &BottomUpConfig::bur_plus());
        assert_eq!(run.metrics.algorithm, "BUR+");
        assert_eq!(run.metrics.k, 4);
        assert!(run.metrics.cycle_queries >= 4);
        assert!(run.metrics.elapsed > std::time::Duration::ZERO);
    }
}
