//! Minimal pruning of a cycle cover (`FindMinimalCover`, Algorithm 7).
//!
//! A cover `R` is *minimal* (Definition 4) when no single vertex can be dropped
//! from it without exposing an uncovered hop-constrained cycle. Algorithm 7
//! enforces that property a posteriori: for each cover vertex `v` it searches
//! the graph `G − R + {v}` (every non-cover vertex plus `v` itself) for a
//! hop-constrained cycle through `v`; if none exists, `v` is redundant and is
//! removed — and, crucially, stays *active* for the subsequent checks, so the
//! final set is minimal with respect to itself (Theorem 4).
//!
//! The same routine doubles as the redundancy detector of the verifier.

use tdb_cycle::{BlockSearcher, HopConstraint};
use tdb_graph::{GraphView, VertexId};

use crate::cover::{CycleCover, RunMetrics};
use crate::solver::{SolveContext, SolveError, SolveScratch};

/// Which cycle-existence engine a pass should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchEngine {
    /// The exhaustive bounded DFS of Algorithm 5 — what the paper's `BUR+`
    /// uses, and the reference for differential tests.
    #[default]
    Naive,
    /// The block/barrier DFS of Algorithm 9 — asymptotically `O(k·m)` per
    /// query; used by the top-down family and offered here as an ablation.
    Block,
}

/// Run Algorithm 7 on `cover`, removing every redundant vertex in place.
///
/// Returns the number of removed vertices. `metrics.cycle_queries` is advanced
/// by one per examined vertex.
pub fn minimal_prune<V: GraphView>(
    g: &V,
    cover: &mut CycleCover,
    constraint: &HopConstraint,
    engine: SearchEngine,
    metrics: &mut RunMetrics,
) -> usize {
    let mut ctx = SolveContext::new();
    minimal_prune_with(g, cover, constraint, engine, metrics, &mut ctx)
        .expect("unbudgeted pruning cannot fail")
}

/// Budget-aware variant of [`minimal_prune`]: checks the context's deadline
/// once per examined cover vertex.
///
/// Weight-aware examination order: drop the costliest redundant breaker
/// first. Algorithm 7 is correct under any order (a removed vertex stays
/// active for subsequent checks regardless), and examining expensive vertices
/// first means a costly redundancy is committed before the cheap vertices
/// that would re-justify it are tested — so the surviving minimal cover skews
/// cheap. The stable cost-keyed sort is the identity under equal weights,
/// preserving the unweighted (ascending id) order bit-exactly.
pub fn minimal_prune_with<V: GraphView>(
    g: &V,
    cover: &mut CycleCover,
    constraint: &HopConstraint,
    engine: SearchEngine,
    metrics: &mut RunMetrics,
    ctx: &mut SolveContext,
) -> Result<usize, SolveError> {
    let mut candidates: Vec<VertexId> = cover.iter().collect();
    let costs = ctx.vertex_costs();
    if !costs.is_uniform() {
        candidates.sort_by_key(|&v| std::cmp::Reverse(costs.cost(v)));
    }
    let mut scratch = ctx.take_scratch();
    let result = prune_candidates(
        g,
        cover,
        &candidates,
        constraint,
        engine,
        metrics,
        ctx,
        &mut scratch,
    );
    ctx.restore_scratch(scratch);
    result
}

/// The pruning loop itself, factored out so the entry point can hand the
/// borrowed scratch back to the context on every exit path.
#[allow(clippy::too_many_arguments)]
fn prune_candidates<V: GraphView>(
    g: &V,
    cover: &mut CycleCover,
    candidates: &[VertexId],
    constraint: &HopConstraint,
    engine: SearchEngine,
    metrics: &mut RunMetrics,
    ctx: &mut SolveContext,
    scratch: &mut SolveScratch,
) -> Result<usize, SolveError> {
    ctx.ensure_armed();
    let _span = tdb_obs::trace::span("solve/minimize");
    let _timer = tdb_obs::histogram!("tdb_solve_minimize_seconds").start();
    let n = g.vertex_count();
    // G − R + {v}: all non-cover vertices are active; cover vertices inactive.
    scratch.reset_active(n, true);
    for v in cover.iter() {
        scratch.active.deactivate(v);
    }

    let mut removed = 0usize;
    for &v in candidates {
        debug_assert!(cover.contains(v), "candidate {v} is not a cover vertex");
        ctx.checkpoint()?;
        // Temporarily restore v into the graph.
        scratch.active.activate(v);
        metrics.cycle_queries += 1;
        let has_cycle = match engine {
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
        if has_cycle {
            // v is still needed: put it back into the reduced-graph hole.
            scratch.active.deactivate(v);
        } else {
            // v is redundant: drop it from the cover and leave it active so the
            // remaining checks see the enlarged graph (Theorem 4's invariant).
            cover.remove(v);
            removed += 1;
        }
    }
    Ok(removed)
}

/// List the redundant vertices of a cover without modifying it.
///
/// Note that redundancy is checked one vertex at a time against the rest of the
/// *original* cover; a cover can have several individually-redundant vertices
/// of which only a subset can actually be removed together. [`minimal_prune`]
/// performs the committed, order-dependent removal.
pub fn redundant_vertices<V: GraphView>(
    g: &V,
    cover: &CycleCover,
    constraint: &HopConstraint,
) -> Vec<VertexId> {
    let n = g.vertex_count();
    let mut active = cover.reduced_active_set(n);
    let mut searcher = BlockSearcher::new(n);
    let mut redundant = Vec::new();
    for v in cover.iter() {
        active.activate(v);
        if !searcher.is_on_constrained_cycle(g, &active, v, constraint) {
            redundant.push(v);
        }
        active.deactivate(v);
    }
    redundant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_cover;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{complete_digraph, directed_cycle, erdos_renyi_gnm};
    use tdb_graph::Graph;

    fn prune(
        g: &impl Graph,
        vertices: Vec<VertexId>,
        constraint: &HopConstraint,
        engine: SearchEngine,
    ) -> (CycleCover, usize) {
        let mut cover = CycleCover::from_vertices(vertices);
        let mut metrics = RunMetrics::new("test", constraint.max_hops, false);
        let removed = minimal_prune(g, &mut cover, constraint, engine, &mut metrics);
        (cover, removed)
    }

    #[test]
    fn oversized_cover_of_single_cycle_shrinks_to_one() {
        let g = directed_cycle(5);
        let constraint = HopConstraint::new(5);
        for engine in [SearchEngine::Naive, SearchEngine::Block] {
            let (cover, removed) = prune(&g, vec![0, 1, 2, 3, 4], &constraint, engine);
            assert_eq!(cover.len(), 1, "engine {engine:?}");
            assert_eq!(removed, 4);
            let v = verify_cover(&g, &cover, &constraint);
            assert!(v.is_valid && v.is_minimal);
        }
    }

    #[test]
    fn needed_vertices_are_kept() {
        // Two disjoint triangles: one vertex from each is needed.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let constraint = HopConstraint::new(3);
        let (cover, removed) = prune(&g, vec![0, 3], &constraint, SearchEngine::Naive);
        assert_eq!(cover.len(), 2);
        assert_eq!(removed, 0);
    }

    #[test]
    fn whole_vertex_set_prunes_to_a_minimal_cover() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(30, 120, seed);
            let constraint = HopConstraint::new(4);
            let all: Vec<VertexId> = g.vertices().collect();
            let (cover, _) = prune(&g, all, &constraint, SearchEngine::Block);
            let v = verify_cover(&g, &cover, &constraint);
            assert!(v.is_valid, "seed {seed}");
            assert!(v.is_minimal, "seed {seed}: redundant {:?}", v.redundant);
        }
    }

    #[test]
    fn engines_agree_on_final_size() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(25, 100, seed + 10);
            let constraint = HopConstraint::new(4);
            let all: Vec<VertexId> = g.vertices().collect();
            let (a, _) = prune(&g, all.clone(), &constraint, SearchEngine::Naive);
            let (b, _) = prune(&g, all, &constraint, SearchEngine::Block);
            // Same scan order + both engines are exact existence tests =>
            // identical results, not merely same size.
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn redundant_vertices_reports_without_mutation() {
        let g = directed_cycle(4);
        let constraint = HopConstraint::new(4);
        let cover = CycleCover::from_vertices(vec![0, 2]);
        let redundant = redundant_vertices(&g, &cover, &constraint);
        // Either vertex alone suffices, so each is redundant w.r.t. the other.
        assert_eq!(redundant, vec![0, 2]);
        assert_eq!(cover.len(), 2, "cover must be untouched");
        // After pruning, only one survives and nothing is redundant.
        let (pruned, _) = prune(&g, vec![0, 2], &constraint, SearchEngine::Naive);
        assert_eq!(pruned.len(), 1);
        assert!(redundant_vertices(&g, &pruned, &constraint).is_empty());
    }

    #[test]
    fn empty_cover_is_a_noop() {
        let g = complete_digraph(4);
        let constraint = HopConstraint::new(3);
        let (cover, removed) = prune(&g, vec![], &constraint, SearchEngine::Block);
        assert!(cover.is_empty());
        assert_eq!(removed, 0);
    }
}
