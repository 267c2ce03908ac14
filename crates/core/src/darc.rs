//! The DARC baseline (Algorithms 1–3) and its vertex adaptation DARC-DV.
//!
//! DARC (Kuhnle, Crawford, Thai — "Scalable approximations to k-cycle
//! transversal problems on dynamic networks", KAIS 2019) computes a minimal
//! *edge* set intersecting every hop-constrained cycle. It is the
//! state-of-the-art the paper compares against. The algorithm keeps three edge
//! sets:
//!
//! * `S` — the current transversal,
//! * `W` — edges that were in the transversal but proved removable,
//! * `P` — the prune queue of edges that entered `S`.
//!
//! `AUGMENT(e)` repeatedly finds a hop-constrained cycle through `e` that is
//! disjoint from `S` and covers it (preferring to recycle a `W` edge on the
//! cycle, otherwise inserting the whole cycle), and `PRUNE()` then removes every
//! edge whose removal does not re-expose a cycle.
//!
//! The paper's baseline **DARC-DV** converts the *vertex* cover problem to this
//! edge problem through the directed line graph (Section III-B): every edge of
//! `G` becomes a vertex of `L(G)`, every length-2 path of `G` becomes an edge of
//! `L(G)` identified with its middle vertex, DARC runs on `L(G)`, and the
//! selected line-graph edges are mapped back to the middle vertices. The line
//! graph has `Σ_v in(v)·out(v)` edges, which is what makes DARC-DV blow up on
//! hub-heavy graphs — the effect Table III and Figure 6 of the paper quantify.

use std::collections::VecDeque;

use tdb_cycle::enumerate::EdgeDfsSearcher;
use tdb_cycle::HopConstraint;
use tdb_graph::line_graph::LineGraph;
use tdb_graph::{ActiveSet, CsrGraph, Edge, FixedBitSet, Graph};

use crate::cover::{CoverRun, CycleCover, RunMetrics};
use crate::solver::{SolveContext, SolveError};
use crate::stats::Timer;

/// Result of the edge-level k-cycle transversal.
#[derive(Debug, Clone)]
pub struct EdgeTransversal {
    /// The selected edges, sorted.
    pub edges: Vec<Edge>,
    /// Number of cycle searches issued.
    pub cycle_queries: u64,
}

/// Run DARC (Algorithms 1–3) on `g`, producing a minimal hop-constrained
/// *edge* cycle transversal.
///
/// Legacy entry point kept for compatibility; prefer
/// [`darc_edge_transversal_with`], which honors a time budget.
pub fn darc_edge_transversal<G: Graph>(g: &G, constraint: &HopConstraint) -> EdgeTransversal {
    let mut ctx = SolveContext::new();
    darc_edge_transversal_with(g, constraint, &mut ctx)
        .expect("unbudgeted DARC transversal cannot fail")
}

/// Dense edge numbering for a [`Graph`]: edge `(u, v)` maps to
/// `offset[u] + rank of v in out_neighbors(u)`, i.e. edges are numbered in
/// lexicographic adjacency order. Lookup is a binary search in `u`'s sorted
/// neighbor slice — O(log deg(u)) and allocation-free, which is what lets the
/// DARC working sets be bitsets over edge ids instead of `HashSet<Edge>`.
struct EdgeIndex {
    offsets: Vec<usize>,
}

impl EdgeIndex {
    fn build<G: Graph>(g: &G) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for u in g.vertices() {
            acc += g.out_degree(u);
            offsets.push(acc);
        }
        EdgeIndex { offsets }
    }

    /// Total number of edges indexed.
    fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Dense id of an edge that is present in `g`.
    #[inline]
    fn id<G: Graph>(&self, g: &G, e: Edge) -> usize {
        let rank = g
            .out_neighbors(e.source)
            .binary_search(&e.target)
            .expect("EdgeIndex::id called with an edge absent from the graph");
        self.offsets[e.source as usize] + rank
    }
}

/// Budget-aware DARC edge transversal: the context's deadline is checked once
/// per augmented edge and once per prune-queue pop.
///
/// The working sets `S` and `W` are bitsets over a dense edge numbering
/// ([`EdgeIndex`]); together with the reusable [`EdgeDfsSearcher`] this makes
/// the whole augment/prune loop allocation-free in steady state.
pub fn darc_edge_transversal_with<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
) -> Result<EdgeTransversal, SolveError> {
    darc_edge_transversal_ordered(g, constraint, ctx, None)
}

/// [`darc_edge_transversal_with`] with an optional per-edge cost used to order
/// the PRUNE queue, costliest first.
///
/// The prune loop only ever *pops* — augmentation pushed every transversal
/// edge before pruning starts — so reordering the queue cannot change which
/// edges are examined, only when. Examining expensive edges first drops a
/// costly redundant edge before the cheap edges that would re-justify it are
/// tested, skewing the surviving transversal cheap. `None` (and a stable sort
/// under equal costs) preserves the FIFO order bit-exactly.
pub(crate) fn darc_edge_transversal_ordered<G: Graph>(
    g: &G,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
    edge_cost: Option<&dyn Fn(Edge) -> u64>,
) -> Result<EdgeTransversal, SolveError> {
    ctx.ensure_armed();
    let active = ActiveSet::all_active(g.num_vertices());
    let idx = EdgeIndex::build(g);
    let mut s = FixedBitSet::new(idx.len());
    let mut w = FixedBitSet::new(idx.len());
    let mut p: VecDeque<Edge> = VecDeque::new();
    let mut searcher = EdgeDfsSearcher::new(g.num_vertices());
    let mut cycle_queries = 0u64;

    // Algorithm 1: AUGMENT every edge not already covered.
    for e in g.edges() {
        ctx.checkpoint()?;
        if s.contains(idx.id(g, e)) {
            continue;
        }
        augment(
            g,
            &active,
            constraint,
            e,
            &idx,
            &mut s,
            &mut w,
            &mut p,
            &mut searcher,
            &mut cycle_queries,
        );
    }

    // Algorithm 3: PRUNE, costliest first when a cost function is supplied.
    if let Some(cost) = edge_cost {
        let mut queue: Vec<Edge> = p.drain(..).collect();
        queue.sort_by_key(|&e| std::cmp::Reverse(cost(e)));
        p.extend(queue);
    }
    while let Some(e) = p.pop_front() {
        ctx.checkpoint()?;
        let e_id = idx.id(g, e);
        if !s.contains(e_id) {
            continue;
        }
        cycle_queries += 1;
        let still_needed = searcher
            .find_cycle_through_edge(g, &active, e, constraint, |x| {
                x == e || !s.contains(idx.id(g, x))
            })
            .is_some();
        if !still_needed {
            s.remove(e_id);
            w.insert(e_id);
        }
    }

    // Walk the adjacency in order: ascending edge ids are exactly the sorted
    // lexicographic edge order, so no post-sort is needed.
    let mut edges: Vec<Edge> = Vec::with_capacity(s.count_ones());
    for u in g.vertices() {
        let base = idx.offsets[u as usize];
        for (rank, &v) in g.out_neighbors(u).iter().enumerate() {
            if s.contains(base + rank) {
                edges.push(Edge::new(u, v));
            }
        }
    }
    Ok(EdgeTransversal {
        edges,
        cycle_queries,
    })
}

/// Algorithm 2: cover every not-yet-covered cycle through `e`.
#[allow(clippy::too_many_arguments)]
fn augment<G: Graph>(
    g: &G,
    active: &ActiveSet,
    constraint: &HopConstraint,
    e: Edge,
    idx: &EdgeIndex,
    s: &mut FixedBitSet,
    w: &mut FixedBitSet,
    p: &mut VecDeque<Edge>,
    searcher: &mut EdgeDfsSearcher,
    cycle_queries: &mut u64,
) {
    let e_id = idx.id(g, e);
    if s.contains(e_id) {
        return;
    }
    if w.remove(e_id) {
        s.insert(e_id);
        p.push_back(e);
        return;
    }
    loop {
        *cycle_queries += 1;
        let Some(cycle_edges) = searcher
            .find_cycle_through_edge(g, active, e, constraint, |x| !s.contains(idx.id(g, x)))
        else {
            break;
        };
        if let Some(&w_edge) = cycle_edges.iter().find(|&&x| w.contains(idx.id(g, x))) {
            // Recycle an edge that used to be in the transversal (lines 12–13).
            let w_id = idx.id(g, w_edge);
            w.remove(w_id);
            s.insert(w_id);
            p.push_back(w_edge);
        } else {
            // Cover the whole cycle (lines 10–11).
            for ce in cycle_edges {
                if s.insert(idx.id(g, ce)) {
                    p.push_back(ce);
                }
            }
        }
    }
}

/// Budget-aware DARC-DV cover computation.
///
/// When the context carries a non-uniform [`CostModel`](tdb_graph::CostModel),
/// the line-graph prune queue is ordered by the cost of each line-graph edge's
/// *middle vertex* (the vertex the edge maps back to), costliest first — the
/// DARC analogue of weight-aware minimization.
pub fn darc_dv_cover_with(
    g: &CsrGraph,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
) -> Result<CoverRun, SolveError> {
    ctx.ensure_armed();
    let timer = Timer::start();
    let mut metrics = RunMetrics::new(
        "DARC-DV",
        constraint.max_hops,
        constraint.include_two_cycles,
    );

    let lg = LineGraph::build(g);
    metrics.working_edges = lg.graph().num_edges();

    let costs = ctx.vertex_costs().clone();
    let transversal = if costs.is_uniform() {
        darc_edge_transversal_with(lg.graph(), constraint, ctx)?
    } else {
        let middle_cost = |e: Edge| costs.cost(lg.middle_vertex(e));
        darc_edge_transversal_ordered(lg.graph(), constraint, ctx, Some(&middle_cost))?
    };
    metrics.cycle_queries = transversal.cycle_queries;

    let vertices = lg.middle_vertices(&transversal.edges);
    metrics.elapsed = timer.elapsed();
    ctx.accumulate(&metrics);
    Ok(CoverRun {
        cover: CycleCover::from_vertices(vertices),
        metrics,
    })
}

/// Extension: a direct vertex-level analogue of DARC that skips the line-graph
/// blow-up (augment with whole cycles of *vertices*, then prune). Not part of
/// the paper; included to separate how much of DARC-DV's cost is the line graph
/// versus the augment/prune paradigm itself.
pub fn darc_vertex_direct<G: Graph>(g: &G, constraint: &HopConstraint) -> CoverRun {
    use tdb_cycle::NaiveSearcher;

    let timer = Timer::start();
    let mut metrics = RunMetrics::new("DARC-V", constraint.max_hops, constraint.include_two_cycles);
    metrics.working_edges = g.num_edges();

    let n = g.num_vertices();
    let mut active = ActiveSet::all_active(n);
    let mut searcher = NaiveSearcher::new(n);
    let mut prune_queue: VecDeque<tdb_graph::VertexId> = VecDeque::new();

    // Augment: scan vertices; whenever an uncovered cycle through the vertex
    // exists, move the whole cycle into the cover.
    for v in 0..n as tdb_graph::VertexId {
        if !active.is_active(v) {
            continue;
        }
        loop {
            metrics.cycle_queries += 1;
            let Some(cycle) = searcher.find_cycle_through(g, &active, v, constraint) else {
                break;
            };
            for &c in &cycle {
                if active.deactivate(c) {
                    prune_queue.push_back(c);
                }
            }
        }
    }

    // Prune: re-admit vertices whose removal from the cover is safe.
    while let Some(v) = prune_queue.pop_front() {
        active.activate(v);
        metrics.cycle_queries += 1;
        if searcher
            .find_cycle_through(g, &active, v, constraint)
            .is_some()
        {
            active.deactivate(v);
        }
    }

    let cover: Vec<tdb_graph::VertexId> = active.iter_inactive().collect();
    metrics.elapsed = timer.elapsed();
    CoverRun {
        cover: CycleCover::from_vertices(cover),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_valid_cover, verify_cover};
    use std::collections::HashSet;
    use tdb_cycle::enumerate::find_cycle_through_edge;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{complete_digraph, directed_cycle, erdos_renyi_gnm, layered_dag};

    fn darc_dv_cover(g: &CsrGraph, constraint: &HopConstraint) -> CoverRun {
        darc_dv_cover_with(g, constraint, &mut SolveContext::new())
            .expect("unbudgeted solve cannot fail")
    }

    #[test]
    fn edge_transversal_covers_a_triangle_with_one_edge() {
        let g = directed_cycle(3);
        let t = darc_edge_transversal(&g, &HopConstraint::new(3));
        assert_eq!(t.edges.len(), 1);
    }

    #[test]
    fn edge_transversal_ignores_cycles_longer_than_k() {
        let g = directed_cycle(6);
        let t = darc_edge_transversal(&g, &HopConstraint::new(5));
        assert!(t.edges.is_empty());
        let t = darc_edge_transversal(&g, &HopConstraint::new(6));
        assert_eq!(t.edges.len(), 1);
    }

    #[test]
    fn edge_transversal_is_minimal_on_random_graphs() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(25, 90, seed);
            let constraint = HopConstraint::new(4);
            let t = darc_edge_transversal(&g, &constraint);
            let active = ActiveSet::all_active(g.num_vertices());
            let s: HashSet<Edge> = t.edges.iter().copied().collect();
            // Valid: no constrained cycle avoids S.
            for e in g.edges() {
                if !s.contains(&e) {
                    assert!(
                        find_cycle_through_edge(&g, &active, e, &constraint, |x| !s.contains(&x))
                            .is_none(),
                        "uncovered cycle through {e:?} (seed {seed})"
                    );
                }
            }
            // Minimal: every selected edge has a witness cycle of its own.
            for &e in &t.edges {
                assert!(
                    find_cycle_through_edge(&g, &active, e, &constraint, |x| x == e
                        || !s.contains(&x))
                    .is_some(),
                    "redundant edge {e:?} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn darc_dv_covers_simple_graphs() {
        let g = directed_cycle(4);
        let constraint = HopConstraint::new(4);
        let run = darc_dv_cover(&g, &constraint);
        assert_eq!(run.cover_size(), 1);
        assert!(is_valid_cover(&g, &run.cover, &constraint));
        assert_eq!(run.metrics.algorithm, "DARC-DV");
    }

    #[test]
    fn darc_dv_empty_on_acyclic_graphs() {
        let g = layered_dag(4, 3);
        let run = darc_dv_cover(&g, &HopConstraint::new(5));
        assert!(run.cover.is_empty());
    }

    #[test]
    fn darc_dv_is_valid_on_random_graphs() {
        for seed in 0..5u64 {
            let g = erdos_renyi_gnm(30, 120, seed + 3);
            for k in [3usize, 4] {
                let constraint = HopConstraint::new(k);
                let run = darc_dv_cover(&g, &constraint);
                assert!(
                    is_valid_cover(&g, &run.cover, &constraint),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn darc_dv_handles_two_cycle_mode() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 2), (2, 0)]);
        let without = darc_dv_cover(&g, &HopConstraint::new(4));
        let with = darc_dv_cover(&g, &HopConstraint::with_two_cycles(4));
        assert!(is_valid_cover(&g, &without.cover, &HopConstraint::new(4)));
        assert!(is_valid_cover(
            &g,
            &with.cover,
            &HopConstraint::with_two_cycles(4)
        ));
        assert!(with.cover_size() >= without.cover_size());
    }

    #[test]
    fn darc_dv_line_graph_size_is_recorded() {
        let g = complete_digraph(5);
        let run = darc_dv_cover(&g, &HopConstraint::new(3));
        let expected: usize = g.vertices().map(|v| g.in_degree(v) * g.out_degree(v)).sum();
        assert_eq!(run.metrics.working_edges, expected);
        assert!(is_valid_cover(&g, &run.cover, &HopConstraint::new(3)));
    }

    #[test]
    fn direct_vertex_variant_is_valid_and_minimal() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(30, 130, seed + 40);
            let constraint = HopConstraint::new(4);
            let run = darc_vertex_direct(&g, &constraint);
            let v = verify_cover(&g, &run.cover, &constraint);
            assert!(v.is_valid, "seed {seed}");
            assert!(v.is_minimal, "seed {seed}: {:?}", v.redundant);
        }
    }

    #[test]
    fn darc_dv_cover_size_is_at_least_top_down_quality_band() {
        // Table III / Figure 7: DARC-DV returns the worst (largest) covers of
        // the three compared algorithms. We check the weaker, robust property
        // that it is never *smaller* than half the TDB++ cover (it is a valid
        // cover, so it cannot be arbitrarily small either).
        use crate::top_down::{top_down_cover_with, TopDownConfig};
        for seed in 0..3u64 {
            let g = erdos_renyi_gnm(35, 150, seed + 11);
            let constraint = HopConstraint::new(4);
            let dv = darc_dv_cover(&g, &constraint);
            let td = top_down_cover_with(
                &g,
                &constraint,
                &TopDownConfig::tdb_plus_plus(),
                &mut SolveContext::new(),
            )
            .unwrap();
            assert!(
                2 * dv.cover_size() + 1 >= td.cover_size(),
                "seed {seed}: DARC-DV {} vs TDB++ {}",
                dv.cover_size(),
                td.cover_size()
            );
        }
    }
}
