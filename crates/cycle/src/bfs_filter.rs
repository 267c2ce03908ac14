//! The BFS upper-bound filter of Algorithm 11 (`BFS-Filter`).
//!
//! Before running the (comparatively expensive) block DFS on a vertex `v`, the
//! TDB++ variant runs a single hop-bounded breadth-first search to compute the
//! length of the *shortest closed walk* through `v` in the active subgraph. If
//! no closed walk of length at most `k` exists, no simple cycle of length at
//! most `k` through `v` can exist either, so `v` is pruned without any DFS.
//!
//! The shortest closed walk is `1 + min_w sd(w → v)` over `v`'s active
//! out-neighbors `w ≠ v`. The filter walks the reverse direction from `v`
//! (distance *to* `v`) one level at a time for at most `k − 1` hops, and
//! **stops after the first level that reaches one of those out-neighbors**
//! ([`BoundedBfs::run_until`]). BFS level `d` holds exactly the vertices at
//! distance `d`, so that first level is the minimum: the early exit returns
//! exactly the length a full `k − 1`-hop ball would. A vertex with a short
//! closed walk therefore costs only the part of the ball inside that walk's
//! length, a vertex without an active out-neighbor costs no BFS at all, and
//! only the other vertices the filter prunes pay for the whole ball.
//!
//! The check after a level reads the distances of `v`'s out-neighbors, which
//! costs `out_deg(v)` per level. Marking the out-neighbors and testing every
//! discovered vertex against the marks costs a test per vertex of the ball
//! instead. Over the activation sequence of a TDB++ scan of ER 50k/200k at
//! k = 4, where the filter prunes almost every vertex, the full ball took
//! 29.7 ms, the marking variant 31.9 ms and this one 24.9 ms; on the
//! Wiki-Vote proxy at k = 5 the two early exits took 1.87 and 0.84 ms
//! (medians of 21 interleaved scans, 2-vCPU Xeon VM).
//!
//! Because BFS shortest paths are simple and never pass through the (already
//! settled) source, the returned length is in fact achieved by a *simple*
//! cycle — the filter is exact except for the excluded 2-cycles, which is why
//! a `2` result still requires the DFS verification in the default
//! (no-2-cycle) mode.

use tdb_graph::{ActiveSet, GraphView, VertexId};

use crate::reach::{BoundedBfs, Direction};
use crate::HopConstraint;

/// Outcome of the BFS filter for one vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// No closed walk of length `<= k` exists: the vertex cannot lie on any
    /// hop-constrained cycle and is pruned without further work.
    Prune,
    /// A simple cycle within the constraint provably exists (shortest closed
    /// walk length `l` with `min_len <= l <= k`), so the vertex is necessary
    /// and the DFS can be skipped. Only reported when
    /// [`BfsFilter::decide_exact`] is used.
    ProvenNecessary(usize),
    /// The filter is inconclusive; the block DFS must verify the vertex.
    NeedsVerification,
}

/// Reusable BFS filter (Algorithm 11).
#[derive(Debug, Clone)]
pub struct BfsFilter {
    bfs: BoundedBfs,
    /// Number of filter evaluations.
    pub evaluations: u64,
    /// Number of evaluations that pruned the vertex.
    pub pruned: u64,
}

impl BfsFilter {
    /// Create a filter for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BfsFilter {
            bfs: BoundedBfs::new(n),
            evaluations: 0,
            pruned: 0,
        }
    }

    /// Length of the shortest closed walk through `v` of length at most
    /// `max_hops` in the active subgraph, or `None` if there is none.
    ///
    /// Self-loops are ignored (they are excluded from the problem definition).
    /// The backward BFS stops after the first level that reaches an
    /// out-neighbor of `v` (see the module docs for why that is the nearest).
    pub fn shortest_closed_walk<G: GraphView>(
        &mut self,
        g: &G,
        active: &ActiveSet,
        v: VertexId,
        max_hops: usize,
    ) -> Option<usize> {
        if !active.is_active(v) || max_hops == 0 {
            return None;
        }
        if !g.out_iter(v).any(|w| w != v && active.is_active(w)) {
            return None;
        }
        // Distances *to* v, level by level, up to the first level holding an
        // out-neighbor (the BFS only reaches active vertices).
        self.bfs
            .run_until(g, active, v, max_hops - 1, Direction::Backward, |bfs| {
                g.out_iter(v).any(|w| w != v && bfs.distance(w).is_some())
            })
            .map(|d| d as usize + 1)
    }

    /// The paper's filter (Algorithm 11): prune `v` iff no closed walk of
    /// length at most `k` exists; otherwise hand the vertex to the DFS.
    pub fn decide<G: GraphView>(
        &mut self,
        g: &G,
        active: &ActiveSet,
        v: VertexId,
        constraint: &HopConstraint,
    ) -> FilterDecision {
        self.evaluations += 1;
        match self.shortest_closed_walk(g, active, v, constraint.max_hops) {
            None => {
                self.pruned += 1;
                FilterDecision::Prune
            }
            Some(_) => FilterDecision::NeedsVerification,
        }
    }

    /// Extension beyond the paper: also classify vertices as *proven necessary*
    /// when the shortest closed walk is itself an admissible simple cycle
    /// (length within `[min_len, k]`), skipping the DFS for them too. With
    /// 2-cycles excluded, a result of exactly 2 stays inconclusive.
    pub fn decide_exact<G: GraphView>(
        &mut self,
        g: &G,
        active: &ActiveSet,
        v: VertexId,
        constraint: &HopConstraint,
    ) -> FilterDecision {
        self.evaluations += 1;
        match self.shortest_closed_walk(g, active, v, constraint.max_hops) {
            None => {
                self.pruned += 1;
                FilterDecision::Prune
            }
            Some(len) if constraint.covers_len(len) => FilterDecision::ProvenNecessary(len),
            Some(_) => FilterDecision::NeedsVerification,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_cycle::find_cycle_through;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{directed_cycle, directed_path, erdos_renyi_gnm, Xoshiro256};
    use tdb_graph::{DeltaGraph, Graph, GraphBuilder};

    fn all_active(g: &impl Graph) -> ActiveSet {
        ActiveSet::all_active(g.num_vertices())
    }

    #[test]
    fn walk_length_on_a_plain_cycle() {
        let g = directed_cycle(5);
        let active = all_active(&g);
        let mut f = BfsFilter::new(5);
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 10), Some(5));
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 5), Some(5));
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 4), None);
    }

    #[test]
    fn two_cycle_reports_length_two() {
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        let active = all_active(&g);
        let mut f = BfsFilter::new(2);
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 5), Some(2));
    }

    #[test]
    fn acyclic_vertices_are_pruned() {
        let g = directed_path(8);
        let active = all_active(&g);
        let mut f = BfsFilter::new(8);
        let c = HopConstraint::new(6);
        for v in g.vertices() {
            assert_eq!(f.decide(&g, &active, v, &c), FilterDecision::Prune);
        }
        assert_eq!(f.evaluations, 8);
        assert_eq!(f.pruned, 8);
    }

    #[test]
    fn filter_never_prunes_a_vertex_with_a_constrained_cycle() {
        // Soundness: pruning must only happen when the exhaustive search also
        // finds nothing.
        for seed in 0..10u64 {
            let g = erdos_renyi_gnm(35, 100, seed);
            let active = all_active(&g);
            let mut f = BfsFilter::new(g.num_vertices());
            for k in [3usize, 4, 5] {
                let c = HopConstraint::new(k);
                for v in g.vertices() {
                    if f.decide(&g, &active, v, &c) == FilterDecision::Prune {
                        assert!(
                            find_cycle_through(&g, &active, v, &c).is_none(),
                            "seed {seed}, k {k}, v {v} pruned but has a cycle"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_mode_proofs_are_correct() {
        for seed in 0..10u64 {
            let g = erdos_renyi_gnm(35, 110, seed + 100);
            let active = all_active(&g);
            let mut f = BfsFilter::new(g.num_vertices());
            for k in [3usize, 5] {
                let c = HopConstraint::new(k);
                for v in g.vertices() {
                    match f.decide_exact(&g, &active, v, &c) {
                        FilterDecision::Prune => {
                            assert!(find_cycle_through(&g, &active, v, &c).is_none());
                        }
                        FilterDecision::ProvenNecessary(len) => {
                            let cycle = find_cycle_through(&g, &active, v, &c)
                                .expect("proven-necessary vertex must have a cycle");
                            assert!(cycle.len() >= 3);
                            assert!(len >= 3 && len <= k);
                        }
                        FilterDecision::NeedsVerification => {}
                    }
                }
            }
        }
    }

    #[test]
    fn deactivated_vertices_are_pruned_immediately() {
        let g = directed_cycle(4);
        let mut active = all_active(&g);
        active.deactivate(1);
        let mut f = BfsFilter::new(4);
        let c = HopConstraint::new(6);
        assert_eq!(f.decide(&g, &active, 1, &c), FilterDecision::Prune);
        // The hole also breaks the only cycle through 0.
        assert_eq!(f.decide(&g, &active, 0, &c), FilterDecision::Prune);
    }

    #[test]
    fn shortest_walk_prefers_the_shorter_cycle() {
        // Vertex 0 sits on both a triangle and a 5-cycle.
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 0),
        ]);
        let active = all_active(&g);
        let mut f = BfsFilter::new(g.num_vertices());
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 10), Some(3));
    }

    #[test]
    fn delta_graph_overlay_matches_materialized_graph() {
        // Satellite of the GraphView relaxation: the filter must produce the
        // same decisions on a DeltaGraph overlay as on a CsrGraph rebuilt from
        // the overlay's effective edge set — Algorithm 11 now runs directly on
        // the streaming storage.
        for seed in 0..5u64 {
            let n: VertexId = 24;
            let base = erdos_renyi_gnm(n as usize, 60, seed);
            let mut delta = DeltaGraph::new(base.clone());
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED);
            // Random churn: remove a few base edges, insert a few fresh ones.
            let edges: Vec<_> = base.edges().collect();
            for _ in 0..8 {
                let e = edges[rng.next_index(edges.len())];
                delta.remove_edge(e.source, e.target);
            }
            for _ in 0..8 {
                let u = rng.next_index(n as usize) as VertexId;
                let v = rng.next_index(n as usize) as VertexId;
                if u != v {
                    delta.insert_edge(u, v);
                }
            }
            // Materialize the overlay's effective edge set.
            let mut b = GraphBuilder::new();
            b.reserve_vertices(n as usize);
            for u in 0..n {
                for v in delta.out_iter(u) {
                    b.add_edge(u, v);
                }
            }
            let materialized = b.build();
            let active = ActiveSet::all_active(n as usize);
            let mut f_delta = BfsFilter::new(n as usize);
            let mut f_plain = BfsFilter::new(n as usize);
            for k in [3usize, 4, 6] {
                let c = HopConstraint::new(k);
                for v in 0..n {
                    assert_eq!(
                        f_delta.shortest_closed_walk(&delta, &active, v, k),
                        f_plain.shortest_closed_walk(&materialized, &active, v, k),
                        "seed {seed}, k {k}, v {v}"
                    );
                    assert_eq!(
                        f_delta.decide(&delta, &active, v, &c),
                        f_plain.decide(&materialized, &active, v, &c)
                    );
                    assert_eq!(
                        f_delta.decide_exact(&delta, &active, v, &c),
                        f_plain.decide_exact(&materialized, &active, v, &c)
                    );
                }
            }
        }
    }

    #[test]
    fn max_hops_zero_and_inactive_source() {
        let g = directed_cycle(3);
        let active = all_active(&g);
        let mut f = BfsFilter::new(3);
        assert_eq!(f.shortest_closed_walk(&g, &active, 0, 0), None);
        let mut inactive = all_active(&g);
        inactive.deactivate(0);
        assert_eq!(f.shortest_closed_walk(&g, &inactive, 0, 5), None);
    }
}
