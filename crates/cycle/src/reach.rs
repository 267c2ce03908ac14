//! Hop-bounded reachability over active subgraphs.
//!
//! A reusable BFS engine with an epoch-stamped distance array
//! ([`TimestampedVec`]) so that a single allocation serves millions of queries
//! without `O(n)` clearing between them. Both search directions are supported:
//! the BFS filter and the block DFS's seed ball walk the *reverse* direction
//! (distance *to* the query vertex), while the verifier and some examples walk
//! forward. [`BoundedBfs::run_until`] stops after the first level at which a
//! caller's condition holds, which is what makes the BFS filter
//! output-sensitive.

use tdb_graph::{ActiveSet, GraphView, TimestampedVec, VertexId};

/// Direction of a BFS traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges: distances *from* the source.
    Forward,
    /// Follow in-edges: distances *to* the source.
    Backward,
}

/// Reusable hop-bounded BFS engine.
///
/// All scratch state is epoch-stamped: starting a new query bumps a counter
/// instead of clearing the arrays, so a query costs `O(visited)` rather than
/// `O(n)`. The engine auto-resizes when handed a graph larger than its
/// current capacity, so it stays sound when a dynamic graph grows under it.
#[derive(Debug, Clone)]
pub struct BoundedBfs {
    dist: TimestampedVec<u32>,
    queue: Vec<VertexId>,
    edges_scanned: u64,
}

impl BoundedBfs {
    /// Create an engine for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BoundedBfs {
            dist: TimestampedVec::new(n, u32::MAX),
            queue: Vec::new(),
            edges_scanned: 0,
        }
    }

    /// Number of vertices this engine is currently sized for.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// Grow the scratch arrays in place to cover `n` vertices (no-op when
    /// already large enough).
    pub fn ensure_capacity(&mut self, n: usize) {
        self.dist.ensure_len(n);
    }

    /// Force the internal epoch counter (clears all stamps first). Test
    /// support for exercising the wrap-around reset without billions of
    /// warm-up queries.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.dist.force_epoch(epoch);
    }

    /// Run a hop-bounded BFS from `source` over active vertices.
    ///
    /// After the call, [`BoundedBfs::distance`] reports distances (in hops) of
    /// vertices reached within `max_hops`; unreached vertices report `None`.
    /// Returns the number of vertices reached (including the source).
    pub fn run<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        source: VertexId,
        max_hops: usize,
        direction: Direction,
    ) -> usize {
        self.run_until(g, active, source, max_hops, direction, |_| false);
        self.queue.len()
    }

    /// [`BoundedBfs::run`], stopped after the first complete level at which
    /// `done` holds. Returns that level's distance, or `None` when `done`
    /// never held.
    ///
    /// The search expands one level at a time. After it has discovered every
    /// vertex at distance `d` (for `1 ≤ d ≤ max_hops`, and only if there is
    /// one) it calls `done` on itself. Distances up to `d` are then final, so
    /// the first `d` at which `done` holds is the smallest. After a stop the
    /// vertices beyond `d` read as unreached.
    pub fn run_until<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        source: VertexId,
        max_hops: usize,
        direction: Direction,
        mut done: impl FnMut(&Self) -> bool,
    ) -> Option<u32> {
        self.ensure_capacity(g.vertex_count());
        self.dist.reset();
        self.queue.clear();
        self.edges_scanned = 0;
        if !active.is_active(source) {
            return None;
        }
        self.visit(source, 0);
        let mut scanned = 0u64;
        let mut head = 0usize;
        let mut level = 0u32;
        let mut found = None;
        while (level as usize) < max_hops && head < self.queue.len() {
            let level_end = self.queue.len();
            while head < level_end {
                let u = self.queue[head];
                head += 1;
                match direction {
                    Direction::Forward => {
                        for v in g.out_iter(u) {
                            scanned += 1;
                            // Visited-check first: it is the cheaper test and,
                            // once the frontier saturates, the one that
                            // short-circuits.
                            if !self.dist.is_set(v as usize) && active.is_active(v) {
                                self.visit(v, level + 1);
                            }
                        }
                    }
                    Direction::Backward => {
                        for v in g.in_iter(u) {
                            scanned += 1;
                            if !self.dist.is_set(v as usize) && active.is_active(v) {
                                self.visit(v, level + 1);
                            }
                        }
                    }
                }
            }
            level += 1;
            if head < self.queue.len() && done(self) {
                found = Some(level);
                break;
            }
        }
        self.edges_scanned = scanned;
        found
    }

    #[inline]
    fn visit(&mut self, v: VertexId, d: u32) {
        self.dist.set(v as usize, d);
        self.queue.push(v);
    }

    /// Distance of `v` from the most recent query's source, if reached.
    #[inline]
    pub fn distance(&self, v: VertexId) -> Option<u32> {
        if self.dist.is_set(v as usize) {
            Some(self.dist.get(v as usize))
        } else {
            None
        }
    }

    /// Vertices reached by the most recent query, in BFS order.
    pub fn reached(&self) -> &[VertexId] {
        &self.queue
    }

    /// Edges the most recent query scanned (in-edges for a backward search),
    /// including those into already-reached or inactive vertices.
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned
    }
}

/// Convenience wrapper: hop-bounded distance from `u` to `v` over active
/// vertices, or `None` if `v` is unreachable within `max_hops`.
pub fn bounded_distance<V: GraphView>(
    g: &V,
    active: &ActiveSet,
    u: VertexId,
    v: VertexId,
    max_hops: usize,
) -> Option<u32> {
    let mut bfs = BoundedBfs::new(g.vertex_count());
    bfs.run(g, active, u, max_hops, Direction::Forward);
    bfs.distance(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{directed_cycle, directed_path};

    #[test]
    fn forward_distances_on_a_path() {
        let g = directed_path(6);
        let active = ActiveSet::all_active(6);
        let mut bfs = BoundedBfs::new(6);
        let reached = bfs.run(&g, &active, 0, 10, Direction::Forward);
        assert_eq!(reached, 6);
        for v in 0..6u32 {
            assert_eq!(bfs.distance(v), Some(v));
        }
    }

    #[test]
    fn hop_bound_truncates_search() {
        let g = directed_path(6);
        let active = ActiveSet::all_active(6);
        let mut bfs = BoundedBfs::new(6);
        bfs.run(&g, &active, 0, 2, Direction::Forward);
        assert_eq!(bfs.distance(2), Some(2));
        assert_eq!(bfs.distance(3), None);
    }

    #[test]
    fn backward_distances_follow_in_edges() {
        let g = directed_path(4);
        let active = ActiveSet::all_active(4);
        let mut bfs = BoundedBfs::new(4);
        bfs.run(&g, &active, 3, 10, Direction::Backward);
        assert_eq!(bfs.distance(0), Some(3));
        assert_eq!(bfs.distance(3), Some(0));
        // Forward from the sink reaches nothing else.
        bfs.run(&g, &active, 3, 10, Direction::Forward);
        assert_eq!(bfs.distance(0), None);
    }

    #[test]
    fn inactive_vertices_block_traversal() {
        let g = directed_cycle(5);
        let mut active = ActiveSet::all_active(5);
        active.deactivate(2);
        let mut bfs = BoundedBfs::new(5);
        bfs.run(&g, &active, 0, 10, Direction::Forward);
        assert_eq!(bfs.distance(1), Some(1));
        assert_eq!(bfs.distance(3), None); // cut off behind the hole
                                           // Inactive source reaches nothing.
        assert_eq!(bfs.run(&g, &active, 2, 10, Direction::Forward), 0);
        assert_eq!(bfs.distance(2), None);
    }

    #[test]
    fn epoch_reuse_does_not_leak_previous_query() {
        let g = graph_from_edges(&[(0, 1), (2, 3)]);
        let active = ActiveSet::all_active(4);
        let mut bfs = BoundedBfs::new(4);
        bfs.run(&g, &active, 0, 5, Direction::Forward);
        assert_eq!(bfs.distance(1), Some(1));
        bfs.run(&g, &active, 2, 5, Direction::Forward);
        assert_eq!(bfs.distance(1), None, "stale result from earlier query");
        assert_eq!(bfs.distance(3), Some(1));
        assert_eq!(bfs.reached(), &[2, 3]);
    }

    #[test]
    fn run_until_stops_after_the_first_level_that_satisfies_it() {
        // Backward from 0 on the 6-cycle 0 -> 1 -> ... -> 5 -> 0: 5 is at
        // distance 1, 4 at 2, 3 at 3.
        let g = directed_cycle(6);
        let active = ActiveSet::all_active(6);
        let mut bfs = BoundedBfs::new(6);
        let reached = |bfs: &BoundedBfs| bfs.distance(3).is_some() || bfs.distance(4).is_some();
        assert_eq!(
            bfs.run_until(&g, &active, 0, 5, Direction::Backward, reached),
            Some(2)
        );
        assert_eq!(bfs.distance(4), Some(2));
        assert_eq!(bfs.distance(3), None, "the search stopped before 3");
        // Two in-edges scanned: 5 -> 0 and 4 -> 5.
        assert_eq!(bfs.edges_scanned(), 2);
        // Level 0 (the source alone) is never offered; a condition that no
        // level within the bound meets leaves the whole ball searched.
        let miss = |bfs: &BoundedBfs| bfs.reached().len() == 1 || bfs.distance(3).is_some();
        assert_eq!(
            bfs.run_until(&g, &active, 0, 2, Direction::Backward, miss),
            None
        );
        assert_eq!(bfs.reached(), &[0, 5, 4]);
        assert_eq!(bfs.edges_scanned(), 2);
        // A level that discovers nothing ends the search unchecked: the head
        // of a path has no in-neighbor, so `done` is never called.
        let path = directed_path(3);
        let all = ActiveSet::all_active(3);
        assert_eq!(
            bfs.run_until(&path, &all, 0, 5, Direction::Backward, |_| true),
            None
        );
    }

    #[test]
    fn edges_scanned_counts_every_examined_edge() {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 3: a full forward run from 0 scans all
        // four out-edges, including 1 -> 2 into an already-reached vertex.
        let g = graph_from_edges(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let active = ActiveSet::all_active(4);
        let mut bfs = BoundedBfs::new(4);
        assert_eq!(bfs.run(&g, &active, 0, 5, Direction::Forward), 4);
        assert_eq!(bfs.edges_scanned(), 4);
        // The hop bound stops expansion: only 0's two out-edges are scanned.
        bfs.run(&g, &active, 0, 1, Direction::Forward);
        assert_eq!(bfs.edges_scanned(), 2);
    }

    #[test]
    fn bounded_distance_helper() {
        let g = directed_cycle(6);
        let active = ActiveSet::all_active(6);
        assert_eq!(bounded_distance(&g, &active, 0, 3, 10), Some(3));
        assert_eq!(bounded_distance(&g, &active, 0, 3, 2), None);
        assert_eq!(bounded_distance(&g, &active, 0, 0, 10), Some(0));
    }

    #[test]
    fn many_queries_with_epoch_wrap_protection() {
        let g = directed_cycle(4);
        let active = ActiveSet::all_active(4);
        let mut bfs = BoundedBfs::new(4);
        for _ in 0..10_000 {
            bfs.run(&g, &active, 1, 4, Direction::Forward);
        }
        assert_eq!(bfs.distance(0), Some(3));
    }

    #[test]
    fn epoch_wraparound_resets_cleanly() {
        let g = graph_from_edges(&[(0, 1), (2, 3)]);
        let active = ActiveSet::all_active(4);
        let mut bfs = BoundedBfs::new(4);
        bfs.run(&g, &active, 0, 5, Direction::Forward);
        bfs.force_epoch(u32::MAX);
        // The next run wraps the u32 epoch; stale stamps must not leak.
        bfs.run(&g, &active, 2, 5, Direction::Forward);
        assert_eq!(bfs.distance(0), None);
        assert_eq!(bfs.distance(3), Some(1));
    }

    #[test]
    fn undersized_engine_auto_resizes() {
        // An engine built for a smaller graph must transparently cover a
        // larger one (release builds used to index out of bounds here).
        let g = directed_cycle(8);
        let active = ActiveSet::all_active(8);
        let mut bfs = BoundedBfs::new(2);
        let reached = bfs.run(&g, &active, 0, 8, Direction::Forward);
        assert_eq!(reached, 8);
        assert_eq!(bfs.capacity(), 8);
        assert_eq!(bfs.distance(7), Some(7));
    }
}
