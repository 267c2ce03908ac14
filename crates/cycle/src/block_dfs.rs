//! Block/barrier-based hop-constrained cycle detection — Algorithms 9 and 10 of
//! the paper (`NodeNecessary` / `Unblock`), with barriers seeded from a
//! backward BFS ball.
//!
//! The query answered here is the inner loop of the top-down cover algorithms:
//! *does the currently active subgraph contain a simple cycle through `s` whose
//! length satisfies the hop constraint?*
//!
//! The search is a depth-first traversal bounded by `k` hops, augmented with a
//! per-vertex *block* value: `u.block` is a certified lower bound on
//! `sd(u, s | S)`, the number of hops `u` needs to reach `s` while avoiding the
//! vertices currently on the DFS stack (Definition 6). A branch into `v` is
//! pruned whenever `len(S) + 1 + v.block > k`, i.e. when even the optimistic
//! completion through `v` cannot close a short-enough cycle. Failed subtrees
//! raise the bound (to `k − len(S) + 1`), and discovering that the stack top can
//! reach `s` in one hop — but only via an excluded 2-cycle — lowers bounds again
//! through the in-neighbor propagation of `Unblock` (Algorithm 10).
//!
//! # Seeded barriers
//!
//! Algorithm 9 starts every block value at 0, the trivial lower bound, so the
//! first visit of every vertex is free to expand. Here each query first runs
//! a backward [`BoundedBfs`] from `s` over the active subgraph for `k − 2`
//! hops, and a vertex the DFS has not yet written reads as its distance
//! `d(x → s)` from that ball, or `k − 1` when the ball did not reach it.
//!
//! * *The seed is a lower bound.* `d(x → s)` is the shortest distance with
//!   no vertex excluded, and excluding the stack `S` can only lengthen it, so
//!   `d(x → s) ≤ sd(x, s | S)` for every stack. A vertex outside the ball has
//!   `d(x → s) ≥ k − 1`. The argument of Theorem 5 (block values stay
//!   lower bounds) only needs the starting values to be lower bounds — 0 is
//!   the weakest one — so every block value stays a lower bound and every
//!   prune stays sound.
//! * *The witness is unchanged.* A sound prune only skips branches that
//!   cannot close an admissible cycle. The DFS still tries out-edges in
//!   adjacency order and stops at the first closing edge, so it returns the
//!   same first cycle in DFS order as the unseeded search and as the naive
//!   DFS (`find_cycle::find_cycle_through`); `tests/prop_cycle.rs` pins the
//!   exact sequence. `Unblock` never touches an unwritten vertex either: it
//!   lowers a value to the length of a real walk to `s`, which is never below
//!   the seed.
//! * *Why `k − 2` hops.* The fallback `k − 1` already prunes every branch
//!   taken at stack size 2 or more (`2 + k − 1 > k`), so a deeper ball would
//!   only add prunes for the root's children — whose edges the root scans
//!   anyway — while costing a much larger ball on dense graphs. A shallower
//!   ball falls back to `k − 2`, which prunes only from stack size 3, so the
//!   DFS expands more. On the Wiki-Vote proxy at `k = 5` (a traced `TDB++`
//!   solve, two runs each, 2-vCPU Xeon VM) a `k − 1` ball took 197–208 ms,
//!   `k − 2` 46 ms and `k − 3` 66–67 ms with 6.5× the pushes.
//!
//! The ball is the seeded search's only extra work. [`SearchStats`] counts it
//! (`seed_reached`, `seed_edges`) next to the DFS's own pushes and scans, so a
//! drop in DFS work cannot hide the BFS work that replaced it.
//!
//! The paper proves (Theorems 5 and 6) that block values stay correct and that
//! each vertex is pushed at most `k` times, giving an `O(k · m)` worst case per
//! query — the key ingredient of TDB's `O(k · n · m)` total complexity versus
//! `O(n^k)` for the bottom-up family. The seed ball adds `O(m)`.
//!
//! All scratch state is epoch-stamped so a long-lived [`BlockSearcher`] performs
//! no `O(n)` work between queries.

use tdb_graph::{ActiveSet, FixedBitSet, GraphView, TimestampedVec, VertexId};

use crate::reach::{BoundedBfs, Direction};
use crate::HopConstraint;

/// Instrumentation counters accumulated across queries.
///
/// The ablation benches report these to show *why* TDB+ is faster than TDB: the
/// block prune cuts the number of pushes per query from exponential to `O(km)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of queries issued.
    pub queries: u64,
    /// Vertices pushed onto the DFS stack.
    pub pushes: u64,
    /// Out-edges scanned.
    pub edges_scanned: u64,
    /// Branches skipped by the block condition.
    pub block_prunes: u64,
    /// Queries that found a cycle.
    pub hits: u64,
    /// Vertices the per-query seed BFS reached, the query vertex included.
    pub seed_reached: u64,
    /// In-edges the per-query seed BFS scanned.
    pub seed_edges: u64,
}

/// Reusable block/barrier DFS engine (Algorithm 9 + 10) with BFS-seeded
/// barriers.
#[derive(Debug, Clone)]
pub struct BlockSearcher {
    block: TimestampedVec<u32>,
    /// Backward ball around the query vertex: the starting block values.
    seed: BoundedBfs,
    /// Block value of a vertex the DFS has not written and the ball did not
    /// reach: `k − 1` for the current query.
    unreached: u32,
    on_stack: FixedBitSet,
    stack: Vec<VertexId>,
    stats: SearchStats,
    unblock_worklist: Vec<(VertexId, u32)>,
}

impl BlockSearcher {
    /// Create a searcher for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BlockSearcher {
            block: TimestampedVec::new(n, 0),
            seed: BoundedBfs::new(n),
            unreached: 0,
            on_stack: FixedBitSet::new(n),
            stack: Vec::new(),
            stats: SearchStats::default(),
            unblock_worklist: Vec::new(),
        }
    }

    /// Number of vertices the scratch state is currently sized for.
    pub fn capacity(&self) -> usize {
        self.block.len()
    }

    /// Grow the scratch state in place to cover `n` vertices (no-op when
    /// already large enough).
    pub fn ensure_capacity(&mut self, n: usize) {
        self.block.ensure_len(n);
        self.seed.ensure_capacity(n);
        self.on_stack.grow(n, false);
    }

    /// Force the block-array and seed-ball epoch counters (clears all stamps
    /// first). Test support for exercising the wrap-around reset without
    /// billions of warm-up queries.
    pub fn force_epoch(&mut self, epoch: u32) {
        self.block.force_epoch(epoch);
        self.seed.force_epoch(epoch);
    }

    /// Accumulated instrumentation counters.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Reset the instrumentation counters.
    pub fn reset_stats(&mut self) {
        self.stats = SearchStats::default();
    }

    /// Whether a hop-constrained simple cycle through `s` exists in the active
    /// subgraph. Runs the same search as [`BlockSearcher::find_cycle_through`]
    /// but never materializes the witness, so a warmed searcher answers
    /// without allocating.
    pub fn is_on_constrained_cycle<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        s: VertexId,
        constraint: &HopConstraint,
    ) -> bool {
        self.search(g, active, s, constraint)
    }

    /// Find one hop-constrained simple cycle through `s` in the active
    /// subgraph, as a vertex sequence starting at `s` (closing edge implicit).
    ///
    /// Returns `None` when no such cycle exists — this is the "vertex `s` is
    /// not necessary" outcome that lets the top-down algorithm release `s` from
    /// the cover.
    pub fn find_cycle_through<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        s: VertexId,
        constraint: &HopConstraint,
    ) -> Option<Vec<VertexId>> {
        self.search(g, active, s, constraint)
            .then(|| self.stack.clone())
    }

    /// Run one query. On a hit the witness is left in `self.stack` (with its
    /// on-stack flags cleared) until the next query.
    fn search<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        s: VertexId,
        constraint: &HopConstraint,
    ) -> bool {
        // Sampled 1-in-64: queries run in the microsecond range, so timing
        // every one would dominate the instrumentation budget on hot solves.
        let _timer = if self.stats.queries & 0x3F == 0 {
            tdb_obs::histogram!("tdb_cycle_block_query_seconds").start()
        } else {
            None
        };
        self.ensure_capacity(g.vertex_count());
        self.stats.queries += 1;
        if !active.is_active(s) || g.out_deg(s) == 0 || g.in_deg(s) == 0 {
            return false;
        }
        self.block.reset(); // O(1) epoch bump; full clear only on u32 wrap
        let k = constraint.max_hops;
        // Starting block values: distances to s within k - 2 hops, k - 1
        // beyond (see the module docs).
        let reached = self
            .seed
            .run(g, active, s, k.saturating_sub(2), Direction::Backward);
        self.stats.seed_reached += reached as u64;
        self.stats.seed_edges += self.seed.edges_scanned();
        self.unreached = k.saturating_sub(1) as u32;
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        let found = self.dfs(g, active, s, s, &mut stack, constraint);
        if found {
            self.stats.hits += 1;
            // Clear the on-stack flags of the witness; a failed search has
            // already unwound (and unflagged) its whole stack.
            for &v in &stack {
                self.on_stack.remove(v as usize);
            }
        }
        self.stack = stack; // hand the buffer back for the next query
        found
    }

    /// The current block value of `v`: the DFS's own bound once written this
    /// query, otherwise the seed.
    #[inline]
    fn block_of(&self, v: VertexId) -> u32 {
        if self.block.is_set(v as usize) {
            self.block.get(v as usize)
        } else {
            self.seed.distance(v).unwrap_or(self.unreached)
        }
    }

    #[inline]
    fn set_block(&mut self, v: VertexId, value: u32) {
        self.block.set(v as usize, value);
    }

    /// Algorithm 9 (`NodeNecessary`), specialised to terminate at the first
    /// witness. Recursion depth is bounded by `k + 1`.
    fn dfs<V: GraphView>(
        &mut self,
        g: &V,
        active: &ActiveSet,
        s: VertexId,
        u: VertexId,
        stack: &mut Vec<VertexId>,
        constraint: &HopConstraint,
    ) -> bool {
        let k = constraint.max_hops;
        let hops_to_u = stack.len(); // path length once u is pushed
                                     // Failed-subtree lower bound: if the search below u does not reach s,
                                     // then sd(u, s | S) > k - hops_to_u (Lemma 1 / Theorem 5).
        self.set_block(u, (k + 1 - hops_to_u) as u32);
        stack.push(u);
        self.on_stack.insert(u as usize);
        self.stats.pushes += 1;

        let sz = stack.len(); // vertices on the open path, = cycle length if closed now
        let mut found = false;
        for v in g.out_iter(u) {
            self.stats.edges_scanned += 1;
            if !active.is_active(v) {
                continue;
            }
            if v == s {
                if constraint.covers_len(sz) {
                    found = true;
                    break;
                }
                if sz < constraint.min_len() {
                    // The closing edge exists but the cycle is an excluded
                    // 2-cycle. Record the true 1-hop distance so that earlier
                    // pessimistic bounds on u's in-neighbors are repaired
                    // (Algorithm 10); otherwise longer cycles through u could
                    // be pruned incorrectly later in this query.
                    self.unblock(g, active, u, 1);
                }
                continue;
            }
            if self.on_stack.contains(v as usize) {
                continue;
            }
            if sz >= k {
                // Extending would already make any closing cycle longer than k.
                continue;
            }
            if sz as u32 + self.block_of(v) > k as u32 {
                self.stats.block_prunes += 1;
                continue;
            }
            if self.dfs(g, active, s, v, stack, constraint) {
                found = true;
                break;
            }
        }

        if !found {
            stack.pop();
            self.on_stack.remove(u as usize);
            // If a true short distance to `s` was discovered for `u` mid-scan
            // (the excluded-2-cycle branch above lowered `u.block` below the
            // pessimistic failed-subtree bound), re-propagate it now that the
            // subtree has unwound: vertices explored *after* the discovery
            // acquired failed-subtree bounds conditioned on `u` sitting on the
            // stack, and those bounds are stale the moment `u` pops — without
            // this repair they incorrectly prune later branches that reach `s`
            // through `u` (e.g. w -> u -> s).
            let pessimistic = (k + 1 - hops_to_u) as u32;
            let current = self.block_of(u);
            if current < pessimistic {
                self.unblock(g, active, u, current);
            }
        }
        found
    }

    /// Algorithm 10 (`Unblock`): set `u.block = level` and propagate the
    /// improved bound backwards over in-neighbors that are not on the stack.
    /// Implemented with an explicit worklist so that long in-neighbor chains
    /// cannot overflow the call stack.
    fn unblock<V: GraphView>(&mut self, g: &V, active: &ActiveSet, u: VertexId, level: u32) {
        self.unblock_worklist.clear();
        self.unblock_worklist.push((u, level));
        while let Some((x, l)) = self.unblock_worklist.pop() {
            self.set_block(x, l);
            for w in g.in_iter(x) {
                if active.is_active(w)
                    && !self.on_stack.contains(w as usize)
                    && self.block_of(w) > l + 1
                {
                    self.unblock_worklist.push((w, l + 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_cycle::{find_cycle_through, is_valid_cycle};
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{
        directed_cycle, directed_path, erdos_renyi_gnm, layered_dag, preferential_attachment,
        PreferentialConfig,
    };
    use tdb_graph::Graph;

    fn all_active(g: &impl GraphView) -> ActiveSet {
        ActiveSet::all_active(g.vertex_count())
    }

    #[test]
    fn agrees_with_naive_on_small_cycles() {
        let g = directed_cycle(5);
        let active = all_active(&g);
        let mut searcher = BlockSearcher::new(5);
        for k in 2..8 {
            let constraint = HopConstraint::new(k);
            for v in g.vertices() {
                let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
                let block = searcher
                    .find_cycle_through(&g, &active, v, &constraint)
                    .is_some();
                assert_eq!(naive, block, "k = {k}, v = {v}");
            }
        }
    }

    #[test]
    fn witness_is_a_valid_cycle() {
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 0),
            (1, 4),
            (4, 2),
        ]);
        let active = all_active(&g);
        let constraint = HopConstraint::new(5);
        let mut searcher = BlockSearcher::new(g.num_vertices());
        for v in g.vertices() {
            if let Some(c) = searcher.find_cycle_through(&g, &active, v, &constraint) {
                assert_eq!(c[0], v);
                assert!(is_valid_cycle(&g, &active, &c, &constraint), "cycle {c:?}");
            }
        }
    }

    #[test]
    fn no_cycle_in_dags() {
        for g in [directed_path(20), layered_dag(5, 4)] {
            let active = all_active(&g);
            let mut searcher = BlockSearcher::new(g.num_vertices());
            for v in g.vertices() {
                assert!(!searcher.is_on_constrained_cycle(&g, &active, v, &HopConstraint::new(6)));
            }
        }
    }

    #[test]
    fn two_cycle_exclusion_and_inclusion() {
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        let active = all_active(&g);
        let mut searcher = BlockSearcher::new(2);
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 0, &HopConstraint::new(5)));
        let c = searcher
            .find_cycle_through(&g, &active, 0, &HopConstraint::with_two_cycles(5))
            .unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn two_cycle_unblock_repairs_longer_cycles() {
        // Regression shape for the Unblock path: the 2-cycle (1, 2) is found
        // first and must not block the 4-cycle 0 -> 1 -> 2 -> 3 -> 0.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 1), (2, 3), (3, 0)]);
        let active = all_active(&g);
        let constraint = HopConstraint::new(4);
        let mut searcher = BlockSearcher::new(g.num_vertices());
        for v in g.vertices() {
            let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
            let block = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
            assert_eq!(naive, block, "vertex {v}");
        }
    }

    #[test]
    fn stale_bound_after_two_cycle_discovery_is_repropagated_on_pop() {
        // Regression shape for the pop-time Unblock repair: scanning from 0,
        // the subtree of 3 first rejects the 2-cycle 0 <-> 3 (lowering 3's
        // block to its true distance 1), then visits 11, which fails and
        // records a pessimistic bound *conditioned on 3 being on the stack*.
        // When 3 pops, that bound is stale — the 4-cycle 0 -> 7 -> 11 -> 3 -> 0
        // reaches 0 through 3 — and must be repaired, or the 7-branch prunes
        // the only witness.
        let g = graph_from_edges(&[(0, 3), (3, 0), (3, 11), (0, 7), (7, 11), (11, 3)]);
        let active = all_active(&g);
        let constraint = HopConstraint::new(4);
        let mut searcher = BlockSearcher::new(g.num_vertices());
        for v in [0u32, 3, 7, 11] {
            let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
            let block = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
            assert_eq!(naive, block, "vertex {v}");
        }
        let witness = searcher
            .find_cycle_through(&g, &active, 0, &constraint)
            .unwrap();
        assert!(is_valid_cycle(&g, &active, &witness, &constraint));
    }

    #[test]
    fn differential_test_on_reciprocated_random_graphs() {
        // Dense-in-2-cycles random graphs stress the pop-time repair path far
        // harder than plain G(n, m): reciprocated pairs are what seed the
        // stale bounds.
        for seed in 0..10u64 {
            let g = preferential_attachment(&PreferentialConfig {
                num_vertices: 40,
                out_degree: 3,
                reciprocity: 0.6,
                random_rewire: 0.25,
                seed,
            });
            let active = all_active(&g);
            let mut searcher = BlockSearcher::new(g.num_vertices());
            for k in [3usize, 4, 5, 6] {
                let constraint = HopConstraint::new(k);
                for v in g.vertices() {
                    let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
                    let block = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
                    assert_eq!(naive, block, "seed {seed}, k {k}, vertex {v}");
                }
            }
        }
    }

    #[test]
    fn hop_boundary_matches_cycle_length() {
        for len in 3..9 {
            let g = directed_cycle(len);
            let active = all_active(&g);
            let mut searcher = BlockSearcher::new(len);
            assert!(!searcher.is_on_constrained_cycle(
                &g,
                &active,
                0,
                &HopConstraint::new(len - 1)
            ));
            assert!(searcher.is_on_constrained_cycle(&g, &active, 0, &HopConstraint::new(len)));
        }
    }

    #[test]
    fn deactivation_is_respected() {
        let g = directed_cycle(4);
        let mut active = all_active(&g);
        let mut searcher = BlockSearcher::new(4);
        let k = HopConstraint::new(6);
        assert!(searcher.is_on_constrained_cycle(&g, &active, 0, &k));
        active.deactivate(2);
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 0, &k));
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 2, &k));
    }

    #[test]
    fn differential_test_against_naive_on_random_graphs() {
        // The block DFS must agree with the exhaustive DFS on every vertex of a
        // batch of random graphs, for several k, in both 2-cycle modes.
        for seed in 0..12u64 {
            let g = erdos_renyi_gnm(40, 120, seed);
            let active = all_active(&g);
            let mut searcher = BlockSearcher::new(g.num_vertices());
            for k in [3usize, 4, 5] {
                for include2 in [false, true] {
                    let constraint = if include2 {
                        HopConstraint::with_two_cycles(k)
                    } else {
                        HopConstraint::new(k)
                    };
                    for v in g.vertices() {
                        let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
                        let block = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
                        assert_eq!(
                            naive, block,
                            "seed {seed}, k {k}, include2 {include2}, vertex {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn differential_test_on_skewed_graph_with_partial_activation() {
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 60,
            out_degree: 3,
            reciprocity: 0.3,
            random_rewire: 0.2,
            seed: 5,
        });
        let mut active = all_active(&g);
        // Deactivate every third vertex to exercise reduced-graph behaviour.
        for v in (0..g.num_vertices() as VertexId).step_by(3) {
            active.deactivate(v);
        }
        let mut searcher = BlockSearcher::new(g.num_vertices());
        let constraint = HopConstraint::new(5);
        for v in g.vertices() {
            let naive = find_cycle_through(&g, &active, v, &constraint).is_some();
            let block = searcher.is_on_constrained_cycle(&g, &active, v, &constraint);
            assert_eq!(naive, block, "vertex {v}");
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let g = directed_cycle(6);
        let active = all_active(&g);
        let mut searcher = BlockSearcher::new(6);
        searcher.is_on_constrained_cycle(&g, &active, 0, &HopConstraint::new(6));
        let s = searcher.stats();
        assert_eq!(s.queries, 1);
        assert!(s.pushes >= 6);
        assert_eq!(s.hits, 1);
        searcher.reset_stats();
        assert_eq!(searcher.stats(), SearchStats::default());
    }

    #[test]
    fn seed_ball_counters_on_a_hand_checked_graph() {
        // Triangle 0 -> 1 -> 2 -> 0 with a tail 5 -> 4 -> 3 -> 2; k = 4, so
        // each query's ball is 2 hops deep.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 2), (4, 3), (5, 4)]);
        let active = all_active(&g);
        let constraint = HopConstraint::new(4);
        let mut searcher = BlockSearcher::new(g.num_vertices());

        // s = 0. Ball: 0; in-edge 2 -> 0 reaches 2 (d 1); in-edges 1 -> 2 and
        // 3 -> 2 reach 1 and 3 (d 2), which are not expanded: 4 vertices, 3
        // in-edges. The DFS pushes 0, 1 (seed 2), 2 (seed 1) and closes 2 -> 0.
        let witness = searcher.find_cycle_through(&g, &active, 0, &constraint);
        assert_eq!(witness, Some(vec![0, 1, 2]));
        let expected = SearchStats {
            queries: 1,
            pushes: 3,
            edges_scanned: 3,
            block_prunes: 0,
            hits: 1,
            seed_reached: 4,
            seed_edges: 3,
        };
        assert_eq!(searcher.stats(), expected);

        // s = 3. Ball: 3; 4 -> 3 reaches 4 (d 1); 5 -> 4 reaches 5 (d 2): 3
        // vertices, 2 in-edges. 2 and 0 lie outside it and read k - 1 = 3: the
        // root pushes 2 (1 + 3 <= 4), whose edge to 0 is pruned (2 + 3 > 4).
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 3, &constraint));
        let expected = SearchStats {
            queries: 2,
            pushes: 5,
            edges_scanned: 5,
            block_prunes: 1,
            hits: 1,
            seed_reached: 7,
            seed_edges: 5,
        };
        assert_eq!(searcher.stats(), expected);

        // s = 5 has no in-edge: the query short-circuits before the ball.
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 5, &constraint));
        assert_eq!(
            searcher.stats(),
            SearchStats {
                queries: 3,
                ..expected
            }
        );
        searcher.reset_stats();
        assert_eq!(searcher.stats(), SearchStats::default());
    }

    #[test]
    fn isolated_or_sink_vertices_short_circuit() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let active = all_active(&g);
        let mut searcher = BlockSearcher::new(3);
        let k = HopConstraint::new(4);
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 2, &k)); // sink
        assert!(!searcher.is_on_constrained_cycle(&g, &active, 0, &k)); // source
                                                                        // The short-circuit must not skew correctness counters for later calls.
        assert_eq!(searcher.stats().queries, 2);
    }

    #[test]
    fn repeated_queries_reuse_scratch_correctly() {
        let g = erdos_renyi_gnm(30, 90, 3);
        let active = all_active(&g);
        let constraint = HopConstraint::new(4);
        let mut searcher = BlockSearcher::new(g.num_vertices());
        let first: Vec<bool> = g
            .vertices()
            .map(|v| searcher.is_on_constrained_cycle(&g, &active, v, &constraint))
            .collect();
        for _ in 0..5 {
            let again: Vec<bool> = g
                .vertices()
                .map(|v| searcher.is_on_constrained_cycle(&g, &active, v, &constraint))
                .collect();
            assert_eq!(first, again);
        }
    }
}
