//! Epoch-published immutable cover snapshots.
//!
//! A [`CoverSnapshot`] is one immutable heap object: the graph and cover
//! captured together from the engine ([`tdb_dynamic::CoverState`]), stamped
//! with a publication epoch and enriched with per-breaker statistics. The
//! single writer publishes snapshots into a [`SnapshotCell`] by swapping an
//! `Arc` pointer; any number of readers load the current pointer and then
//! query their copy with no further synchronization.
//!
//! # Why readers can never observe a torn state
//!
//! * Graph and cover are cloned from the engine *between* updates, so every
//!   snapshot satisfies the engine invariant — the cover is valid for exactly
//!   the graph it is paired with.
//! * The pair lives in one `Arc`; publication replaces the pointer, never the
//!   pointee. A reader holds either the old object or the new one, whole.
//! * Epochs are assigned by the single writer, incremented once per
//!   publication, so the epoch sequence any one reader observes is monotone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use tdb_core::request::{BREAKER_CYCLE_CAP, DEFAULT_RESIDUAL_CAP};
use tdb_core::CycleCover;
use tdb_cycle::enumerate::enumerate_cycles;
use tdb_cycle::reach::{BoundedBfs, Direction};
use tdb_cycle::HopConstraint;
use tdb_dynamic::{CoverState, UpdateMetrics};
use tdb_graph::{ActiveSet, CsrGraph, DeltaGraph, GraphView, VertexId};

/// Degree statistics of one cover vertex at publication time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerStat {
    /// The cover vertex.
    pub vertex: VertexId,
    /// Its out-degree in the snapshot graph.
    pub out_deg: u32,
    /// Its in-degree in the snapshot graph.
    pub in_deg: u32,
}

impl BreakerStat {
    /// Total degree (`out + in`) — the service's proxy for how central the
    /// breaker is (hubs intersect many cycles).
    pub fn degree(&self) -> u32 {
        self.out_deg + self.in_deg
    }
}

/// One immutable published state of the service: graph + cover + metadata,
/// consistent by construction.
#[derive(Debug, Clone)]
pub struct CoverSnapshot {
    epoch: u64,
    state: CoverState,
    breakers: Vec<BreakerStat>,
    /// Lazily materialized CSR copy of the snapshot graph, built once on the
    /// first `EXPLAIN?` / `RESIDUAL?` query against this epoch and shared by
    /// all subsequent ones (the snapshot itself is immutable).
    materialized: OnceLock<Arc<CsrGraph>>,
}

/// The `EXPLAIN? v` answer computed against one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainAnswer {
    /// Whether `v` is in the snapshot cover.
    pub in_cover: bool,
    /// The vertex's cost under the snapshot's cost model.
    pub cost: u64,
    /// Hop-constrained cycles through `v` that no *other* cover vertex
    /// breaks — the vertex's witness count (0 for non-cover vertices that
    /// are fully shadowed by the cover).
    pub cycles_through: u64,
    /// The enumeration hit its cap; `cycles_through` is a lower bound.
    pub truncated: bool,
}

/// The `RESIDUAL?` answer computed against one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualAnswer {
    /// Constrained cycles the snapshot cover does NOT break (0 for a valid
    /// cover — the resident engine's invariant).
    pub count: u64,
    /// The enumeration hit its cap; `count` is a lower bound.
    pub truncated: bool,
}

impl CoverSnapshot {
    /// Wrap an engine state as the snapshot for `epoch`, computing per-breaker
    /// statistics (one degree lookup per cover vertex).
    pub fn new(epoch: u64, state: CoverState) -> Self {
        let breakers = state
            .cover
            .iter()
            .map(|v| BreakerStat {
                vertex: v,
                out_deg: state.graph.out_deg(v) as u32,
                in_deg: state.graph.in_deg(v) as u32,
            })
            .collect();
        CoverSnapshot {
            epoch,
            state,
            breakers,
            materialized: OnceLock::new(),
        }
    }

    /// The snapshot graph as a clean CSR, materialized once per snapshot and
    /// cached (the backing store of the `EXPLAIN?` / `RESIDUAL?` cycle
    /// enumerations).
    fn materialized(&self) -> &CsrGraph {
        self.materialized
            .get_or_init(|| Arc::new(self.state.graph.materialize()))
    }

    /// Total cover cost under the engine's cost model at capture time
    /// (equals the cover size when costs are uniform).
    pub fn total_cost(&self) -> u64 {
        self.state.cover_cost
    }

    /// The cost of one vertex under the snapshot's cost model.
    pub fn vertex_cost(&self, v: VertexId) -> u64 {
        self.state.costs.cost(v)
    }

    /// The `EXPLAIN? v` query: how load-bearing is `v` for this snapshot?
    ///
    /// Counts the hop-constrained cycles through `v` that no other cover
    /// vertex intersects, by enumerating cycles in the reduced graph with
    /// `v` re-activated — the same witness semantics as
    /// `tdb_core::CoverReport::breaker_stats`. For a cover vertex this is
    /// the number of constrained cycles that would become uncovered if `v`
    /// were released (0 means `v` is redundant right now); for a non-cover
    /// vertex it is 0 whenever the cover is valid. The enumeration is capped
    /// at `tdb_core::request::BREAKER_CYCLE_CAP`; `truncated` marks a hit
    /// cap. Returns `None` for an out-of-range vertex id.
    pub fn explain(&self, v: VertexId) -> Option<ExplainAnswer> {
        let _span = tdb_obs::trace::span("serve/explain");
        let n = self.vertex_count();
        if v as usize >= n {
            return None;
        }
        let g = self.materialized();
        let mut active = self.state.cover.reduced_active_set(n);
        active.activate(v);
        let witnesses = enumerate_cycles(g, &active, &self.state.constraint, BREAKER_CYCLE_CAP);
        // Cycles that avoid v entirely are residual leaks of an invalid or
        // dirty cover, not witnesses for v.
        let through = witnesses.iter().filter(|c| c.contains(&v)).count();
        Some(ExplainAnswer {
            in_cover: self.contains(v),
            cost: self.vertex_cost(v),
            cycles_through: through as u64,
            truncated: witnesses.len() >= BREAKER_CYCLE_CAP,
        })
    }

    /// The `RESIDUAL?` query: count the constrained cycles the snapshot cover
    /// fails to break (capped at `tdb_core::request::DEFAULT_RESIDUAL_CAP`).
    ///
    /// The resident engine repairs after every update, so a healthy service
    /// answers 0 — the verb is the wire-level completeness audit.
    pub fn residual(&self) -> ResidualAnswer {
        let _span = tdb_obs::trace::span("serve/residual");
        let n = self.vertex_count();
        let g = self.materialized();
        let active = self.state.cover.reduced_active_set(n);
        let survivors = enumerate_cycles(g, &active, &self.state.constraint, DEFAULT_RESIDUAL_CAP);
        ResidualAnswer {
            count: survivors.len() as u64,
            truncated: survivors.len() >= DEFAULT_RESIDUAL_CAP,
        }
    }

    /// The publication epoch (0 is the seed snapshot, before any update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The captured graph.
    pub fn graph(&self) -> &DeltaGraph {
        &self.state.graph
    }

    /// The captured cover, valid for [`CoverSnapshot::graph`].
    pub fn cover(&self) -> &CycleCover {
        &self.state.cover
    }

    /// The hop constraint the cover maintains.
    pub fn constraint(&self) -> &HopConstraint {
        &self.state.constraint
    }

    /// Whether the engine considered the cover possibly non-minimal when the
    /// snapshot was taken (never invalid). Always `false` for snapshots a
    /// [`crate::CoverEngine`] publishes: its writer minimizes first.
    pub fn dirty(&self) -> bool {
        self.state.dirty
    }

    /// Engine counters accumulated up to the capture.
    pub fn totals(&self) -> &UpdateMetrics {
        &self.state.totals
    }

    /// Number of vertices of the snapshot graph.
    pub fn vertex_count(&self) -> usize {
        self.state.vertex_count()
    }

    /// Number of edges of the snapshot graph.
    pub fn edge_count(&self) -> usize {
        self.state.edge_count()
    }

    /// Per-breaker degree statistics, in cover order (ascending vertex id).
    pub fn breaker_stats(&self) -> &[BreakerStat] {
        &self.breakers
    }

    /// Whether `v` is in the cover — the `COVER?` query.
    pub fn contains(&self, v: VertexId) -> bool {
        self.state.cover.contains(v)
    }

    /// Full validity audit of the snapshot against its own graph (static
    /// verification pass over a materialized copy; sampled audits only, not
    /// the read hot path).
    pub fn audit_valid(&self) -> bool {
        self.state.is_valid()
    }

    /// The `BREAKERS?` query: cover vertices implicated in hop-constrained
    /// cycles through the directed edge `(u, v)`.
    ///
    /// A cover vertex `w` is reported when `dist(v → w) + dist(w → u) ≤ k−1`
    /// in the snapshot graph, i.e. `w` lies on a closed walk of length ≤ `k`
    /// that uses `(u, v)`. For `w ∈ {u, v}` this degenerates to "some return
    /// path `v ⇝ u` of length ≤ `k−1` exists". Closed *walks* over-approximate
    /// simple cycles, so the answer is a complete candidate set: every breaker
    /// of a constrained simple cycle through the edge is included, and a few
    /// near-misses may be too. The edge itself does not have to be present —
    /// the query also answers the hypothetical "if `(u, v)` appeared, which
    /// suspended vertices would already break its cycles?".
    ///
    /// Cost: two hop-bounded BFS passes plus one distance lookup per cover
    /// vertex, using caller-provided scratch so concurrent readers share
    /// nothing.
    pub fn breakers_through(
        &self,
        scratch: &mut BreakerScratch,
        u: VertexId,
        v: VertexId,
    ) -> Vec<VertexId> {
        let _span = tdb_obs::trace::span("serve/breakers");
        let n = self.vertex_count();
        let k = self.state.constraint.max_hops;
        if u == v || k < 2 || u as usize >= n || v as usize >= n {
            return Vec::new();
        }
        scratch.fit(n);
        let budget = k - 1; // the edge (u, v) itself spends one hop
        {
            let _bfs = tdb_obs::trace::span("serve/bfs_forward");
            scratch.forward.run(
                &self.state.graph,
                &scratch.active,
                v,
                budget,
                Direction::Forward,
            );
        }
        {
            let _bfs = tdb_obs::trace::span("serve/bfs_backward");
            scratch.backward.run(
                &self.state.graph,
                &scratch.active,
                u,
                budget,
                Direction::Backward,
            );
        }
        self.state
            .cover
            .iter()
            .filter(
                |&w| match (scratch.forward.distance(w), scratch.backward.distance(w)) {
                    (Some(df), Some(db)) => (df + db) as usize <= budget,
                    _ => false,
                },
            )
            .collect()
    }
}

/// Reusable per-reader scratch for [`CoverSnapshot::breakers_through`].
///
/// Each connection handler owns one, so queries allocate nothing after the
/// first call and readers never contend on shared search state.
#[derive(Debug)]
pub struct BreakerScratch {
    forward: BoundedBfs,
    backward: BoundedBfs,
    active: ActiveSet,
}

impl BreakerScratch {
    /// Scratch sized for graphs with `n` vertices (grows on demand).
    pub fn new(n: usize) -> Self {
        BreakerScratch {
            forward: BoundedBfs::new(n),
            backward: BoundedBfs::new(n),
            active: ActiveSet::all_active(n),
        }
    }

    /// Grow in place to cover `n` vertices. Never shrinks, so a snapshot
    /// that gained a vertex costs a reader no rebuild.
    fn fit(&mut self, n: usize) {
        self.forward.ensure_capacity(n);
        self.backward.ensure_capacity(n);
        self.active.ensure_len(n, true);
    }
}

impl Default for BreakerScratch {
    fn default() -> Self {
        BreakerScratch::new(0)
    }
}

/// The publication point: a single writer swaps `Arc<CoverSnapshot>` pointers
/// in, readers clone the current pointer out.
///
/// The lock guards only the pointer swap (a few machine words); all graph
/// mutation, cycle repair, and snapshot construction happen outside it, and
/// so does the teardown of the replaced snapshot, so readers are never
/// blocked on the update path — at worst they wait for a competing pointer
/// copy.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<CoverSnapshot>>,
    /// Epoch mirror readable without touching the lock (`STATS` fast path).
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Initialize the cell with a seed snapshot (epoch as stamped).
    pub fn new(seed: CoverSnapshot) -> Self {
        let epoch = seed.epoch();
        SnapshotCell {
            current: RwLock::new(Arc::new(seed)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// The most recently published snapshot.
    pub fn load(&self) -> Arc<CoverSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The current epoch without loading the snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish a new snapshot. Callers (the single writer) must stamp epochs
    /// monotonically; the cell enforces it with a debug assertion.
    ///
    /// The replaced snapshot is released after the lock is: when no reader
    /// still holds it, dropping it frees its cover, its breaker statistics
    /// and every overlay chunk only it shared, and readers must not wait for
    /// that.
    pub fn publish(&self, snapshot: CoverSnapshot) {
        let epoch = snapshot.epoch();
        let next = Arc::new(snapshot);
        let replaced = {
            let mut slot = self.current.write().expect("snapshot lock poisoned");
            debug_assert!(
                epoch >= slot.epoch(),
                "epoch regression: {epoch} < {}",
                slot.epoch()
            );
            let replaced = std::mem::replace(&mut *slot, next);
            self.epoch.store(epoch, Ordering::Release);
            replaced
        };
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{Algorithm, Solver};
    use tdb_dynamic::SolveDynamic;
    use tdb_graph::builder::graph_from_edges;

    fn snapshot_of(edges: &[(VertexId, VertexId)], k: usize, epoch: u64) -> CoverSnapshot {
        let d = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(graph_from_edges(edges), &HopConstraint::new(k))
            .unwrap();
        CoverSnapshot::new(epoch, d.state())
    }

    #[test]
    fn snapshot_exposes_consistent_metadata() {
        let s = snapshot_of(&[(0, 1), (1, 2), (2, 0)], 4, 3);
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.vertex_count(), 3);
        assert_eq!(s.edge_count(), 3);
        assert_eq!(s.cover().len(), 1);
        assert_eq!(s.breaker_stats().len(), 1);
        let b = s.breaker_stats()[0];
        assert!(s.contains(b.vertex));
        assert_eq!(b.degree(), 2, "triangle vertices have in=out=1");
        assert!(s.audit_valid());
    }

    #[test]
    fn breakers_through_reports_cover_vertices_on_the_cycle() {
        // Two triangles sharing vertex 2; cover = {2}.
        let s = snapshot_of(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 4, 1);
        assert_eq!(s.cover().as_slice(), &[2]);
        let mut scratch = BreakerScratch::default();
        // Edge (1, 2): the cycle 0 -> 1 -> 2 -> 0 passes through breaker 2.
        assert_eq!(s.breakers_through(&mut scratch, 1, 2), vec![2]);
        // Edge (3, 4) of the second triangle: breaker 2 again.
        assert_eq!(s.breakers_through(&mut scratch, 3, 4), vec![2]);
        // Hypothetical edge (4, 0): closing walk 0 ⇝ 4 needs 0->1->2->3->4,
        // 4 hops + the edge = 5 > k = 4, so no breaker is implicated.
        assert_eq!(
            s.breakers_through(&mut scratch, 4, 0),
            Vec::<VertexId>::new()
        );
        // Degenerate inputs.
        assert!(s.breakers_through(&mut scratch, 1, 1).is_empty());
        assert!(s.breakers_through(&mut scratch, 0, 99).is_empty());
    }

    #[test]
    fn explain_counts_witness_cycles_and_costs() {
        // Two triangles sharing vertex 2; cover = {2}.
        let s = snapshot_of(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)], 4, 1);
        assert_eq!(s.cover().as_slice(), &[2]);
        assert_eq!(s.total_cost(), 1, "uniform costs: total = cover size");
        let e = s.explain(2).unwrap();
        assert!(e.in_cover);
        assert_eq!(e.cost, 1);
        assert_eq!(e.cycles_through, 2, "vertex 2 breaks both triangles");
        assert!(!e.truncated);
        // A non-cover vertex is fully shadowed: zero witnesses.
        let e = s.explain(0).unwrap();
        assert!(!e.in_cover);
        assert_eq!(e.cycles_through, 0);
        // Out-of-range id.
        assert!(s.explain(99).is_none());
    }

    #[test]
    fn residual_is_zero_for_a_valid_snapshot() {
        let s = snapshot_of(&[(0, 1), (1, 2), (2, 0)], 4, 0);
        let r = s.residual();
        assert_eq!(r.count, 0);
        assert!(!r.truncated);
        // An (invalidly) empty cover exposes the triangle.
        let d = tdb_dynamic::DynamicCover::from_cover(
            graph_from_edges(&[(0, 1), (1, 2), (2, 0)]),
            tdb_core::CycleCover::from_vertices(vec![]),
            HopConstraint::new(4),
        );
        let bare = CoverSnapshot::new(1, d.state());
        assert_eq!(bare.residual().count, 1);
    }

    #[test]
    fn cell_swaps_whole_snapshots_with_monotone_epochs() {
        let cell = SnapshotCell::new(snapshot_of(&[(0, 1), (1, 0)], 4, 0));
        assert_eq!(cell.epoch(), 0);
        let before = cell.load();
        cell.publish(snapshot_of(&[(0, 1), (1, 2), (2, 0)], 4, 1));
        assert_eq!(cell.epoch(), 1);
        let after = cell.load();
        // The old handle still sees the old, internally consistent state.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.edge_count(), 2);
        assert!(before.audit_valid());
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.edge_count(), 3);
        assert!(after.audit_valid());
    }

    #[test]
    fn one_scratch_grows_in_place_across_snapshots() {
        // Two rings per vertex (i → i+1, i → i+2): every vertex is on a
        // short cycle, so most pairs have breakers.
        let rings = |n: VertexId| -> Vec<(VertexId, VertexId)> {
            (0..n)
                .flat_map(|i| [(i, (i + 1) % n), (i, (i + 2) % n)])
                .collect()
        };
        let mut reused = BreakerScratch::default();
        let mut widest = 0;
        for (epoch, n) in [4, 7, 12, 5].into_iter().enumerate() {
            let snap = snapshot_of(&rings(n), 4, epoch as u64);
            for u in 0..n {
                for v in 0..n {
                    let fresh = snap.breakers_through(&mut BreakerScratch::default(), u, v);
                    assert_eq!(
                        snap.breakers_through(&mut reused, u, v),
                        fresh,
                        "n {n}: {u} {v}"
                    );
                }
            }
            widest = widest.max(n as usize);
            assert_eq!(reused.active.len(), widest, "the mask never shrinks");
            assert!(reused.forward.capacity() >= widest);
            assert!(reused.backward.capacity() >= widest);
        }
    }
}
