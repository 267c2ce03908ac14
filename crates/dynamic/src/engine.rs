//! The incremental cover maintenance engine.
//!
//! # Invariants
//!
//! A [`DynamicCover`] keeps a hop-constrained cycle cover **valid after every
//! applied update** without re-solving:
//!
//! * **Insertion** of `(u, v)` can only expose constrained cycles that contain
//!   the new edge. If either endpoint is already covered there is nothing to
//!   do; otherwise the engine repeatedly runs the edge-anchored bidirectional
//!   search ([`EdgeCycleSearcher`]) on the reduced graph and *breaks* each
//!   witness by adding one of its vertices to the cover, until no uncovered
//!   cycle through the edge remains. Every other cycle of the graph was
//!   already covered, so validity is restored exactly when the loop exits.
//! * **Removal** of an edge only destroys cycles, so the cover stays valid
//!   unconditionally — but vertices may have become redundant. The engine
//!   marks the cover *dirty* and re-minimizes on demand
//!   ([`DynamicCover::minimize`]) by running the paper's Algorithm 7
//!   (`tdb_core::minimal`) over the whole cover, directly on the
//!   [`DeltaGraph`] overlay.
//!
//! Minimality is therefore *eventual*: always restorable in one
//! [`DynamicCover::minimize`] call, while validity is unconditional — the
//! property a fraud- or deadlock-detection service actually needs between
//! batches.
//!
//! The overlay is compacted back into a clean CSR once the delta exceeds a
//! threshold, keeping neighbor scans fast under sustained churn.

use std::time::Instant;

use tdb_core::minimal::{minimal_prune_with, SearchEngine};
use tdb_core::solver::{SolveContext, SolveError, SolveScratch, Solver};
use tdb_core::{Algorithm, CycleCover, Objective, RunMetrics};
use tdb_cycle::{EdgeCycleSearcher, HopConstraint};
use tdb_graph::{ActiveSet, CostModel, CsrGraph, DeltaGraph, GraphView, VertexId};

use crate::batch::{EdgeBatch, EdgeOp, UpdateMetrics};

/// Tuning knobs of a [`DynamicCover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicConfig {
    /// Compact the [`DeltaGraph`] once its overlay holds this many entries.
    /// `0` selects an automatic threshold of `max(1024, base_edges / 4)`,
    /// recomputed after every compaction.
    pub compaction_threshold: usize,
    /// After this many repairs for a single inserted edge, fall back to
    /// covering the edge's source endpoint, which breaks every remaining
    /// cycle through the edge at once. Guards against pathological inserts
    /// that thread thousands of distinct cycles.
    pub max_breakers_per_insert: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            compaction_threshold: 0,
            max_breakers_per_insert: 16,
        }
    }
}

/// A hop-constrained cycle cover maintained incrementally under edge updates.
///
/// ```
/// use tdb_dynamic::{DynamicCover, SolveDynamic};
/// use tdb_core::{Algorithm, HopConstraint, Solver};
/// use tdb_graph::builder::graph_from_edges;
///
/// let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
/// let constraint = HopConstraint::new(4);
/// let mut dynamic = Solver::new(Algorithm::TdbPlusPlus)
///     .solve_dynamic(g, &constraint)
///     .unwrap();
/// assert_eq!(dynamic.cover().len(), 1);
///
/// // Streaming updates keep the cover valid without re-solving.
/// dynamic.insert_edge(1, 3);
/// dynamic.insert_edge(3, 0);     // new cycle 0 -> 1 -> 3 -> 0 is repaired
/// assert!(dynamic.is_valid());
/// dynamic.remove_edge(1, 2);     // cover may now be oversized ...
/// dynamic.minimize();            // ... minimal again on demand
/// assert!(dynamic.is_valid());
/// ```
#[derive(Debug)]
pub struct DynamicCover {
    graph: DeltaGraph,
    cover: CycleCover,
    constraint: HopConstraint,
    config: DynamicConfig,
    /// Complement of the cover: the reduced graph the searches run on.
    active: ActiveSet,
    searcher: EdgeCycleSearcher,
    dirty: bool,
    /// Whether a [`DynamicCover::minimize`] pass has run. Until one has, the
    /// cover's minimality is unknown (a caller-supplied cover may be
    /// oversized), so the first call always runs.
    minimized: bool,
    /// Warm solve scratch handed to the minimize pass, so repeated minimizes
    /// reuse one set of engine allocations instead of re-allocating per call.
    solve_scratch: SolveScratch,
    /// Vertex cost model steering insert repairs and minimize: with
    /// non-uniform costs the breaker heuristic maximizes degree per unit cost
    /// instead of raw degree, and minimize examines the costliest cover
    /// vertex first.
    costs: CostModel,
    totals: UpdateMetrics,
}

impl DynamicCover {
    /// Seed a dynamic cover by solving `graph` with the default static
    /// algorithm (`TDB++`).
    pub fn new(graph: CsrGraph, constraint: HopConstraint) -> Self {
        Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(graph, &constraint)
            .expect("unbudgeted solve cannot fail")
    }

    /// Wrap an existing valid cover of `graph` without re-solving.
    ///
    /// The caller asserts validity; a cover that misses a constrained cycle
    /// stays invalid until the offending region is touched by updates. Use
    /// [`DynamicCover::is_valid`] to audit.
    pub fn from_cover(graph: CsrGraph, cover: CycleCover, constraint: HopConstraint) -> Self {
        Self::from_cover_with_config(graph, cover, constraint, DynamicConfig::default())
    }

    /// [`DynamicCover::from_cover`] with explicit tuning knobs.
    pub fn from_cover_with_config(
        graph: CsrGraph,
        cover: CycleCover,
        constraint: HopConstraint,
        config: DynamicConfig,
    ) -> Self {
        let graph = DeltaGraph::new(graph);
        let n = graph.vertex_count();
        let active = cover.reduced_active_set(n);
        DynamicCover {
            searcher: EdgeCycleSearcher::new(n),
            graph,
            cover,
            constraint,
            config,
            active,
            dirty: false,
            minimized: false,
            solve_scratch: SolveScratch::default(),
            costs: CostModel::Uniform,
            totals: UpdateMetrics::default(),
        }
    }

    /// Attach a vertex cost model: insert repairs then pick the breaker
    /// maximizing degree per unit cost (u128 cross-multiplied, so uniform or
    /// all-equal costs reproduce the unweighted choice bit-for-bit),
    /// [`DynamicCover::minimize`] drops the costliest redundant vertices first
    /// (a stable sort, the identity under equal costs), and
    /// [`UpdateMetrics::breaker_cost`] accumulates the cost of added breakers.
    pub fn with_vertex_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// The engine's vertex cost model ([`CostModel::Uniform`] by default).
    pub fn vertex_costs(&self) -> &CostModel {
        &self.costs
    }

    /// Total cost of the current cover under the engine's cost model.
    pub fn cover_cost(&self) -> u64 {
        self.costs.total(self.cover.iter())
    }

    /// The current cover. Valid for the current graph at every point; minimal
    /// whenever [`DynamicCover::is_dirty`] is `false`.
    pub fn cover(&self) -> &CycleCover {
        &self.cover
    }

    /// The maintained graph (base + delta).
    pub fn graph(&self) -> &DeltaGraph {
        &self.graph
    }

    /// The hop constraint being maintained.
    pub fn constraint(&self) -> &HopConstraint {
        &self.constraint
    }

    /// The engine's tuning knobs.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Whether the cover might currently be non-minimal (never invalid).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Counters accumulated since construction.
    pub fn totals(&self) -> &UpdateMetrics {
        &self.totals
    }

    /// Materialize the current graph as a clean [`CsrGraph`] (for verification
    /// or hand-off to the static solvers).
    pub fn materialize(&self) -> CsrGraph {
        self.graph.materialize()
    }

    /// Extract an immutable, self-consistent copy of the engine state — the
    /// serving layer's snapshot hook.
    ///
    /// Graph and cover are captured at the same instant, so the pair satisfies
    /// the engine's invariant: the cover is valid for exactly this graph. The
    /// copy is cheap enough to take once per update batch: the graph clone
    /// shares the CSR base and every copy-on-write overlay chunk of the
    /// [`DeltaGraph`] by reference count, so the cost is one pointer copy per
    /// 64 vertices plus the cover list, not `O(n + m)` adjacency. The
    /// engine's next write to a shared chunk copies that chunk (64 vertices'
    /// lists) once.
    pub fn state(&self) -> CoverState {
        CoverState {
            graph: self.graph.clone(),
            cover_cost: self.cover_cost(),
            cover: self.cover.clone(),
            costs: self.costs.clone(),
            constraint: self.constraint,
            dirty: self.dirty,
            totals: self.totals,
        }
    }

    /// Full validity audit: does the cover intersect every constrained cycle
    /// of the *current* graph? Costs a static verification pass — meant for
    /// tests and acceptance checks, not the hot path (the engine maintains
    /// this invariant by construction).
    pub fn is_valid(&self) -> bool {
        let g = self.materialize();
        tdb_core::verify::is_valid_cover(&g, &self.cover, &self.constraint)
    }

    /// Insert the directed edge `(u, v)` and repair the cover.
    ///
    /// Returns the number of vertices added to the cover (0 for duplicate
    /// edges and for edges with a covered endpoint). The cover is valid again
    /// when this returns.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        let start = Instant::now();
        let mut window = UpdateMetrics::default();
        let added = self.insert_inner(u, v, &mut window);
        self.maybe_compact(&mut window);
        window.elapsed = start.elapsed();
        publish_window(&window);
        self.totals.absorb(&window);
        added
    }

    /// Remove the directed edge `(u, v)`.
    ///
    /// Returns whether the edge existed. The cover remains valid; it is
    /// marked dirty for lazy re-minimization.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let start = Instant::now();
        let mut window = UpdateMetrics::default();
        let removed = self.remove_inner(u, v, &mut window);
        self.maybe_compact(&mut window);
        window.elapsed = start.elapsed();
        publish_window(&window);
        self.totals.absorb(&window);
        removed
    }

    /// Apply a batch of updates in order, returning this batch's metrics.
    ///
    /// The cover is valid after every individual operation and compaction is
    /// amortized across the batch. Minimality is restored by a separate
    /// [`DynamicCover::minimize`] call.
    pub fn apply(&mut self, batch: &EdgeBatch) -> UpdateMetrics {
        let _span = tdb_obs::trace::span("dynamic/apply");
        let start = Instant::now();
        let mut window = UpdateMetrics::default();
        for op in batch {
            match op {
                EdgeOp::Insert(u, v) => {
                    self.insert_inner(u, v, &mut window);
                }
                EdgeOp::Remove(u, v) => {
                    self.remove_inner(u, v, &mut window);
                }
            }
            self.maybe_compact(&mut window);
        }
        window.elapsed = start.elapsed();
        tdb_obs::histogram!("tdb_dynamic_apply_seconds").record(window.elapsed);
        publish_window(&window);
        self.totals.absorb(&window);
        window
    }

    /// Re-minimize the cover (Algorithm 7 over the live overlay), clearing the
    /// dirty flag. Returns the number of vertices removed.
    ///
    /// The pass re-checks every cover vertex, costliest first under the
    /// engine's cost model, so it returns exactly the cover that
    /// `tdb_core::minimal::minimal_prune_with` returns for the materialized
    /// graph under the same costs. It runs only when the cover is dirty or has
    /// never been minimized: an update that leaves the cover clean (a no-op,
    /// or an insert that needed no breaker) only adds cycles, so every cover
    /// vertex keeps its witness cycle. `totals().minimize_checked` counts the
    /// vertices examined: the cover size at each pass that runs.
    ///
    /// Trade-off: on a stream whose churn stays inside a few of many
    /// non-trivial strongly connected components, re-checking only the
    /// touched components would skip work, at the cost of one `O(n + m)`
    /// component pass per minimize; on a graph with one giant component that
    /// scope skips nothing. A scope by hop distance from the touched edges
    /// would be exact on both shapes.
    pub fn minimize(&mut self) -> usize {
        let _span = tdb_obs::trace::span("dynamic/minimize");
        let start = Instant::now();
        let (removed, checked) = self.minimize_inner();
        let mut window = UpdateMetrics {
            pruned: removed as u64,
            minimize_checked: checked as u64,
            ..Default::default()
        };
        window.elapsed = start.elapsed();
        tdb_obs::histogram!("tdb_dynamic_minimize_seconds").record(window.elapsed);
        publish_window(&window);
        self.totals.absorb(&window);
        removed
    }

    /// Force a delta compaction regardless of the threshold.
    pub fn compact(&mut self) {
        let _span = tdb_obs::trace::span("dynamic/compact");
        self.graph.compact();
        self.totals.compactions += 1;
        tdb_obs::counter!("tdb_dynamic_compactions_total").inc();
        tdb_obs::event!(
            tdb_obs::Level::Info,
            "dynamic/compact",
            compactions = self.totals.compactions,
            edges = self.graph.edge_count(),
        );
    }

    fn insert_inner(&mut self, u: VertexId, v: VertexId, window: &mut UpdateMetrics) -> usize {
        if !self.graph.insert_edge(u, v) {
            window.noops += 1;
            return 0;
        }
        window.inserts += 1;
        self.sync_capacity();
        if self.cover.contains(u) || self.cover.contains(v) {
            // Every cycle through (u, v) passes through a covered endpoint.
            return 0;
        }
        let mut added = 0usize;
        loop {
            window.edge_queries += 1;
            let Some(cycle) = self.searcher.find_cycle_through_edge(
                &self.graph,
                &self.active,
                u,
                v,
                &self.constraint,
            ) else {
                break;
            };
            window.cycles_repaired += 1;
            let breaker = if added >= self.config.max_breakers_per_insert {
                u // covers the edge itself: breaks all remaining cycles at once
            } else {
                Self::pick_breaker(&self.graph, &cycle, &self.costs)
            };
            self.cover.insert(breaker);
            self.active.deactivate(breaker);
            added += 1;
            window.breakers_added += 1;
            window.breaker_cost = window.breaker_cost.saturating_add(self.costs.cost(breaker));
            if breaker == u || breaker == v {
                break; // endpoint covered: nothing through (u, v) survives
            }
        }
        if added > 0 {
            // A breaker can sit on another cover vertex's witness cycle and
            // make it redundant, so minimality is no longer guaranteed.
            self.dirty = true;
        }
        added
    }

    fn remove_inner(&mut self, u: VertexId, v: VertexId, window: &mut UpdateMetrics) -> bool {
        if !self.graph.remove_edge(u, v) {
            window.noops += 1;
            return false;
        }
        window.removes += 1;
        // Destroying cycles never invalidates the cover, but cover vertices
        // whose every witness cycle used (u, v) are now redundant.
        if !self.cover.is_empty() {
            self.dirty = true;
        }
        true
    }

    fn minimize_inner(&mut self) -> (usize, usize) {
        // A clean cover is still minimal, so a periodic minimize tick on a
        // quiet stream is free. The first call always runs, which is what
        // handles caller-supplied covers of unknown minimality.
        if self.minimized && !self.dirty {
            return (0, 0);
        }
        let checked = self.cover.len();
        let mut metrics = RunMetrics::new(
            "dynamic-minimize",
            self.constraint.max_hops,
            self.constraint.include_two_cycles,
        );
        let mut ctx = SolveContext::new();
        ctx.set_vertex_costs(self.costs.clone());
        ctx.restore_scratch(std::mem::take(&mut self.solve_scratch));
        let removed = minimal_prune_with(
            &self.graph,
            &mut self.cover,
            &self.constraint,
            SearchEngine::Block,
            &mut metrics,
            &mut ctx,
        )
        .unwrap_or_else(|e: SolveError| unreachable!("unbudgeted pruning cannot fail: {e}"));
        self.solve_scratch = ctx.take_scratch();
        self.active = self.cover.reduced_active_set(self.graph.vertex_count());
        self.dirty = false;
        self.minimized = true;
        (removed, checked)
    }

    /// Breaker heuristic: the vertex of the witness cycle with the highest
    /// degree per unit cost. Hubs sit on many cycles, so covering them
    /// preempts future repairs — the same bias the static top-down scan
    /// exhibits on skewed graphs — while the cost divisor steers repairs away
    /// from expensive vertices under a [`CostModel::PerVertex`] model.
    /// Deterministic: the comparison is the u128 cross-multiplication
    /// `deg(x) * cost(best) > deg(best) * cost(x)`, which with all-equal
    /// costs reduces to the strict `deg(x) > deg(best)` of the unweighted
    /// engine, so ties still resolve to the earliest cycle position.
    fn pick_breaker(graph: &DeltaGraph, cycle: &[VertexId], costs: &CostModel) -> VertexId {
        let mut best = cycle[0];
        let mut best_deg = (graph.out_deg(best) + graph.in_deg(best)) as u128;
        let mut best_cost = costs.cost(best) as u128;
        for &x in &cycle[1..] {
            let deg = (graph.out_deg(x) + graph.in_deg(x)) as u128;
            let cost = costs.cost(x) as u128;
            if deg * best_cost > best_deg * cost {
                best = x;
                best_deg = deg;
                best_cost = cost;
            }
        }
        best
    }

    /// Grow the activation mask and searcher scratch after the graph gained
    /// vertices (cheap no-op otherwise). Extends in place: freshly minted
    /// vertices are never in the cover, so they join the mask as active.
    fn sync_capacity(&mut self) {
        let n = self.graph.vertex_count();
        self.active.ensure_len(n, true);
        self.searcher.ensure_capacity(n);
    }

    fn maybe_compact(&mut self, window: &mut UpdateMetrics) {
        let threshold = if self.config.compaction_threshold == 0 {
            (self.graph.base().edge_count() / 4).max(1024)
        } else {
            self.config.compaction_threshold
        };
        if self.graph.delta_len() >= threshold {
            let _span = tdb_obs::trace::span("dynamic/compact");
            self.graph.compact();
            window.compactions += 1;
        }
    }
}

/// Publish one update window's counts to the global metrics registry (the
/// per-engine running totals stay in `UpdateMetrics`; this mirrors them into
/// the process-wide exposition).
fn publish_window(window: &UpdateMetrics) {
    tdb_obs::counter!("tdb_dynamic_updates_total").add(window.updates());
    tdb_obs::counter!("tdb_dynamic_breakers_added_total").add(window.breakers_added);
    tdb_obs::counter!("tdb_dynamic_pruned_total").add(window.pruned);
    tdb_obs::counter!("tdb_dynamic_edge_queries_total").add(window.edge_queries);
    tdb_obs::counter!("tdb_dynamic_compactions_total").add(window.compactions);
}

/// An immutable copy of a [`DynamicCover`]'s state at one instant, produced by
/// [`DynamicCover::state`].
///
/// The graph and the cover are consistent with each other by construction —
/// the engine only hands out states between updates, never mid-repair — so a
/// holder can audit validity ([`CoverState::is_valid`]) or serve membership
/// queries against it long after the live engine has moved on.
#[derive(Debug, Clone)]
pub struct CoverState {
    /// The graph at capture time (CSR base and overlay chunks shared).
    pub graph: DeltaGraph,
    /// The cover at capture time, valid for [`CoverState::graph`].
    pub cover: CycleCover,
    /// Total cover cost under the engine's cost model at capture time
    /// (equals the cover size when costs are uniform).
    pub cover_cost: u64,
    /// The engine's vertex cost model at capture time (Arc-backed, so the
    /// copy is cheap).
    pub costs: CostModel,
    /// The hop constraint the cover maintains.
    pub constraint: HopConstraint,
    /// Whether the engine considered the cover possibly non-minimal.
    pub dirty: bool,
    /// Engine counters accumulated up to the capture.
    pub totals: UpdateMetrics,
}

impl CoverState {
    /// Number of vertices of the captured graph.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges of the captured graph.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Full validity audit of the captured pair: does the cover intersect
    /// every constrained cycle of the captured graph? Costs a static
    /// verification pass over a materialized copy — meant for tests, sampled
    /// audits, and acceptance checks.
    pub fn is_valid(&self) -> bool {
        let g = self.graph.materialize();
        tdb_core::verify::is_valid_cover(&g, &self.cover, &self.constraint)
    }
}

/// Extension trait giving [`Solver`] a dynamic entry point.
///
/// Lives here (rather than on `Solver` itself) because `tdb-core` cannot
/// depend on this crate; importing the trait — it is in `tdb::prelude` —
/// makes `solver.solve_dynamic(graph, &constraint)` read exactly like the
/// static `solver.solve(&graph, &constraint)`.
pub trait SolveDynamic {
    /// Solve `graph` statically, then wrap graph and cover in a
    /// [`DynamicCover`] ready for streaming updates.
    fn solve_dynamic(
        &self,
        graph: CsrGraph,
        constraint: &HopConstraint,
    ) -> Result<DynamicCover, SolveError>;

    /// [`SolveDynamic::solve_dynamic`] with explicit engine tuning.
    fn solve_dynamic_with_config(
        &self,
        graph: CsrGraph,
        constraint: &HopConstraint,
        config: DynamicConfig,
    ) -> Result<DynamicCover, SolveError>;
}

impl SolveDynamic for Solver {
    fn solve_dynamic(
        &self,
        graph: CsrGraph,
        constraint: &HopConstraint,
    ) -> Result<DynamicCover, SolveError> {
        self.solve_dynamic_with_config(graph, constraint, DynamicConfig::default())
    }

    fn solve_dynamic_with_config(
        &self,
        graph: CsrGraph,
        constraint: &HopConstraint,
        config: DynamicConfig,
    ) -> Result<DynamicCover, SolveError> {
        let run = self.solve(&graph, constraint)?;
        // The seed covers exactly `constraint` (only the constraint decides
        // whether 2-cycles count), so the engine maintains exactly that.
        // Mirror the static solver's gating: the engine goes weight-aware
        // exactly when the seeding solve did.
        let request = self.request();
        let costs = if request.objective == Objective::MinWeight {
            request.costs.clone()
        } else {
            CostModel::Uniform
        };
        Ok(
            DynamicCover::from_cover_with_config(graph, run.cover, *constraint, config)
                .with_vertex_costs(costs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::verify::verify_cover;
    use tdb_core::{CoverRequest, TwoCycleMode};
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{directed_cycle, erdos_renyi_gnm};
    use tdb_graph::Graph;

    fn seeded(g: CsrGraph, k: usize) -> DynamicCover {
        DynamicCover::new(g, HopConstraint::new(k))
    }

    #[test]
    fn insertion_exposing_a_cycle_is_repaired() {
        // A path 0 -> 1 -> 2: no cycles, empty cover.
        let mut d = seeded(graph_from_edges(&[(0, 1), (1, 2)]), 4);
        assert!(d.cover().is_empty());
        assert_eq!(
            d.insert_edge(2, 0),
            1,
            "closing the triangle needs a breaker"
        );
        assert!(d.is_valid());
        assert_eq!(d.cover().len(), 1);
        // Duplicate insert is a no-op.
        assert_eq!(d.insert_edge(2, 0), 0);
        assert_eq!(d.totals().noops, 1);
    }

    #[test]
    fn covered_endpoint_makes_insertion_free() {
        let mut d = seeded(directed_cycle(3), 4);
        let covered = d.cover().iter().next().unwrap();
        // Any new edge touching the covered vertex cannot expose a cycle.
        let far = (covered + 1) % 3;
        assert_eq!(d.insert_edge(far, covered), 0);
        assert_eq!(d.totals().edge_queries, 0, "no search should run");
        assert!(d.is_valid());
    }

    #[test]
    fn removal_keeps_validity_and_minimize_restores_minimality() {
        // Two triangles sharing vertex 2.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let mut d = seeded(g, 4);
        assert_eq!(d.cover().len(), 1, "shared vertex 2 covers both");
        // Removing an edge of the first triangle cannot invalidate.
        assert!(d.remove_edge(0, 1));
        assert!(d.is_valid());
        assert!(d.is_dirty());
        // Now only the second triangle remains; vertex 2 is still needed.
        assert_eq!(d.minimize(), 0);
        assert!(!d.is_dirty());
        // Removing the second triangle's edge leaves no cycles at all.
        assert!(d.remove_edge(3, 4));
        assert_eq!(d.minimize(), 1, "the lone cover vertex is now redundant");
        assert!(d.cover().is_empty());
        assert!(d.is_valid());
    }

    #[test]
    fn absent_removal_is_a_noop() {
        let mut d = seeded(directed_cycle(4), 4);
        assert!(!d.remove_edge(0, 2));
        assert!(!d.is_dirty());
        assert_eq!(d.totals().noops, 1);
    }

    #[test]
    fn batch_apply_tracks_metrics_and_stays_valid() {
        let mut d = seeded(graph_from_edges(&[(0, 1), (1, 2), (2, 3)]), 5);
        let mut batch = EdgeBatch::new();
        batch.insert(3, 0).insert(2, 0).remove(0, 1).insert(0, 1);
        let m = d.apply(&batch);
        assert_eq!(m.inserts + m.removes + m.noops, 4);
        assert!(m.updates() >= 3);
        assert!(d.is_valid());
        let v = verify_cover(&d.materialize(), d.cover(), d.constraint());
        assert!(v.is_valid);
    }

    #[test]
    fn apply_then_minimize_keeps_cover_minimal() {
        let g = erdos_renyi_gnm(40, 160, 3);
        let constraint = HopConstraint::new(4);
        let mut d = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(g, &constraint)
            .unwrap();
        let mut batch = EdgeBatch::new();
        for i in 0..20u32 {
            batch.remove(i % 40, (i * 7 + 1) % 40);
            batch.insert((i * 3) % 40, (i * 11 + 2) % 40);
        }
        d.apply(&batch);
        d.minimize();
        assert!(!d.is_dirty());
        let v = verify_cover(&d.materialize(), d.cover(), d.constraint());
        assert!(v.is_valid, "minimized cover invalid");
        assert!(v.is_minimal, "minimized cover not minimal");
    }

    #[test]
    fn vertex_growth_through_insertions() {
        let mut d = seeded(graph_from_edges(&[(0, 1)]), 4);
        // Grow the graph with a brand-new triangle on fresh vertex ids.
        assert_eq!(d.insert_edge(1, 7), 0);
        assert_eq!(d.insert_edge(7, 8), 0);
        let added = d.insert_edge(8, 1);
        assert_eq!(added, 1, "new cycle over grown vertices must be repaired");
        assert!(d.is_valid());
        assert_eq!(d.graph().vertex_count(), 9);
    }

    #[test]
    fn two_cycle_constraints_are_maintained() {
        let mut d = DynamicCover::new(
            graph_from_edges(&[(0, 1), (1, 2)]),
            HopConstraint::with_two_cycles(4),
        );
        assert!(d.cover().is_empty());
        assert_eq!(
            d.insert_edge(1, 0),
            1,
            "the 2-cycle {{0, 1}} needs a breaker"
        );
        assert!(d.is_valid());
    }

    #[test]
    fn compaction_threshold_triggers_and_preserves_state() {
        let g = erdos_renyi_gnm(30, 120, 5);
        let constraint = HopConstraint::new(4);
        let mut d = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic_with_config(
                g,
                &constraint,
                DynamicConfig {
                    compaction_threshold: 8,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut batch = EdgeBatch::new();
        for i in 0..30u32 {
            batch.insert((i * 13 + 1) % 30, (i * 17 + 4) % 30);
        }
        let m = d.apply(&batch);
        assert!(m.compactions > 0, "threshold of 8 must have fired");
        assert!(d.graph().delta_len() < 8 + 1);
        assert!(d.is_valid());
    }

    #[test]
    fn fallback_breaker_bounds_repair_work() {
        // A dense bipartite-ish shape where inserting (hub, sink) exposes many
        // distinct cycles at once.
        let mut edges = Vec::new();
        for i in 1..=12u32 {
            edges.push((0, i)); // hub fans out
            edges.push((i, 13)); // all feed the sink
        }
        let mut d = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic_with_config(
                graph_from_edges(&edges),
                &HopConstraint::new(3),
                DynamicConfig {
                    max_breakers_per_insert: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(d.cover().is_empty());
        // Closing sink -> hub exposes twelve 3-cycles; the cap forces the
        // endpoint fallback after two individual breakers.
        let added = d.insert_edge(13, 0);
        assert!(added <= 3, "cap 2 + endpoint fallback, got {added}");
        assert!(d.is_valid());
        d.minimize();
        let v = verify_cover(&d.materialize(), d.cover(), d.constraint());
        assert!(v.is_valid && v.is_minimal);
    }

    #[test]
    fn two_cycle_solver_mode_is_carried_into_maintenance() {
        // Regression: a Table IV solve seeds a 2..=k cover; the engine must
        // keep maintaining 2..=k in either 2-cycle mode. It keeps exactly the
        // constraint it was given, so a plain 3..=k solve stays plain.
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 2), (2, 3)]);
        let two = HopConstraint::with_two_cycles(4);
        let plain = HopConstraint::new(4);
        for mode in [TwoCycleMode::Integrated, TwoCycleMode::Separate] {
            let solver = Solver::from_request(CoverRequest {
                two_cycle_mode: mode,
                ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
            });
            let d = solver.solve_dynamic(g.clone(), &plain).unwrap();
            assert_eq!(*d.constraint(), plain, "{mode:?}");
            assert!(d.cover().is_empty(), "{mode:?}: no 3..=4 cycle to cover");

            let mut d = solver.solve_dynamic(g.clone(), &two).unwrap();
            assert_eq!(*d.constraint(), two, "{mode:?}");
            assert!(!d.cover().is_empty(), "{mode:?}: the 2-cycle needs cover");
            // minimize() must not strip the 2-cycle breaker...
            d.minimize();
            assert!(d.is_valid(), "{mode:?} after minimize");
            assert!(!d.cover().is_empty(), "{mode:?}: stripped by minimize");
            // ...and a freshly streamed 2-cycle (on uncovered vertices 2, 3)
            // must be repaired.
            assert_eq!(d.insert_edge(3, 2), 1, "{mode:?}: new 2-cycle ignored");
            assert!(d.is_valid(), "{mode:?} after update");
        }
    }

    #[test]
    fn minimize_rechecks_the_whole_cover_only_when_dirty() {
        // Two disjoint triangles: TDB++ covers them with {2, 5}.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let mut d = seeded(g, 4);
        assert_eq!(d.cover().as_slice(), &[2, 5]);
        // The first minimize always runs over the whole cover.
        assert_eq!(d.minimize(), 0);
        assert_eq!(d.totals().minimize_checked, 2);
        // Break only the second triangle: vertex 5 loses its witness. The
        // pass re-checks both cover vertices, the untouched one included.
        assert!(d.remove_edge(3, 4));
        assert_eq!(d.minimize(), 1);
        assert_eq!(d.totals().minimize_checked, 4);
        assert_eq!(d.cover().as_slice(), &[2]);
        let v = verify_cover(&d.materialize(), d.cover(), d.constraint());
        assert!(v.is_valid && v.is_minimal);
        // A minimize with nothing pending examines nothing at all.
        assert_eq!(d.minimize(), 0);
        assert_eq!(d.totals().minimize_checked, 4);
        // An insert with a covered endpoint adds no breaker and leaves the
        // cover clean: it only adds cycles, so vertex 2 keeps its witness
        // and the next minimize checks nothing.
        assert_eq!(d.insert_edge(2, 4), 0);
        assert!(!d.is_dirty());
        assert_eq!(d.minimize(), 0);
        assert_eq!(d.totals().minimize_checked, 4);
        assert!(d.is_valid());
    }

    #[test]
    fn breaker_insertions_taint_their_component_for_minimize() {
        // Minimality regression: a breaker added by an insert repair can land
        // on another cover vertex's witness cycle and make that vertex
        // redundant. The repair marks the cover dirty, so the next minimize
        // must re-check and drop the stale vertex.
        let mut d = seeded(graph_from_edges(&[(0, 1), (1, 2), (2, 0)]), 4);
        assert_eq!(d.cover().as_slice(), &[2]);
        d.minimize();
        // Add a second triangle 0 -> 1 -> 3 -> 0 sharing the edge (0, 1): its
        // repair picks a breaker among {0, 1, 3}, and 0 and 1 both lie on
        // vertex 2's only witness cycle.
        assert_eq!(d.insert_edge(1, 3), 0);
        let added = d.insert_edge(3, 0);
        assert_eq!(added, 1);
        assert!(d.is_valid());
        assert!(d.is_dirty());
        d.minimize();
        let v = verify_cover(&d.materialize(), d.cover(), d.constraint());
        assert!(v.is_valid, "witness {:?}", v.witness);
        assert!(v.is_minimal, "redundant {:?}", v.redundant);
    }

    #[test]
    fn weighted_minimize_drops_the_costliest_redundant_breaker() {
        // Triangle 0 -> 1 -> 2 -> 0 with an oversized cover {0, 2}: either
        // vertex alone is a minimal cover. Vertex 2 costs 100, so the
        // cost-ordered pass examines it first and keeps the cheap vertex 0.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        let costs = CostModel::from_fn(3, |v| if v == 2 { 100 } else { 1 });
        let cover = CycleCover::from_vertices(vec![0, 2]);
        let mut d = DynamicCover::from_cover(g.clone(), cover.clone(), HopConstraint::new(3))
            .with_vertex_costs(costs.clone());
        assert_eq!(d.minimize(), 1);
        assert_eq!(d.cover().as_slice(), &[0]);
        assert_eq!(d.cover_cost(), 1);
        // The same pass as the static Algorithm 7 under the same costs.
        let mut expected = cover.clone();
        let mut metrics = RunMetrics::new("test", 3, false);
        let mut ctx = SolveContext::new();
        ctx.set_vertex_costs(costs);
        minimal_prune_with(
            &g,
            &mut expected,
            &HopConstraint::new(3),
            SearchEngine::Block,
            &mut metrics,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(d.cover(), &expected);
        // Uniform costs keep the ascending-id order: vertex 0 goes first.
        let mut plain = DynamicCover::from_cover(g, cover, HopConstraint::new(3));
        assert_eq!(plain.minimize(), 1);
        assert_eq!(plain.cover().as_slice(), &[2]);
    }

    #[test]
    fn state_is_a_point_in_time_copy() {
        let mut d = seeded(graph_from_edges(&[(0, 1), (1, 2)]), 4);
        let before = d.state();
        assert!(before.cover.is_empty());
        assert!(before.is_valid());
        // Mutate the live engine: the captured state must not move.
        assert_eq!(d.insert_edge(2, 0), 1);
        assert!(!before.graph.contains_edge(2, 0));
        assert!(before.cover.is_empty());
        assert!(before.is_valid(), "old state audits against the old graph");
        let after = d.state();
        assert!(after.graph.contains_edge(2, 0));
        assert_eq!(after.cover.len(), 1);
        assert!(after.is_valid());
        assert_eq!(after.edge_count(), 3);
        assert_eq!(after.totals.inserts, 1);
    }

    #[test]
    fn coalesced_batch_reaches_the_same_graph() {
        let g = erdos_renyi_gnm(30, 120, 11);
        let constraint = HopConstraint::new(4);
        let mut raw = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(g.clone(), &constraint)
            .unwrap();
        let mut coalesced = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(g, &constraint)
            .unwrap();
        let mut batch = EdgeBatch::new();
        for i in 0..40u32 {
            let (u, v) = ((i * 7) % 30, (i * 13 + 1) % 30);
            if u == v {
                continue;
            }
            batch.insert(u, v);
            if i % 3 == 0 {
                batch.remove(u, v); // flap: nets out to the remove
            }
        }
        raw.apply(&batch);
        let mut thin = batch.clone();
        let dropped = thin.coalesce();
        assert!(dropped > 0);
        coalesced.apply(&thin);
        // Same final edge set either way, and both covers valid for it.
        let a = raw.materialize();
        let b = coalesced.materialize();
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        assert!(raw.is_valid() && coalesced.is_valid());
    }

    #[test]
    fn weighted_repair_prefers_cheap_breakers() {
        // Path 0 -> 1 -> 2 with vertex 1 a hub (extra spokes raise its
        // degree). Unweighted repair of the closing edge picks the hub;
        // with the hub 100x more expensive the repair avoids it.
        let edges = &[(0, 1), (1, 2), (1, 5), (5, 1), (6, 1), (1, 6)];
        let base = || {
            let mut g: Vec<(u32, u32)> = edges.to_vec();
            g.push((3, 4)); // padding so vertex ids reach 6
            graph_from_edges(&g)
        };
        let k = HopConstraint::new(3);
        // k=3 without 2-cycles: the seed graph has no constrained cycle yet,
        // so the empty cover is valid until the closing edge arrives.
        let mut plain_cover =
            DynamicCover::from_cover(base(), CycleCover::from_vertices(vec![]), k);
        assert!(plain_cover.is_valid());
        assert_eq!(plain_cover.insert_edge(2, 0), 1);
        let unweighted_breaker = plain_cover.cover().iter().next().unwrap();
        assert_eq!(unweighted_breaker, 1, "hub wins on degree");

        let costs = CostModel::from_fn(7, |v| if v == 1 { 100 } else { 1 });
        let mut weighted = DynamicCover::from_cover(base(), CycleCover::from_vertices(vec![]), k)
            .with_vertex_costs(costs.clone());
        assert_eq!(weighted.insert_edge(2, 0), 1);
        let weighted_breaker = weighted.cover().iter().next().unwrap();
        assert_ne!(weighted_breaker, 1, "expensive hub must be avoided");
        assert!(weighted.is_valid());
        assert_eq!(weighted.totals().breaker_cost, 1);
        assert_eq!(weighted.cover_cost(), 1);
        assert_eq!(weighted.state().cover_cost, 1);

        // All-equal costs reproduce the unweighted choice bit-for-bit.
        let flat = CostModel::from_fn(7, |_| 1);
        let mut flat_cover = DynamicCover::from_cover(base(), CycleCover::from_vertices(vec![]), k)
            .with_vertex_costs(flat);
        assert_eq!(flat_cover.insert_edge(2, 0), 1);
        assert_eq!(
            flat_cover.cover().as_slice(),
            plain_cover.cover().as_slice(),
            "all-1 weights must not change the repair"
        );
    }

    #[test]
    fn solve_dynamic_threads_the_solver_cost_model() {
        let g = graph_from_edges(&[(0, 1), (1, 2)]);
        let costs = CostModel::from_fn(3, |v| (v as u64 + 1) * 10);
        let d = Solver::from_request(CoverRequest {
            objective: Objective::MinWeight,
            costs,
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        })
        .solve_dynamic(g.clone(), &HopConstraint::new(4))
        .unwrap();
        assert!(!d.vertex_costs().is_uniform());
        // Without MinWeight the costs stay behind: uniform engine.
        let d = Solver::from_request(CoverRequest {
            costs: CostModel::from_fn(3, |_| 7),
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        })
        .solve_dynamic(g, &HopConstraint::new(4))
        .unwrap();
        assert!(d.vertex_costs().is_uniform());
    }

    #[test]
    fn solve_dynamic_seeds_from_any_algorithm() {
        let g = erdos_renyi_gnm(25, 100, 8);
        let constraint = HopConstraint::new(4);
        for algorithm in [
            Algorithm::BurPlus,
            Algorithm::TdbPlusPlus,
            Algorithm::DarcDv,
        ] {
            let mut d = Solver::new(algorithm)
                .solve_dynamic(g.clone(), &constraint)
                .unwrap();
            assert!(d.is_valid(), "{algorithm}");
            d.insert_edge(3, 17);
            d.insert_edge(17, 3);
            d.remove_edge(0, 1);
            assert!(d.is_valid(), "{algorithm} after updates");
        }
    }
}
