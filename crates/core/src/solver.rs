//! The executor of a [`CoverRequest`]: one entry point for every cover
//! algorithm.
//!
//! * [`Solver`] — runs one request. Its only state is the request itself;
//!   it maps the request's [`Algorithm`] onto the family's `_with` entry
//!   point ([`top_down_cover_with`], [`bottom_up_cover_with`],
//!   [`darc_dv_cover_with`]) and applies the shared options (objective,
//!   costs, scan order, time budget, 2-cycle strategy, sharding).
//! * [`SolveContext`] — shared run state threaded through every algorithm:
//!   per-vertex costs when the objective is weight-aware, deadline/budget
//!   checks, accumulated [`RunMetrics`] across solves, and an optional
//!   progress callback.
//! * [`SolveError`] — typed failure; today the only variant is
//!   [`SolveError::BudgetExceeded`], returned when a configured time budget
//!   runs out mid-solve instead of running unbounded.
//!
//! ```
//! use std::time::Duration;
//! use tdb_core::prelude::*;
//! use tdb_graph::gen::directed_cycle;
//!
//! let g = directed_cycle(4);
//! let request = CoverRequest {
//!     time_budget: Some(Duration::from_secs(30)),
//!     ..CoverRequest::new(Algorithm::TdbPlusPlus, 5)
//! };
//! let run = Solver::from_request(request)
//!     .solve(&g, &HopConstraint::new(5))
//!     .expect("well within budget");
//! assert_eq!(run.cover_size(), 1);
//! ```

use std::time::{Duration, Instant};

use tdb_cycle::{BfsFilter, BlockSearcher, HopConstraint, NaiveSearcher};
use tdb_graph::{ActiveSet, CsrGraph, FixedBitSet};

use crate::bottom_up::{bottom_up_cover_with, BottomUpConfig};
use crate::cover::{CoverRun, CycleCover, RunMetrics};
use crate::darc::darc_dv_cover_with;
use crate::request::{CoverRequest, Objective};
use crate::stats::Timer;
use crate::top_down::{top_down_cover_with, TopDownConfig};
use crate::two_cycle::minimal_two_cycle_cover;
use crate::Algorithm;
use tdb_graph::{CostModel, Graph, VertexId};

/// Why a solve did not produce a cover.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The configured time budget ran out before the algorithm finished.
    BudgetExceeded {
        /// The budget that was configured.
        budget: Duration,
        /// Wall-clock time elapsed when the overrun was detected.
        elapsed: Duration,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::BudgetExceeded { budget, elapsed } => write!(
                f,
                "time budget exceeded: {:.3}s elapsed of a {:.3}s budget",
                elapsed.as_secs_f64(),
                budget.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Reusable scratch state shared by every solve run through one
/// [`SolveContext`].
///
/// A single static solve allocates a handful of `O(n)` structures — the active
/// set, the search engines' stamp vectors and bitsets, the scan permutation.
/// Amortized over one solve that is negligible, but the dynamic repair loop,
/// the serving layer, and the benches issue *many* solves against same-sized
/// graphs, where re-allocating this state per solve dominates the small-query
/// regime. `SolveScratch` owns all of it once; the algorithm entry points
/// borrow it from the context ([`SolveContext::take_scratch`]), reset the
/// epoch-stamped structures in `O(1)`, and hand it back
/// ([`SolveContext::restore_scratch`]) so the next solve starts warm.
///
/// Every engine auto-resizes at query time, so a scratch warmed on a small
/// graph is always safe to reuse on a larger one.
#[derive(Debug)]
pub struct SolveScratch {
    /// Block/barrier DFS engine (Algorithms 9–10), used by `TDB+`/`TDB++` and
    /// the block-engine minimize pass.
    pub block: BlockSearcher,
    /// Naive bounded DFS engine (Algorithm 5), used by plain `TDB`, the
    /// bottom-up family, and the paper's `BUR+` minimize pass.
    pub naive: NaiveSearcher,
    /// BFS upper-bound filter (Algorithm 11).
    pub filter: BfsFilter,
    /// The working active set (`G0` of the top-down scan, the reduced graph of
    /// the minimize pass). Reset via [`SolveScratch::reset_active`].
    pub active: ActiveSet,
    /// Pre-released-vertex marks of the SCC pre-filter.
    pub prereleased: FixedBitSet,
    /// Bottom-up hit counters (`H` of Algorithm 4).
    pub hit_count: Vec<u32>,
    /// Scan-permutation buffer.
    pub order: Vec<tdb_graph::VertexId>,
    /// General-purpose per-vertex boolean mask (the residual removal of
    /// [`TwoCycleMode::Separate`]).
    pub mask: Vec<bool>,
}

impl Default for SolveScratch {
    fn default() -> Self {
        SolveScratch {
            block: BlockSearcher::new(0),
            naive: NaiveSearcher::new(0),
            filter: BfsFilter::new(0),
            active: ActiveSet::all_inactive(0),
            prereleased: FixedBitSet::new(0),
            hit_count: Vec::new(),
            order: Vec::new(),
            mask: Vec::new(),
        }
    }
}

impl SolveScratch {
    /// Reset [`SolveScratch::active`] to exactly `n` vertices, all in the
    /// given state. Reuses the existing words when the size matches (the
    /// steady-state case of repeated solves on one graph).
    pub fn reset_active(&mut self, n: usize, active: bool) {
        if self.active.len() != n {
            self.active = if active {
                ActiveSet::all_active(n)
            } else {
                ActiveSet::all_inactive(n)
            };
        } else if active {
            self.active.reset_all_active();
        } else {
            self.active.reset_all_inactive();
        }
    }

    /// Clear and size [`SolveScratch::prereleased`] for `n` vertices.
    pub fn reset_prereleased(&mut self, n: usize) {
        self.prereleased.grow(n, false);
        self.prereleased.clear_all();
    }

    /// Zero and size [`SolveScratch::hit_count`] for `n` vertices, reusing the
    /// existing capacity.
    pub fn reset_hit_count(&mut self, n: usize) {
        self.hit_count.clear();
        self.hit_count.resize(n, 0);
    }

    /// Clear and size [`SolveScratch::mask`] for `n` vertices, reusing the
    /// existing capacity.
    pub fn reset_mask(&mut self, n: usize) {
        self.mask.clear();
        self.mask.resize(n, false);
    }
}

/// A progress snapshot reported through [`SolveContext::report_progress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveProgress {
    /// Vertices (or work items) processed so far in the current phase.
    pub processed: u64,
    /// Total vertices (or work items) of the current phase.
    pub total: u64,
    /// Cover vertices selected so far.
    pub cover_size: u64,
}

type ProgressFn<'a> = Box<dyn FnMut(SolveProgress) + 'a>;

/// Shared run state threaded through every cover algorithm.
///
/// A context carries the pieces of a solve that are not algorithm-specific:
/// per-vertex costs, the optional wall-clock budget (armed into a deadline
/// when a solve starts), metrics accumulated across consecutive solves, and
/// an optional progress callback. Algorithms call
/// [`SolveContext::checkpoint`] at the top of their main loops, which is how
/// a budget interrupts a run.
pub struct SolveContext<'a> {
    costs: CostModel,
    budget: Option<Duration>,
    deadline: Option<Instant>,
    armed_at: Option<Instant>,
    totals: RunMetrics,
    solves: u64,
    progress: Option<ProgressFn<'a>>,
    scratch: Option<SolveScratch>,
}

impl std::fmt::Debug for SolveContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveContext")
            .field("budget", &self.budget)
            .field("solves", &self.solves)
            .field("has_progress_callback", &self.progress.is_some())
            .finish()
    }
}

impl Default for SolveContext<'_> {
    fn default() -> Self {
        SolveContext::new()
    }
}

impl<'a> SolveContext<'a> {
    /// A fresh context: uniform costs, no budget, no progress callback.
    pub fn new() -> Self {
        SolveContext {
            costs: CostModel::Uniform,
            budget: None,
            deadline: None,
            armed_at: None,
            totals: RunMetrics::default(),
            solves: 0,
            progress: None,
            scratch: None,
        }
    }

    /// Install per-vertex costs, making every algorithm threaded through this
    /// context weight-aware. [`Solver::solve_with`] sets this automatically
    /// when the request's objective is [`Objective::MinWeight`] and its cost
    /// model is non-uniform; all weight-aware code paths are *ordering*
    /// refinements that degenerate exactly to the unweighted behavior under
    /// equal weights (see [`crate::request`] for the argument).
    pub fn set_vertex_costs(&mut self, costs: CostModel) {
        self.costs = costs;
    }

    /// The per-vertex costs this context threads into the algorithms
    /// ([`CostModel::Uniform`] unless [`SolveContext::set_vertex_costs`] was
    /// called).
    pub fn vertex_costs(&self) -> &CostModel {
        &self.costs
    }

    /// Borrow the context's reusable solve scratch, creating a cold one on the
    /// first call. The caller must hand it back with
    /// [`SolveContext::restore_scratch`] once the solve finishes (success or
    /// failure), or the next solve starts cold again.
    ///
    /// Taking the scratch *out* of the context (instead of borrowing through
    /// it) is what lets algorithms keep calling [`SolveContext::checkpoint`]
    /// and [`SolveContext::report_progress`] while holding the engines
    /// mutably.
    pub fn take_scratch(&mut self) -> SolveScratch {
        self.scratch.take().unwrap_or_default()
    }

    /// Return a scratch previously obtained with
    /// [`SolveContext::take_scratch`], making its warmed allocations available
    /// to the next solve.
    pub fn restore_scratch(&mut self, scratch: SolveScratch) {
        self.scratch = Some(scratch);
    }

    /// Set the wall-clock budget for subsequent solves.
    pub fn set_time_budget(&mut self, budget: Duration) {
        self.budget = Some(budget);
    }

    /// Remove any configured budget.
    pub fn clear_time_budget(&mut self) {
        self.budget = None;
        self.deadline = None;
    }

    /// Install a progress callback invoked by the algorithms as they scan.
    pub fn set_progress_callback(&mut self, callback: impl FnMut(SolveProgress) + 'a) {
        self.progress = Some(Box::new(callback));
    }

    /// Arm the deadline from the configured budget, marking "now" as the start
    /// of the solve. [`Solver::solve_with`] calls this at the start of every
    /// solve; algorithm entry points call [`SolveContext::ensure_armed`]
    /// instead so that a hand-built context works without an explicit `arm`.
    pub fn arm(&mut self) {
        let now = Instant::now();
        self.armed_at = Some(now);
        self.deadline = self.budget.map(|b| now + b);
    }

    /// Arm the deadline unless one is already armed.
    ///
    /// Called by every algorithm entry point, so a context with a budget set
    /// enforces it even when the caller never went through [`Solver`]. Nested
    /// passes (e.g. minimal pruning inside a bottom-up solve) see the deadline
    /// already armed and leave it untouched. Note the armed deadline persists
    /// across consecutive direct solves with the same context (the budget then
    /// bounds their *combined* wall-clock time); call [`SolveContext::arm`] to
    /// restart the window per solve, as [`Solver::solve_with`] does.
    pub fn ensure_armed(&mut self) {
        if self.budget.is_some() && self.deadline.is_none() {
            self.arm();
        }
    }

    /// The armed deadline of the current solve, if a budget is configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Build the error describing the current overrun.
    pub fn budget_error(&self) -> SolveError {
        SolveError::BudgetExceeded {
            budget: self.budget.unwrap_or_default(),
            elapsed: self.armed_at.map(|t| t.elapsed()).unwrap_or_default(),
        }
    }

    /// Budget check, called by algorithms at the top of their main loops.
    ///
    /// Free when no budget is configured; with one, it costs a monotonic clock
    /// read. Returns [`SolveError::BudgetExceeded`] once the deadline passes.
    #[inline]
    pub fn checkpoint(&self) -> Result<(), SolveError> {
        match self.deadline {
            Some(deadline) if Instant::now() > deadline => Err(self.budget_error()),
            _ => Ok(()),
        }
    }

    /// Report progress to the installed callback (no-op without one).
    #[inline]
    pub fn report_progress(&mut self, processed: u64, total: u64, cover_size: u64) {
        if let Some(callback) = self.progress.as_mut() {
            callback(SolveProgress {
                processed,
                total,
                cover_size,
            });
        }
    }

    /// Fold one finished run's metrics into the context's running totals and
    /// publish them to the global metrics registry.
    pub fn accumulate(&mut self, metrics: &RunMetrics) {
        self.solves += 1;
        self.totals.absorb(metrics);
        tdb_obs::counter!("tdb_solves_total").inc();
        tdb_obs::counter!("tdb_solve_cycle_queries_total").add(metrics.cycle_queries);
        tdb_obs::counter!("tdb_solve_filter_released_total").add(metrics.filter_released);
        tdb_obs::counter!("tdb_solve_scc_released_total").add(metrics.scc_released);
        tdb_obs::counter!("tdb_solve_minimal_pruned_total").add(metrics.minimal_pruned);
        tdb_obs::event!(
            tdb_obs::Level::Debug,
            "core/solve",
            algo = metrics.algorithm.clone(),
            k = metrics.k,
            elapsed_us = metrics.elapsed.as_secs_f64() * 1e6,
            cycle_queries = metrics.cycle_queries,
            minimal_pruned = metrics.minimal_pruned,
        );
    }

    /// Metrics accumulated over every solve performed with this context.
    pub fn totals(&self) -> &RunMetrics {
        &self.totals
    }

    /// Number of completed solves accumulated into [`SolveContext::totals`].
    pub fn completed_solves(&self) -> u64 {
        self.solves
    }

    /// Capture the budget state for propagation into per-shard contexts.
    pub(crate) fn snapshot(&self) -> ContextSnapshot {
        ContextSnapshot {
            costs: self.costs.clone(),
            budget: self.budget,
            deadline: self.deadline,
            armed_at: self.armed_at,
        }
    }
}

/// A cheaply cloneable snapshot of a [`SolveContext`]'s budget and cost state.
///
/// The sharded executor cannot hand the parent context to worker threads (it
/// may carry a non-`Sync` progress callback), so it snapshots the armed
/// deadline and cost model once and materializes an equivalent child context
/// per shard: every shard then races the *same* wall-clock deadline the
/// caller armed. Costs travel in global vertex ids; the executor projects
/// them through each shard's id map before solving (see
/// [`crate::partition`]).
#[derive(Debug, Clone)]
pub(crate) struct ContextSnapshot {
    costs: CostModel,
    budget: Option<Duration>,
    deadline: Option<Instant>,
    armed_at: Option<Instant>,
}

impl ContextSnapshot {
    /// A fresh context sharing this snapshot's costs and armed deadline.
    pub(crate) fn materialize(&self) -> SolveContext<'static> {
        SolveContext {
            costs: self.costs.clone(),
            budget: self.budget,
            deadline: self.deadline,
            armed_at: self.armed_at,
            totals: RunMetrics::default(),
            solves: 0,
            progress: None,
            scratch: None,
        }
    }
}

/// How a solve covers 2-cycles (bidirectional edge pairs) when its
/// constraint asks for them — the Table IV dimension of the paper.
///
/// Whether 2-cycles count at all is decided by the constraint alone
/// ([`HopConstraint::include_two_cycles`], which
/// [`CoverRequest::include_two_cycles`] builds). Under a plain `3..=k`
/// constraint both modes run the same solve and return the same cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TwoCycleMode {
    /// The configured algorithm covers lengths `2..=k` in one pass (the
    /// default).
    #[default]
    Integrated,
    /// The paper's "verify 2-cycles separately" strategy: a minimal
    /// matching-based 2-cycle cover first ([`minimal_two_cycle_cover`]),
    /// then the configured algorithm covers the `3..=k` cycles of the
    /// residual graph. The union is valid for `2..=k` but not guaranteed
    /// minimal. It was nevertheless smaller *and* faster than
    /// [`TwoCycleMode::Integrated`] on every reciprocated graph measured
    /// (see [`crate::two_cycle`]); the `table4_twocycles` bench reproduces
    /// the comparison. Its metrics carry the label
    /// `2CYC+<algorithm>`.
    Separate,
}

/// Whether and how a solve partitions the graph into strongly connected
/// components and solves them as independent shards.
///
/// Every constrained cycle lies inside one SCC, so the cover of a graph is the
/// disjoint union of the covers of its non-trivial components (see
/// [`crate::partition`] for the argument). Sharding exploits that: components
/// are extracted as compact subgraphs and solved concurrently, largest first,
/// with the configured algorithm. Because the extraction preserves the
/// relative order of vertex ids, a sharded solve with the default ascending
/// scan order returns **exactly** the cover of the unsharded solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardingMode {
    /// No partitioning: the algorithm runs once over the whole graph.
    #[default]
    Off,
    /// Partition and solve shards on `available_parallelism` worker threads.
    Auto,
    /// Partition and solve shards on the given number of worker threads
    /// (`0` behaves like [`ShardingMode::Auto`]; `1` still partitions, which
    /// isolates the decomposition itself for benchmarks and tests).
    Threads(usize),
}

impl ShardingMode {
    /// Whether this mode partitions at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, ShardingMode::Off)
    }

    /// Worker threads this mode resolves to (`None` for [`ShardingMode::Off`]);
    /// "available parallelism" falls back to `1` when the platform cannot
    /// report it.
    pub fn resolved_threads(&self) -> Option<usize> {
        match *self {
            ShardingMode::Off => None,
            ShardingMode::Auto | ShardingMode::Threads(0) => Some(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            ShardingMode::Threads(n) => Some(n),
        }
    }
}

/// The executor of one [`CoverRequest`].
///
/// A solver holds nothing but the request it runs, and every option is a
/// field of that request. The hop constraint is passed to each solve
/// explicitly, so the request's `k` and `include_two_cycles` are not
/// consulted here; [`CoverRequest::solve`] passes
/// [`CoverRequest::constraint`] and adds the budget, pricing and explanation
/// of a [`CoverReport`](crate::CoverReport) on top.
///
/// ```
/// use tdb_core::prelude::*;
/// use tdb_graph::gen::erdos_renyi_gnm;
///
/// let g = erdos_renyi_gnm(40, 160, 7);
/// let constraint = HopConstraint::new(4);
/// for algorithm in Algorithm::all() {
///     let run = Solver::new(algorithm).solve(&g, &constraint).unwrap();
///     assert!(is_valid_cover(&g, &run.cover, &constraint), "{algorithm}");
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solver {
    request: CoverRequest,
}

impl Solver {
    /// A solver for `algorithm` with the defaults of [`CoverRequest::new`].
    pub fn new(algorithm: Algorithm) -> Self {
        Solver::from_request(CoverRequest::new(algorithm, 0))
    }

    /// A solver executing `request`.
    pub fn from_request(request: CoverRequest) -> Self {
        Solver { request }
    }

    /// The request this solver executes.
    pub fn request(&self) -> &CoverRequest {
        &self.request
    }

    /// A fresh [`SolveContext`] carrying the request's time budget and
    /// (under [`Objective::MinWeight`] with a non-uniform model) per-vertex
    /// costs.
    pub fn context(&self) -> SolveContext<'static> {
        let mut ctx = SolveContext::new();
        if let Some(budget) = self.request.time_budget {
            ctx.set_time_budget(budget);
        }
        if self.weight_aware() {
            ctx.set_vertex_costs(self.request.costs.clone());
        }
        ctx
    }

    /// Whether this solve threads costs into the algorithms: the objective
    /// must ask for weight and the model must actually distinguish vertices.
    fn weight_aware(&self) -> bool {
        self.request.objective == Objective::MinWeight && !self.request.costs.is_uniform()
    }

    /// Compute a cover of `g` under `constraint`.
    pub fn solve(&self, g: &CsrGraph, constraint: &HopConstraint) -> Result<CoverRun, SolveError> {
        let mut ctx = self.context();
        self.solve_with(g, constraint, &mut ctx)
    }

    /// Compute a cover using a caller-provided context (for accumulating
    /// metrics across solves or installing a progress callback).
    ///
    /// Under sharding the progress callback is coarse-grained: shards run on
    /// worker threads that cannot reach the caller's (non-`Sync`) callback,
    /// so it fires once for the completed solve, not per scanned vertex.
    pub fn solve_with(
        &self,
        g: &CsrGraph,
        constraint: &HopConstraint,
        ctx: &mut SolveContext,
    ) -> Result<CoverRun, SolveError> {
        ctx.arm();
        if self.weight_aware() && ctx.vertex_costs().is_uniform() {
            ctx.set_vertex_costs(self.request.costs.clone());
        }
        match self.request.sharding.resolved_threads() {
            None => self.solve_shard(g, constraint, ctx),
            Some(threads) => crate::partition::solve_sharded(self, g, constraint, ctx, threads),
        }
    }

    /// The per-shard (equivalently: unsharded) solve pipeline over an
    /// already-armed context. The sharded executor calls this once per
    /// extracted component.
    pub(crate) fn solve_shard(
        &self,
        g: &CsrGraph,
        constraint: &HopConstraint,
        ctx: &mut SolveContext,
    ) -> Result<CoverRun, SolveError> {
        if self.separates_two_cycles(constraint) {
            self.solve_separate(g, constraint, ctx)
        } else {
            self.run_algorithm(g, constraint, ctx)
        }
    }

    /// Whether the [`TwoCycleMode::Separate`] pass runs under `constraint`:
    /// the request must ask for it and the constraint must count 2-cycles.
    fn separates_two_cycles(&self, constraint: &HopConstraint) -> bool {
        self.request.two_cycle_mode == TwoCycleMode::Separate && constraint.include_two_cycles
    }

    /// The `metrics.algorithm` label of the per-shard pipeline under
    /// `constraint`: the algorithm's display name, prefixed with `2CYC+` when
    /// the separate 2-cycle pass runs. The sharded merge reuses it.
    pub(crate) fn metrics_label(&self, constraint: &HopConstraint) -> String {
        let name = self.request.algorithm.name();
        if self.separates_two_cycles(constraint) {
            format!("2CYC+{name}")
        } else {
            name.to_string()
        }
    }

    /// Run the request's algorithm through its family's `_with` entry point.
    fn run_algorithm(
        &self,
        g: &CsrGraph,
        constraint: &HopConstraint,
        ctx: &mut SolveContext,
    ) -> Result<CoverRun, SolveError> {
        let config = match self.request.algorithm {
            Algorithm::Bur => {
                return bottom_up_cover_with(g, constraint, &BottomUpConfig::bur(), ctx)
            }
            Algorithm::BurPlus => {
                return bottom_up_cover_with(g, constraint, &BottomUpConfig::bur_plus(), ctx)
            }
            Algorithm::DarcDv => return darc_dv_cover_with(g, constraint, ctx),
            Algorithm::Tdb => TopDownConfig::tdb(),
            Algorithm::TdbPlus => TopDownConfig::tdb_plus(),
            Algorithm::TdbPlusPlus => TopDownConfig::tdb_plus_plus(),
            Algorithm::TdbExtended => TopDownConfig::extended(),
        };
        let config = config.with_scan_order(self.request.scan_order);
        top_down_cover_with(g, constraint, &config, ctx)
    }

    /// The [`TwoCycleMode::Separate`] strategy: minimal 2-cycle cover first,
    /// then the configured algorithm on the residual graph for `3..=k`.
    fn solve_separate(
        &self,
        g: &CsrGraph,
        constraint: &HopConstraint,
        ctx: &mut SolveContext,
    ) -> Result<CoverRun, SolveError> {
        let timer = Timer::start();
        let two = minimal_two_cycle_cover(g);
        let mut scratch = ctx.take_scratch();
        scratch.reset_mask(g.num_vertices());
        for v in two.iter() {
            scratch.mask[v as usize] = true;
        }
        let residual = g.remove_vertices(&scratch.mask);
        ctx.restore_scratch(scratch);
        let plain = HopConstraint::new(constraint.max_hops);
        let rest = self.run_algorithm(&residual, &plain, ctx)?;

        let mut metrics = rest.metrics;
        metrics.algorithm = self.metrics_label(constraint);
        metrics.include_two_cycles = true;
        metrics.working_edges = g.num_edges();
        let mut vertices: Vec<VertexId> = two.into_vertices();
        vertices.extend(rest.cover.iter());
        metrics.elapsed = timer.elapsed();
        Ok(CoverRun {
            cover: CycleCover::from_vertices(vertices),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_cover;
    use tdb_graph::gen::{
        complete_digraph, erdos_renyi_gnm, preferential_attachment, PreferentialConfig,
    };

    fn budgeted(budget: Duration) -> Solver {
        Solver::from_request(CoverRequest {
            time_budget: Some(budget),
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        })
    }

    #[test]
    fn solver_runs_every_algorithm() {
        let g = erdos_renyi_gnm(30, 120, 5);
        let constraint = HopConstraint::new(4);
        for algorithm in Algorithm::all() {
            let run = Solver::new(algorithm).solve(&g, &constraint).unwrap();
            let v = verify_cover(&g, &run.cover, &constraint);
            assert!(v.is_valid, "{algorithm} invalid");
            assert_eq!(run.metrics.algorithm, algorithm.name());
        }
    }

    #[test]
    fn zero_budget_is_reported_not_ignored() {
        let g = complete_digraph(12);
        let constraint = HopConstraint::new(4);
        let err = budgeted(Duration::ZERO).solve(&g, &constraint).unwrap_err();
        assert!(matches!(err, SolveError::BudgetExceeded { .. }));
        let msg = err.to_string();
        assert!(msg.contains("budget"), "{msg}");
    }

    #[test]
    fn context_budget_is_enforced_without_a_solver() {
        // A budget set directly on a hand-built context must bite even when
        // the caller goes through an algorithm entry point, not the Solver.
        let g = complete_digraph(12);
        let constraint = HopConstraint::new(4);
        let mut ctx = SolveContext::new();
        ctx.set_time_budget(Duration::ZERO);
        let err = top_down_cover_with(&g, &constraint, &TopDownConfig::tdb_plus_plus(), &mut ctx)
            .unwrap_err();
        assert!(matches!(err, SolveError::BudgetExceeded { .. }));
    }

    #[test]
    fn generous_budget_solves_normally() {
        let g = erdos_renyi_gnm(25, 100, 2);
        let constraint = HopConstraint::new(4);
        let run = budgeted(Duration::from_secs(60))
            .solve(&g, &constraint)
            .unwrap();
        assert!(verify_cover(&g, &run.cover, &constraint).is_valid);
    }

    #[test]
    fn context_accumulates_metrics_across_solves() {
        let g = erdos_renyi_gnm(25, 100, 3);
        let constraint = HopConstraint::new(4);
        let solver = Solver::new(Algorithm::TdbPlusPlus);
        let mut ctx = solver.context();
        let a = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
        let b = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
        assert_eq!(ctx.completed_solves(), 2);
        assert_eq!(
            ctx.totals().cycle_queries,
            a.metrics.cycle_queries + b.metrics.cycle_queries
        );
    }

    #[test]
    fn progress_callback_fires() {
        let g = erdos_renyi_gnm(40, 160, 4);
        let constraint = HopConstraint::new(4);
        let solver = Solver::new(Algorithm::TdbPlusPlus);
        let mut calls = 0u64;
        let mut last_total = 0u64;
        {
            let mut ctx = solver.context();
            ctx.set_progress_callback(|p| {
                calls += 1;
                last_total = p.total;
            });
            solver.solve_with(&g, &constraint, &mut ctx).unwrap();
        }
        assert!(calls > 0, "progress callback never invoked");
        assert_eq!(last_total, g.num_vertices() as u64);
    }

    /// The request's 2-cycle switch is the one place that upgrades the
    /// constraint: its solve equals a solve under
    /// [`HopConstraint::with_two_cycles`], for every algorithm.
    #[test]
    fn two_cycle_builder_upgrades_the_constraint() {
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 80,
            out_degree: 3,
            reciprocity: 0.5,
            random_rewire: 0.15,
            seed: 11,
        });
        let upgraded = HopConstraint::with_two_cycles(4);
        for algorithm in Algorithm::all() {
            let request = CoverRequest {
                include_two_cycles: true,
                ..CoverRequest::new(algorithm, 4)
            };
            assert_eq!(request.constraint(), upgraded);
            let via_request = request.solve(&g).unwrap();
            let via_constraint = Solver::new(algorithm).solve(&g, &upgraded).unwrap();
            assert_eq!(via_request.cover, via_constraint.cover, "{algorithm}");
            assert!(via_request.metrics.include_two_cycles, "{algorithm}");
            assert!(
                verify_cover(&g, &via_request.cover, &upgraded).is_valid,
                "{algorithm}"
            );
        }
    }

    #[test]
    fn separate_two_cycle_mode_is_valid_and_labelled() {
        use crate::two_cycle::covers_all_two_cycles;
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 100,
            out_degree: 3,
            reciprocity: 0.4,
            random_rewire: 0.1,
            seed: 29,
        });
        let plain = HopConstraint::new(4);
        let upgraded = HopConstraint::with_two_cycles(4);
        for algorithm in [Algorithm::TdbPlusPlus, Algorithm::BurPlus] {
            let separate = Solver::from_request(CoverRequest {
                two_cycle_mode: TwoCycleMode::Separate,
                ..CoverRequest::new(algorithm, 4)
            });
            let run = separate.solve(&g, &upgraded).unwrap();
            assert!(
                verify_cover(&g, &run.cover, &upgraded).is_valid,
                "{algorithm}"
            );
            assert!(covers_all_two_cycles(&g, &run.cover), "{algorithm}");
            assert_eq!(
                run.metrics.algorithm,
                format!("2CYC+{}", algorithm.name()),
                "{algorithm}"
            );
            assert!(run.metrics.include_two_cycles);

            // Under a plain 3..=k constraint the mode is inert: exactly the
            // plain cover, under the plain label.
            let inert = separate.solve(&g, &plain).unwrap();
            let reference = Solver::new(algorithm).solve(&g, &plain).unwrap();
            assert_eq!(inert.cover, reference.cover, "{algorithm}");
            assert_eq!(inert.metrics.algorithm, algorithm.name(), "{algorithm}");
            assert!(!inert.metrics.include_two_cycles, "{algorithm}");
        }
    }

    /// The seed of a random scan lives in `ScanOrder::Random` itself: the
    /// request's order reaches the top-down scan unchanged, `Random(0)`
    /// included.
    #[test]
    fn random_scan_order_seed_is_carried_by_the_order() {
        use crate::top_down::ScanOrder;
        let g = complete_digraph(9);
        let constraint = HopConstraint::new(4);
        for seed in [0u64, 123] {
            let order = ScanOrder::Random(seed);
            let via_request = Solver::from_request(CoverRequest {
                scan_order: order,
                ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
            })
            .solve(&g, &constraint)
            .unwrap();
            let config = TopDownConfig::tdb_plus_plus().with_scan_order(order);
            let direct =
                top_down_cover_with(&g, &constraint, &config, &mut SolveContext::new()).unwrap();
            assert_eq!(via_request.cover, direct.cover, "seed {seed}");
        }
    }
}
