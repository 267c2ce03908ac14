//! The objective-aware request/report surface: [`CoverRequest`] in,
//! [`CoverReport`] out.
//!
//! The paper's problem statement is minimum-*cardinality* cover: every vertex
//! is equally expensive and the solve either finishes or it doesn't. Real
//! deployments of the algorithm (fraud-ring suspension, deadlock victim
//! selection, circuit loop-breaking) add two dimensions the bare
//! `Vec<VertexId>` API cannot express:
//!
//! * **What to optimize** — suspending a high-value account costs more than a
//!   throwaway one. [`Objective::MinWeight`] plus a
//!   [`CostModel`](tdb_graph::CostModel) steers every heuristic decision
//!   (scan order, bottom-up pick, minimize order) toward cheap breakers.
//! * **What you can afford** — an operations cap ("at most 50 suspensions",
//!   "at most 10 000 cost units"). A [`Budget`] turns the solve into a
//!   best-effort one: the report says which cycles survive
//!   ([`CoverReport::residual`]) instead of silently pretending the cover is
//!   complete.
//!
//! A report can also *explain* itself: [`CoverReport::breaker_stats`] counts,
//! per cover vertex, the hop-constrained cycles that only that vertex breaks —
//! the analogue of a timing constrainer's "critical cycles through this
//! marked breaker".
//!
//! # Weight-aware minimize soundness
//!
//! Every weight-aware code path is an *ordering* change, never a decision
//! change, so validity and minimality are untouched:
//!
//! * The top-down scan is correct for **any** vertex permutation (Theorem 7's
//!   argument never uses the order), so stably scanning costlier vertices
//!   first — which biases the keep-prone late positions toward cheap
//!   vertices — still yields a valid, minimal cover.
//! * Algorithm 7 (minimize) is correct for any candidate examination order:
//!   its invariant is that a removed vertex stays *active* for subsequent
//!   checks, which holds regardless of order. Examining the costliest
//!   breakers first means an expensive redundant vertex is dropped before the
//!   cheap vertices that could re-justify it are examined, so the surviving
//!   minimal cover skews cheap.
//! * The bottom-up `FindCoverNode` pick is a heuristic; replacing "most hits"
//!   with "most hits per unit cost" (compared exactly via `u128`
//!   cross-multiplication) changes which valid cover is grown, not whether it
//!   is one.
//!
//! Under equal weights every one of these comparisons degenerates *exactly*
//! to the unweighted one (stable sorts become the identity, cross-multiplied
//! comparisons reduce to the original strict `>`), which is what lets the
//! differential suite hold all-1-weight [`Objective::MinWeight`] solves
//! bit-identical to [`Objective::MinCardinality`] across every algorithm.

use tdb_cycle::enumerate::enumerate_cycles;
use tdb_cycle::HopConstraint;
use tdb_graph::{CostModel, CsrGraph, Graph, VertexId};

use crate::cover::{CycleCover, RunMetrics};
use crate::solver::{ShardingMode, SolveError, Solver, TwoCycleMode};
use crate::top_down::ScanOrder;
use crate::Algorithm;

/// A hop-constrained simple cycle, as the vertex sequence rotated so its
/// minimum id comes first (the closing edge is implicit).
pub type Cycle = Vec<VertexId>;

/// What a solve minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Fewest cover vertices — the paper's objective and the default.
    #[default]
    MinCardinality,
    /// Cheapest cover under the request's [`CostModel`]: every heuristic
    /// decision (scan order, bottom-up pick, minimize order, dynamic repair)
    /// optimizes covered-cycles-per-unit-cost instead of raw counts.
    ///
    /// With a uniform cost model this is identical to
    /// [`Objective::MinCardinality`] — bit-for-bit, not just in size.
    MinWeight,
}

/// An operational cap on the cover a solve may return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Budget {
    /// No cap (the default): the cover is complete and
    /// [`CoverReport::exhausted`] is always `false`.
    #[default]
    None,
    /// At most `n` cover vertices.
    MaxVertices(usize),
    /// At most this much total cost under the request's [`CostModel`].
    MaxCost(u64),
}

impl Budget {
    /// Whether this budget caps anything at all.
    pub fn is_limited(&self) -> bool {
        !matches!(self, Budget::None)
    }
}

/// Everything a cover computation needs, as one value.
///
/// This is the only way to configure a solve: its fields are the whole
/// surface, set with struct-update syntax
/// (`CoverRequest { explain: true, ..CoverRequest::new(algorithm, k) }`).
/// [`CoverRequest::solve`] runs it end to end; [`Solver::from_request`]
/// executes it against an explicit constraint and context instead.
///
/// ```
/// use tdb_core::prelude::*;
/// use tdb_graph::gen::directed_cycle;
///
/// let g = directed_cycle(4);
/// let report = CoverRequest::new(Algorithm::TdbPlusPlus, 5).solve(&g).unwrap();
/// assert_eq!(report.cover.len(), 1);
/// assert!(!report.exhausted);
/// assert_eq!(report.total_cost, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverRequest {
    /// Which algorithm family answers the request.
    pub algorithm: Algorithm,
    /// Hop constraint `k`: cycles of length `3..=k` (or `2..=k`, see
    /// [`CoverRequest::include_two_cycles`]) must be covered.
    pub k: usize,
    /// Cover 2-cycles as well (the Table IV dimension). This is the only
    /// switch that makes 2-cycles count; [`CoverRequest::two_cycle_mode`]
    /// picks how they are covered.
    pub include_two_cycles: bool,
    /// What to minimize.
    pub objective: Objective,
    /// Per-vertex removal costs; only consulted when
    /// [`CoverRequest::objective`] is [`Objective::MinWeight`] (or a budget is
    /// a [`Budget::MaxCost`]).
    pub costs: CostModel,
    /// Operational cap on the returned cover.
    pub budget: Budget,
    /// How 2-cycles are covered when [`CoverRequest::include_two_cycles`]
    /// asks for them (see [`TwoCycleMode`]).
    pub two_cycle_mode: TwoCycleMode,
    /// Vertex scan order of the top-down family (the bottom-up and DARC
    /// families scan ascending by construction and ignore it).
    pub scan_order: ScanOrder,
    /// Wall-clock budget for the solve itself: the solve returns
    /// [`SolveError::BudgetExceeded`] instead of running past it.
    pub time_budget: Option<std::time::Duration>,
    /// SCC sharding mode (see [`ShardingMode`]). Composes with every
    /// [`Algorithm`] and [`TwoCycleMode`]: each shard runs the full
    /// per-shard pipeline. With the default ascending scan order the merged
    /// cover is identical to the unsharded one; order variants that consult
    /// global degrees may differ in composition but remain valid and
    /// minimal.
    pub sharding: ShardingMode,
    /// Compute [`CoverReport::breaker_stats`].
    pub explain: bool,
    /// Cap on the number of residual cycles enumerated when a budget is
    /// exhausted (enumeration is exponential; the cap keeps reports bounded).
    pub residual_cap: usize,
}

/// Default cap on enumerated residual cycles.
pub const DEFAULT_RESIDUAL_CAP: usize = 1024;

/// Cap on the cycles counted per breaker by the explain pass.
pub const BREAKER_CYCLE_CAP: usize = 10_000;

impl CoverRequest {
    /// A request for `algorithm` under hop constraint `k`, with the paper's
    /// defaults everywhere else: 3-cycles and up, minimum cardinality, no
    /// budget, no explanation.
    pub fn new(algorithm: Algorithm, k: usize) -> Self {
        CoverRequest {
            algorithm,
            k,
            include_two_cycles: false,
            objective: Objective::MinCardinality,
            costs: CostModel::Uniform,
            budget: Budget::None,
            two_cycle_mode: TwoCycleMode::Integrated,
            scan_order: ScanOrder::Ascending,
            time_budget: None,
            sharding: ShardingMode::Off,
            explain: false,
            residual_cap: DEFAULT_RESIDUAL_CAP,
        }
    }

    /// The [`HopConstraint`] this request solves under.
    pub fn constraint(&self) -> HopConstraint {
        if self.include_two_cycles {
            HopConstraint::with_two_cycles(self.k)
        } else {
            HopConstraint::new(self.k)
        }
    }

    /// Execute the request against `g`: solve, apply the [`Budget`], price
    /// the cover, and — when a budget dropped vertices or explanation was
    /// requested — enumerate residual cycles and per-breaker statistics.
    ///
    /// Budget trimming ranks the computed cover by cost-effectiveness (total
    /// degree per unit cost) and keeps the best vertices that fit; under
    /// sharding the cap is enforced here, globally on the merged cover, so a
    /// large shard's high-value breakers win over a small shard's marginal
    /// ones.
    pub fn solve(&self, g: &CsrGraph) -> Result<CoverReport, SolveError> {
        let constraint = self.constraint();
        let run = Solver::from_request(self.clone()).solve(g, &constraint)?;
        let (kept, exhausted) = apply_budget(g, &run.cover, self.budget, &self.costs);
        let residual = if exhausted {
            enumerate_residual(g, &kept, &constraint, self.residual_cap)
        } else {
            Vec::new()
        };
        let breaker_stats = if self.explain {
            breaker_statistics(g, &run.cover, &kept, &constraint, &self.costs)
        } else {
            Vec::new()
        };
        Ok(CoverReport {
            total_cost: self.costs.total(kept.iter()),
            cover: kept,
            metrics: run.metrics,
            exhausted,
            residual,
            breaker_stats,
        })
    }
}

/// Per-breaker explanatory statistics (see [`CoverReport::breaker_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerStat {
    /// The cover vertex.
    pub vertex: VertexId,
    /// Its removal cost under the request's [`CostModel`].
    pub cost: u64,
    /// Hop-constrained cycles through `vertex` that no *other* cover vertex
    /// breaks — the cycles that come back if `vertex` alone is released.
    /// Counted up to [`BREAKER_CYCLE_CAP`].
    pub cycles_through: u64,
    /// Whether the count hit the enumeration cap (the true count is at least
    /// `cycles_through`).
    pub truncated: bool,
}

/// The structured result of an objective-aware solve.
///
/// Replaces the bare vertex vector: alongside the cover itself it reports what
/// it cost, whether a [`Budget`] cut it short, which cycles survive in that
/// case, and (on request) why each breaker is in the cover.
#[derive(Debug, Clone)]
pub struct CoverReport {
    /// The (possibly budget-truncated) cover.
    pub cover: CycleCover,
    /// Metrics of the underlying solve.
    pub metrics: RunMetrics,
    /// Total cost of [`CoverReport::cover`] under the request's cost model
    /// (equals the cover size under [`CostModel::Uniform`]).
    pub total_cost: u64,
    /// `true` when the budget forced the cover below what the algorithm
    /// found: the cover is best-effort and [`CoverReport::residual`] lists
    /// the surviving cycles.
    pub exhausted: bool,
    /// Hop-constrained cycles not intersected by [`CoverReport::cover`],
    /// enumerated up to the request's `residual_cap`. Empty when the cover is
    /// complete.
    pub residual: Vec<Cycle>,
    /// Per-breaker criticality, sorted most-critical first. Empty unless the
    /// request set `explain`.
    pub breaker_stats: Vec<BreakerStat>,
}

impl CoverReport {
    /// Cover size (number of vertices).
    pub fn cover_size(&self) -> usize {
        self.cover.len()
    }
}

/// Rank `cover`'s vertices by descending cost-effectiveness — total degree
/// per unit cost, compared exactly via `u128` cross-multiplication — with
/// ties broken toward the lower vertex id. This is the keep-priority of the
/// budget trim: the breakers that intersect the most cycles per cost unit
/// survive the cap.
fn effectiveness_ranking(g: &CsrGraph, cover: &CycleCover, costs: &CostModel) -> Vec<VertexId> {
    let mut ranked: Vec<VertexId> = cover.iter().collect();
    ranked.sort_by(|&a, &b| {
        let (da, db) = (
            (g.out_degree(a) + g.in_degree(a)) as u128,
            (g.out_degree(b) + g.in_degree(b)) as u128,
        );
        let (ca, cb) = (costs.cost(a) as u128, costs.cost(b) as u128);
        // a before b  <=>  da/ca > db/cb  <=>  da*cb > db*ca.
        (db * ca).cmp(&(da * cb)).then(a.cmp(&b))
    });
    ranked
}

/// Apply `budget` to a computed cover: keep the most cost-effective vertices
/// that fit, in ranking order. Returns the kept set (sorted) and whether
/// anything was dropped.
///
/// [`Budget::MaxCost`] is greedy-with-skip: a vertex that does not fit the
/// remaining allowance is skipped, but cheaper lower-ranked vertices may
/// still be admitted, so the cap is used as fully as the ranking permits.
fn apply_budget(
    g: &CsrGraph,
    cover: &CycleCover,
    budget: Budget,
    costs: &CostModel,
) -> (CycleCover, bool) {
    let kept: Vec<VertexId> = match budget {
        Budget::None => return (cover.clone(), false),
        Budget::MaxVertices(n) => {
            if cover.len() <= n {
                return (cover.clone(), false);
            }
            let mut ranked = effectiveness_ranking(g, cover, costs);
            ranked.truncate(n);
            ranked
        }
        Budget::MaxCost(cap) => {
            if costs.total(cover.iter()) <= cap {
                return (cover.clone(), false);
            }
            let mut spent = 0u64;
            effectiveness_ranking(g, cover, costs)
                .into_iter()
                .filter(|&v| {
                    let c = costs.cost(v);
                    if spent.saturating_add(c) <= cap {
                        spent += c;
                        true
                    } else {
                        false
                    }
                })
                .collect()
        }
    };
    let exhausted = kept.len() < cover.len();
    (CycleCover::from_vertices(kept), exhausted)
}

/// Enumerate the hop-constrained cycles of `g` that `cover` does **not**
/// intersect, up to `cap` cycles.
fn enumerate_residual(
    g: &CsrGraph,
    cover: &CycleCover,
    constraint: &HopConstraint,
    cap: usize,
) -> Vec<Cycle> {
    let active = cover.reduced_active_set(g.num_vertices());
    enumerate_cycles(g, &active, constraint, cap)
}

/// Count, for each vertex of `kept`, the constrained cycles through it that
/// no other vertex of `full_cover` intersects — i.e. the cycles that
/// re-appear if that breaker alone is released. Sorted most-critical first
/// (ties toward the lower vertex id).
///
/// `full_cover` is the algorithm's untruncated cover; computing criticality
/// against it keeps the per-breaker counts meaningful even when a budget
/// trimmed `kept` below validity (every counted cycle is guaranteed to pass
/// through the breaker, because `full_cover − v` leaves no other constrained
/// cycles).
fn breaker_statistics(
    g: &CsrGraph,
    full_cover: &CycleCover,
    kept: &CycleCover,
    constraint: &HopConstraint,
    costs: &CostModel,
) -> Vec<BreakerStat> {
    let mut active = full_cover.reduced_active_set(g.num_vertices());
    let mut stats: Vec<BreakerStat> = kept
        .iter()
        .map(|v| {
            active.activate(v);
            let cycles = enumerate_cycles(g, &active, constraint, BREAKER_CYCLE_CAP);
            active.deactivate(v);
            BreakerStat {
                vertex: v,
                cost: costs.cost(v),
                cycles_through: cycles.len() as u64,
                truncated: cycles.len() >= BREAKER_CYCLE_CAP,
            }
        })
        .collect();
    stats.sort_by(|a, b| {
        b.cycles_through
            .cmp(&a.cycles_through)
            .then(a.vertex.cmp(&b.vertex))
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_cover;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{complete_digraph, directed_cycle, erdos_renyi_gnm};

    #[test]
    fn request_defaults_match_the_paper_semantics() {
        let r = CoverRequest::new(Algorithm::TdbPlusPlus, 5);
        assert_eq!(r.objective, Objective::MinCardinality);
        assert_eq!(r.budget, Budget::None);
        assert!(!r.budget.is_limited());
        assert!(r.costs.is_uniform());
        assert!(!r.explain);
        assert_eq!(r.two_cycle_mode, TwoCycleMode::Integrated);
        assert_eq!(r.scan_order, ScanOrder::Ascending);
        assert_eq!(r.constraint(), HopConstraint::new(5));
        let mut two = r.clone();
        two.include_two_cycles = true;
        assert_eq!(two.constraint(), HopConstraint::with_two_cycles(5));
    }

    #[test]
    fn unbudgeted_report_is_complete() {
        let g = directed_cycle(4);
        let report = CoverRequest::new(Algorithm::BurPlus, 4).solve(&g).unwrap();
        assert_eq!(report.cover_size(), 1);
        assert!(!report.exhausted);
        assert!(report.residual.is_empty());
        assert!(report.breaker_stats.is_empty());
        assert_eq!(report.total_cost, 1);
    }

    #[test]
    fn max_vertices_budget_caps_the_cover_and_reports_residual() {
        let g = complete_digraph(6);
        let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, 3);
        request.budget = Budget::MaxVertices(2);
        let report = request.solve(&g).unwrap();
        assert_eq!(report.cover_size(), 2);
        assert!(report.exhausted);
        assert!(!report.residual.is_empty());
        // Every residual cycle really is uncovered and hop-constrained.
        let constraint = request.constraint();
        for cycle in &report.residual {
            assert!(cycle.len() >= 3 && cycle.len() <= 3);
            assert!(cycle.iter().all(|&v| !report.cover.contains(v)));
            assert!(constraint.covers_len(cycle.len()));
        }
    }

    #[test]
    fn max_cost_budget_respects_the_cap() {
        let g = complete_digraph(6);
        let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, 3);
        request.costs = CostModel::from_fn(6, |v| u64::from(v) + 1);
        request.budget = Budget::MaxCost(5);
        let report = request.solve(&g).unwrap();
        assert!(report.exhausted);
        assert!(report.total_cost <= 5, "cost {}", report.total_cost);
        assert_eq!(report.total_cost, request.costs.total(report.cover.iter()));
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let g = erdos_renyi_gnm(30, 120, 7);
        let base = CoverRequest::new(Algorithm::TdbPlusPlus, 4)
            .solve(&g)
            .unwrap();
        let mut capped = CoverRequest::new(Algorithm::TdbPlusPlus, 4);
        capped.budget = Budget::MaxVertices(usize::MAX);
        let report = capped.solve(&g).unwrap();
        assert_eq!(report.cover, base.cover);
        assert!(!report.exhausted);
        assert!(is_valid_cover(&g, &report.cover, &capped.constraint()));
    }

    #[test]
    fn effectiveness_ranking_prefers_cheap_hubs() {
        // Vertex 0 is the hub of two triangles; vertex 1 is a spoke.
        let g = graph_from_edges(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let cover = CycleCover::from_vertices(vec![0, 1]);
        let ranked = effectiveness_ranking(&g, &cover, &CostModel::Uniform);
        assert_eq!(ranked[0], 0, "hub first under uniform costs");
        // Make the hub 100x more expensive than its degree advantage: the
        // spoke overtakes it.
        let costs = CostModel::per_vertex(vec![100, 1, 1, 1, 1]);
        let ranked = effectiveness_ranking(&g, &cover, &costs);
        assert_eq!(ranked[0], 1, "cheap spoke first once the hub costs 100");
    }

    #[test]
    fn breaker_stats_count_witness_cycles() {
        // Three triangles sharing vertex 0, plus an independent triangle
        // broken by vertex 7.
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
            (7, 8),
            (8, 9),
            (9, 7),
        ]);
        // Hand-picked cover {0, 9}: vertex 0 witnesses all three hub
        // triangles, vertex 9 exactly one.
        let cover = CycleCover::from_vertices(vec![0, 9]);
        let constraint = HopConstraint::new(3);
        assert!(is_valid_cover(&g, &cover, &constraint));
        let stats = breaker_statistics(&g, &cover, &cover, &constraint, &CostModel::Uniform);
        assert_eq!(stats.len(), 2);
        // Sorted most-critical first.
        let top = &stats[0];
        assert_eq!(top.vertex, 0);
        assert_eq!(top.cycles_through, 3);
        assert!(!top.truncated);
        assert_eq!(stats[1].vertex, 9);
        assert_eq!(stats[1].cycles_through, 1);

        // End-to-end: explain=true populates one stat per cover vertex.
        let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, 3);
        request.explain = true;
        let report = request.solve(&g).unwrap();
        assert_eq!(report.breaker_stats.len(), report.cover_size());
        assert!(report.breaker_stats.iter().all(|s| s.cycles_through >= 1));
    }

    #[test]
    fn residual_cap_bounds_the_enumeration() {
        let g = complete_digraph(7);
        let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, 4);
        request.budget = Budget::MaxVertices(0);
        request.residual_cap = 5;
        let report = request.solve(&g).unwrap();
        assert!(report.exhausted);
        assert!(report.cover.is_empty());
        assert_eq!(report.residual.len(), 5);
        assert_eq!(report.total_cost, 0);
    }
}
