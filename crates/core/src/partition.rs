//! SCC-partitioned solving: per-component shards solved concurrently.
//!
//! # Why partitioning is exact
//!
//! A simple cycle visits each of its vertices once and returns to its start,
//! so all of its vertices are mutually reachable — every constrained cycle of
//! `G` lies entirely inside one strongly connected component. Two things
//! follow:
//!
//! 1. **Trivial components need nothing.** A vertex in a singleton SCC lies on
//!    no cycle of length ≥ 2, so it can never be required by a cover (the
//!    `scc_prefilter` ablation already exploited this observation).
//! 2. **Non-trivial components are independent.** A set `C` is a valid cover
//!    of `G` iff `C ∩ S` is a valid cover of the subgraph induced by `S`, for
//!    every non-trivial SCC `S` — cross-component edges cannot close a cycle,
//!    so no cover decision in one component can affect another. Minimality
//!    decomposes the same way: a vertex is redundant in `G` iff it is
//!    redundant inside its own component.
//!
//! The cover problem therefore *shards exactly*: solve each non-trivial
//! component on its own compact subgraph ([`tdb_graph::Condensation`]) and
//! take the union. [`Partitioner`] builds the shards and [`solve_sharded`]
//! executes them on a pool of worker threads that drain a shared
//! largest-component-first queue (idle workers immediately pull the next
//! pending component, so the schedule balances like a work-stealing pool).
//! Each claimed shard runs the solver's full per-shard pipeline with a fresh
//! context carrying the parent's armed deadline, so a time budget bounds the
//! whole partitioned solve.
//!
//! Because the global→local id remapping of the extraction is monotone and
//! the algorithms scan vertices and adjacency in id order, a sharded solve
//! with the default ascending scan order reproduces the unsharded cover
//! **exactly** — the differential test kit in `tests/differential.rs` holds
//! every algorithm to that.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use tdb_cycle::HopConstraint;
use tdb_graph::{Condensation, CsrGraph, Graph, GraphView, VertexId};

use crate::cover::{CoverRun, CycleCover, RunMetrics};
use crate::solver::{SolveContext, SolveError, Solver};
use crate::stats::Timer;

/// One independently solvable piece of a partitioned graph: a compact
/// subgraph of a non-trivial SCC plus the table mapping its local vertex ids
/// back to the whole graph.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The component as a compact graph over local ids.
    pub graph: CsrGraph,
    /// `to_global[local]` is the whole-graph vertex id (ascending).
    pub to_global: Vec<VertexId>,
}

impl Shard {
    /// Number of vertices in this shard.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Whether the shard is empty (never produced by [`Partitioner`]).
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }
}

/// The result of partitioning a graph for sharded solving.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Non-trivial components as compact subgraphs, largest first.
    pub shards: Vec<Shard>,
    /// Vertices living in trivial (singleton) components — released without
    /// any search, reported as `scc_released` in the merged metrics.
    pub trivial_vertices: usize,
}

impl Partition {
    /// Total vertices across all shards.
    pub fn sharded_vertices(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }
}

/// Runs SCC condensation over any [`GraphView`] and extracts every
/// non-trivial component into a compact [`Shard`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Partitioner;

impl Partitioner {
    /// A partitioner with the default settings.
    pub fn new() -> Self {
        Partitioner
    }

    /// Partition `g` into independently solvable shards, largest first.
    ///
    /// Largest-first matters for the executor: the biggest component bounds
    /// the critical path, so it must start as early as possible while smaller
    /// components fill the remaining workers.
    pub fn partition<V: GraphView>(&self, g: &V) -> Partition {
        let cond = Condensation::of(g);
        let mut shards: Vec<Shard> = cond
            .non_trivial()
            .map(|c| {
                let ext = cond.extract(g, c);
                Shard {
                    graph: ext.graph,
                    to_global: ext.to_global,
                }
            })
            .collect();
        shards.sort_by_key(|s| std::cmp::Reverse(s.len()));
        Partition {
            shards,
            trivial_vertices: cond.trivial_vertices(),
        }
    }
}

/// Solve `g` with `solver`'s per-shard pipeline, one component at a time, on
/// `threads` worker threads. Called by
/// [`Solver::solve_with`](crate::solver::Solver::solve_with) when the
/// request's [`ShardingMode`](crate::solver::ShardingMode) is enabled; the
/// context must already be armed.
pub(crate) fn solve_sharded(
    solver: &Solver,
    g: &CsrGraph,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
    threads: usize,
) -> Result<CoverRun, SolveError> {
    let timer = Timer::start();
    // Honor the budget contract of the unsharded path: an already-expired
    // deadline must fail before any work, even on graphs that partition into
    // zero shards, and the O(n + m) partition phase must not overshoot a
    // deadline unreported.
    ctx.checkpoint()?;
    let partition = Partitioner::new().partition(g);
    ctx.checkpoint()?;
    let shards = &partition.shards;
    let snapshot = ctx.snapshot();

    let results: Vec<Mutex<Option<CoverRun>>> = shards.iter().map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<SolveError>> = Mutex::new(None);
    let failed = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let workers = threads.max(1).min(shards.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let results = &results;
            let failure = &failure;
            let failed = &failed;
            let next = &next;
            let snapshot = &snapshot;
            scope.spawn(move || {
                loop {
                    if failed.load(Ordering::Relaxed) {
                        return;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(shard) = shards.get(i) else {
                        return;
                    };
                    // Each shard races the parent's armed deadline. Costs
                    // travel in global ids; project them through the shard's
                    // monotone id map so local vertex v reads the cost of
                    // to_global[v].
                    let mut shard_ctx = snapshot.materialize();
                    if !shard_ctx.vertex_costs().is_uniform() {
                        let projected = shard_ctx.vertex_costs().project(&shard.to_global);
                        shard_ctx.set_vertex_costs(projected);
                    }
                    match solver.solve_shard(&shard.graph, constraint, &mut shard_ctx) {
                        Ok(run) => *results[i].lock().unwrap() = Some(run),
                        Err(e) => {
                            *failure.lock().unwrap() = Some(e);
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }

    // Merge: translate each shard cover back to global ids and union them;
    // counters sum across shards, elapsed is the wall clock of the whole
    // pipeline (not the sum of per-shard CPU time).
    let mut vertices: Vec<VertexId> = Vec::new();
    let mut merged = RunMetrics::new(
        solver.metrics_label(constraint),
        constraint.max_hops,
        constraint.include_two_cycles,
    );
    for (shard, slot) in shards.iter().zip(results) {
        let run = slot
            .into_inner()
            .unwrap()
            .expect("every non-failed shard produced a run");
        vertices.extend(run.cover.iter().map(|v| shard.to_global[v as usize]));
        merged.absorb(&run.metrics);
    }
    merged.algorithm = format!("{}/sharded", merged.algorithm);
    merged.working_edges = g.num_edges();
    merged.scc_released += partition.trivial_vertices as u64;
    merged.elapsed = timer.elapsed();

    let run = CoverRun {
        cover: CycleCover::from_vertices(vertices),
        metrics: merged,
    };
    let total = shards.len() as u64;
    ctx.report_progress(total, total, run.cover.len() as u64);
    ctx.accumulate(&run.metrics);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ShardingMode;
    use crate::verify::verify_cover;
    use crate::{Algorithm, CoverRequest};
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{directed_path, erdos_renyi_gnm};
    use tdb_graph::Graph;

    fn sharded_solver(algorithm: Algorithm, sharding: ShardingMode) -> Solver {
        Solver::from_request(CoverRequest {
            sharding,
            ..CoverRequest::new(algorithm, 4)
        })
    }

    /// Disjoint triangles 0-2, 3-5, 6-8 chained by one-way bridges, plus a
    /// dangling tail vertex 9.
    fn three_triangles() -> CsrGraph {
        graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 6),
            (8, 9),
        ])
    }

    #[test]
    fn partitioner_orders_shards_largest_first() {
        // A 5-cycle and a 3-cycle.
        let g = graph_from_edges(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 3),
        ]);
        let p = Partitioner::new().partition(&g);
        assert_eq!(p.shards.len(), 2);
        assert_eq!(p.shards[0].len(), 5);
        assert_eq!(p.shards[1].len(), 3);
        assert!(!p.shards[0].is_empty());
        assert_eq!(p.trivial_vertices, 0);
        assert_eq!(p.sharded_vertices(), 8);
    }

    #[test]
    fn sharded_solve_matches_unsharded_exactly() {
        let g = three_triangles();
        let constraint = HopConstraint::new(4);
        for algorithm in Algorithm::all() {
            let plain = Solver::new(algorithm).solve(&g, &constraint).unwrap();
            for mode in [ShardingMode::Threads(1), ShardingMode::Threads(3)] {
                let sharded = sharded_solver(algorithm, mode)
                    .solve(&g, &constraint)
                    .unwrap();
                assert_eq!(sharded.cover, plain.cover, "{algorithm} {mode:?}");
                assert!(
                    sharded.metrics.algorithm.ends_with("/sharded"),
                    "{}",
                    sharded.metrics.algorithm
                );
                // The dangling tail vertex is released by the partition.
                assert!(sharded.metrics.scc_released >= 1, "{algorithm}");
            }
        }
    }

    #[test]
    fn sharded_solve_of_acyclic_graph_is_empty() {
        let g = directed_path(20);
        let run = sharded_solver(Algorithm::TdbPlusPlus, ShardingMode::Auto)
            .solve(&g, &HopConstraint::new(5))
            .unwrap();
        assert!(run.cover.is_empty());
        assert_eq!(run.metrics.scc_released, 20);
        assert_eq!(run.metrics.algorithm, "TDB++/sharded");
    }

    #[test]
    fn sharded_solve_on_random_graphs_is_valid_and_size_equal() {
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(70, 240, seed);
            let constraint = HopConstraint::new(4);
            let plain = Solver::new(Algorithm::TdbPlusPlus)
                .solve(&g, &constraint)
                .unwrap();
            let sharded = sharded_solver(Algorithm::TdbPlusPlus, ShardingMode::Threads(4))
                .solve(&g, &constraint)
                .unwrap();
            assert_eq!(sharded.cover, plain.cover, "seed {seed}");
            let v = verify_cover(&g, &sharded.cover, &constraint);
            assert!(v.is_valid_and_minimal(), "seed {seed}");
        }
    }

    #[test]
    fn sharded_budget_overrun_is_reported() {
        let g = three_triangles();
        let err = Solver::from_request(CoverRequest {
            sharding: ShardingMode::Threads(2),
            time_budget: Some(std::time::Duration::ZERO),
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        })
        .solve(&g, &HopConstraint::new(4))
        .unwrap_err();
        assert!(matches!(err, SolveError::BudgetExceeded { .. }));
    }

    #[test]
    fn sharded_budget_bites_even_with_zero_shards() {
        // An acyclic graph partitions into zero shards, but an expired
        // budget must still be reported — same contract as unsharded.
        let g = directed_path(12);
        let err = Solver::from_request(CoverRequest {
            sharding: ShardingMode::Threads(2),
            time_budget: Some(std::time::Duration::ZERO),
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        })
        .solve(&g, &HopConstraint::new(4))
        .unwrap_err();
        assert!(matches!(err, SolveError::BudgetExceeded { .. }));
    }

    #[test]
    fn sharded_metrics_sum_counters_and_count_solves_once() {
        let g = three_triangles();
        let constraint = HopConstraint::new(4);
        let solver = sharded_solver(Algorithm::TdbPlusPlus, ShardingMode::Threads(2));
        let mut ctx = solver.context();
        let run = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
        assert_eq!(ctx.completed_solves(), 1);
        assert_eq!(ctx.totals().cycle_queries, run.metrics.cycle_queries);
        assert!(run.metrics.cycle_queries > 0);
        assert_eq!(run.metrics.working_edges, g.num_edges());
    }
}
