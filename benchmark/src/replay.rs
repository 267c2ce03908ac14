//! Exact work counts of a `TDB++` solve, and a traced replay of its scan.
//!
//! [`Solver`] runs the scan as one opaque call. To split its time between the
//! BFS filter (Algorithm 11) and the block DFS (Algorithms 9–10) without
//! touching library code, [`Replayer`] repeats the paper's top-down scan
//! (Algorithm 8: ascending vertex order, no SCC pre-filter) through
//! `tdb-cycle`'s public engines, with a span around every engine call. The
//! replay is only trusted while it returns the solver's exact cover and
//! counts; callers compare them and report the split as unavailable when they
//! differ.

use tdb_core::solver::SolveContext;
use tdb_core::{CoverRun, RunMetrics};
use tdb_cycle::bfs_filter::FilterDecision;
use tdb_cycle::block_dfs::SearchStats;
use tdb_cycle::{BfsFilter, BlockSearcher, HopConstraint};
use tdb_graph::{ActiveSet, CsrGraph, Graph, VertexId};

use crate::trace::Tracer;

/// The deterministic counts of one `TDB++` solve: identical on every solve
/// of the same graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounts {
    /// `RunMetrics::cycle_queries`: vertices handed to the block DFS.
    pub cycle_queries: u64,
    /// `RunMetrics::filter_released`: vertices the BFS filter released.
    pub filter_released: u64,
    /// `RunMetrics::scc_released` and `minimal_pruned` (0 for `TDB++`).
    pub scc_released: u64,
    pub minimal_pruned: u64,
    /// `BfsFilter::evaluations` / `BfsFilter::pruned`.
    pub filter_calls: u64,
    pub filter_pruned: u64,
    /// `BlockSearcher::stats()`.
    pub search: SearchStats,
}

impl SolveCounts {
    pub fn filter_prune_ratio(&self) -> f64 {
        ratio(self.filter_pruned, self.filter_calls)
    }

    pub fn dfs_hit_ratio(&self) -> f64 {
        ratio(self.search.hits, self.search.queries)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Zero the engine counters in `ctx`'s solve scratch, so the next
/// `Solver::solve_with` counts only its own work.
pub fn reset_counters(ctx: &mut SolveContext) {
    let mut scratch = ctx.take_scratch();
    scratch.block.reset_stats();
    scratch.filter.evaluations = 0;
    scratch.filter.pruned = 0;
    ctx.restore_scratch(scratch);
}

/// The counts of the solve that produced `run`, read from `ctx`'s scratch
/// (zeroed with [`reset_counters`] before the solve).
pub fn read_counts(ctx: &mut SolveContext, run: &CoverRun) -> SolveCounts {
    let scratch = ctx.take_scratch();
    let counts = counts_from(&run.metrics, &scratch.filter, scratch.block.stats());
    ctx.restore_scratch(scratch);
    counts
}

fn counts_from(metrics: &RunMetrics, filter: &BfsFilter, search: SearchStats) -> SolveCounts {
    SolveCounts {
        cycle_queries: metrics.cycle_queries,
        filter_released: metrics.filter_released,
        scc_released: metrics.scc_released,
        minimal_pruned: metrics.minimal_pruned,
        filter_calls: filter.evaluations,
        filter_pruned: filter.pruned,
        search,
    }
}

/// Reusable engines of the traced `TDB++` replay.
#[derive(Debug)]
pub struct Replayer {
    filter: BfsFilter,
    block: BlockSearcher,
    active: ActiveSet,
}

/// Span names of the replay: the scan itself and the two engines it calls.
pub const SCAN: &str = "core.scan";
pub const FILTER: &str = "cycle.filter";
pub const DFS: &str = "cycle.dfs";

impl Replayer {
    pub fn new() -> Self {
        Replayer {
            filter: BfsFilter::new(0),
            block: BlockSearcher::new(0),
            active: ActiveSet::all_inactive(0),
        }
    }

    /// Replay the `TDB++` scan of `g`, recording a [`SCAN`] span with a
    /// [`FILTER`] or [`DFS`] child around every engine call. Returns the
    /// cover (ascending), the counts and the scan's duration.
    pub fn run(
        &mut self,
        g: &CsrGraph,
        constraint: &HopConstraint,
        tracer: &mut Tracer,
    ) -> (Vec<VertexId>, SolveCounts, std::time::Duration) {
        let n = g.num_vertices();
        if self.active.len() == n {
            self.active.reset_all_inactive();
        } else {
            self.active = ActiveSet::all_inactive(n);
            self.filter = BfsFilter::new(n);
            self.block = BlockSearcher::new(n);
        }
        self.filter.evaluations = 0;
        self.filter.pruned = 0;
        self.block.reset_stats();
        let mut metrics = RunMetrics::default();
        let mut cover = Vec::new();

        let scan = tracer.begin(SCAN);
        for v in 0..n as VertexId {
            // Tentatively insert v's edges into G0 (Algorithm 8 line 3).
            self.active.activate(v);
            let decision = tracer.span(FILTER, || {
                self.filter.decide(g, &self.active, v, constraint)
            });
            if decision == FilterDecision::Prune {
                metrics.filter_released += 1;
                continue;
            }
            metrics.cycle_queries += 1;
            let necessary = tracer.span(DFS, || {
                self.block
                    .is_on_constrained_cycle(g, &self.active, v, constraint)
            });
            if necessary {
                cover.push(v);
                self.active.deactivate(v);
            }
        }
        let elapsed = tracer.end(scan);
        let counts = counts_from(&metrics, &self.filter, self.block.stats());
        (cover, counts, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tdb_core::{Algorithm, Solver};
    use tdb_graph::gen::erdos_renyi_gnm;

    #[test]
    fn replay_matches_the_solver_exactly() {
        let solver = Solver::new(Algorithm::TdbPlusPlus);
        let mut replayer = Replayer::new();
        let mut tracer = Tracer::new(Instant::now());
        for seed in 0..4u64 {
            let g = erdos_renyi_gnm(400, 1_600, seed);
            let constraint = HopConstraint::new(4);
            let mut ctx = solver.context();
            reset_counters(&mut ctx);
            let run = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
            let counts = read_counts(&mut ctx, &run);
            let mark = tracer.mark();
            let (cover, replayed, _) = replayer.run(&g, &constraint, &mut tracer);
            let folded = tracer.finish_op(mark);
            assert_eq!(cover, run.cover.as_slice(), "seed {seed}");
            assert_eq!(replayed, counts, "seed {seed}");
            assert!(counts.search.queries > 0 && counts.filter_calls == 400);
            assert!(folded.contains_key(FILTER) && folded.contains_key(DFS));
        }
    }
}
