//! Pieces shared by the workloads: run settings, the streaming graph, the
//! seed solve with its exact counts, and the `cycle` / `core` layer metrics.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tdb_core::solver::SolveContext;
use tdb_core::{Algorithm, CoverRun, CycleCover, Solver};
use tdb_cycle::HopConstraint;
use tdb_dynamic::DynamicCover;
use tdb_graph::gen::erdos_renyi_gnm;
use tdb_graph::CsrGraph;

use crate::replay::{self, Replayer, SolveCounts};
use crate::report::{Report, UNAVAILABLE};
use crate::stats::{median, ms};
use crate::trace::{LayerSamples, Tracer};

/// Settings of one run, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Set-ups before and after the timed part of a run. `setup_s` is the
/// median of all of them: host speed moves in phases lasting seconds, and
/// two groups a run apart sample two phases instead of one.
pub const SETUPS_BEFORE: usize = 3;
pub const SETUPS_AFTER: usize = 4;

/// The streaming and serving graph: Erdős–Rényi G(50,000, 200,000) at k = 4.
/// It is one fixed graph, like a published dataset; the run's seed drives
/// the traffic on it (updates, requests), not its shape.
pub const ER_VERTICES: usize = 50_000;
pub const ER_EDGES: usize = 200_000;
pub const ER_K: usize = 4;
const ER_GRAPH_SEED: u64 = 42;

/// The seed solve of one set-up of the streaming graph.
pub struct SeedSolve {
    pub cover: CycleCover,
    pub counts: SolveCounts,
    pub generate: Duration,
    pub solve: Duration,
}

/// One set-up of the streaming graph: generation, the `TDB++` seed solve,
/// and the engine wrapped around both.
pub fn seed_setup(constraint: &HopConstraint) -> (DynamicCover, SeedSolve) {
    let mut ctx = Solver::new(Algorithm::TdbPlusPlus).context();
    let start = Instant::now();
    let g = black_box(erdos_renyi_gnm(ER_VERTICES, ER_EDGES, ER_GRAPH_SEED));
    let generate = start.elapsed();
    let (run, counts, solve) = counted_solve(&g, constraint, &mut ctx);
    let engine = DynamicCover::from_cover(g, run.cover.clone(), *constraint);
    let seed = SeedSolve {
        cover: run.cover,
        counts,
        generate,
        solve,
    };
    (engine, seed)
}

/// Times of a run's set-ups, and the check that each one solved the same
/// graph to the same cover with the same counts.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub solve_ms: Vec<f64>,
    first: Option<(CycleCover, SolveCounts)>,
}

impl SetupTimes {
    /// Record a set-up that took `total` and ran the seed solve `setup`.
    pub fn record(&mut self, report: &mut Report, total: Duration, setup: &SeedSolve) {
        self.total_s.push(total.as_secs_f64());
        self.generate_s.push(setup.generate.as_secs_f64());
        self.solve_ms.push(ms(setup.solve));
        report.attempted += 1;
        match &self.first {
            None => self.first = Some((setup.cover.clone(), setup.counts)),
            Some((cover, counts)) => {
                if *cover != setup.cover || *counts != setup.counts {
                    report.fail("seed solves of one graph differ between set-ups");
                }
            }
        }
    }

    /// The first set-up's seed cover and counts.
    pub fn seed(&self) -> &(CycleCover, SolveCounts) {
        self.first.as_ref().expect("at least one set-up ran")
    }

    /// Record `setup_s` and `graph.generate_s`.
    pub fn report(&self, report: &mut Report) {
        let n = self.total_s.len();
        report.set("setup_s", median(&self.total_s).expect("set-ups ran"), n);
        report.set(
            "graph.generate_s",
            median(&self.generate_s).expect("set-ups ran"),
            n,
        );
    }
}

/// One `TDB++` solve of `g` through `Solver::solve_with`, with its exact
/// counts and wall time.
pub fn counted_solve(
    g: &CsrGraph,
    constraint: &HopConstraint,
    ctx: &mut SolveContext,
) -> (CoverRun, SolveCounts, Duration) {
    replay::reset_counters(ctx);
    let start = Instant::now();
    let run = Solver::new(Algorithm::TdbPlusPlus)
        .solve_with(g, constraint, ctx)
        .expect("a solve without a time budget cannot fail");
    let elapsed = start.elapsed();
    let counts = replay::read_counts(ctx, &run);
    (run, counts, elapsed)
}

/// Per-operation layer times of the traced `TDB++` replays, and whether a
/// replay ever disagreed with the solver it mirrors.
#[derive(Debug, Default)]
pub struct ScanSplit {
    pub samples: LayerSamples,
    pub scan_ms: Vec<f64>,
    pub diverged: bool,
}

impl ScanSplit {
    /// Replay the scan of `g` and keep its layer times if it reproduces the
    /// solver's `cover` and `counts` exactly.
    pub fn replay(
        &mut self,
        replayer: &mut Replayer,
        tracer: &mut Tracer,
        g: &CsrGraph,
        constraint: &HopConstraint,
        cover: &CycleCover,
        counts: &SolveCounts,
    ) {
        let mark = tracer.mark();
        let (replayed, replayed_counts, elapsed) = replayer.run(g, constraint, tracer);
        let folded = tracer.finish_op(mark);
        if replayed != cover.as_slice() || replayed_counts != *counts {
            self.diverged = true;
        }
        self.samples.add(&folded);
        self.scan_ms.push(ms(elapsed));
    }
}

/// Record the `cycle.*` and `core.*` metrics of a workload's `TDB++` solves:
/// exact counts of one solve, the solve time, and the traced split.
pub fn report_solve_layers(
    report: &mut Report,
    counts: &SolveCounts,
    solve_ms: &[f64],
    split: &ScanSplit,
) {
    report.set("cycle.filter_calls", counts.filter_calls as f64, 1);
    report.set("cycle.filter_prune_ratio", counts.filter_prune_ratio(), 1);
    report.set("cycle.dfs_queries", counts.search.queries as f64, 1);
    report.set("cycle.dfs_pushes", counts.search.pushes as f64, 1);
    report.set(
        "cycle.dfs_edges_scanned",
        counts.search.edges_scanned as f64,
        1,
    );
    report.set("cycle.dfs_hit_ratio", counts.dfs_hit_ratio(), 1);
    report.set("core.cycle_queries", counts.cycle_queries as f64, 1);
    report.set("core.filter_released", counts.filter_released as f64, 1);
    if let Some(v) = median(solve_ms) {
        report.set("core.solve_ms", v, solve_ms.len());
    }
    let layers = [
        ("cycle.filter_ms", crate::replay::FILTER),
        ("cycle.dfs_ms", crate::replay::DFS),
        ("core.scan_self_ms", crate::replay::SCAN),
    ];
    for (metric, span) in layers {
        let samples = split.samples.get(span);
        if split.diverged {
            report.set(metric, UNAVAILABLE, 0);
        } else if let Some(v) = median(samples) {
            report.set(metric, v, samples.len());
        }
    }
    if split.diverged {
        report.note("the traced replay diverged from Solver: filter/DFS split unavailable");
    }
}

/// Traced-minus-untraced median latency of one operation.
pub fn report_overhead(report: &mut Report, untraced_ms: &[f64], traced_ms: &[f64]) {
    if let (Some(u), Some(t)) = (median(untraced_ms), median(traced_ms)) {
        report.set("trace.overhead_ms", t - u, traced_ms.len());
    }
}

/// Record `peak_rss_mb`.
pub fn report_peak_rss(report: &mut Report) {
    match crate::stats::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.fail("peak resident memory is unavailable (/proc/self/status)"),
    }
}

/// Write the spans to `traces/<workload>-seed<n>.json` in the benchmark's
/// directory, noting (not failing) an I/O error: the metrics are already
/// measured.
pub fn write_trace(report: &mut Report, workload: &str, seed: u64, threads: &[(&str, &Tracer)]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.json"));
    match crate::trace::write_chrome_trace(&path, threads) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}
