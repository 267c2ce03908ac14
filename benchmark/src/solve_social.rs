//! `solve-social`: repeated `TDB++` solves at k = 5 of the Wiki-Vote proxy at
//! its published size (7,000 vertices, ~110k edges, power-law). The static
//! path users run; it bypasses `dynamic` and `serve`.

use std::hint::black_box;
use std::time::Instant;

use tdb_core::verify::verify_cover;
use tdb_cycle::HopConstraint;
use tdb_datasets::{synthesize, Dataset, SynthesisConfig};
use tdb_graph::scc::tarjan_scc;
use tdb_graph::{CsrGraph, Graph};

use crate::common::{
    self, RunConfig, ScanSplit, SeedSolve, SetupTimes, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::replay::Replayer;
use crate::report::Report;
use crate::stats::{median, ms};
use crate::trace::{LayerSamples, Tracer};

pub const NAME: &str = "solve-social";
const K: usize = 5;
/// The tail percentile this workload reports: a run holds too few solves
/// (~0.5 s each) for a p90 with ten samples beyond it.
const TAIL: u32 = 75;
/// Timed solves every untraced run makes, so that the p75 has ten samples
/// beyond it even when the host is slow.
const MIN_SOLVES: usize = 40;
/// `tarjan_scc` calls timed for `graph.scc_ms` in the traced run.
const SCC_CALLS: usize = 5;

fn generate(seed: u64) -> CsrGraph {
    synthesize(
        Dataset::WikiVote,
        &SynthesisConfig {
            scale: 1.0,
            seed,
            ..SynthesisConfig::default()
        },
    )
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(NAME, cfg.trace);
    let constraint = HopConstraint::new(K);

    // Set-up: graph generation and a first solve on a fresh context (what a
    // user pays before the solver is warm). Every set-up of one seed must
    // give the same cover and counts.
    let mut setups = SetupTimes::default();
    let mut set_up = |report: &mut Report| {
        let mut ctx = tdb_core::Solver::new(tdb_core::Algorithm::TdbPlusPlus).context();
        let start = Instant::now();
        let g = black_box(generate(cfg.seed));
        let generate = start.elapsed();
        let (run, counts, solve) = common::counted_solve(&g, &constraint, &mut ctx);
        let seed = SeedSolve {
            cover: run.cover,
            counts,
            generate,
            solve,
        };
        setups.record(report, start.elapsed(), &seed);
        (g, ctx, seed)
    };
    let (mut g, mut ctx, mut reference) = set_up(&mut report);
    for _ in 1..SETUPS_BEFORE {
        (g, ctx, reference) = set_up(&mut report);
    }
    let audit = verify_cover(&g, &reference.cover, &constraint);
    report.attempted += 1;
    if !audit.is_valid_and_minimal() {
        report.fail(format!(
            "reference cover: valid {} minimal {} ({} redundant)",
            audit.is_valid,
            audit.is_minimal,
            audit.redundant.len()
        ));
    }
    let ref_counts = reference.counts;

    let mut tracer = Tracer::new(Instant::now());
    let mut replayer = Replayer::new();
    let mut split = ScanSplit::default();
    let mut solve_ms = Vec::new();
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let min_solves = if cfg.trace { 1 } else { MIN_SOLVES };
    while Instant::now() < deadline || solve_ms.len() < min_solves {
        let (run, counts, elapsed) = common::counted_solve(&g, &constraint, &mut ctx);
        report.attempted += 1;
        solve_ms.push(ms(elapsed));
        if run.cover != reference.cover || counts != ref_counts {
            report.fail(format!(
                "solve {} differs from the reference: cover {} vs {}, counts {counts:?} vs {ref_counts:?}",
                solve_ms.len(),
                run.cover.len(),
                reference.cover.len()
            ));
        }
        if cfg.trace {
            split.replay(
                &mut replayer,
                &mut tracer,
                &g,
                &constraint,
                &reference.cover,
                &ref_counts,
            );
        }
    }

    for _ in 0..SETUPS_AFTER {
        set_up(&mut report);
    }
    setups.report(&mut report);

    report.set_percentile("latency_p50_ms", &solve_ms, 50);
    report.set_percentile("latency_tail_ms", &solve_ms, TAIL);
    // A static deployment shows an edge change only after a full re-solve.
    report.set_percentile("update_visible_p50_ms", &solve_ms, 50);
    report.set("cover_vertices", reference.cover.len() as f64, 1);
    common::report_peak_rss(&mut report);

    if cfg.trace {
        let mut scc = LayerSamples::default();
        for _ in 0..SCC_CALLS {
            let mark = tracer.mark();
            tracer.span("graph.scc", || black_box(tarjan_scc(&g)));
            scc.add(&tracer.finish_op(mark));
        }
        let scc_ms = scc.get("graph.scc");
        report.set(
            "graph.scc_ms",
            median(scc_ms).unwrap_or_default(),
            scc_ms.len(),
        );
        common::report_solve_layers(&mut report, &ref_counts, &solve_ms, &split);
        common::report_overhead(&mut report, &solve_ms, &split.scan_ms);
        common::write_trace(&mut report, NAME, cfg.seed, &[("main", &tracer)]);
    }
    report.note(format!(
        "graph: {} vertices, {} edges, k = {K}; {} timed solves; latency_tail_ms is p{TAIL}",
        g.num_vertices(),
        g.num_edges(),
        solve_ms.len()
    ));
    report
}
