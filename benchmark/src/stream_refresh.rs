//! `stream-refresh`: a `DynamicCover` over G(50,000, 200,000) at k = 4,
//! seeded by `TDB++`. Each refresh applies one 100-update `EdgeBatch` (half
//! deletions of live edges, half fresh insertions) and then calls
//! `minimize()`, so every refresh ends valid and minimal. Bypasses the static
//! scan's timing (the seed solve is set-up) and `serve`.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tdb_core::verify::verify_cover;
use tdb_core::CycleCover;
use tdb_cycle::HopConstraint;
use tdb_dynamic::{DynamicCover, EdgeBatch, UpdateMetrics};
use tdb_graph::gen::Xoshiro256;
use tdb_graph::scc::tarjan_scc;
use tdb_graph::{Graph, VertexId};

use crate::common::{
    self, RunConfig, ScanSplit, SetupTimes, ER_K, ER_VERTICES, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::replay::{ratio, Replayer};
use crate::report::Report;
use crate::stats::{median, ms};
use crate::trace::{LayerSamples, Tracer};

pub const NAME: &str = "stream-refresh";
const BATCH: usize = 100;
/// Refreshes whose engine counts are exact per seed: they are replayed on a
/// second engine and must match, and the `dynamic.*` counts cover them.
const EXACT_PREFIX: usize = 100;
/// Every this many refreshes, the cover's validity is audited (untimed).
const AUDIT_EVERY: usize = 100;
const _: () = assert!(
    SETUPS_BEFORE >= 2,
    "the exact-prefix replay needs a second engine"
);
/// The tail percentile this workload reports.
const TAIL: u32 = 90;
/// Untraced refreshes every untraced run makes, so that the p90 has ten
/// samples beyond it.
const MIN_REFRESHES: usize = 100;

/// The seeded update stream: deletions draw from the live edge list,
/// insertions draw fresh pairs.
struct UpdateStream {
    rng: Xoshiro256,
    live: Vec<(VertexId, VertexId)>,
    present: HashSet<(VertexId, VertexId)>,
}

impl UpdateStream {
    fn new(seed: u64, g: &impl Graph) -> Self {
        let live: Vec<_> = g.edges().map(|e| (e.source, e.target)).collect();
        UpdateStream {
            rng: Xoshiro256::seed_from_u64(seed ^ 0x5EED_57EA),
            present: live.iter().copied().collect(),
            live,
        }
    }

    fn next_batch(&mut self) -> EdgeBatch {
        let mut batch = EdgeBatch::new();
        for i in 0..BATCH {
            if i % 2 == 0 {
                let (u, v) = self.live.swap_remove(self.rng.next_index(self.live.len()));
                self.present.remove(&(u, v));
                batch.remove(u, v);
            } else {
                loop {
                    let u = self.rng.next_index(ER_VERTICES) as VertexId;
                    let v = self.rng.next_index(ER_VERTICES) as VertexId;
                    if u != v && self.present.insert((u, v)) {
                        self.live.push((u, v));
                        batch.insert(u, v);
                        break;
                    }
                }
            }
        }
        batch
    }
}

/// `UpdateMetrics` without its wall time: the part that is exact per seed.
fn exact(m: &UpdateMetrics) -> UpdateMetrics {
    UpdateMetrics {
        elapsed: Duration::ZERO,
        ..*m
    }
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(NAME, cfg.trace);
    let constraint = HopConstraint::new(ER_K);
    let mut tracer = Tracer::new(Instant::now());
    let mut replayer = Replayer::new();
    let mut split = ScanSplit::default();
    let mut setups = SetupTimes::default();
    let mut set_up = |report: &mut Report, tracer: &mut Tracer| {
        let start = Instant::now();
        let (engine, seed) = common::seed_setup(&constraint);
        setups.record(report, start.elapsed(), &seed);
        if cfg.trace {
            let g = engine.graph().base();
            split.replay(
                &mut replayer,
                tracer,
                g,
                &constraint,
                &seed.cover,
                &seed.counts,
            );
        }
        engine
    };

    // Set-up: generation + seed solve + engine construction. Of the engines
    // built before the run, the last streams and the one before it replays
    // the exact prefix to check determinism.
    let mut engines: Vec<DynamicCover> = (0..SETUPS_BEFORE)
        .map(|_| set_up(&mut report, &mut tracer))
        .collect();
    let mut dynamic = engines.pop().expect("SETUPS_BEFORE >= 2");
    let mut replica = engines.pop().expect("SETUPS_BEFORE >= 2");
    drop(engines);

    let mut stream = UpdateStream::new(cfg.seed, dynamic.graph().base());
    let mut prefix_batches: Vec<EdgeBatch> = Vec::with_capacity(EXACT_PREFIX);
    let mut prefix_end: Option<(UpdateMetrics, CycleCover)> = None;
    let mut refresh_ms = Vec::new();
    let mut apply_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layers = LayerSamples::default();
    let deadline = Instant::now() + cfg.seconds;
    let mut i = 0usize;
    let min_untraced = if cfg.trace { 0 } else { MIN_REFRESHES };
    while i < EXACT_PREFIX || refresh_ms.len() < min_untraced || Instant::now() < deadline {
        let batch = stream.next_batch();
        if i < EXACT_PREFIX {
            prefix_batches.push(batch.clone());
        }
        report.attempted += 1;
        if cfg.trace && i % 2 == 1 {
            let mark = tracer.mark();
            let refresh = tracer.begin("dynamic.refresh");
            tracer.span("dynamic.apply", || dynamic.apply(&batch));
            tracer.span("dynamic.minimize", || dynamic.minimize());
            traced_ms.push(ms(tracer.end(refresh)));
            // The SCC pass minimize runs internally, timed as its own call.
            tracer.span("graph.scc", || black_box(tarjan_scc(dynamic.graph())));
            layers.add(&tracer.finish_op(mark));
        } else {
            let start = Instant::now();
            dynamic.apply(&batch);
            let applied = start.elapsed();
            dynamic.minimize();
            let total = start.elapsed();
            apply_ms.push(ms(applied));
            refresh_ms.push(ms(total));
        }
        i += 1;
        if i == EXACT_PREFIX {
            prefix_end = Some((exact(dynamic.totals()), dynamic.cover().clone()));
        }
        if i % AUDIT_EVERY == 0 {
            report.attempted += 1;
            if !dynamic.is_valid() {
                report.fail(format!("cover invalid after refresh {i}"));
            }
        }
    }

    // Final audit: valid and minimal.
    report.attempted += 1;
    let audit = verify_cover(&dynamic.materialize(), dynamic.cover(), &constraint);
    if !audit.is_valid_and_minimal() {
        report.fail(format!(
            "final cover: valid {} minimal {} ({} redundant)",
            audit.is_valid,
            audit.is_minimal,
            audit.redundant.len()
        ));
    }
    // Determinism: the replica replays the exact prefix and must agree.
    let (prefix, prefix_cover) = prefix_end.expect("the prefix always runs");
    report.attempted += 1;
    for batch in &prefix_batches {
        replica.apply(batch);
        replica.minimize();
    }
    if exact(replica.totals()) != prefix || *replica.cover() != prefix_cover {
        report.fail(format!(
            "replaying the first {EXACT_PREFIX} refreshes gave other counts: {:?} vs {prefix:?}",
            exact(replica.totals())
        ));
    }
    let refreshes = i;
    let compactions = dynamic.totals().compactions;
    drop((replica, dynamic));
    for _ in 0..SETUPS_AFTER {
        drop(set_up(&mut report, &mut tracer));
    }
    setups.report(&mut report);

    report.set_percentile("latency_p50_ms", &refresh_ms, 50);
    report.set_percentile("latency_tail_ms", &refresh_ms, TAIL);
    // `apply` returns with a valid cover that reflects the batch; the rest of
    // a refresh only restores minimality.
    report.set_percentile("update_visible_p50_ms", &apply_ms, 50);
    report.set("cover_vertices", prefix_cover.len() as f64, 1);
    common::report_peak_rss(&mut report);

    if cfg.trace {
        let n = traced_ms.len();
        let layer = |name: &str| median(layers.get(name)).unwrap_or_default();
        report.set("graph.scc_ms", layer("graph.scc"), n);
        report.set("graph.compactions", compactions as f64, refreshes);
        report.set(
            "cycle.edge_queries",
            prefix.edge_queries as f64,
            EXACT_PREFIX,
        );
        report.set("dynamic.apply_ms", layer("dynamic.apply"), n);
        report.set("dynamic.minimize_ms", layer("dynamic.minimize"), n);
        let (pruned, checked) = (prefix.pruned, prefix.minimize_checked);
        report.set("dynamic.minimize_checked", checked as f64, EXACT_PREFIX);
        report.set("dynamic.pruned", pruned as f64, EXACT_PREFIX);
        report.set(
            "dynamic.minimize_useful_ratio",
            ratio(pruned, checked),
            EXACT_PREFIX,
        );
        let (_, seed_counts) = setups.seed();
        common::report_solve_layers(&mut report, seed_counts, &setups.solve_ms, &split);
        common::report_overhead(&mut report, &refresh_ms, &traced_ms);
        common::write_trace(&mut report, NAME, cfg.seed, &[("main", &tracer)]);
    }
    report.note(format!(
        "{refreshes} refreshes of {BATCH} updates; latency_tail_ms is p{TAIL}; exact counts \
         over the first {EXACT_PREFIX}: {prefix:?}; seed cover {}",
        setups.seed().0.len()
    ));
    report
}
