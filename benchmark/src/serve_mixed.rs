//! `serve-mixed`: a `CoverServer` over G(50,000, 200,000) at k = 4, driven
//! over TCP by two generator threads:
//!
//! * one closed-loop reader connection sending 80% `COVER?` and 20%
//!   `BREAKERS?` on seeded random vertices, which between its requests also
//!   checks when acknowledged writes become visible in the published
//!   snapshot;
//! * one writer connection pacing `INSERT` / `DELETE` at 50 writes/s.
//!
//! Every write touches an edge no earlier write touched (deletions take
//! original edges, insertions fresh pairs), so "the snapshot reflects write
//! w" is an exact test on the snapshot graph.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdb_cycle::HopConstraint;
use tdb_graph::gen::Xoshiro256;
use tdb_graph::scc::tarjan_scc;
use tdb_graph::{Graph, GraphView, VertexId};
use tdb_serve::snapshot::{BreakerScratch, CoverSnapshot, SnapshotCell};
use tdb_serve::{CoverServer, ServeClient, ServeConfig};

use crate::common::{
    self, RunConfig, ScanSplit, SetupTimes, ER_K, ER_VERTICES, SETUPS_AFTER, SETUPS_BEFORE,
};
use crate::replay::{ratio, Replayer};
use crate::report::Report;
use crate::stats::{median, ms};
use crate::trace::{LayerSamples, Tracer};

pub const NAME: &str = "serve-mixed";
/// Share of reads that are `BREAKERS?`, per mille (the rest are `COVER?`).
const BREAKERS_PERMILLE: u64 = 200;
/// The writer's schedule: one write every 20 ms (50 writes/s).
const WRITE_INTERVAL: Duration = Duration::from_millis(20);
/// How long after the run an acknowledged write may take to become visible
/// before it counts as failed.
const GRACE: Duration = Duration::from_secs(2);
/// Snapshots sampled during the run and audited after it.
const SAMPLED_SNAPSHOTS: usize = 5;
/// `DynamicCover::state()` calls timed for `serve.publish_ms`.
const PUBLISH_CALLS: usize = 21;
/// `tarjan_scc` calls timed for `graph.scc_ms` in the traced run.
const SCC_CALLS: usize = 5;
/// Reads per second the latency logs are sized for (a closed-loop reader on
/// a 2-vCPU host answers ~25k).
const EXPECTED_READS_PER_SEC: f64 = 60_000.0;
/// The tail percentile this workload reports: it falls in the `BREAKERS?`
/// mode. Above ~p95 a closed-loop read measures host preemption.
const TAIL: u32 = 90;

/// An acknowledged write, waiting to show up in a published snapshot.
struct Pending {
    u: VertexId,
    v: VertexId,
    present: bool,
    acked: Instant,
}

/// What the two generator threads share.
struct Shared<'a> {
    addr: SocketAddr,
    cell: &'a SnapshotCell,
    pending: Mutex<VecDeque<Pending>>,
    writer_done: AtomicBool,
    deadline: Instant,
    origin: Instant,
    seed: u64,
    trace: bool,
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
}

struct ReaderOut {
    outcome: Outcome,
    layers: LayerSamples,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    sampled: Vec<Arc<CoverSnapshot>>,
    tracer: Tracer,
}

struct WriterOut {
    outcome: Outcome,
    late_ms: Vec<f64>,
    tracer: Tracer,
}

fn random_pair(rng: &mut Xoshiro256) -> (VertexId, VertexId) {
    let n = ER_VERTICES as u64;
    let u = rng.next_bounded(n) as VertexId;
    let mut v = rng.next_bounded(n - 1) as VertexId;
    if v >= u {
        v += 1; // no self-loops
    }
    (u, v)
}

fn reader(sh: &Shared) -> ReaderOut {
    // Reserve the latency logs up front: a log doubling mid-run would make
    // the peak resident memory depend on where the read count falls.
    let expected_reads = (sh
        .deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64()
        * EXPECTED_READS_PER_SEC) as usize;
    let mut out = ReaderOut {
        outcome: Outcome::default(),
        layers: LayerSamples::default(),
        untraced_ms: Vec::with_capacity(expected_reads),
        traced_ms: Vec::with_capacity(if sh.trace { expected_reads / 2 } else { 0 }),
        visible_ms: Vec::new(),
        sampled: Vec::new(),
        tracer: Tracer::new(sh.origin),
    };
    let mut client = match ServeClient::connect(sh.addr) {
        Ok(c) => c,
        Err(e) => {
            out.outcome.failures.push(format!("reader connect: {e}"));
            return out;
        }
    };
    let mut rng = Xoshiro256::seed_from_u64(sh.seed ^ 0xBEEF);
    let mut scratch = BreakerScratch::default();
    let sample_every =
        sh.deadline.saturating_duration_since(Instant::now()) / SAMPLED_SNAPSHOTS as u32;
    let mut next_sample = Instant::now() + sample_every / 2;
    let mut last_epoch = 0u64;
    let tracer = &mut out.tracer;
    for i in 0u64.. {
        let now = Instant::now();
        if now >= sh.deadline {
            let drained = sh.writer_done.load(Ordering::Acquire)
                && sh
                    .pending
                    .lock()
                    .expect("pending queue poisoned")
                    .is_empty();
            if drained || now >= sh.deadline + GRACE {
                break;
            }
        }
        let traced = sh.trace && i % 2 == 1;
        let breakers = rng.next_bounded(1000) < BREAKERS_PERMILLE;
        let (u, v) = random_pair(&mut rng);
        out.outcome.attempted += 1;
        let mark = tracer.mark();
        let start = Instant::now();
        let span = traced.then(|| {
            tracer.begin(if breakers {
                "serve.breakers"
            } else {
                "serve.cover"
            })
        });
        let answer = if breakers {
            client.breakers(u, v).map(|a| (a.epoch, Some(a.breakers)))
        } else {
            client.cover(v).map(|a| (a.epoch, None))
        };
        let elapsed = match span {
            Some(s) => tracer.end(s),
            None => start.elapsed(),
        };
        let (epoch, wire) = match answer {
            Ok(a) => a,
            Err(e) => {
                out.outcome.failures.push(format!("read {i}: {e}"));
                break;
            }
        };
        if epoch < last_epoch {
            out.outcome.failures.push(format!(
                "read {i}: epoch went back from {last_epoch} to {epoch}"
            ));
        }
        last_epoch = epoch;
        if traced {
            out.traced_ms.push(ms(elapsed));
            if let Some(wire) = wire {
                // The same query in process, on the snapshot the reader sees.
                let snap = sh.cell.load();
                let local = tracer.span("serve.snapshot_breakers", || {
                    snap.breakers_through(&mut scratch, u, v)
                });
                if snap.epoch() == epoch && local != wire {
                    out.outcome.failures.push(format!(
                        "BREAKERS? {u} {v} at epoch {epoch}: wire and snapshot differ"
                    ));
                }
            }
            out.layers.add(&tracer.finish_op(mark));
        } else {
            out.untraced_ms.push(ms(elapsed));
        }

        // Visibility of acknowledged writes, checked between requests.
        let mut queue = sh.pending.lock().expect("pending queue poisoned");
        let seen = Instant::now();
        let snap = sh.cell.load();
        while let Some(p) = queue.front() {
            if snap.graph().contains_edge(p.u, p.v) != p.present {
                break;
            }
            out.visible_ms
                .push(ms(seen.saturating_duration_since(p.acked)));
            queue.pop_front();
        }
        drop(queue);
        if seen >= next_sample && out.sampled.len() < SAMPLED_SNAPSHOTS {
            out.sampled.push(snap);
            next_sample += sample_every;
        }
    }
    let invisible = sh.pending.lock().expect("pending queue poisoned").len();
    if invisible > 0 {
        out.outcome.failures.push(format!(
            "{invisible} acknowledged writes never became visible"
        ));
    }
    out
}

fn writer(
    sh: &Shared,
    mut deletable: Vec<(VertexId, VertexId)>,
    touched: &mut HashSet<(VertexId, VertexId)>,
) -> WriterOut {
    let mut out = WriterOut {
        outcome: Outcome::default(),
        late_ms: Vec::new(),
        tracer: Tracer::new(sh.origin),
    };
    let mut rng = Xoshiro256::seed_from_u64(sh.seed ^ 0xDEAD);
    match ServeClient::connect(sh.addr) {
        Err(e) => out.outcome.failures.push(format!("writer connect: {e}")),
        Ok(mut client) => {
            let start = Instant::now();
            for i in 0u32.. {
                let due = start + WRITE_INTERVAL * i;
                if due >= sh.deadline {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().saturating_duration_since(due);
                let (u, v, present) = if i % 2 == 0 {
                    let (u, v) = deletable.pop().expect("more original edges than writes");
                    (u, v, false)
                } else {
                    let (u, v) = loop {
                        let pair = random_pair(&mut rng);
                        if touched.insert(pair) {
                            break pair;
                        }
                    };
                    (u, v, true)
                };
                out.outcome.attempted += 1;
                let mut send = || {
                    if present {
                        client.insert(u, v)
                    } else {
                        client.delete(u, v)
                    }
                };
                let acked = if sh.trace {
                    let mark = out.tracer.mark();
                    let acked = out.tracer.span("serve.write", send);
                    out.tracer.finish_op(mark);
                    acked
                } else {
                    send()
                };
                match acked {
                    Ok(()) => {
                        let acked = Instant::now();
                        sh.pending
                            .lock()
                            .expect("pending queue poisoned")
                            .push_back(Pending {
                                u,
                                v,
                                present,
                                acked,
                            });
                        out.late_ms.push(ms(late));
                    }
                    Err(e) => {
                        out.outcome.failures.push(format!("write {i}: {e}"));
                        break;
                    }
                }
            }
        }
    }
    sh.writer_done.store(true, Ordering::Release);
    out
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(NAME, cfg.trace);
    let constraint = HopConstraint::new(ER_K);
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut replayer = Replayer::new();
    let mut split = ScanSplit::default();

    // Set-up: generation + seed solve + server start. Of the servers started
    // before the run, all but the last are shut down again.
    let mut setups = SetupTimes::default();
    let mut set_up = |report: &mut Report, tracer: &mut Tracer| {
        let start = Instant::now();
        let (engine, seed) = common::seed_setup(&constraint);
        let server = CoverServer::start(engine, ServeConfig::default());
        let elapsed = start.elapsed();
        let server = match server {
            Ok(server) => server,
            Err(e) => {
                report.fail(format!("server start: {e}"));
                return None;
            }
        };
        setups.record(report, elapsed, &seed);
        if cfg.trace {
            let snap = server.snapshots().load();
            let g = snap.graph().base();
            split.replay(
                &mut replayer,
                tracer,
                g,
                &constraint,
                &seed.cover,
                &seed.counts,
            );
        }
        Some(server)
    };
    let mut server = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(previous) = server.take() {
            drop(CoverServer::shutdown(previous));
        }
        server = set_up(&mut report, &mut tracer);
    }
    let Some(server) = server else {
        return report;
    };

    // The writer's inputs: original edges to delete (shuffled), and the set
    // of every pair touched so far, which insertions must avoid.
    let cell = server.snapshots();
    let (mut deletable, mut touched) = {
        let seed_snapshot = cell.load();
        let base = seed_snapshot.graph().base();
        let edges: Vec<(VertexId, VertexId)> = base.edges().map(|e| (e.source, e.target)).collect();
        let touched: HashSet<_> = edges.iter().copied().collect();
        (edges, touched)
    };
    Xoshiro256::seed_from_u64(cfg.seed ^ 0x5417).shuffle(&mut deletable);

    let shared = Shared {
        addr: server.local_addr(),
        cell: &cell,
        pending: Mutex::new(VecDeque::new()),
        writer_done: AtomicBool::new(false),
        deadline: Instant::now() + cfg.seconds,
        origin,
        seed: cfg.seed,
        trace: cfg.trace,
    };
    let (reader_out, writer_out) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(&shared));
        let w = s.spawn(|| writer(&shared, deletable, &mut touched));
        (r.join(), w.join())
    });
    let (reader_out, writer_out) = match (reader_out, writer_out) {
        (Ok(r), Ok(w)) => (r, w),
        _ => {
            report.fail("a generator thread panicked");
            drop(server.shutdown());
            return report;
        }
    };
    let stats = server.engine_stats();
    let (batches, minimizes) = (stats.batches.get(), stats.minimizes.get());
    let engine = server.shutdown();

    for outcome in [reader_out.outcome, writer_out.outcome] {
        report.attempted += outcome.attempted;
        for why in outcome.failures {
            report.fail(why);
        }
    }
    let layers = reader_out.layers;

    // Audits: the sampled snapshots and the final state.
    for snap in &reader_out.sampled {
        report.attempted += 1;
        if !snap.audit_valid() {
            report.fail(format!(
                "snapshot at epoch {} failed its audit",
                snap.epoch()
            ));
        }
    }
    let last = cell.load();
    report.attempted += 1;
    if !last.audit_valid() || last.cover() != engine.cover() {
        report.fail("the final snapshot failed its audit or differs from the engine");
    }
    drop((last, cell, reader_out.sampled));

    report.set_percentile("latency_p50_ms", &reader_out.untraced_ms, 50);
    report.set_percentile("latency_tail_ms", &reader_out.untraced_ms, TAIL);
    report.set_percentile("update_visible_p50_ms", &reader_out.visible_ms, 50);
    report.set("cover_vertices", engine.cover().len() as f64, 1);
    common::report_peak_rss(&mut report);

    if cfg.trace {
        let totals = *engine.totals();
        let mut publish_ms = Vec::with_capacity(PUBLISH_CALLS);
        for _ in 0..PUBLISH_CALLS {
            let start = Instant::now();
            black_box(engine.state());
            publish_ms.push(ms(start.elapsed()));
        }
        let mut scc = LayerSamples::default();
        for _ in 0..SCC_CALLS {
            let mark = tracer.mark();
            tracer.span("graph.scc", || black_box(tarjan_scc(engine.graph())));
            scc.add(&tracer.finish_op(mark));
        }
        let mut set_median = |metric, samples: &[f64]| {
            report.set(metric, median(samples).unwrap_or_default(), samples.len());
        };
        set_median("graph.scc_ms", scc.get("graph.scc"));
        set_median("serve.cover_p50_ms", layers.get("serve.cover"));
        set_median("serve.breakers_p50_ms", layers.get("serve.breakers"));
        set_median(
            "serve.snapshot_breakers_ms",
            layers.get("serve.snapshot_breakers"),
        );
        set_median("serve.publish_ms", &publish_ms);
        report.set("graph.compactions", totals.compactions as f64, 1);
        report.set("cycle.edge_queries", totals.edge_queries as f64, 1);
        report.set(
            "dynamic.minimize_checked",
            totals.minimize_checked as f64,
            1,
        );
        report.set("dynamic.pruned", totals.pruned as f64, 1);
        report.set(
            "dynamic.minimize_useful_ratio",
            ratio(totals.pruned, totals.minimize_checked),
            1,
        );
        report.set("serve.batches", batches as f64, 1);
        report.set("serve.minimizes", minimizes as f64, 1);
        report.set_percentile("serve.writer_late_ms", &writer_out.late_ms, 90);
        common::report_overhead(&mut report, &reader_out.untraced_ms, &reader_out.traced_ms);
    }
    drop(engine);

    for _ in 0..SETUPS_AFTER {
        if let Some(server) = set_up(&mut report, &mut tracer) {
            drop(server.shutdown());
        }
    }
    setups.report(&mut report);
    if cfg.trace {
        let (_, seed_counts) = setups.seed();
        common::report_solve_layers(&mut report, seed_counts, &setups.solve_ms, &split);
        common::write_trace(
            &mut report,
            NAME,
            cfg.seed,
            &[
                ("main", &tracer),
                ("reader", &reader_out.tracer),
                ("writer", &writer_out.tracer),
            ],
        );
    }
    let late_max = writer_out.late_ms.iter().copied().fold(0.0, f64::max);
    report.note(format!(
        "writer lateness against its schedule: median {:.3} ms, max {late_max:.3} ms",
        median(&writer_out.late_ms).unwrap_or_default()
    ));
    report.note(format!(
        "{} reads, {} writes acknowledged, {} visible; {batches} batches, {minimizes} minimizes; \
         latency_tail_ms is p{TAIL}",
        reader_out.untraced_ms.len() + reader_out.traced_ms.len(),
        writer_out.late_ms.len(),
        reader_out.visible_ms.len()
    ));
    report
}
