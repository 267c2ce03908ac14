//! The resident engine: one writer thread draining an update queue into a
//! [`DynamicCover`] and publishing [`CoverSnapshot`]s.
//!
//! Update flow:
//!
//! 1. Producers (connection handlers, the load generator, in-process callers)
//!    enqueue [`EdgeOp`]s through a bounded channel. A full queue blocks the
//!    producer — that is the backpressure contract: writers slow down, readers
//!    never do.
//! 2. The writer thread blocks for one operation, then drains whatever else
//!    is already queued, up to [`EngineConfig::max_batch`], into an
//!    [`EdgeBatch`] and [`EdgeBatch::coalesce`]s it, so a flapping edge costs
//!    one operation instead of one cycle repair per flap. It never waits for
//!    more operations to arrive (group commit): an idle writer publishes a
//!    write as soon as it can apply it, and under load the operations that
//!    queue while one batch is applied form the next.
//! 3. The batch goes through [`DynamicCover::apply`] — the cover is valid
//!    after every operation — and, when the batch left the cover dirty, the
//!    writer runs [`DynamicCover::minimize`] to shed redundant breakers, so
//!    the cover is minimal again.
//! 4. The writer captures [`DynamicCover::state`] and publishes it as the next
//!    epoch. Readers pick it up on their next [`SnapshotCell::load`]. The
//!    capture shares the graph's copy-on-write overlay chunks, so a publish
//!    costs one pointer copy per 64 vertices, and every published snapshot —
//!    the seed epoch 0 included — holds a valid and minimal cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb_dynamic::{DynamicCover, EdgeBatch, EdgeOp};
use tdb_graph::VertexId;
use tdb_obs::{Counter, Gauge, Histogram, Registry};

use crate::health::{HealthConfig, HealthMonitor};
use crate::snapshot::{CoverSnapshot, SnapshotCell};

/// How often the idle writer loop wakes to heartbeat into the
/// [`HealthMonitor`] (and to notice an injected nap). Well under the default
/// [`HealthConfig::stall_after`], so an idle engine never looks stalled.
const HEARTBEAT_TICK: Duration = Duration::from_millis(25);

/// Tuning knobs of the [`CoverEngine`] writer loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum operations per applied batch. A batch holds what queued
    /// while the previous one was applied, so this caps how stale the
    /// published epoch can get while a backlog drains.
    pub max_batch: usize,
    /// Capacity of the update queue. Enqueueing into a full queue blocks the
    /// producer (backpressure); the depth is visible as
    /// [`EngineStats::queue_depth`].
    pub queue_capacity: usize,
    /// Watchdog thresholds (`HEALTH?` / `GET /healthz` classification).
    pub health: HealthConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 256,
            queue_capacity: 4096,
            health: HealthConfig::default(),
        }
    }
}

/// Live counters of a running engine, shared between the writer thread, the
/// transport layer, and `STATS` queries. The counters are registered in the
/// engine's [`Registry`] (names prefixed `tdb_serve_`), so the same cells
/// answer `STATS`, `METRICS`, and in-process reads — approximate
/// point-in-time values are fine for monitoring.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Operations accepted into the queue.
    pub enqueued: Counter,
    /// Operations consumed by the writer (before coalescing).
    pub applied: Counter,
    /// Operations cancelled by batch coalescing.
    pub coalesced: Counter,
    /// Batches applied.
    pub batches: Counter,
    /// Graph-changing updates (inserts + removes) applied.
    pub updates: Counter,
    /// Breakers added by insert repairs.
    pub breakers_added: Counter,
    /// Cover vertices shed by minimization.
    pub pruned: Counter,
    /// Minimize passes run: one at start, then one per batch that left the
    /// cover dirty.
    pub minimizes: Counter,
    /// Current queue depth (approximate).
    pub queue_depth: Gauge,
}

impl EngineStats {
    fn register(registry: &Registry) -> Self {
        EngineStats {
            enqueued: registry.counter("tdb_serve_ops_enqueued_total"),
            applied: registry.counter("tdb_serve_ops_applied_total"),
            coalesced: registry.counter("tdb_serve_ops_coalesced_total"),
            batches: registry.counter("tdb_serve_batches_total"),
            updates: registry.counter("tdb_serve_updates_total"),
            breakers_added: registry.counter("tdb_serve_breakers_added_total"),
            pruned: registry.counter("tdb_serve_pruned_total"),
            minimizes: registry.counter("tdb_serve_minimizes_total"),
            queue_depth: registry.gauge("tdb_serve_queue_depth"),
        }
    }
}

impl Default for EngineStats {
    /// Stand-alone stats (registered in a private throwaway registry) — for
    /// tests and in-process embedding without a server.
    fn default() -> Self {
        EngineStats::register(&Registry::new())
    }
}

/// A clonable producer handle into the engine's update queue.
#[derive(Debug, Clone)]
pub struct UpdateQueue {
    tx: SyncSender<Msg>,
    stats: Arc<EngineStats>,
}

impl UpdateQueue {
    /// Enqueue one edge operation, blocking while the queue is full
    /// (backpressure). Returns `false` if the engine has shut down.
    pub fn send(&self, op: EdgeOp) -> bool {
        self.stats.queue_depth.inc();
        if self.tx.send(Msg::Op(op, Instant::now())).is_ok() {
            self.stats.enqueued.inc();
            true
        } else {
            self.stats.queue_depth.dec();
            false
        }
    }

    /// Enqueue an insertion (see [`UpdateQueue::send`]).
    pub fn insert(&self, u: VertexId, v: VertexId) -> bool {
        self.send(EdgeOp::Insert(u, v))
    }

    /// Enqueue a removal (see [`UpdateQueue::send`]).
    pub fn remove(&self, u: VertexId, v: VertexId) -> bool {
        self.send(EdgeOp::Remove(u, v))
    }

    /// Non-blocking variant of [`UpdateQueue::send`]: returns `false` instead
    /// of blocking when the queue is full or the engine is gone.
    pub fn try_send(&self, op: EdgeOp) -> bool {
        self.stats.queue_depth.inc();
        match self.tx.try_send(Msg::Op(op, Instant::now())) {
            Ok(()) => {
                self.stats.enqueued.inc();
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.queue_depth.dec();
                false
            }
        }
    }
}

enum Msg {
    /// An edge operation stamped with its enqueue time, so the writer can
    /// report enqueue→publish epoch latency.
    Op(EdgeOp, Instant),
    Shutdown,
}

/// A resident cover engine: the writer thread plus the handles the transport
/// layer needs (queue in, snapshots out, stats alongside).
#[derive(Debug)]
pub struct CoverEngine {
    queue: UpdateQueue,
    snapshots: Arc<SnapshotCell>,
    stats: Arc<EngineStats>,
    registry: Registry,
    health: Arc<HealthMonitor>,
    nap_ns: Arc<AtomicU64>,
    writer: Option<JoinHandle<DynamicCover>>,
    shutdown_tx: SyncSender<Msg>,
}

impl CoverEngine {
    /// Start the engine over a seeded dynamic cover, publishing the seed state
    /// as epoch 0 before any update is accepted. The seed cover is minimized
    /// first: a cover wrapped with `DynamicCover::from_cover` can be
    /// oversized, and every published snapshot is minimal.
    pub fn start(mut cover: DynamicCover, config: EngineConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        let registry = Registry::new();
        let stats = Arc::new(EngineStats::register(&registry));
        let epoch_latency = registry.histogram("tdb_serve_epoch_publish_seconds");
        stats.pruned.add(cover.minimize() as u64);
        stats.minimizes.inc();
        let snapshots = Arc::new(SnapshotCell::new(CoverSnapshot::new(0, cover.state())));
        let health = Arc::new(HealthMonitor::new(
            config.health,
            config.queue_capacity,
            stats.queue_depth.clone(),
        ));
        let nap_ns = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_capacity);
        let queue = UpdateQueue {
            tx: tx.clone(),
            stats: Arc::clone(&stats),
        };
        let writer = {
            let snapshots = Arc::clone(&snapshots);
            let stats = Arc::clone(&stats);
            let health = Arc::clone(&health);
            let nap_ns = Arc::clone(&nap_ns);
            std::thread::Builder::new()
                .name("tdb-serve-writer".into())
                .spawn(move || {
                    writer_loop(
                        cover,
                        config,
                        rx,
                        snapshots,
                        stats,
                        epoch_latency,
                        health,
                        nap_ns,
                    )
                })
                .expect("spawning the writer thread cannot fail")
        };
        CoverEngine {
            queue,
            snapshots,
            stats,
            registry,
            health,
            nap_ns,
            writer: Some(writer),
            shutdown_tx: tx,
        }
    }

    /// The producer handle (clonable, one per connection).
    pub fn queue(&self) -> UpdateQueue {
        self.queue.clone()
    }

    /// The snapshot publication cell (share with readers).
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshots)
    }

    /// Live engine counters.
    pub fn stats(&self) -> Arc<EngineStats> {
        Arc::clone(&self.stats)
    }

    /// The engine's metric registry: the [`EngineStats`] counters plus the
    /// enqueue→publish latency histogram (`tdb_serve_epoch_publish_seconds`).
    /// The transport layer registers its per-verb request histograms here,
    /// and the `METRICS` verb renders it.
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// The watchdog monitor the writer loop heartbeats into; evaluate it for
    /// `HEALTH?` / `GET /healthz` answers.
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.health)
    }

    /// Test/chaos hook: make the writer sleep this long at the top of every
    /// loop iteration *without* heartbeating, simulating a wedged writer.
    /// `Duration::ZERO` clears the injection.
    pub fn inject_writer_sleep(&self, nap: Duration) {
        self.nap_ns.store(nap.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Graceful shutdown: the writer finishes operations already in the queue
    /// ahead of the shutdown marker, publishes a final epoch, and returns the
    /// engine state for inspection or persistence.
    pub fn shutdown(mut self) -> DynamicCover {
        let _ = self.shutdown_tx.send(Msg::Shutdown);
        let writer = self.writer.take().expect("shutdown runs once");
        writer.join().expect("writer thread panicked")
    }
}

impl Drop for CoverEngine {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.shutdown_tx.send(Msg::Shutdown);
            let _ = writer.join();
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal: called from exactly one site
fn writer_loop(
    mut cover: DynamicCover,
    config: EngineConfig,
    rx: Receiver<Msg>,
    snapshots: Arc<SnapshotCell>,
    stats: Arc<EngineStats>,
    epoch_latency: Histogram,
    health: Arc<HealthMonitor>,
    nap_ns: Arc<AtomicU64>,
) -> DynamicCover {
    let mut batch = EdgeBatch::new();
    let mut epoch = snapshots.epoch();
    let mut shutting_down = false;
    health.beat();
    health.published();
    'serve: loop {
        // Injected nap (test/chaos hook): sleep *before* the beat, so the
        // heartbeat ages while the writer is wedged.
        let nap = nap_ns.load(Ordering::Relaxed);
        if nap > 0 {
            std::thread::sleep(Duration::from_nanos(nap));
        }
        health.beat();
        // Wait for the batch's first operation, waking every tick to
        // heartbeat while idle. Channel order is FIFO, so the first op is
        // also the oldest — its enqueue time bounds the enqueue→publish
        // latency of everything in the batch.
        let oldest_enqueued;
        match rx.recv_timeout(HEARTBEAT_TICK) {
            Ok(Msg::Op(op, enqueued)) => {
                stats.queue_depth.dec();
                oldest_enqueued = enqueued;
                batch.push(op);
            }
            Err(RecvTimeoutError::Timeout) => continue 'serve,
            Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break 'serve,
        }
        // Take what is already queued, up to max_batch ops, without waiting
        // for more.
        while batch.len() < config.max_batch {
            match rx.try_recv() {
                Ok(Msg::Op(op, _enqueued)) => {
                    stats.queue_depth.dec();
                    batch.push(op);
                }
                Ok(Msg::Shutdown) | Err(TryRecvError::Disconnected) => {
                    shutting_down = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
        }

        let batch_span = tdb_obs::trace::span("serve/batch");
        let consumed = batch.len() as u64;
        let cancelled = batch.coalesce() as u64;
        let metrics = cover.apply(&batch);
        batch.clear();
        // A clean cover is still minimal; a dirty one is minimized before it
        // is published.
        if cover.is_dirty() {
            let pruned = cover.minimize();
            stats.pruned.add(pruned as u64);
            stats.minimizes.inc();
            tdb_obs::event!(
                tdb_obs::Level::Debug,
                "serve/minimize",
                pruned = pruned,
                epoch = epoch + 1
            );
        }

        epoch += 1;
        snapshots.publish(CoverSnapshot::new(epoch, cover.state()));
        health.published();
        drop(batch_span);
        epoch_latency.record(oldest_enqueued.elapsed());
        stats.applied.add(consumed);
        stats.coalesced.add(cancelled);
        stats.batches.inc();
        stats.updates.add(metrics.updates());
        stats.breakers_added.add(metrics.breakers_added);
        if shutting_down {
            break 'serve;
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::{Algorithm, Solver};
    use tdb_cycle::HopConstraint;
    use tdb_dynamic::SolveDynamic;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::GraphView;

    fn engine_over(edges: &[(VertexId, VertexId)], k: usize, config: EngineConfig) -> CoverEngine {
        let d = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(graph_from_edges(edges), &HopConstraint::new(k))
            .unwrap();
        CoverEngine::start(d, config)
    }

    fn wait_for_epoch(snapshots: &SnapshotCell, at_least: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let e = snapshots.epoch();
            if e >= at_least {
                return e;
            }
            assert!(
                Instant::now() < deadline,
                "no epoch >= {at_least} published"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Run `enqueue` while the writer naps, so that everything it queues is
    /// waiting when the writer next looks: set the nap, sleep past two
    /// heartbeat ticks (the writer finishes its current idle tick, then
    /// naps), enqueue, and clear the nap. The writer wakes on its own once
    /// the nap it started has run out.
    fn while_writer_naps(engine: &CoverEngine, enqueue: impl FnOnce()) {
        engine.inject_writer_sleep(Duration::from_millis(500));
        std::thread::sleep(2 * HEARTBEAT_TICK + Duration::from_millis(10));
        enqueue();
        engine.inject_writer_sleep(Duration::ZERO);
    }

    #[test]
    fn seed_snapshot_is_published_before_any_update() {
        let engine = engine_over(&[(0, 1), (1, 2), (2, 0)], 4, EngineConfig::default());
        let snap = engine.snapshots().load();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.cover().len(), 1);
        assert!(snap.audit_valid());
        engine.shutdown();
    }

    #[test]
    fn updates_flow_through_to_new_epochs() {
        let engine = engine_over(&[(0, 1), (1, 2)], 4, EngineConfig::default());
        let snapshots = engine.snapshots();
        assert!(engine.queue().insert(2, 0)); // closes the triangle
        wait_for_epoch(&snapshots, 1);
        let snap = snapshots.load();
        assert!(snap.graph().contains_edge(2, 0));
        assert_eq!(snap.cover().len(), 1, "insert repair must have run");
        assert!(snap.audit_valid());
        let cover = engine.shutdown();
        assert!(cover.is_valid());
    }

    #[test]
    fn every_published_snapshot_is_valid_and_minimal() {
        use tdb_core::verify::verify_cover;
        use tdb_core::CycleCover;
        use tdb_graph::gen::{erdos_renyi_gnm, Xoshiro256};

        // Every vertex in the cover: valid, and as oversized as it gets.
        let n = 40;
        let graph = erdos_renyi_gnm(n, 120, 11);
        let everything = CycleCover::from_vertices((0..n as VertexId).collect());
        let cover = DynamicCover::from_cover(graph, everything, HopConstraint::new(4));
        let engine = CoverEngine::start(cover, EngineConfig::default());
        let snapshots = engine.snapshots();
        let audit = |epoch: u64| {
            let snap = snapshots.load();
            assert_eq!(snap.epoch(), epoch);
            let report = verify_cover(&snap.graph().materialize(), snap.cover(), snap.constraint());
            assert!(
                report.is_valid_and_minimal(),
                "epoch {epoch}: valid {} minimal {}",
                report.is_valid,
                report.is_minimal
            );
        };
        audit(0);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for epoch in 1..=60 {
            let u = rng.next_index(n) as VertexId;
            let v = rng.next_index(n) as VertexId;
            let op = if rng.next_index(3) == 0 {
                EdgeOp::Remove(u, v)
            } else {
                EdgeOp::Insert(u, v)
            };
            assert!(engine.queue().send(op));
            wait_for_epoch(&snapshots, epoch);
            audit(epoch);
        }
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_updates() {
        let engine = engine_over(
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
            6,
            EngineConfig::default(),
        );
        let queue = engine.queue();
        assert!(queue.insert(4, 0));
        assert!(queue.remove(0, 1));
        let cover = engine.shutdown();
        assert!(cover.graph().contains_edge(4, 0));
        assert!(!cover.graph().contains_edge(0, 1));
        assert!(cover.is_valid());
        assert!(!cover.is_dirty(), "every batch ends minimized");
    }

    #[test]
    fn stats_count_applied_and_coalesced_ops() {
        let engine = engine_over(
            &[(0, 1), (1, 2)],
            4,
            EngineConfig {
                max_batch: 64,
                ..Default::default()
            },
        );
        let queue = engine.queue();
        let stats = engine.stats();
        let batches_before = stats.batches.get();
        // A flap that nets out to nothing new plus one real insert, queued
        // while the writer naps so that one batch holds all three.
        while_writer_naps(&engine, || {
            assert!(queue.insert(5, 6));
            assert!(queue.remove(5, 6));
            assert!(queue.insert(5, 6));
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.applied.get() < 3 || stats.batches.get() == batches_before {
            assert!(Instant::now() < deadline, "ops not applied");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(stats.coalesced.get() >= 1);
        assert_eq!(stats.batches.get(), batches_before + 1, "one batch");
        assert_eq!(stats.enqueued.get(), 3);
        // The engine registry carries the same counters plus batch latency.
        let exposition = engine.registry().render_prometheus();
        assert!(exposition.contains("tdb_serve_ops_enqueued_total 3"));
        assert!(exposition.contains("# TYPE tdb_serve_epoch_publish_seconds histogram"));
        engine.shutdown();
    }

    #[test]
    fn queued_ops_drain_into_batches_of_at_most_max_batch() {
        let engine = engine_over(
            &[(0, 1), (1, 2)],
            4,
            EngineConfig {
                max_batch: 4,
                ..Default::default()
            },
        );
        let queue = engine.queue();
        let stats = engine.stats();
        let snapshots = engine.snapshots();
        while_writer_naps(&engine, || {
            for i in 0..10 {
                assert!(queue.insert(10 + i, 30 + i));
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.applied.get() < 10 {
            assert!(Instant::now() < deadline, "ops not applied");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Joining the writer orders its last counter writes before the
        // reads below.
        engine.shutdown();
        assert_eq!(stats.applied.get(), 10);
        assert_eq!(stats.batches.get(), 3, "batches of 4, 4 and 2");
        assert_eq!(snapshots.epoch(), 3);
    }

    #[test]
    fn try_send_reports_backpressure_instead_of_blocking() {
        // queue_capacity 1 and a napping writer that can't drain it.
        let engine = engine_over(
            &[(0, 1)],
            4,
            EngineConfig {
                queue_capacity: 1,
                max_batch: 1024,
                ..Default::default()
            },
        );
        let queue = engine.queue();
        let mut refused = false;
        while_writer_naps(&engine, || {
            // Fill until try_send refuses; bounded capacity guarantees it
            // happens within capacity + in-flight.
            for i in 0..64u32 {
                if !queue.try_send(EdgeOp::Insert(i + 10, i + 11)) {
                    refused = true;
                    break;
                }
            }
        });
        assert!(refused, "a capacity-1 queue must exert backpressure");
        engine.shutdown();
    }
}
