//! TCP front end: thread-per-connection line protocol over a [`CoverEngine`].
//!
//! Readers are served from the epoch-published snapshot cell — a request
//! loads the current `Arc`, answers against that immutable object, and never
//! touches the engine. Updates go through the bounded queue; a connection
//! issuing updates into a full queue blocks (backpressure) without affecting
//! any reader connection.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb_dynamic::DynamicCover;
use tdb_graph::{GraphView, VertexId};
use tdb_obs::{Counter, Histogram, Registry};

use crate::engine::{CoverEngine, EngineConfig, EngineStats, UpdateQueue};
use crate::health::HealthMonitor;
use crate::http::HttpExporter;
use crate::protocol::{
    breakers_response, cover_response, err_response, kv_response, metrics_response, parse_request,
    queued_response, Request, MAX_LINE_BYTES,
};
use crate::snapshot::{BreakerScratch, SnapshotCell};

/// How often blocked accept/read loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Longest argument string kept verbatim in a slow-query record.
const SLOW_ARGS_CAP: usize = 120;

/// Configuration of a [`CoverServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`CoverServer::local_addr`]).
    pub addr: String,
    /// Writer-loop tuning.
    pub engine: EngineConfig,
    /// Bind address of the HTTP exposition listener (`GET /metrics`,
    /// `/healthz`, `/events`); `None` disables it. Port 0 picks a free port
    /// (see [`CoverServer::http_addr`]).
    pub http_addr: Option<String>,
    /// Requests at or above this latency are captured into the flight
    /// recorder as `serve/slow_query` events (verb, args, latency, phase
    /// breakdown); `None` disables the slow-query log.
    pub slow_request_threshold: Option<Duration>,
    /// The largest vertex id an `INSERT` may name; larger ids are refused
    /// with `ERR`. The engine's search scratch and every reader's
    /// `BREAKERS?` scratch are sized to the largest vertex id, at roughly
    /// 40 bytes per vertex in the engine and 16 bytes per reader, so this
    /// bounds the memory one request can make the server allocate. The
    /// default, 2²²−1, allows about 170 MB of engine scratch. A seed graph
    /// with more vertices raises the limit to its own last id.
    pub max_vertex_id: VertexId,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            http_addr: None,
            slow_request_threshold: Some(Duration::from_millis(250)),
            max_vertex_id: (1 << 22) - 1,
        }
    }
}

/// Transport-level counters (engine counters live in [`EngineStats`]).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Read queries answered (`COVER?` + `BREAKERS?` + `SNAPSHOT`).
    pub reads: AtomicU64,
    /// Update operations acknowledged (`INSERT` + `DELETE`).
    pub queued: AtomicU64,
    /// Malformed or failed requests answered with `ERR`.
    pub errors: AtomicU64,
}

/// A running cover service: resident engine + TCP accept loop (+ optionally
/// the HTTP exposition listener).
#[derive(Debug)]
pub struct CoverServer {
    local_addr: SocketAddr,
    engine: Option<CoverEngine>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown: Arc<AtomicBool>,
    snapshots: Arc<SnapshotCell>,
    engine_stats: Arc<EngineStats>,
    server_stats: Arc<ServerStats>,
    health: Arc<HealthMonitor>,
    http: Option<HttpExporter>,
}

impl CoverServer {
    /// Start the engine over `cover` and begin accepting connections.
    pub fn start(cover: DynamicCover, config: ServeConfig) -> std::io::Result<CoverServer> {
        let last_seed_id = cover.graph().vertex_count().saturating_sub(1) as VertexId;
        let max_vertex_id = config.max_vertex_id.max(last_seed_id);
        let engine = CoverEngine::start(cover, config.engine);
        let snapshots = engine.snapshots();
        let engine_stats = engine.stats();
        let registry = engine.registry();
        let health = engine.health();
        tdb_obs::registry::register_process_metrics(
            &registry,
            env!("CARGO_PKG_VERSION"),
            "default",
        );
        let verbs = Arc::new(VerbHistograms::register(&registry));
        let slow_requests = registry.counter("tdb_serve_slow_requests_total");
        let server_stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::<JoinHandle<()>>::new()));

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let http = match &config.http_addr {
            Some(addr) => Some(HttpExporter::start(
                addr,
                registry.clone(),
                Arc::clone(&health),
                Arc::clone(&shutdown),
            )?),
            None => None,
        };

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let snapshots = Arc::clone(&snapshots);
            let queue = engine.queue();
            let engine_stats = Arc::clone(&engine_stats);
            let server_stats = Arc::clone(&server_stats);
            let registry = registry.clone();
            let verbs = Arc::clone(&verbs);
            let health = Arc::clone(&health);
            let request_ids = Arc::new(AtomicU64::new(0));
            let slow_threshold = config.slow_request_threshold;
            std::thread::Builder::new()
                .name("tdb-serve-accept".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                server_stats.connections.fetch_add(1, Ordering::Relaxed);
                                let conn = Connection {
                                    snapshots: Arc::clone(&snapshots),
                                    queue: queue.clone(),
                                    shutdown: Arc::clone(&shutdown),
                                    engine_stats: Arc::clone(&engine_stats),
                                    server_stats: Arc::clone(&server_stats),
                                    registry: registry.clone(),
                                    verbs: Arc::clone(&verbs),
                                    health: Arc::clone(&health),
                                    request_ids: Arc::clone(&request_ids),
                                    slow_threshold,
                                    slow_requests: slow_requests.clone(),
                                    max_vertex_id,
                                };
                                let handle = std::thread::Builder::new()
                                    .name("tdb-serve-conn".into())
                                    .spawn(move || conn.run(stream))
                                    .expect("spawning a connection thread cannot fail");
                                let mut live =
                                    connections.lock().expect("connection registry poisoned");
                                // Join finished handlers (at once, they have
                                // exited), so the registry holds the open
                                // connections, not every one ever accepted.
                                let mut i = 0;
                                while i < live.len() {
                                    if live[i].is_finished() {
                                        let _ = live.swap_remove(i).join();
                                    } else {
                                        i += 1;
                                    }
                                }
                                live.push(handle);
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL);
                            }
                            Err(_) => std::thread::sleep(POLL),
                        }
                    }
                })
                .expect("spawning the accept thread cannot fail")
        };

        Ok(CoverServer {
            local_addr,
            engine: Some(engine),
            accept: Some(accept),
            connections,
            shutdown,
            snapshots,
            engine_stats,
            server_stats,
            health,
            http,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP exposition listener's bound address, when one is configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|h| h.local_addr())
    }

    /// The watchdog monitor (what `HEALTH?` and `GET /healthz` evaluate).
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.health)
    }

    /// The engine's metric registry (serve-layer counters and histograms).
    pub fn registry(&self) -> Registry {
        self.engine.as_ref().expect("server is running").registry()
    }

    /// Test/chaos hook: see [`CoverEngine::inject_writer_sleep`].
    pub fn inject_writer_sleep(&self, nap: Duration) {
        self.engine
            .as_ref()
            .expect("server is running")
            .inject_writer_sleep(nap);
    }

    /// The snapshot cell — in-process consumers (audits, the load generator)
    /// read published snapshots directly from here, exactly like a connection
    /// handler does.
    pub fn snapshots(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshots)
    }

    /// Engine counters.
    pub fn engine_stats(&self) -> Arc<EngineStats> {
        Arc::clone(&self.engine_stats)
    }

    /// Transport counters.
    pub fn server_stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.server_stats)
    }

    /// Whether a shutdown (owner- or client-initiated) is in progress.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Stop the server: no new connections, existing handlers wind down,
    /// queued updates are applied, a final epoch is published. Returns the
    /// engine state.
    pub fn shutdown(mut self) -> DynamicCover {
        self.shutdown.store(true, Ordering::Release);
        self.wind_down()
    }

    /// Block until a client-initiated `SHUTDOWN` stops the server, then wind
    /// down exactly like [`CoverServer::shutdown`].
    pub fn join(mut self) -> DynamicCover {
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(POLL);
        }
        self.wind_down()
    }

    fn wind_down(&mut self) -> DynamicCover {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(http) = self.http.as_mut() {
            http.wind_down();
        }
        let handles: Vec<_> = std::mem::take(
            &mut *self
                .connections
                .lock()
                .expect("connection registry poisoned"),
        );
        for h in handles {
            let _ = h.join();
        }
        let engine = self.engine.take().expect("wind_down runs once");
        engine.shutdown()
    }
}

impl Drop for CoverServer {
    fn drop(&mut self) {
        if self.engine.is_some() {
            self.shutdown.store(true, Ordering::Release);
            self.wind_down();
        }
    }
}

/// Per-request latency histograms, one per protocol verb, registered in the
/// engine's metric registry as `tdb_serve_request_seconds_<verb>`.
struct VerbHistograms {
    cover: Histogram,
    breakers: Histogram,
    explain: Histogram,
    residual: Histogram,
    insert: Histogram,
    delete: Histogram,
    stats: Histogram,
    snapshot: Histogram,
    metrics: Histogram,
    health: Histogram,
    ping: Histogram,
    shutdown: Histogram,
}

impl VerbHistograms {
    fn register(registry: &Registry) -> Self {
        let h = |verb: &str| registry.histogram(&format!("tdb_serve_request_seconds_{verb}"));
        VerbHistograms {
            cover: h("cover"),
            breakers: h("breakers"),
            explain: h("explain"),
            residual: h("residual"),
            insert: h("insert"),
            delete: h("delete"),
            stats: h("stats"),
            snapshot: h("snapshot"),
            metrics: h("metrics"),
            health: h("health"),
            ping: h("ping"),
            shutdown: h("shutdown"),
        }
    }

    fn for_request(&self, request: &Request) -> &Histogram {
        match request {
            Request::Cover(_) => &self.cover,
            Request::Breakers(..) => &self.breakers,
            Request::Explain(_) => &self.explain,
            Request::Residual => &self.residual,
            Request::Insert(..) => &self.insert,
            Request::Delete(..) => &self.delete,
            Request::Stats => &self.stats,
            Request::Snapshot => &self.snapshot,
            Request::Metrics => &self.metrics,
            Request::Health => &self.health,
            Request::Ping => &self.ping,
            Request::Shutdown => &self.shutdown,
        }
    }
}

/// Per-connection state and request dispatch.
struct Connection {
    snapshots: Arc<SnapshotCell>,
    queue: UpdateQueue,
    shutdown: Arc<AtomicBool>,
    engine_stats: Arc<EngineStats>,
    server_stats: Arc<ServerStats>,
    registry: Registry,
    verbs: Arc<VerbHistograms>,
    health: Arc<HealthMonitor>,
    /// Shared across connections: every accepted protocol line gets the next
    /// id, which stamps the spans and events recorded while serving it.
    request_ids: Arc<AtomicU64>,
    slow_threshold: Option<Duration>,
    slow_requests: Counter,
    /// The largest vertex id an `INSERT` may name.
    max_vertex_id: VertexId,
}

impl Connection {
    fn run(self, stream: TcpStream) {
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let mut writer = match stream.try_clone() {
            Ok(s) => BufWriter::new(s),
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut scratch = BreakerScratch::default();
        let mut line = String::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Read at most MAX_LINE_BYTES + 1 bytes of one line, counting the
            // partial line kept from before a read timeout: a line that fills
            // that allowance without its newline is over the cap.
            let allowance = (MAX_LINE_BYTES + 1 - line.len()) as u64;
            match reader.by_ref().take(allowance).read_line(&mut line) {
                Ok(0) => return, // client closed the connection
                Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') => {
                    // The framing is lost: answer, send FIN so the client
                    // reads the answer and then EOF, and close.
                    self.server_stats.errors.fetch_add(1, Ordering::Relaxed);
                    let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                    let _ = writeln!(writer, "{}", err_response(&message));
                    let _ = writer.flush();
                    let _ = writer.get_ref().shutdown(Shutdown::Write);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    // Keep whatever partial line arrived before the timeout;
                    // the next read_line appends the rest.
                    continue;
                }
                Err(_) => return,
            }
            if line.trim().is_empty() {
                line.clear();
                continue; // blank lines are keep-alives, not errors
            }
            // Correlate everything recorded while serving this line — spans
            // in the snapshot readers, flight-recorder events — under one
            // fresh request id, and capture a slow-query record when the
            // request overruns the configured threshold.
            let request_id = self.request_ids.fetch_add(1, Ordering::Relaxed) + 1;
            let scope = tdb_obs::request::begin(request_id);
            let started = Instant::now();
            let (response, stop) = self.respond(&line, &mut scratch);
            let latency = started.elapsed();
            if self.slow_threshold.is_some_and(|t| latency >= t) {
                self.record_slow_query(&line, latency);
            }
            drop(scope);
            line.clear();
            if writeln!(writer, "{response}").is_err() || writer.flush().is_err() {
                return;
            }
            if stop {
                self.shutdown.store(true, Ordering::Release);
                return;
            }
        }
    }

    /// Capture a `serve/slow_query` flight-recorder event for the request
    /// just served: verb, (truncated) args, latency, and the span-phase
    /// breakdown accumulated on this thread. Runs inside the request scope,
    /// so the event carries the request id.
    fn record_slow_query(&self, line: &str, latency: Duration) {
        self.slow_requests.inc();
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().unwrap_or("").to_string();
        let mut args = tokens.collect::<Vec<_>>().join(" ");
        if args.len() > SLOW_ARGS_CAP {
            let mut cut = SLOW_ARGS_CAP;
            while !args.is_char_boundary(cut) {
                cut -= 1;
            }
            args.truncate(cut);
        }
        let mut phases = String::new();
        for p in tdb_obs::request::take_breakdown() {
            if !phases.is_empty() {
                phases.push(';');
            }
            let _ = std::fmt::Write::write_fmt(
                &mut phases,
                format_args!("{}={:.1}us*{}", p.name, p.total_us, p.count),
            );
        }
        tdb_obs::event!(
            tdb_obs::Level::Warn,
            "serve/slow_query",
            verb = verb,
            args = args,
            latency_us = latency.as_micros() as u64,
            epoch = self.snapshots.epoch(),
            phases = phases
        );
    }

    /// Answer one request line; the flag says "this was SHUTDOWN".
    fn respond(&self, line: &str, scratch: &mut BreakerScratch) -> (String, bool) {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.server_stats.errors.fetch_add(1, Ordering::Relaxed);
                return (err_response(&e.0), false);
            }
        };
        let _timer = self.verbs.for_request(&request).start();
        let response = match request {
            Request::Cover(v) => {
                let snap = self.snapshots.load();
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                // The resident engine repairs after every update, so the
                // published cover is never knowingly incomplete; the
                // exhausted field is wired for budgeted serving.
                cover_response(snap.contains(v), snap.epoch(), snap.total_cost(), false)
            }
            Request::Breakers(u, v) => {
                let snap = self.snapshots.load();
                let breakers = snap.breakers_through(scratch, u, v);
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                breakers_response(snap.epoch(), &breakers)
            }
            Request::Explain(v) => {
                let snap = self.snapshots.load();
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                match snap.explain(v) {
                    Some(answer) => kv_response(
                        "EXPLAIN",
                        &[
                            ("epoch", snap.epoch().to_string()),
                            ("vertex", v.to_string()),
                            ("in_cover", u8::from(answer.in_cover).to_string()),
                            ("cost", answer.cost.to_string()),
                            ("cycles", answer.cycles_through.to_string()),
                            ("truncated", u8::from(answer.truncated).to_string()),
                        ],
                    ),
                    None => {
                        self.server_stats.errors.fetch_add(1, Ordering::Relaxed);
                        err_response(&format!("EXPLAIN?: vertex {v} out of range"))
                    }
                }
            }
            Request::Residual => {
                let snap = self.snapshots.load();
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                let answer = snap.residual();
                kv_response(
                    "RESIDUAL",
                    &[
                        ("epoch", snap.epoch().to_string()),
                        ("count", answer.count.to_string()),
                        ("truncated", u8::from(answer.truncated).to_string()),
                    ],
                )
            }
            Request::Insert(u, v) if u.max(v) > self.max_vertex_id => {
                self.server_stats.errors.fetch_add(1, Ordering::Relaxed);
                err_response(&format!(
                    "INSERT: vertex id {} above max_vertex_id {}",
                    u.max(v),
                    self.max_vertex_id
                ))
            }
            Request::Insert(u, v) | Request::Delete(u, v) => {
                let op = match request {
                    Request::Insert(..) => tdb_dynamic::EdgeOp::Insert(u, v),
                    _ => tdb_dynamic::EdgeOp::Remove(u, v),
                };
                if self.queue.send(op) {
                    self.server_stats.queued.fetch_add(1, Ordering::Relaxed);
                    queued_response()
                } else {
                    self.server_stats.errors.fetch_add(1, Ordering::Relaxed);
                    err_response("engine is shut down")
                }
            }
            Request::Stats => {
                let e = &self.engine_stats;
                let s = &self.server_stats;
                kv_response(
                    "STATS",
                    &[
                        ("epoch", self.snapshots.epoch().to_string()),
                        ("enqueued", e.enqueued.get().to_string()),
                        ("applied", e.applied.get().to_string()),
                        ("coalesced", e.coalesced.get().to_string()),
                        ("batches", e.batches.get().to_string()),
                        ("updates", e.updates.get().to_string()),
                        ("breakers_added", e.breakers_added.get().to_string()),
                        ("pruned", e.pruned.get().to_string()),
                        ("minimizes", e.minimizes.get().to_string()),
                        ("queue", e.queue_depth.get().to_string()),
                        (
                            "connections",
                            s.connections.load(Ordering::Relaxed).to_string(),
                        ),
                        ("reads", s.reads.load(Ordering::Relaxed).to_string()),
                        ("queued", s.queued.load(Ordering::Relaxed).to_string()),
                        ("errors", s.errors.load(Ordering::Relaxed).to_string()),
                    ],
                )
            }
            Request::Metrics => {
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                tdb_obs::export_drop_counters();
                metrics_response(&self.registry, tdb_obs::global())
            }
            Request::Health => {
                let report = self.health.evaluate();
                kv_response(
                    "HEALTH",
                    &[
                        ("status", report.status.as_str().to_string()),
                        ("reasons", report.reasons.join(",")),
                        (
                            "heartbeat_age_ms",
                            report.heartbeat_age.as_millis().to_string(),
                        ),
                        ("publish_age_ms", report.publish_age.as_millis().to_string()),
                        ("queue_depth", report.queue_depth.to_string()),
                        ("queue_capacity", report.queue_capacity.to_string()),
                        ("epoch", self.snapshots.epoch().to_string()),
                    ],
                )
            }
            Request::Snapshot => {
                let snap = self.snapshots.load();
                self.server_stats.reads.fetch_add(1, Ordering::Relaxed);
                kv_response(
                    "SNAPSHOT",
                    &[
                        ("epoch", snap.epoch().to_string()),
                        ("vertices", snap.vertex_count().to_string()),
                        ("edges", snap.edge_count().to_string()),
                        ("cover", snap.cover().len().to_string()),
                        ("k", snap.constraint().max_hops.to_string()),
                        ("dirty", u8::from(snap.dirty()).to_string()),
                    ],
                )
            }
            Request::Ping => "OK PONG".to_string(),
            Request::Shutdown => return ("OK BYE".to_string(), true),
        };
        (response, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use tdb_core::{Algorithm, HopConstraint, Solver};
    use tdb_dynamic::SolveDynamic;
    use tdb_graph::builder::graph_from_edges;

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let cover = Solver::new(Algorithm::TdbPlusPlus)
            .solve_dynamic(
                graph_from_edges(&[(0, 1), (1, 2), (2, 0)]),
                &HopConstraint::new(3),
            )
            .unwrap();
        let server = CoverServer::start(cover, ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let handles = || server.connections.lock().unwrap();
        // 200 connections in batches that fit the listen backlog; a PING
        // round trip proves each one was accepted before it closes.
        for _ in 0..4 {
            let mut batch: Vec<_> = (0..50)
                .map(|_| ServeClient::connect(addr).unwrap())
                .collect();
            for client in &mut batch {
                client.ping().unwrap();
            }
        }
        wait_until("every closed connection's thread exits", || {
            handles().iter().all(|h| h.is_finished())
        });
        let mut open = ServeClient::connect(addr).unwrap();
        open.ping().unwrap();
        wait_until("the open connection is registered", || {
            handles().iter().any(|h| !h.is_finished())
        });
        let (registered, finished) = {
            let live = handles();
            (live.len(), live.iter().filter(|h| h.is_finished()).count())
        };
        assert_eq!(registered, 1, "only the open connection's handle remains");
        assert_eq!(finished, 0);
        assert_eq!(
            server.server_stats().connections.load(Ordering::Relaxed),
            201
        );
        drop(open);
        server.shutdown();
    }
}
