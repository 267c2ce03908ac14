//! # tdb-serve
//!
//! A resident hop-constrained cover service: the serving layer the paper's
//! headline scenarios (fraud-ring suspension, deadlock breaking) actually
//! need. A long-lived process loads a graph once, keeps a
//! [`tdb_dynamic::DynamicCover`] fresh under a single writer thread, and
//! answers any number of concurrent read queries against **epoch-published
//! immutable snapshots**, so reads never block on the update path.
//!
//! The crate is three layers:
//!
//! * **engine** — [`CoverEngine`]: the writer loop. The edge updates that
//!   queued while the previous batch was applied form the next
//!   [`tdb_dynamic::EdgeBatch`] (the writer never waits to fill one), which
//!   is coalesced (a flapping edge nets out to one operation), applied through
//!   `DynamicCover`, re-minimized whenever the batch left the cover dirty,
//!   and the resulting state published as the next snapshot, so every
//!   published cover is valid and minimal. The update queue is bounded: a
//!   deep queue blocks producers (backpressure), never readers.
//! * **snapshot** — [`CoverSnapshot`] and [`SnapshotCell`]: the publication
//!   mechanism, plus the read-side queries (`COVER?` membership,
//!   `BREAKERS?` via two hop-bounded BFS passes, per-breaker stats).
//! * **transport** — [`CoverServer`] / [`ServeClient`]: a line-based text
//!   protocol over TCP (`COVER?`, `BREAKERS?`, `INSERT`, `DELETE`, `STATS`,
//!   `SNAPSHOT`, `METRICS`, `HEALTH?`, `PING`, `SHUTDOWN`) with graceful
//!   shutdown; grammar in [`protocol`]. Every accepted line gets a request
//!   id that stamps the spans/events recorded while serving it, and
//!   over-threshold requests land in the flight recorder as
//!   `serve/slow_query` records.
//!
//! Two operational surfaces ride on top: the [`health`] watchdog (writer
//! heartbeat, queue saturation, publish staleness — `HEALTH?` over the
//! wire) and an optional std-only HTTP/1.0 listener
//! ([`ServeConfig::http_addr`]) exposing `GET /metrics`, `GET /healthz`,
//! and `GET /events` to stock scrapers.
//!
//! # Soundness of epoch publication
//!
//! Every answer the service gives is *consistent as of some recently
//! published epoch*:
//!
//! 1. **Snapshots are internally consistent.** The writer captures
//!    [`tdb_dynamic::DynamicCover::state`] only between batch applications,
//!    and the engine's invariant is that the cover is valid after every
//!    applied operation — so each snapshot's cover is a valid hop-constrained
//!    cover *of that snapshot's graph*.
//! 2. **Publication is atomic.** A snapshot is one immutable heap object
//!    behind an `Arc`; publishing swaps the pointer under a lock held for a
//!    pointer-sized critical section, and the replaced snapshot is released
//!    after the lock. A reader holds either the old object or the new one — a
//!    torn half-old-half-new view cannot be constructed. Snapshots share the
//!    graph's overlay chunks copy-on-write, so a later write by the engine
//!    copies a chunk rather than changing one a snapshot holds.
//! 3. **Epochs are monotone.** One writer stamps epochs `0, 1, 2, …` in
//!    publication order, so the epochs any single reader observes across
//!    requests never decrease, and `STATS`/read responses can be correlated.
//! 4. **Reads never wait for repairs.** Cycle search, cover repair, and
//!    minimization all happen on the writer thread *before* publication;
//!    the readers' lock acquisition only ever races the pointer swap itself.
//!
//! What the service does *not* promise is read-your-write freshness: updates
//! are acknowledged when enqueued (`OK QUEUED`) and become visible at a later
//! epoch. The protocol exposes epochs precisely so clients can wait for one.
//!
//! ```no_run
//! use tdb_core::{Algorithm, HopConstraint, Solver};
//! use tdb_dynamic::SolveDynamic;
//! use tdb_graph::builder::graph_from_edges;
//! use tdb_serve::{CoverServer, ServeClient, ServeConfig};
//!
//! let graph = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
//! let dynamic = Solver::new(Algorithm::TdbPlusPlus)
//!     .solve_dynamic(graph, &HopConstraint::new(4))
//!     .unwrap();
//! let server = CoverServer::start(dynamic, ServeConfig::default()).unwrap();
//!
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let answer = client.cover(2).unwrap();
//! println!("vertex 2 covered: {} (epoch {})", answer.contained, answer.epoch);
//! client.insert(1, 3).unwrap();   // visible at a later epoch
//! client.shutdown().unwrap();
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod health;
mod http;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use client::{BreakersAnswer, ClientError, CoverAnswer, ServeClient};
pub use engine::{CoverEngine, EngineConfig, EngineStats, UpdateQueue};
pub use health::{HealthConfig, HealthMonitor, HealthReport, HealthStatus};
pub use server::{CoverServer, ServeConfig, ServerStats};
pub use snapshot::{
    BreakerScratch, BreakerStat, CoverSnapshot, ExplainAnswer, ResidualAnswer, SnapshotCell,
};
