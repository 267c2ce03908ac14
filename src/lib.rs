//! # tdb — breaking all hop-constrained cycles in billion-scale directed graphs
//!
//! A Rust implementation of the algorithms from *"TDB: Breaking All
//! Hop-Constrained Cycles in Billion-Scale Directed Graphs"* (ICDE 2023):
//! computing a small, minimal set of vertices that intersects every simple
//! cycle of length at most `k` in a directed graph.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! * [`graph`] (`tdb-graph`) — the directed-graph substrate: CSR storage,
//!   builders, activation masks, generators, I/O, line graph, SCC.
//! * [`cycle`] (`tdb-cycle`) — hop-constrained cycle search primitives: naive
//!   DFS, block/barrier DFS, BFS filter, bounded enumeration.
//! * [`core`] (`tdb-core`) — the cover algorithms (`BUR`, `BUR+`, `DARC-DV`,
//!   `TDB`, `TDB+`, `TDB++`, the `TDB++X` extension) behind one
//!   [`CoverRequest`](tdb_core::CoverRequest), executed by
//!   [`Solver`](tdb_core::Solver), and the verifier.
//! * [`dynamic`] (`tdb-dynamic`) — incremental cover maintenance over
//!   streaming edge updates: a [`DeltaGraph`](tdb_graph::DeltaGraph) overlay
//!   plus the [`DynamicCover`](tdb_dynamic::DynamicCover) engine, reached
//!   through [`SolveDynamic::solve_dynamic`](tdb_dynamic::SolveDynamic).
//! * [`serve`] (`tdb-serve`) — a resident cover service: one writer thread
//!   batches updates through the dynamic engine and publishes immutable
//!   epoch-stamped snapshots, served to concurrent readers over a line-based
//!   TCP protocol ([`CoverServer`](tdb_serve::CoverServer) /
//!   [`ServeClient`](tdb_serve::ServeClient)).
//! * [`obs`] (`tdb-obs`) — zero-dependency observability: a process-global
//!   metrics registry (atomic counters, gauges, log2-bucket latency
//!   histograms with a Prometheus text exposition), a span tracer that
//!   exports Chrome trace-event JSON, and a structured flight recorder
//!   (`event!`) with request-id correlation — wired through the solver
//!   phases, the dynamic engine, and the serve protocol's `METRICS` /
//!   `HEALTH?` verbs and HTTP exposition endpoints.
//! * [`datasets`] (`tdb-datasets`) — the paper's Table II catalog and synthetic
//!   proxy synthesis.
//!
//! ## Quickstart
//!
//! Every algorithm is reached through one entry point: pick an
//! [`Algorithm`](tdb_core::Algorithm), build a [`Solver`](tdb_core::Solver),
//! and solve any graph.
//!
//! ```
//! use tdb::prelude::*;
//!
//! // A small transaction graph with two short money-flow cycles.
//! let graph = tdb::graph::builder::graph_from_edges(&[
//!     (0, 1), (1, 2), (2, 0),       // a -> b -> c -> a
//!     (2, 3), (3, 4), (4, 2),       // c -> d -> e -> c
//!     (4, 5),                        // dead end
//! ]);
//!
//! let constraint = HopConstraint::new(5);
//! let run = Solver::new(Algorithm::TdbPlusPlus)
//!     .solve(&graph, &constraint)
//!     .unwrap();
//!
//! // Vertex 2 sits on both cycles, so one vertex suffices.
//! assert_eq!(run.cover_size(), 1);
//! assert!(verify_cover(&graph, &run.cover, &constraint).is_valid_and_minimal());
//! ```
//!
//! Every option is a field of one [`CoverRequest`](tdb_core::CoverRequest),
//! set with struct-update syntax: scan order, a wall-clock budget, 2-cycles
//! (`include_two_cycles`, Table IV mode, covered in one pass or separately
//! per `two_cycle_mode`), and SCC sharding (`sharding` — solve every
//! strongly connected component as an independent concurrent shard, exactly
//! reproducing the unsharded cover). A budgeted solve returns
//! [`SolveError::BudgetExceeded`](tdb_core::SolveError) instead of running
//! unbounded.
//!
//! ```
//! use std::time::Duration;
//! use tdb::prelude::*;
//!
//! let graph = tdb::graph::gen::erdos_renyi_gnm(200, 800, 3);
//! let request = CoverRequest {
//!     include_two_cycles: true,
//!     sharding: ShardingMode::Auto,
//!     time_budget: Some(Duration::from_secs(30)),
//!     ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
//! };
//! let report = request.solve(&graph).unwrap();
//! assert!(verify_cover(&graph, &report.cover, &request.constraint()).is_valid);
//! ```
//!
//! ## Streaming
//!
//! For live workloads, the same solver seeds an incrementally maintained
//! cover: edge insertions repair the cover by searching only for cycles
//! through the new edge, removals defer re-minimization, and the cover is
//! valid after every update.
//!
//! ```
//! use tdb::prelude::*;
//!
//! let graph = tdb::graph::gen::erdos_renyi_gnm(500, 2_000, 7);
//! let constraint = HopConstraint::new(4);
//! let mut live = Solver::new(Algorithm::TdbPlusPlus)
//!     .solve_dynamic(graph, &constraint)
//!     .unwrap();
//!
//! let mut batch = EdgeBatch::new();
//! batch.insert(0, 99).insert(99, 0).remove(0, 1);
//! let metrics = live.apply(&batch);
//! assert!(metrics.updates() >= 2);
//! assert!(live.is_valid());
//! ```
//!
//! ## Serving
//!
//! For deployments where many consumers query the cover while it is being
//! maintained, [`serve`] wraps the dynamic engine in a resident server:
//! updates stream through a single writer, every applied batch publishes an
//! immutable snapshot under a fresh epoch, and any number of readers answer
//! `COVER?` / `BREAKERS?` queries against the published snapshot without ever
//! blocking on the update path (see `examples/serve_demo.rs`).
//!
//! See `examples/` for end-to-end scenarios (fraud detection on an e-commerce
//! network, deadlock-potential analysis of a lock graph, clocked-register
//! placement in circuit design) and `crates/bench` for the harness that
//! regenerates every table and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tdb_core as core;
pub use tdb_cycle as cycle;
pub use tdb_datasets as datasets;
pub use tdb_dynamic as dynamic;
pub use tdb_graph as graph;
pub use tdb_obs as obs;
pub use tdb_serve as serve;

/// The most commonly used items across the workspace, re-exported together.
pub mod prelude {
    pub use tdb_core::prelude::*;
    pub use tdb_cycle::HopConstraint;
    pub use tdb_dynamic::{
        DynamicConfig, DynamicCover, EdgeBatch, EdgeOp, SolveDynamic, UpdateMetrics,
    };
    pub use tdb_graph::{
        ActiveSet, CsrGraph, DeltaGraph, Graph, GraphBuilder, GraphView, VertexId,
    };
    pub use tdb_serve::{CoverServer, HealthStatus, ServeClient, ServeConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let g = crate::graph::gen::directed_cycle(4);
        let run = Solver::new(Algorithm::TdbPlusPlus)
            .solve(&g, &HopConstraint::new(4))
            .unwrap();
        assert_eq!(run.cover_size(), 1);
    }
}
