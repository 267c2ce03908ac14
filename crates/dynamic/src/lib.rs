//! # tdb-dynamic
//!
//! Incremental maintenance of a hop-constrained cycle cover over **streaming
//! edge updates** — the subsystem that turns the static TDB solvers into
//! something a live service can sit on.
//!
//! The workloads that motivate the paper (fraud rings in transaction
//! networks, deadlock cycles in lock graphs) are inherently streaming: edges
//! arrive and expire continuously. Re-solving from scratch on every change
//! wastes almost all of its work, because a single edge update can only
//! affect cycles *through that edge*. This crate exploits exactly that
//! locality, following the shape of customizable route-planning engines — a
//! static index plus a cheap update layer in front of it:
//!
//! * [`tdb_graph::DeltaGraph`] — a CSR base plus inserted/tombstoned edge
//!   overlays with merged neighbor iteration, compacted back into a clean CSR
//!   once the delta grows past a threshold;
//! * [`DynamicCover`] — the maintenance engine. `insert_edge` searches only
//!   for new constrained cycles through the inserted edge (a bounded
//!   bidirectional search from `tdb-cycle`) and repairs by adding breaker
//!   vertices; `remove_edge` keeps validity for free and defers minimality to
//!   a lazy re-minimization pass (`tdb_core::minimal`, the paper's
//!   Algorithm 7) run over the whole cover, directly on the overlay;
//! * [`EdgeBatch`] / [`DynamicCover::apply`] — batched updates with
//!   per-batch [`UpdateMetrics`], amortizing compaction so throughput scales
//!   past per-edge bookkeeping;
//! * [`SolveDynamic`] — the entry point: any configured
//!   [`Solver`](tdb_core::Solver) (any seed [`Algorithm`](tdb_core::Algorithm))
//!   gains `solve_dynamic(graph, &constraint)`.
//!
//! **Invariant:** the cover is *valid after every applied update* — no
//! intermediate state exposes an uncovered constrained cycle. Minimality is
//! restored on demand: [`DynamicCover::minimize`] re-checks every cover
//! vertex whenever an update may have made one redundant
//! ([`UpdateMetrics::minimize_checked`] counts them).
//!
//! ```
//! use tdb_core::{Algorithm, HopConstraint, Solver};
//! use tdb_dynamic::{EdgeBatch, SolveDynamic};
//! use tdb_graph::gen::erdos_renyi_gnm;
//!
//! let graph = erdos_renyi_gnm(200, 800, 42);
//! let constraint = HopConstraint::new(4);
//! let mut dynamic = Solver::new(Algorithm::TdbPlusPlus)
//!     .solve_dynamic(graph, &constraint)
//!     .unwrap();
//!
//! let mut batch = EdgeBatch::new();
//! batch.insert(0, 100).insert(100, 0).remove(0, 1);
//! let metrics = dynamic.apply(&batch);
//! assert!(metrics.updates() >= 2);
//! assert!(dynamic.is_valid());
//!
//! dynamic.minimize(); // minimal again on demand
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;

pub use batch::{EdgeBatch, EdgeOp, UpdateMetrics};
pub use engine::{CoverState, DynamicConfig, DynamicCover, SolveDynamic};
