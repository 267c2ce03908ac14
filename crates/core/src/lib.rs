//! # tdb-core
//!
//! Hop-constrained cycle cover algorithms — the primary contribution of
//! *"TDB: Breaking All Hop-Constrained Cycles in Billion-Scale Directed
//! Graphs"* (ICDE 2023) rebuilt as a Rust library.
//!
//! Given a directed graph and a hop constraint `k`, the crate computes a set of
//! vertices intersecting every simple cycle of length `3..=k` (optionally
//! `2..=k`). All of the paper's algorithm variants sit behind **one unified
//! surface**:
//!
//! * [`CoverRequest`](request::CoverRequest) / [`CoverReport`](request::CoverReport)
//!   — the primary API: everything a solve needs as one value (algorithm, `k`,
//!   [`Objective`](request::Objective), [`CostModel`](tdb_graph::CostModel),
//!   [`Budget`](request::Budget), two-cycle mode, sharding, …) and a structured
//!   result (cover, total cost, budget exhaustion, residual cycles, per-breaker
//!   explanations) instead of a bare vertex vector.
//! * [`Algorithm`] — the enum of every evaluated variant (`BUR`, `BUR+`,
//!   `DARC-DV`, `TDB`, `TDB+`, `TDB++`, plus the `TDB++X` extension).
//! * [`Solver`](solver::Solver) — the executor of one request
//!   ([`Solver::from_request`](solver::Solver::from_request)): it maps the
//!   request's [`Algorithm`] onto its family's `_with` entry point and runs
//!   it against any graph and explicit [`HopConstraint`], optionally through
//!   a caller-held context. It has no configuration of its own.
//! * [`SolveContext`](solver::SolveContext) / [`SolveError`](solver::SolveError)
//!   — shared run state (per-vertex costs, deadline, accumulated metrics,
//!   progress callback) and typed failure: a request with a time budget
//!   returns [`SolveError::BudgetExceeded`](solver::SolveError::BudgetExceeded)
//!   instead of running unbounded.
//!
//! The algorithm families, by paper section:
//!
//! | Family | Paper section | Entry point | Character |
//! |---|---|---|---|
//! | Bottom-up (`BUR`, `BUR+`) | §V, Alg. 4–7 | [`bottom_up::bottom_up_cover_with`] | smallest covers, `O(n^{k+1})` |
//! | DARC / DARC-DV | §III-B, Alg. 1–3 | [`darc::darc_dv_cover_with`] | prior state of the art, `O(n^k)` |
//! | Top-down (`TDB`, `TDB+`, `TDB++`, `TDB++X`) | §VI, Alg. 8–11 | [`top_down::top_down_cover_with`] | the paper's contribution, `O(k·n·m)` |
//!
//! All of them produce covers that are **valid** (no constrained cycle
//! survives) and — except `BUR` and `DARC-DV`, which skip the Algorithm-7
//! pruning — **minimal** (no single vertex can be dropped), which
//! [`verify::verify_cover`] checks independently.
//!
//! Because every constrained cycle lies inside one strongly connected
//! component, the problem also **partitions exactly**:
//! [`CoverRequest::sharding`](request::CoverRequest::sharding) condenses the
//! graph ([`partition::Partitioner`]), solves the non-trivial SCCs as
//! independent compact shards on worker threads, and merges the per-shard
//! covers — reproducing the unsharded cover while scaling across cores on
//! multi-component graphs.
//!
//! ```
//! use tdb_core::prelude::*;
//! use tdb_graph::gen::directed_cycle;
//!
//! let g = directed_cycle(4);
//! let report = CoverRequest::new(Algorithm::TdbPlusPlus, 5).solve(&g).unwrap();
//! assert_eq!(report.cover_size(), 1);
//! assert_eq!(report.total_cost, 1);
//! assert!(!report.exhausted);
//! ```
//!
//! The budget-aware per-family entry points (`top_down::top_down_cover_with`
//! and friends) remain public for callers that need a family option the
//! [`Algorithm`] enum does not name (an ablation's filter switch, the
//! minimize engine); everything else goes through
//! [`CoverRequest`](request::CoverRequest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom_up;
pub mod cover;
pub mod darc;
pub mod minimal;
pub mod partition;
pub mod request;
pub mod solver;
pub mod stats;
pub mod top_down;
pub mod two_cycle;
pub mod verify;

pub use cover::{CoverRun, CycleCover, RunMetrics};
pub use partition::{Partition, Partitioner, Shard};
pub use request::{BreakerStat, Budget, CoverReport, CoverRequest, Cycle, Objective};
pub use solver::{ShardingMode, SolveContext, SolveError, SolveProgress, Solver, TwoCycleMode};
pub use tdb_cycle::HopConstraint;

/// The algorithms evaluated in the paper (plus this crate's extensions), as a
/// single enumeration so that harnesses can sweep over them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Bottom-up without minimal pruning (Section V-B).
    Bur,
    /// Bottom-up with minimal pruning — `BUR+` (Section V-C).
    BurPlus,
    /// The DARC-DV baseline (Section III-B).
    DarcDv,
    /// Top-down with the naive DFS (Section VI-B).
    Tdb,
    /// Top-down with the block DFS — `TDB+`.
    TdbPlus,
    /// Top-down with block DFS and BFS filter — `TDB++` (the paper's flagship).
    TdbPlusPlus,
    /// Extension: `TDB++` with exact-filter shortcut and SCC pre-filter.
    TdbExtended,
}

impl Algorithm {
    /// Display name used in tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bur => "BUR",
            Algorithm::BurPlus => "BUR+",
            Algorithm::DarcDv => "DARC-DV",
            Algorithm::Tdb => "TDB",
            Algorithm::TdbPlus => "TDB+",
            Algorithm::TdbPlusPlus => "TDB++",
            Algorithm::TdbExtended => "TDB++X",
        }
    }

    /// The three algorithms compared in Table III and Figures 6–7.
    pub fn paper_headline() -> [Algorithm; 3] {
        [
            Algorithm::DarcDv,
            Algorithm::BurPlus,
            Algorithm::TdbPlusPlus,
        ]
    }

    /// Every algorithm the crate implements.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::Bur,
            Algorithm::BurPlus,
            Algorithm::DarcDv,
            Algorithm::Tdb,
            Algorithm::TdbPlus,
            Algorithm::TdbPlusPlus,
            Algorithm::TdbExtended,
        ]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an [`Algorithm`] from a string fails.
///
/// Carries the rejected input and knows every accepted canonical name, so
/// harness CLIs can print an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmParseError {
    input: String,
}

impl AlgorithmParseError {
    /// The string that failed to parse.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The canonical names (`Algorithm::name`) accepted by the parser.
    pub fn expected() -> [&'static str; 7] {
        let mut names = [""; 7];
        for (slot, algorithm) in names.iter_mut().zip(Algorithm::all()) {
            *slot = algorithm.name();
        }
        names
    }
}

impl std::fmt::Display for AlgorithmParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm {:?} (expected one of: {})",
            self.input,
            Self::expected().join(", ")
        )
    }
}

impl std::error::Error for AlgorithmParseError {}

impl std::str::FromStr for Algorithm {
    type Err = AlgorithmParseError;

    /// Parse an algorithm name, case-insensitively.
    ///
    /// Every [`Algorithm::name`] output parses back losslessly (including
    /// `"TDB++X"`), alongside spelled-out aliases such as `"bur_plus"` or
    /// `"extended"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "BUR" => Ok(Algorithm::Bur),
            "BUR+" | "BURPLUS" | "BUR_PLUS" => Ok(Algorithm::BurPlus),
            "DARC-DV" | "DARCDV" | "DARC_DV" => Ok(Algorithm::DarcDv),
            "TDB" => Ok(Algorithm::Tdb),
            "TDB+" | "TDBPLUS" | "TDB_PLUS" => Ok(Algorithm::TdbPlus),
            "TDB++" | "TDBPLUSPLUS" | "TDB_PLUS_PLUS" => Ok(Algorithm::TdbPlusPlus),
            "TDB++X" | "TDBX" | "EXTENDED" => Ok(Algorithm::TdbExtended),
            _ => Err(AlgorithmParseError {
                input: s.to_string(),
            }),
        }
    }
}

/// Commonly used items re-exported together.
pub mod prelude {
    pub use crate::bottom_up::{bottom_up_cover_with, BottomUpConfig};
    pub use crate::cover::{CoverRun, CycleCover, RunMetrics};
    pub use crate::darc::darc_dv_cover_with;
    pub use crate::minimal::{minimal_prune, SearchEngine};
    pub use crate::partition::{Partition, Partitioner, Shard};
    pub use crate::request::{
        BreakerStat, Budget, CoverReport, CoverRequest, Cycle, Objective, DEFAULT_RESIDUAL_CAP,
    };
    pub use crate::solver::{
        ShardingMode, SolveContext, SolveError, SolveProgress, Solver, TwoCycleMode,
    };
    pub use crate::top_down::{top_down_cover_with, ScanOrder, TopDownConfig};
    pub use crate::two_cycle::minimal_two_cycle_cover;
    pub use crate::verify::{is_valid_cover, verify_cover};
    pub use crate::{Algorithm, AlgorithmParseError};
    pub use tdb_cycle::HopConstraint;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_cover;
    use tdb_graph::gen::erdos_renyi_gnm;

    #[test]
    fn algorithm_names_and_parsing_round_trip() {
        for algo in Algorithm::all() {
            let parsed: Algorithm = algo.name().parse().unwrap();
            assert_eq!(parsed, algo);
            // Lowercase forms parse too.
            let parsed: Algorithm = algo.name().to_ascii_lowercase().parse().unwrap();
            assert_eq!(parsed, algo);
        }
        let err = "no-such-algo".parse::<Algorithm>().unwrap_err();
        assert_eq!(err.input(), "no-such-algo");
        assert!(err.to_string().contains("TDB++"));
        assert_eq!(Algorithm::TdbPlusPlus.to_string(), "TDB++");
    }

    #[test]
    fn every_algorithm_produces_a_valid_cover() {
        let g = erdos_renyi_gnm(30, 120, 1);
        let constraint = HopConstraint::new(4);
        for algo in Algorithm::all() {
            let run = Solver::new(algo).solve(&g, &constraint).unwrap();
            let v = verify_cover(&g, &run.cover, &constraint);
            assert!(v.is_valid, "{algo} produced an invalid cover");
            assert_eq!(run.metrics.k, 4);
        }
    }

    #[test]
    fn headline_algorithms_match_the_paper() {
        let names: Vec<&str> = Algorithm::paper_headline()
            .iter()
            .map(|a| a.name())
            .collect();
        assert_eq!(names, vec!["DARC-DV", "BUR+", "TDB++"]);
    }
}
