//! # tdb-cycle
//!
//! Hop-constrained cycle search primitives for the TDB hop-constrained cycle
//! cover library.
//!
//! The cover algorithms in `tdb-core` never enumerate all cycles — they only
//! ever need to answer two questions, millions of times, on ever-changing
//! reduced graphs:
//!
//! 1. *Is there a hop-constrained simple cycle through vertex `s` in the
//!    currently active subgraph?* (and if so, produce one witness), and
//! 2. *Can vertex `s` be ruled out cheaply without a full search?*
//!
//! This crate provides three answers of increasing sophistication, matching the
//! paper's TDB / TDB+ / TDB++ ladder:
//!
//! * [`find_cycle::find_cycle_through`] — the naive bounded DFS of Algorithm 5
//!   (`FindCycle`), exponential in the worst case, used by the bottom-up
//!   baseline and as the reference oracle in tests.
//! * [`block_dfs::BlockSearcher`] — the block/barrier DFS of Algorithms 9–10
//!   (`NodeNecessary` / `Unblock`) with `O(k·m)` worst-case time per query.
//!   Its barriers start from a backward BFS ball around the query vertex
//!   (hop distances to it, which are lower bounds) instead of the paper's 0.
//! * [`bfs_filter::BfsFilter`] — the BFS upper-bound filter of Algorithm 11,
//!   a linear-time prune that skips the DFS entirely for most vertices. Its
//!   BFS stops at the first closed walk it finds.
//!
//! Both per-vertex engines stop early — the filter's BFS at the level of the
//! shortest closed walk, the block DFS's branches wherever a seeded barrier
//! rules them out — and neither changes an answer: the filter reports the same
//! shortest walk as a full ball, and the block DFS returns the same witness as
//! the naive DFS (module docs give the arguments, `tests/prop_cycle.rs` pins
//! both).
//!
//! [`enumerate`] provides bounded simple-cycle enumeration (needed by the DARC
//! baseline and by the brute-force verifier), and [`reach`] provides
//! hop-bounded reachability used by the filter and the seed ball.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_filter;
pub mod block_dfs;
pub mod edge_search;
pub mod enumerate;
pub mod find_cycle;
pub mod reach;

pub use bfs_filter::BfsFilter;
pub use block_dfs::BlockSearcher;
pub use edge_search::EdgeCycleSearcher;
pub use enumerate::EdgeDfsSearcher;
pub use find_cycle::{find_cycle_through, NaiveSearcher};

/// The hop constraint governing which cycles must be covered.
///
/// A *constrained cycle* (Definition 1 of the paper) is a simple cycle `c` with
/// `3 <= |c| <= k`. Table IV of the paper additionally evaluates the variant
/// that also covers 2-cycles (bidirectional edge pairs), which is expressed
/// here with [`HopConstraint::include_two_cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopConstraint {
    /// Maximum cycle length `k` (inclusive).
    pub max_hops: usize,
    /// Whether length-2 cycles (bidirectional edges) must also be covered.
    pub include_two_cycles: bool,
}

impl HopConstraint {
    /// Standard constraint of the paper: cycles of length `3..=k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "hop constraint must be at least 2, got {k}");
        HopConstraint {
            max_hops: k,
            include_two_cycles: false,
        }
    }

    /// Constraint that also covers 2-cycles: cycles of length `2..=k`
    /// (the "With 2-cycle" column of Table IV).
    pub fn with_two_cycles(k: usize) -> Self {
        assert!(k >= 2, "hop constraint must be at least 2, got {k}");
        HopConstraint {
            max_hops: k,
            include_two_cycles: true,
        }
    }

    /// Minimum length a cycle must have to require covering.
    #[inline]
    pub fn min_len(&self) -> usize {
        if self.include_two_cycles {
            2
        } else {
            3
        }
    }

    /// Whether a simple cycle of length `len` falls under this constraint.
    #[inline]
    pub fn covers_len(&self, len: usize) -> bool {
        len >= self.min_len() && len <= self.max_hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_constraint_excludes_two_cycles() {
        let c = HopConstraint::new(5);
        assert_eq!(c.min_len(), 3);
        assert!(!c.covers_len(2));
        assert!(c.covers_len(3));
        assert!(c.covers_len(5));
        assert!(!c.covers_len(6));
    }

    #[test]
    fn two_cycle_constraint_includes_length_two() {
        let c = HopConstraint::with_two_cycles(4);
        assert_eq!(c.min_len(), 2);
        assert!(c.covers_len(2));
        assert!(c.covers_len(4));
        assert!(!c.covers_len(5));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_below_two_panics() {
        HopConstraint::new(1);
    }
}
