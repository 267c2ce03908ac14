//! Instrumentation-overhead measurement: the `tdb-obs` contract says the
//! always-on metrics must cost less than 2% of a TDB++ end-to-end solve.
//! This module measures that claim instead of asserting it — the same solve is
//! timed with the full observability stack disabled and enabled (the
//! process-global registry, the flight recorder, and an active
//! request-correlation scope), and the `observability` bench target prints the
//! delta.

use std::time::Instant;

use tdb_core::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::CsrGraph;

/// The overhead budget the crate documents: instrumented solves may be at most
/// this many percent slower than uninstrumented ones.
pub const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Result of timing a solve with the global registry disabled vs enabled.
#[derive(Debug, Clone, Copy)]
pub struct OverheadReport {
    /// Median solve time with the stack disabled, in seconds.
    pub baseline_secs: f64,
    /// Baseline scaled by the median paired slowdown, in seconds (so the
    /// derived percentage is the paired-ratio estimate, not a ratio of two
    /// independently noisy minima).
    pub instrumented_secs: f64,
    /// Number of (disabled, enabled) sample pairs timed.
    pub samples: usize,
}

impl OverheadReport {
    /// Relative slowdown of the instrumented solve, in percent. Negative when
    /// the instrumented run happened to be faster (measurement noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_secs <= 0.0 {
            return 0.0;
        }
        (self.instrumented_secs - self.baseline_secs) / self.baseline_secs * 100.0
    }

    /// Whether the measured overhead is within [`OVERHEAD_BUDGET_PCT`].
    pub fn within_budget(&self) -> bool {
        self.overhead_pct() < OVERHEAD_BUDGET_PCT
    }

    /// One fixed-width report line.
    pub fn format(&self) -> String {
        format!(
            "overhead  baseline {:.4}s  instrumented {:.4}s  => {:+.2}% ({})",
            self.baseline_secs,
            self.instrumented_secs,
            self.overhead_pct(),
            if self.within_budget() {
                "within budget"
            } else {
                "OVER BUDGET"
            }
        )
    }
}

/// Time TDB++ on `graph` with the observability stack disabled and enabled,
/// over `samples` adjacent (disabled, enabled) pairs (plus warm-up solves).
///
/// The instrumented arm turns on everything a production deployment would:
/// the process-global metrics registry, the flight recorder (the solve emits
/// a `core/solve` event), and an active request-correlation scope (so the
/// solve's spans are armed and feed the per-request phase breakdown). The
/// tracer ring stays in whatever state it already is (off by default); all
/// toggled flags are restored before returning.
///
/// The estimator is the median of per-pair slowdown ratios. Each ratio
/// compares two solves adjacent in time, so slow drift (frequency scaling,
/// thermal state) hits both arms of a pair equally; the order inside each
/// pair alternates so what drift remains within a pair cancels across pairs;
/// and the median discards the scheduler-preemption outliers that make
/// best-of-N minima unstable on busy machines.
pub fn measure_solve_overhead(
    graph: &CsrGraph,
    constraint: &HopConstraint,
    samples: usize,
) -> OverheadReport {
    let registry = tdb_obs::global();
    let was_enabled = registry.is_enabled();
    let events_were_enabled = tdb_obs::event::is_enabled();
    let solve = || {
        Solver::new(Algorithm::TdbPlusPlus)
            .solve(graph, constraint)
            .expect("unbudgeted solve cannot fail")
    };
    let timed = |enabled: bool| -> f64 {
        registry.set_enabled(enabled);
        tdb_obs::event::set_enabled(enabled);
        if enabled {
            let _scope = tdb_obs::request::begin(u64::MAX);
            let t = Instant::now();
            std::hint::black_box(solve());
            t.elapsed().as_secs_f64()
        } else {
            let t = Instant::now();
            std::hint::black_box(solve());
            t.elapsed().as_secs_f64()
        }
    };
    std::hint::black_box(timed(false));
    std::hint::black_box(timed(true));
    let pairs = samples.max(1);
    let mut baselines = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (off, on) = if i % 2 == 0 {
            let off = timed(false);
            let on = timed(true);
            (off, on)
        } else {
            let on = timed(true);
            let off = timed(false);
            (off, on)
        };
        baselines.push(off);
        ratios.push(on / off);
    }
    registry.set_enabled(was_enabled);
    tdb_obs::event::set_enabled(events_were_enabled);
    let median = |values: &mut Vec<f64>| -> f64 {
        values.sort_by(|a, b| a.partial_cmp(b).expect("solve times are finite"));
        values[values.len() / 2]
    };
    let baseline_secs = median(&mut baselines);
    let ratio = median(&mut ratios);
    OverheadReport {
        baseline_secs,
        instrumented_secs: baseline_secs * ratio,
        samples: pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_support::small_proxy;
    use tdb_datasets::Dataset;

    #[test]
    fn overhead_measurement_times_both_states_and_restores_the_flag() {
        let registry = tdb_obs::global();
        let before = registry.is_enabled();
        let g = small_proxy(Dataset::WikiVote, 1_500);
        let report = measure_solve_overhead(&g, &HopConstraint::new(3), 1);
        assert_eq!(registry.is_enabled(), before, "flag must be restored");
        assert!(report.baseline_secs > 0.0);
        assert!(report.instrumented_secs > 0.0);
        assert!(report.overhead_pct().is_finite());
        assert!(report.format().contains("overhead"));
    }

    #[test]
    fn budget_check_matches_the_documented_threshold() {
        let over = OverheadReport {
            baseline_secs: 1.0,
            instrumented_secs: 1.05,
            samples: 3,
        };
        assert!(!over.within_budget());
        let under = OverheadReport {
            baseline_secs: 1.0,
            instrumented_secs: 1.01,
            samples: 3,
        };
        assert!(under.within_budget());
        assert!((under.overhead_pct() - 1.0).abs() < 1e-9);
    }
}
