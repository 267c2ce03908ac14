//! # tdb-bench
//!
//! Experiment harness regenerating every table and figure of the TDB paper's
//! evaluation (Section VII) on synthetic dataset proxies.
//!
//! The crate has two faces:
//!
//! * the `experiments` binary (`cargo run --release -p tdb-bench --bin
//!   experiments -- all`) prints the rows of Table II, Table III, Table IV and
//!   the data series behind Figures 6–10 in plain text, and
//! * the bench targets (`cargo bench -p tdb-bench`, driven by the crate's own
//!   [`microbench`] harness) time the same algorithm/dataset/parameter
//!   combinations on small proxies: one bench target per runtime table or
//!   figure, plus `ablations` (engine design choices), `streaming` (one
//!   incremental batch vs a re-solve) and `observability` (the
//!   instrumentation cost and its <2% contract).
//!
//! The library part holds the shared plumbing: proxy synthesis, per-row
//! execution with the same gating the paper applies (the exhaustive baselines
//! are only run on graphs they can finish), and table formatting.
//!
//! The end-to-end benchmark of solving, stream refresh and serving is the
//! separate `benchmark/` package, not this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;
pub mod overhead;
pub mod sharding;
pub mod watch;
pub mod weighted;

use std::time::Duration;

use tdb_core::prelude::*;
use tdb_core::Algorithm;
use tdb_datasets::{synthesize, Dataset, SynthesisConfig};
use tdb_graph::metrics::{format_count, graph_stats};
use tdb_graph::{CsrGraph, Graph};

/// Configuration of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Proxy synthesis parameters (scale, seed, caps).
    pub synthesis: SynthesisConfig,
    /// Hop constraints to sweep (Figures 6–10 use `3..=7`).
    pub ks: Vec<usize>,
    /// Edge-count ceiling above which the exhaustive baselines (`DARC-DV`,
    /// `BUR`, `BUR+`, `TDB`) are skipped, mirroring the "-" entries of
    /// Table III.
    pub slow_algorithm_edge_limit: usize,
    /// Verify every produced cover (adds a full validity check per row).
    pub verify: bool,
    /// Optional wall-clock budget per cell: cells whose solve outruns it are
    /// reported as gated (`-`), like the paper's INF entries.
    pub time_budget: Option<Duration>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            synthesis: SynthesisConfig::harness_default(),
            ks: vec![3, 4, 5, 6, 7],
            slow_algorithm_edge_limit: 60_000,
            verify: false,
            time_budget: None,
        }
    }
}

impl ExperimentConfig {
    /// Small configuration used by unit tests and CI smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            synthesis: SynthesisConfig::tiny(),
            ks: vec![3, 4, 5],
            slow_algorithm_edge_limit: 10_000,
            verify: true,
            time_budget: None,
        }
    }

    /// Whether `algorithm` should be attempted on a proxy with `edges` edges.
    pub fn algorithm_enabled(&self, algorithm: Algorithm, edges: usize) -> bool {
        match algorithm {
            Algorithm::TdbPlusPlus | Algorithm::TdbPlus | Algorithm::TdbExtended => true,
            Algorithm::Bur | Algorithm::BurPlus | Algorithm::DarcDv | Algorithm::Tdb => {
                edges <= self.slow_algorithm_edge_limit
            }
        }
    }
}

/// One measured cell of a table or figure.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Dataset code (`"WKV"`, ...).
    pub dataset: String,
    /// Algorithm name (`"TDB++"`, ...).
    pub algorithm: String,
    /// Hop constraint.
    pub k: usize,
    /// Whether 2-cycles were included.
    pub include_two_cycles: bool,
    /// Cover size (number of vertices).
    pub cover_size: usize,
    /// Wall-clock runtime of the cover computation.
    pub elapsed: Duration,
    /// Number of cycle-existence queries issued.
    pub cycle_queries: u64,
    /// Vertices of the proxy graph.
    pub graph_vertices: usize,
    /// Edges of the proxy graph.
    pub graph_edges: usize,
    /// Whether the produced cover passed verification (`None` when not checked).
    pub verified: Option<bool>,
}

impl RowResult {
    /// Runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Synthesize the proxy graph of a dataset under this configuration.
pub fn proxy(dataset: Dataset, config: &ExperimentConfig) -> CsrGraph {
    synthesize(dataset, &config.synthesis)
}

/// Run one `(dataset proxy, algorithm, k)` cell. Returns `None` when the
/// algorithm is gated off for this graph size (printed as `-`, like the paper).
pub fn run_cell(
    graph: &CsrGraph,
    dataset: Dataset,
    algorithm: Algorithm,
    constraint: &HopConstraint,
    config: &ExperimentConfig,
) -> Option<RowResult> {
    if !config.algorithm_enabled(algorithm, graph.num_edges()) {
        return None;
    }
    let solver = Solver::from_request(CoverRequest {
        time_budget: config.time_budget,
        ..CoverRequest::new(algorithm, constraint.max_hops)
    });
    let run = match solver.solve(graph, constraint) {
        Ok(run) => run,
        // Budget overruns (and any future failure mode) are reported exactly
        // like size-gated cells.
        Err(_) => return None,
    };
    let verified = if config.verify {
        Some(is_valid_cover(graph, &run.cover, constraint))
    } else {
        None
    };
    Some(RowResult {
        dataset: dataset.spec().code.to_string(),
        algorithm: algorithm.name().to_string(),
        k: constraint.max_hops,
        include_two_cycles: constraint.include_two_cycles,
        cover_size: run.cover_size(),
        elapsed: run.metrics.elapsed,
        cycle_queries: run.metrics.cycle_queries,
        graph_vertices: graph.num_vertices(),
        graph_edges: graph.num_edges(),
        verified,
    })
}

/// Table II: dataset statistics of the synthesized proxies next to the
/// published numbers.
pub fn table2_rows(config: &ExperimentConfig) -> Vec<String> {
    let mut rows = Vec::new();
    rows.push(format!(
        "{:<5} {:<15} {:>12} {:>14} {:>8} | {:>12} {:>14} {:>8} {:>8}",
        "Code",
        "Dataset",
        "paper |V|",
        "paper |E|",
        "d_avg",
        "proxy |V|",
        "proxy |E|",
        "d_avg",
        "recip"
    ));
    for dataset in Dataset::all() {
        let spec = dataset.spec();
        let g = proxy(dataset, config);
        let stats = graph_stats(&g);
        rows.push(format!(
            "{:<5} {:<15} {:>12} {:>14} {:>8.1} | {:>12} {:>14} {:>8.2} {:>8.3}",
            spec.code,
            spec.name,
            format_count(spec.vertices),
            format_count(spec.edges),
            spec.avg_degree,
            format_count(stats.num_vertices),
            format_count(stats.num_edges),
            stats.average_degree,
            stats.reciprocity,
        ));
    }
    rows
}

/// Table III: cover size and runtime of DARC-DV, BUR+ and TDB++ at `k = 5` for
/// every dataset (the four large ones run TDB++ only, like the paper).
pub fn table3_rows(config: &ExperimentConfig) -> Vec<String> {
    let constraint = HopConstraint::new(5);
    let mut rows = Vec::new();
    rows.push(format!(
        "{:<5} {:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "Name",
        "|E|proxy",
        "DARC size",
        "DARC t(s)",
        "BUR+ size",
        "BUR+ t(s)",
        "TDB++ size",
        "TDB++ t(s)"
    ));
    for dataset in Dataset::all() {
        let g = proxy(dataset, config);
        let mut cells: Vec<String> =
            vec![dataset.spec().code.to_string(), format_count(g.num_edges())];
        for algorithm in [
            Algorithm::DarcDv,
            Algorithm::BurPlus,
            Algorithm::TdbPlusPlus,
        ] {
            match run_cell(&g, dataset, algorithm, &constraint, config) {
                Some(r) => {
                    cells.push(r.cover_size.to_string());
                    cells.push(format!("{:.3}", r.seconds()));
                }
                None => {
                    cells.push("-".to_string());
                    cells.push("-".to_string());
                }
            }
        }
        rows.push(format!(
            "{:<5} {:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
            cells[0], cells[1], cells[2], cells[3], cells[4], cells[5], cells[6], cells[7]
        ));
    }
    rows
}

/// Table IV: TDB++ cover size with and without 2-cycles at `k = 5`.
pub fn table4_rows(config: &ExperimentConfig) -> Vec<String> {
    let mut rows = Vec::new();
    rows.push(format!(
        "{:<5} {:>14} {:>14} {:>8}",
        "Name", "No 2-cycle", "With 2-cycle", "Ratio"
    ));
    for dataset in Dataset::small_and_medium() {
        let g = proxy(dataset, config);
        let without = run_cell(
            &g,
            dataset,
            Algorithm::TdbPlusPlus,
            &HopConstraint::new(5),
            config,
        )
        .expect("TDB++ is never gated");
        let with = run_cell(
            &g,
            dataset,
            Algorithm::TdbPlusPlus,
            &HopConstraint::with_two_cycles(5),
            config,
        )
        .expect("TDB++ is never gated");
        let ratio = if without.cover_size == 0 {
            f64::NAN
        } else {
            with.cover_size as f64 / without.cover_size as f64
        };
        rows.push(format!(
            "{:<5} {:>14} {:>14} {:>8.2}",
            dataset.spec().code,
            without.cover_size,
            with.cover_size,
            ratio
        ));
    }
    rows
}

/// Figure 6/7 data: runtime and cover size versus `k` for the three headline
/// algorithms on the small/medium datasets. Returns one line per
/// `(dataset, algorithm, k)`.
pub fn figure67_rows(config: &ExperimentConfig, datasets: &[Dataset]) -> Vec<RowResult> {
    let mut rows = Vec::new();
    for &dataset in datasets {
        let g = proxy(dataset, config);
        for &k in &config.ks {
            let constraint = HopConstraint::new(k);
            for algorithm in Algorithm::paper_headline() {
                if let Some(r) = run_cell(&g, dataset, algorithm, &constraint, config) {
                    rows.push(r);
                }
            }
        }
    }
    rows
}

/// Figure 8/9 data: BUR versus BUR+ on the ablation pair (WKV, WGO).
pub fn figure89_rows(config: &ExperimentConfig) -> Vec<RowResult> {
    let mut rows = Vec::new();
    for dataset in Dataset::ablation_pair() {
        let g = proxy(dataset, config);
        for &k in &config.ks {
            let constraint = HopConstraint::new(k);
            for algorithm in [Algorithm::Bur, Algorithm::BurPlus] {
                if let Some(r) = run_cell(&g, dataset, algorithm, &constraint, config) {
                    rows.push(r);
                }
            }
        }
    }
    rows
}

/// Figure 10 data: TDB versus TDB+ versus TDB++ on the ablation pair.
pub fn figure10_rows(config: &ExperimentConfig) -> Vec<RowResult> {
    let mut rows = Vec::new();
    for dataset in Dataset::ablation_pair() {
        let g = proxy(dataset, config);
        for &k in &config.ks {
            let constraint = HopConstraint::new(k);
            for algorithm in [Algorithm::Tdb, Algorithm::TdbPlus, Algorithm::TdbPlusPlus] {
                if let Some(r) = run_cell(&g, dataset, algorithm, &constraint, config) {
                    rows.push(r);
                }
            }
        }
    }
    rows
}

/// Format a batch of [`RowResult`]s as a fixed-width table.
pub fn format_rows(rows: &[RowResult]) -> Vec<String> {
    let mut out = Vec::with_capacity(rows.len() + 1);
    out.push(format!(
        "{:<5} {:<9} {:>3} {:>6} {:>12} {:>12} {:>12} {:>9}",
        "Data", "Algo", "k", "2cyc", "cover size", "time (s)", "queries", "verified"
    ));
    for r in rows {
        out.push(format!(
            "{:<5} {:<9} {:>3} {:>6} {:>12} {:>12.4} {:>12} {:>9}",
            r.dataset,
            r.algorithm,
            r.k,
            if r.include_two_cycles { "yes" } else { "no" },
            r.cover_size,
            r.seconds(),
            r.cycle_queries,
            match r.verified {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "-",
            }
        ));
    }
    out
}

/// Helpers shared by the Criterion bench targets.
pub mod bench_support {
    use super::*;

    /// Synthesize a proxy of `dataset` scaled to roughly `target_edges` edges.
    ///
    /// Criterion benches need graphs small enough that even the exhaustive
    /// baselines finish a sample in milliseconds; this helper derives the scale
    /// factor from the published edge count.
    pub fn small_proxy(dataset: Dataset, target_edges: usize) -> CsrGraph {
        let spec = dataset.spec();
        let scale = (target_edges as f64 / spec.edges as f64).min(1.0);
        synthesize(
            dataset,
            &SynthesisConfig {
                scale,
                seed: 42,
                max_edges: target_edges * 2,
                max_vertices: target_edges,
            },
        )
    }

    /// The standard hop constraint used by the runtime benches.
    pub fn k(k: usize) -> HopConstraint {
        HopConstraint::new(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            synthesis: SynthesisConfig {
                scale: 0.004,
                seed: 42,
                max_edges: 3_000,
                max_vertices: 1_500,
            },
            ks: vec![3, 4],
            slow_algorithm_edge_limit: 5_000,
            verify: true,
            time_budget: None,
        }
    }

    #[test]
    fn run_cell_produces_verified_rows() {
        let cfg = tiny_config();
        let g = proxy(Dataset::WikiVote, &cfg);
        let r = run_cell(
            &g,
            Dataset::WikiVote,
            Algorithm::TdbPlusPlus,
            &HopConstraint::new(4),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.dataset, "WKV");
        assert_eq!(r.algorithm, "TDB++");
        assert_eq!(r.verified, Some(true));
        assert_eq!(r.graph_vertices, g.num_vertices());
    }

    #[test]
    fn gating_skips_slow_algorithms_on_big_proxies() {
        let mut cfg = tiny_config();
        cfg.slow_algorithm_edge_limit = 1; // force gating
        let g = proxy(Dataset::WikiVote, &cfg);
        assert!(run_cell(
            &g,
            Dataset::WikiVote,
            Algorithm::DarcDv,
            &HopConstraint::new(3),
            &cfg
        )
        .is_none());
        assert!(run_cell(
            &g,
            Dataset::WikiVote,
            Algorithm::TdbPlusPlus,
            &HopConstraint::new(3),
            &cfg
        )
        .is_some());
    }

    #[test]
    fn zero_time_budget_gates_every_cell() {
        let mut cfg = tiny_config();
        cfg.time_budget = Some(Duration::ZERO);
        let g = proxy(Dataset::WikiVote, &cfg);
        assert!(run_cell(
            &g,
            Dataset::WikiVote,
            Algorithm::TdbPlusPlus,
            &HopConstraint::new(3),
            &cfg
        )
        .is_none());
    }

    #[test]
    fn table2_has_one_row_per_dataset_plus_header() {
        let cfg = tiny_config();
        let rows = table2_rows(&cfg);
        assert_eq!(rows.len(), 17);
        assert!(rows[1].contains("WKV"));
        assert!(rows[16].contains("TW"));
    }

    #[test]
    fn figure10_rows_cover_all_variants_and_agree_on_size() {
        let cfg = tiny_config();
        let rows = figure10_rows(&cfg);
        assert!(!rows.is_empty());
        // For a fixed (dataset, k) the three TDB variants must report the same
        // cover size (they compute identical covers).
        for dataset in ["WKV", "WGO"] {
            for k in &cfg.ks {
                let sizes: Vec<usize> = rows
                    .iter()
                    .filter(|r| r.dataset == dataset && r.k == *k)
                    .map(|r| r.cover_size)
                    .collect();
                if sizes.len() > 1 {
                    assert!(
                        sizes.windows(2).all(|w| w[0] == w[1]),
                        "{dataset} k={k}: {sizes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn formatting_includes_header_and_values() {
        let cfg = tiny_config();
        let g = proxy(Dataset::Gnutella31, &cfg);
        let r = run_cell(
            &g,
            Dataset::Gnutella31,
            Algorithm::TdbPlusPlus,
            &HopConstraint::new(3),
            &cfg,
        )
        .unwrap();
        let lines = format_rows(&[r]);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("cover size"));
        assert!(lines[1].contains("GNU"));
    }
}
