//! Weighted-objective scenario: `Objective::MinWeight` under a skewed
//! cost model vs the cardinality baseline, plus the budgeted best-effort
//! solve — the perf + quality pin for the `CoverRequest` API.
//!
//! The cost model is the fraud story's: vertices in the top degree tier are
//! `vip_cost`× as expensive to remove as everyone else, so a weight-aware
//! solve should buy a cheaper cover by spending more (cheap) vertices. The
//! scenario also re-checks the API's two contracts on every run:
//!
//! * **all-1 degeneracy** — `MinWeight` with unit weights must reproduce the
//!   `MinCardinality` cover bit-for-bit, and
//! * **budget hardness** — a `Budget::MaxCost` solve never exceeds its cap
//!   and reports the escaped cycles as its residual.
//!
//! Consumed by the `experiments weighted` subcommand.

use std::time::{Duration, Instant};

use tdb_core::prelude::*;
use tdb_core::Budget;
use tdb_graph::gen::erdos_renyi_gnm;
use tdb_graph::{CostModel, Graph};

/// Parameters of a weighted-objective run.
#[derive(Debug, Clone)]
pub struct WeightedConfig {
    /// Vertices of the synthetic graph.
    pub vertices: usize,
    /// Edges of the synthetic graph.
    pub edges: usize,
    /// Hop constraint `k`.
    pub k: usize,
    /// RNG seed for graph synthesis.
    pub seed: u64,
    /// Total-degree threshold above which a vertex is "VIP".
    pub vip_degree: usize,
    /// Removal cost of a VIP vertex (everyone else costs 1).
    pub vip_cost: u64,
    /// Cost cap of the budgeted solve, as a per-mille fraction of the
    /// weighted cover's cost (e.g. `750` = 75% — tight enough to trim).
    pub budget_permille: u64,
}

impl WeightedConfig {
    /// The acceptance workload: a 20k-vertex graph with mean total degree 8,
    /// VIP = top degree tier.
    pub fn acceptance() -> Self {
        WeightedConfig {
            vertices: 20_000,
            edges: 80_000,
            k: 4,
            seed: 42,
            vip_degree: 14,
            vip_cost: 100,
            budget_permille: 750,
        }
    }

    /// Tiny configuration for unit tests and the CI smoke step.
    pub fn smoke() -> Self {
        WeightedConfig {
            vertices: 1_000,
            edges: 4_000,
            k: 4,
            seed: 7,
            vip_degree: 12,
            vip_cost: 100,
            budget_permille: 750,
        }
    }
}

/// Outcome of one weighted-objective run.
#[derive(Debug, Clone)]
pub struct WeightedReport {
    /// Vertices of the graph.
    pub vertices: usize,
    /// Edges of the graph.
    pub edges: usize,
    /// Vertices priced at `vip_cost`.
    pub vip_vertices: usize,
    /// Wall-clock of the cardinality solve.
    pub cardinality_time: Duration,
    /// Wall-clock of the weighted solve.
    pub weighted_time: Duration,
    /// Cover size of the cardinality solve.
    pub cardinality_cover: usize,
    /// Cost of the cardinality cover under the skewed model.
    pub cardinality_cost: u64,
    /// Cover size of the weighted solve.
    pub weighted_cover: usize,
    /// Cost of the weighted cover.
    pub weighted_cost: u64,
    /// Both unbudgeted covers passed the independent validity audit.
    pub covers_valid: bool,
    /// `MinWeight` with all-1 weights reproduced the cardinality cover
    /// bit-for-bit.
    pub unit_weights_bit_exact: bool,
    /// Cost cap handed to the budgeted solve.
    pub budget_cap: u64,
    /// Cost of the budgeted (trimmed) cover.
    pub budgeted_cost: u64,
    /// Vertices kept by the budgeted solve.
    pub budgeted_cover: usize,
    /// Whether the budget forced a trim.
    pub budgeted_exhausted: bool,
    /// Residual cycles the budgeted cover fails to break.
    pub residual_cycles: usize,
    /// The budgeted solve respected its cap and its residual accounting
    /// (`exhausted` ⟺ non-empty residual).
    pub budget_respected: bool,
}

impl WeightedReport {
    /// Every contract the scenario checks held.
    pub fn healthy(&self) -> bool {
        self.covers_valid && self.unit_weights_bit_exact && self.budget_respected
    }
}

/// Run the weighted-objective scenario.
pub fn run_weighted(config: &WeightedConfig) -> WeightedReport {
    let g = erdos_renyi_gnm(config.vertices, config.edges, config.seed);
    let constraint = HopConstraint::new(config.k);
    let costs = CostModel::from_fn(g.num_vertices(), |v| {
        if g.out_degree(v) + g.in_degree(v) >= config.vip_degree {
            config.vip_cost
        } else {
            1
        }
    });
    let vip_vertices = (0..g.num_vertices() as u32)
        .filter(|&v| costs.cost(v) > 1)
        .count();

    let timer = Instant::now();
    let baseline = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&g, &constraint)
        .expect("unbudgeted solve cannot fail");
    let cardinality_time = timer.elapsed();

    let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, config.k);
    request.objective = Objective::MinWeight;
    request.costs = costs.clone();
    let timer = Instant::now();
    let weighted = request.solve(&g).expect("unbudgeted solve cannot fail");
    let weighted_time = timer.elapsed();

    let covers_valid = verify_cover(&g, &baseline.cover, &constraint).is_valid
        && verify_cover(&g, &weighted.cover, &constraint).is_valid;

    // Contract 1: unit weights degenerate to the cardinality solve exactly.
    let mut unit = CoverRequest::new(Algorithm::TdbPlusPlus, config.k);
    unit.objective = Objective::MinWeight;
    unit.costs = CostModel::from_fn(g.num_vertices(), |_| 1);
    let unit_weights_bit_exact = unit
        .solve(&g)
        .map(|r| r.cover == baseline.cover)
        .unwrap_or(false);

    // Contract 2: a tight cost cap is hard, and the report accounts for what
    // it gave up.
    let budget_cap = (weighted.total_cost * config.budget_permille / 1000).max(1);
    let mut budgeted_request = CoverRequest::new(Algorithm::TdbPlusPlus, config.k);
    budgeted_request.objective = Objective::MinWeight;
    budgeted_request.costs = costs;
    budgeted_request.budget = Budget::MaxCost(budget_cap);
    let budgeted = budgeted_request
        .solve(&g)
        .expect("budgeted solves are best-effort, not errors");
    // `exhausted` ⟺ non-empty residual ⟺ the kept cover fails the audit.
    let budget_respected = budgeted.total_cost <= budget_cap
        && budgeted.exhausted != budgeted.residual.is_empty()
        && budgeted.exhausted != verify_cover(&g, &budgeted.cover, &constraint).is_valid;

    WeightedReport {
        vertices: config.vertices,
        edges: g.num_edges(),
        vip_vertices,
        cardinality_time,
        weighted_time,
        cardinality_cover: baseline.cover_size(),
        cardinality_cost: baseline
            .cover
            .iter()
            .map(|v| request.costs.cost(v))
            .sum::<u64>(),
        weighted_cover: weighted.cover_size(),
        weighted_cost: weighted.total_cost,
        covers_valid,
        unit_weights_bit_exact,
        budget_cap,
        budgeted_cost: budgeted.total_cost,
        budgeted_cover: budgeted.cover_size(),
        budgeted_exhausted: budgeted.exhausted,
        residual_cycles: budgeted.residual.len(),
        budget_respected,
    }
}

/// Render a report as the fixed-width lines the harness prints.
pub fn format_weighted_report(r: &WeightedReport) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "graph     |V|={} |E|={}  {} VIP vertices",
        r.vertices, r.edges, r.vip_vertices
    ));
    out.push(format!(
        "cardinality  {} vertices at cost {}  ({:.3}s)",
        r.cardinality_cover,
        r.cardinality_cost,
        r.cardinality_time.as_secs_f64()
    ));
    out.push(format!(
        "min-weight   {} vertices at cost {}  ({:.3}s)  [{:+.1}% cost vs baseline]",
        r.weighted_cover,
        r.weighted_cost,
        r.weighted_time.as_secs_f64(),
        (r.weighted_cost as f64 / r.cardinality_cost as f64 - 1.0) * 100.0
    ));
    out.push(format!(
        "budgeted     cap {} -> {} vertices at cost {}  exhausted {}  residual {} cycles",
        r.budget_cap, r.budgeted_cover, r.budgeted_cost, r.budgeted_exhausted, r.residual_cycles
    ));
    out.push(format!(
        "contracts    covers valid {}  all-1 bit-exact {}  budget respected {}",
        r.covers_valid, r.unit_weights_bit_exact, r.budget_respected
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_weighted_holds_its_contracts() {
        let report = run_weighted(&WeightedConfig::smoke());
        assert!(report.covers_valid, "unbudgeted covers must be valid");
        assert!(
            report.unit_weights_bit_exact,
            "all-1 MinWeight must match MinCardinality bit-for-bit"
        );
        assert!(
            report.budget_respected,
            "MaxCost cap exceeded or residual accounting wrong"
        );
        assert!(report.budgeted_cost <= report.budget_cap);
        assert!(report.healthy());
        let lines = format_weighted_report(&report);
        assert!(lines.iter().any(|l| l.contains("min-weight")));
        assert!(lines.iter().any(|l| l.contains("budget respected true")));
    }

    #[test]
    fn weighted_cover_avoids_vips_on_a_hub_graph() {
        // Small enough to reason about: the weighted cover never pays more
        // than the cardinality cover under the same skewed model.
        let config = WeightedConfig {
            vertices: 400,
            edges: 1_800,
            vip_degree: 11,
            ..WeightedConfig::smoke()
        };
        let report = run_weighted(&config);
        assert!(report.vip_vertices > 0, "the tier threshold must bite");
        assert!(
            report.weighted_cost <= report.cardinality_cost,
            "weight-aware solve paid {} vs baseline {}",
            report.weighted_cost,
            report.cardinality_cost
        );
    }
}
