//! The sharded-solving scenario: multi-component graphs, sharded vs unsharded.
//!
//! Production graphs (payment networks, dependency graphs, social subgraphs
//! per region) are rarely one giant strongly connected component — they
//! decompose into many medium components joined by acyclic "bridge" traffic.
//! This scenario synthesizes exactly that shape: `components` disjoint
//! Erdős–Rényi-style blocks chained by one-way bridges (which keep the blocks
//! separate SCCs), plus an acyclic fringe. It then solves the same instance
//! twice — sequential whole-graph vs [`ShardingMode`]-partitioned — and
//! reports the speedup and the cover agreement the partition argument
//! guarantees.

use std::time::Duration;

use tdb_core::{Algorithm, CoverRequest, HopConstraint, Partitioner, ShardingMode, Solver};
use tdb_graph::gen::{multi_scc_chain, MultiSccConfig};
use tdb_graph::{CsrGraph, Graph};

/// Parameters of the multi-component scenario.
#[derive(Debug, Clone)]
pub struct ShardingConfig {
    /// Number of non-trivial strongly connected components.
    pub components: usize,
    /// Vertices per component.
    pub vertices_per_component: usize,
    /// Random intra-component edges per component (before dedup).
    pub edges_per_component: usize,
    /// Hop constraint `k`.
    pub k: usize,
    /// Worker threads of the sharded solve.
    pub threads: usize,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// RNG seed.
    pub seed: u64,
    /// Independently audit both covers with `verify_cover` (validity; adds a
    /// full verification pass per solve).
    pub verify: bool,
}

impl ShardingConfig {
    /// The acceptance-scale scenario: 8 components × 12.5k vertices = 100k
    /// vertices, 4 worker threads, top-down TDB++ at `k = 6` (heavy enough
    /// that the per-vertex searches dwarf the partition overhead).
    pub fn acceptance() -> Self {
        ShardingConfig {
            components: 8,
            vertices_per_component: 12_500,
            edges_per_component: 50_000,
            k: 6,
            threads: 4,
            algorithm: Algorithm::TdbPlusPlus,
            seed: 42,
            verify: false,
        }
    }

    /// A sub-second configuration for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        ShardingConfig {
            components: 6,
            vertices_per_component: 300,
            edges_per_component: 1_200,
            k: 4,
            threads: 4,
            algorithm: Algorithm::TdbPlusPlus,
            seed: 42,
            verify: true,
        }
    }
}

/// Build the seeded multi-SCC graph of a [`ShardingConfig`]: equal
/// [`multi_scc_chain`] blocks plus a short acyclic tail of trivial SCCs.
pub fn multi_scc_graph(config: &ShardingConfig) -> CsrGraph {
    multi_scc_chain(&MultiSccConfig::uniform(
        config.components,
        config.vertices_per_component as u32,
        config.edges_per_component,
        (config.vertices_per_component as u32 / 10).max(2),
        config.seed,
    ))
}

/// The measurements of one sharded-vs-unsharded comparison.
#[derive(Debug, Clone)]
pub struct ShardingReport {
    /// Vertices of the instance.
    pub vertices: usize,
    /// Edges of the instance.
    pub edges: usize,
    /// Non-trivial SCCs found by the partitioner.
    pub non_trivial_components: usize,
    /// Worker threads used by the sharded solve.
    pub threads: usize,
    /// Logical CPUs of the machine the measurement ran on.
    pub host_cpus: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Wall-clock time of the sequential whole-graph solve.
    pub unsharded: Duration,
    /// Wall-clock time of the partitioned solve.
    pub sharded: Duration,
    /// Wall-clock time of SCC condensation + shard extraction alone.
    pub partition_time: Duration,
    /// Measured solve time of each shard, solved one at a time (largest
    /// shard first — the executor's queue order).
    pub shard_times: Vec<Duration>,
    /// Cover size of the unsharded solve.
    pub unsharded_cover: usize,
    /// Cover size of the sharded solve.
    pub sharded_cover: usize,
    /// Whether the two covers were identical vertex sets.
    pub covers_identical: bool,
    /// Whether the sharded cover passed the independent validity audit
    /// (`None` when [`ShardingConfig::verify`] was off).
    pub verified: Option<bool>,
}

impl ShardingReport {
    /// `unsharded / sharded` wall-clock ratio, as measured on this host.
    pub fn speedup(&self) -> f64 {
        self.unsharded.as_secs_f64() / self.sharded.as_secs_f64().max(1e-12)
    }

    /// The makespan of scheduling the *measured* per-shard solve times onto
    /// `threads` workers with the executor's largest-first queue, plus the
    /// measured partition time: the wall clock the sharded solve reaches once
    /// the host actually has `threads` idle cores. On a host with fewer CPUs
    /// than workers this is a projection — [`format_sharding_report`] labels
    /// it as such — but every number entering it is measured, not modeled.
    pub fn makespan_on(&self, threads: usize) -> Duration {
        let mut workers = vec![Duration::ZERO; threads.max(1)];
        for &t in &self.shard_times {
            // The queue hands the next shard to the first worker to go idle.
            let min = workers.iter_mut().min().expect("at least one worker");
            *min += t;
        }
        self.partition_time + workers.into_iter().max().unwrap_or(Duration::ZERO)
    }

    /// `unsharded` over [`ShardingReport::makespan_on`] for the configured
    /// worker count.
    pub fn projected_speedup(&self) -> f64 {
        self.unsharded.as_secs_f64() / self.makespan_on(self.threads).as_secs_f64().max(1e-12)
    }
}

/// The configured algorithm, sharded over `config.threads` workers.
fn sharded_solver(config: &ShardingConfig) -> Solver {
    Solver::from_request(CoverRequest {
        sharding: ShardingMode::Threads(config.threads),
        ..CoverRequest::new(config.algorithm, config.k)
    })
}

/// Run the scenario: build the graph, solve both ways, compare.
pub fn run_sharding(config: &ShardingConfig) -> ShardingReport {
    let g = multi_scc_graph(config);
    let constraint = HopConstraint::new(config.k);

    let partition_start = std::time::Instant::now();
    let partition = Partitioner::new().partition(&g);
    let partition_time = partition_start.elapsed();

    let plain = Solver::new(config.algorithm)
        .solve(&g, &constraint)
        .expect("unbudgeted solve cannot fail");
    let sharded = sharded_solver(config)
        .solve(&g, &constraint)
        .expect("unbudgeted solve cannot fail");

    // Per-shard breakdown: solve each extracted component on its own, in the
    // executor's largest-first order, timing each solve.
    let shard_times: Vec<Duration> = partition
        .shards
        .iter()
        .map(|shard| {
            Solver::new(config.algorithm)
                .solve(&shard.graph, &constraint)
                .expect("unbudgeted solve cannot fail")
                .metrics
                .elapsed
        })
        .collect();

    ShardingReport {
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        non_trivial_components: partition.shards.len(),
        threads: config.threads,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        algorithm: config.algorithm.name().to_string(),
        unsharded: plain.metrics.elapsed,
        sharded: sharded.metrics.elapsed,
        partition_time,
        shard_times,
        unsharded_cover: plain.cover_size(),
        sharded_cover: sharded.cover_size(),
        covers_identical: plain.cover == sharded.cover,
        verified: config
            .verify
            .then(|| tdb_core::prelude::is_valid_cover(&g, &sharded.cover, &constraint)),
    }
}

/// Format a report as the lines the `experiments` binary prints.
pub fn format_sharding_report(r: &ShardingReport) -> Vec<String> {
    let mut lines = vec![
        format!(
            "graph     |V|={} |E|={} non-trivial SCCs={}",
            r.vertices, r.edges, r.non_trivial_components
        ),
        format!(
            "unsharded {:<10} size={:<8} time={:.3}s",
            r.algorithm,
            r.unsharded_cover,
            r.unsharded.as_secs_f64()
        ),
        format!(
            "sharded   {:<10} size={:<8} time={:.3}s  ({} threads on {} CPUs)",
            r.algorithm,
            r.sharded_cover,
            r.sharded.as_secs_f64(),
            r.threads,
            r.host_cpus,
        ),
        format!(
            "breakdown partition {:.3}s + shards [{}]",
            r.partition_time.as_secs_f64(),
            r.shard_times
                .iter()
                .map(|t| format!("{:.3}s", t.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        format!(
            "speedup   {:.2}x measured  covers identical: {}  verified: {}",
            r.speedup(),
            if r.covers_identical { "yes" } else { "NO" },
            match r.verified {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "-",
            }
        ),
    ];
    if r.host_cpus < r.threads {
        lines.push(format!(
            "          {:.2}x at {} threads from the measured per-shard times \
             (host has only {} CPUs; largest-first schedule of the breakdown above)",
            r.projected_speedup(),
            r.threads,
            r.host_cpus,
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_core::prelude::is_valid_cover;

    #[test]
    fn multi_scc_graph_has_the_requested_component_structure() {
        let config = ShardingConfig::smoke();
        let g = multi_scc_graph(&config);
        let partition = Partitioner::new().partition(&g);
        assert_eq!(partition.shards.len(), config.components);
        assert!(
            partition.trivial_vertices >= 2,
            "the fringe must be acyclic"
        );
        for shard in &partition.shards {
            assert_eq!(shard.len(), config.vertices_per_component);
        }
    }

    #[test]
    fn smoke_scenario_agrees_and_produces_valid_covers() {
        let config = ShardingConfig::smoke();
        let report = run_sharding(&config);
        assert!(report.covers_identical);
        assert_eq!(report.sharded_cover, report.unsharded_cover);
        assert_eq!(report.non_trivial_components, config.components);
        let g = multi_scc_graph(&config);
        let run = sharded_solver(&config)
            .solve(&g, &HopConstraint::new(config.k))
            .unwrap();
        assert!(is_valid_cover(
            &g,
            &run.cover,
            &HopConstraint::new(config.k)
        ));
        assert_eq!(report.shard_times.len(), config.components);
        let lines = format_sharding_report(&report);
        assert!(lines.len() >= 5);
        assert!(lines[3].contains("breakdown"));
        assert!(lines[4].contains("speedup"));
    }

    #[test]
    fn makespan_schedules_largest_first_onto_idle_workers() {
        let report = ShardingReport {
            vertices: 0,
            edges: 0,
            non_trivial_components: 4,
            threads: 2,
            host_cpus: 1,
            algorithm: "TDB++".into(),
            unsharded: Duration::from_secs(10),
            sharded: Duration::from_secs(10),
            partition_time: Duration::from_secs(1),
            shard_times: [4u64, 3, 2, 1].map(Duration::from_secs).to_vec(),
            unsharded_cover: 0,
            sharded_cover: 0,
            covers_identical: true,
            verified: None,
        };
        // Two workers: {4, 1} and {3, 2} -> makespan 5, plus 1s of partition.
        assert_eq!(report.makespan_on(2), Duration::from_secs(6));
        // One worker degenerates to the sequential sum.
        assert_eq!(report.makespan_on(1), Duration::from_secs(11));
        assert!((report.projected_speedup() - 10.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let config = ShardingConfig::smoke();
        let a = multi_scc_graph(&config);
        let b = multi_scc_graph(&config);
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
    }
}
