//! Seeded synthesis of dataset proxies.
//!
//! Each catalog entry is mapped to one of the `tdb-graph` generator families
//! according to its [`GraphClass`], with the published vertex/edge counts
//! scaled by [`SynthesisConfig::scale`]:
//!
//! * social / e-mail / financial graphs → directed preferential attachment
//!   (heavy-tailed in-degree plus class-specific reciprocity),
//! * web crawls → R-MAT (power-law with the Graph500 parameters; the vertex
//!   count is rounded up to a power of two),
//! * internet / P2P topologies → uniform `G(n, m)` with a reciprocity pass,
//! * citation graphs → a mostly-acyclic preferential graph with a small
//!   reciprocal fraction.
//!
//! The generators are deterministic in the seed, so a proxy's measured cover
//! sizes can be quoted exactly and reproduced from the seed.

use tdb_graph::gen::{
    erdos_renyi_gnm, preferential_attachment, rmat, PreferentialConfig, RmatConfig, Xoshiro256,
};
use tdb_graph::{CsrGraph, Graph, GraphBuilder};

use crate::catalog::{Dataset, DatasetSpec, GraphClass};

/// Controls how a proxy is synthesized from a catalog entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// Multiplier applied to the published vertex and edge counts. `1.0`
    /// reproduces the full published size; the default experiment harness uses
    /// much smaller factors so the whole table fits a laptop budget.
    pub scale: f64,
    /// Base RNG seed; every dataset derives its own stream from it.
    pub seed: u64,
    /// Cap on the proxy's edge budget after scaling (guards the Twitter row,
    /// whose full size would be 1.47 B edges). Reciprocation can exceed the
    /// budget by the dataset's reciprocity fraction, so the realized edge count
    /// stays within roughly 2× of this value.
    pub max_edges: usize,
    /// Hard cap on the proxy's vertex count after scaling.
    pub max_vertices: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            scale: 1.0,
            seed: 42,
            max_edges: 50_000_000,
            max_vertices: 20_000_000,
        }
    }
}

impl SynthesisConfig {
    /// A configuration producing proxies a few thousand edges large — used by
    /// unit tests and doc examples.
    pub fn tiny() -> Self {
        SynthesisConfig {
            scale: 0.01,
            seed: 42,
            max_edges: 20_000,
            max_vertices: 10_000,
        }
    }

    /// The default configuration of the experiment harness: roughly 1/20 of the
    /// published sizes, capped so the largest proxies stay around a million
    /// edges.
    pub fn harness_default() -> Self {
        SynthesisConfig {
            scale: 0.05,
            seed: 42,
            max_edges: 2_000_000,
            max_vertices: 1_000_000,
        }
    }

    /// Scale with a custom factor, keeping the other defaults.
    pub fn with_scale(scale: f64) -> Self {
        SynthesisConfig {
            scale,
            ..SynthesisConfig::default()
        }
    }

    fn target_vertices(&self, spec: &DatasetSpec) -> usize {
        ((spec.vertices as f64 * self.scale).round() as usize).clamp(16, self.max_vertices)
    }

    fn target_edges(&self, spec: &DatasetSpec) -> usize {
        ((spec.edges as f64 * self.scale).round() as usize).clamp(32, self.max_edges)
    }
}

/// Derive a per-dataset seed so that different datasets built from the same
/// base seed do not share RNG streams.
fn dataset_seed(base: u64, spec: &DatasetSpec) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for b in spec.code.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
    }
    h
}

/// Synthesize a proxy graph for a catalog dataset.
pub fn synthesize(dataset: Dataset, config: &SynthesisConfig) -> CsrGraph {
    synthesize_spec(&dataset.spec(), config)
}

/// Synthesize a proxy graph directly from a [`DatasetSpec`] (useful for custom
/// what-if rows that are not in the catalog).
pub fn synthesize_spec(spec: &DatasetSpec, config: &SynthesisConfig) -> CsrGraph {
    let n = config.target_vertices(spec);
    let m = config.target_edges(spec);
    let seed = dataset_seed(config.seed, spec);
    match spec.class {
        GraphClass::Social | GraphClass::Email | GraphClass::Financial => {
            let out_degree = (m as f64 / n as f64).round().max(1.0) as usize;
            preferential_attachment(&PreferentialConfig {
                num_vertices: n,
                out_degree,
                reciprocity: spec.reciprocity,
                random_rewire: 0.15,
                seed,
            })
        }
        GraphClass::Web => {
            let scale_log2 = (n.max(2) as f64).log2().ceil() as u32;
            rmat(&RmatConfig {
                scale: scale_log2.min(26),
                num_edges: m,
                a: 0.57,
                b: 0.19,
                c: 0.19,
                reciprocity: spec.reciprocity,
                seed,
            })
        }
        GraphClass::Network => {
            with_reciprocity(erdos_renyi_gnm(n, m, seed), spec.reciprocity, seed)
        }
        GraphClass::Citation => {
            // Citation graphs are close to DAGs with a thin layer of mutual
            // citations: a low-reciprocity preferential graph captures both the
            // skew and the sparse cycle population.
            let out_degree = (m as f64 / n as f64).round().max(1.0) as usize;
            preferential_attachment(&PreferentialConfig {
                num_vertices: n,
                out_degree,
                reciprocity: spec.reciprocity,
                random_rewire: 0.05,
                seed,
            })
        }
    }
}

/// Add reverse edges to a fraction `reciprocity` of the edges of `g`.
fn with_reciprocity(g: CsrGraph, reciprocity: f64, seed: u64) -> CsrGraph {
    if reciprocity <= 0.0 {
        return g;
    }
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xABCD_EF01);
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges() * 2);
    b.reserve_vertices(g.num_vertices());
    for e in g.edges() {
        b.add_edge(e.source, e.target);
        if rng.next_bool(reciprocity) {
            b.add_edge(e.target, e.source);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_graph::metrics::graph_stats;

    #[test]
    fn tiny_proxies_exist_for_every_dataset() {
        let cfg = SynthesisConfig::tiny();
        for d in Dataset::all() {
            let g = synthesize(d, &cfg);
            assert!(g.num_vertices() >= 16, "{:?}", d);
            assert!(g.num_edges() >= 16, "{:?}", d);
            // The edge budget is soft: reciprocation may add up to the
            // dataset's reciprocity fraction on top.
            assert!(g.num_edges() <= cfg.max_edges * 2, "{:?}", d);
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let cfg = SynthesisConfig::tiny();
        let a = synthesize(Dataset::WikiVote, &cfg);
        let b = synthesize(Dataset::WikiVote, &cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        let other_seed = SynthesisConfig {
            seed: 7,
            ..SynthesisConfig::tiny()
        };
        let c = synthesize(Dataset::WikiVote, &other_seed);
        assert!(a.num_edges() != c.num_edges() || a.edges().zip(c.edges()).any(|(x, y)| x != y));
    }

    #[test]
    fn different_datasets_get_different_streams() {
        let cfg = SynthesisConfig::tiny();
        let a = synthesize(Dataset::AsCaida, &cfg);
        let b = synthesize(Dataset::Gnutella31, &cfg);
        assert!(
            a.num_vertices() != b.num_vertices() || a.edges().zip(b.edges()).any(|(x, y)| x != y)
        );
    }

    #[test]
    fn scaling_tracks_published_ratios() {
        let spec = Dataset::Slashdot0902.spec();
        let cfg = SynthesisConfig::with_scale(0.02);
        let g = synthesize(Dataset::Slashdot0902, &cfg);
        let target_n = (spec.vertices as f64 * 0.02) as usize;
        // Preferential attachment hits the vertex target exactly and the edge
        // target within a factor ~2 (reciprocation and dedup both move it).
        assert_eq!(g.num_vertices(), target_n);
        let target_m = spec.edges as f64 * 0.02;
        let m = g.num_edges() as f64;
        assert!(
            m > target_m * 0.4 && m < target_m * 2.5,
            "m = {m}, target {target_m}"
        );
    }

    #[test]
    fn reciprocity_ordering_is_respected() {
        let cfg = SynthesisConfig {
            scale: 0.05,
            ..SynthesisConfig::tiny()
        };
        let slashdot = synthesize(Dataset::Slashdot0902, &cfg); // reciprocity 0.55
        let loans = synthesize(Dataset::ProsperLoans, &cfg); // reciprocity 0.01
        let s = graph_stats(&slashdot);
        let l = graph_stats(&loans);
        assert!(
            s.reciprocity > l.reciprocity,
            "slashdot {} vs loans {}",
            s.reciprocity,
            l.reciprocity
        );
    }

    #[test]
    fn web_proxies_have_power_of_two_vertex_budget() {
        let cfg = SynthesisConfig::tiny();
        let g = synthesize(Dataset::WebGoogle, &cfg);
        assert!(g.num_vertices().is_power_of_two());
    }

    #[test]
    fn caps_limit_the_largest_graphs() {
        let cfg = SynthesisConfig {
            scale: 1.0,
            seed: 1,
            max_edges: 10_000,
            max_vertices: 5_000,
        };
        let g = synthesize(Dataset::TwitterWww, &cfg);
        assert!(g.num_edges() <= 10_000 * 2); // reciprocity can add a few
        assert!(g.num_vertices() <= 5_000);
    }

    #[test]
    fn harness_default_produces_medium_proxies() {
        let cfg = SynthesisConfig::harness_default();
        let g = synthesize(Dataset::WikiVote, &cfg);
        assert!(g.num_vertices() >= 200);
        assert!(g.num_edges() >= 1_000);
    }
}
