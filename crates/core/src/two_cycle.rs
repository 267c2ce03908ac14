//! Handling of 2-cycles (bidirectional edge pairs).
//!
//! The paper excludes 2-cycles from the main problem because they are trivial
//! to detect and would dominate the cover size (Table IV shows the cover
//! growing ~3× on average when they are included), and notes that "2-cycles
//! could be efficiently verified separately". This module provides that
//! separate treatment:
//!
//! * [`two_cycle_cover`] — a matching-based 2-approximation of the minimum
//!   vertex set covering every 2-cycle (exactly the `S(G, 2, 2)` routine used
//!   in the inapproximability proof of Theorem 3),
//! * [`minimal_two_cycle_cover`] — the same cover after redundancy pruning.
//!
//! [`TwoCycleMode::Separate`](crate::TwoCycleMode::Separate) builds the
//! combined cover from it: the minimal 2-cycle cover, united with a `3..=k`
//! cover of the residual graph, covers every cycle of length `2..=k`. It is
//! an alternative to covering
//! [`HopConstraint::with_two_cycles`](tdb_cycle::HopConstraint::with_two_cycles)
//! in one pass. The combined cover is not guaranteed minimal, yet it was
//! smaller and faster than the one-pass cover on every reciprocated graph
//! measured (TDB++, k = 5): on the Wiki-Vote proxy at scale 0.5 it kept
//! 1,136 vertices in 1.5 ms against 1,415 in 10.3 ms. The README lists all
//! measured graphs, and the `table4_twocycles` bench reproduces the
//! comparison.

use tdb_graph::{Graph, VertexId};

use crate::cover::CycleCover;

/// All reciprocated pairs `{u, v}` (with `u < v`) of the graph — the 2-cycles.
pub fn two_cycle_pairs<G: Graph>(g: &G) -> Vec<(VertexId, VertexId)> {
    let mut pairs = Vec::new();
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            if v > u && g.has_edge(v, u) {
                pairs.push((u, v));
            }
        }
    }
    pairs
}

/// Matching-based 2-approximation of the minimum vertex cover of all 2-cycles:
/// both endpoints of every pair of a greedily-built maximal matching are taken.
pub fn two_cycle_cover<G: Graph>(g: &G) -> CycleCover {
    let mut chosen = vec![false; g.num_vertices()];
    let mut cover = Vec::new();
    for (u, v) in two_cycle_pairs(g) {
        if !chosen[u as usize] && !chosen[v as usize] {
            chosen[u as usize] = true;
            chosen[v as usize] = true;
            cover.push(u);
            cover.push(v);
        }
    }
    CycleCover::from_vertices(cover)
}

/// [`two_cycle_cover`] followed by a redundancy-pruning pass: a chosen vertex
/// is dropped when all of its reciprocated partners are themselves chosen.
pub fn minimal_two_cycle_cover<G: Graph>(g: &G) -> CycleCover {
    let base = two_cycle_cover(g);
    let mut chosen = vec![false; g.num_vertices()];
    for v in base.iter() {
        chosen[v as usize] = true;
    }
    // Greedy removal in descending id order (arbitrary but deterministic).
    let mut result: Vec<VertexId> = base.iter().collect();
    for idx in (0..result.len()).rev() {
        let v = result[idx];
        let removable = g.out_neighbors(v).iter().all(|&w| {
            // Only reciprocated partners matter.
            !g.has_edge(w, v) || w == v || chosen[w as usize]
        });
        if removable {
            chosen[v as usize] = false;
            result.swap_remove(idx);
        }
    }
    CycleCover::from_vertices(result)
}

/// Whether `cover` hits every 2-cycle of the graph.
pub fn covers_all_two_cycles<G: Graph>(g: &G, cover: &CycleCover) -> bool {
    two_cycle_pairs(g)
        .into_iter()
        .all(|(u, v)| cover.contains(u) || cover.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_valid_cover;
    use crate::{Algorithm, CoverRequest, TwoCycleMode};
    use tdb_cycle::HopConstraint;
    use tdb_graph::builder::graph_from_edges;
    use tdb_graph::gen::{
        complete_digraph, directed_cycle, preferential_attachment, PreferentialConfig,
    };

    #[test]
    fn pairs_are_detected_once() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(two_cycle_pairs(&g), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn cover_hits_every_pair() {
        let g = complete_digraph(6);
        let cover = two_cycle_cover(&g);
        assert!(covers_all_two_cycles(&g, &cover));
        let minimal = minimal_two_cycle_cover(&g);
        assert!(covers_all_two_cycles(&g, &minimal));
        assert!(minimal.len() <= cover.len());
        // K6: covering all 2-cycles needs at least 5 vertices.
        assert!(minimal.len() >= 5);
    }

    #[test]
    fn graphs_without_reciprocation_need_nothing() {
        let g = directed_cycle(5);
        assert!(two_cycle_pairs(&g).is_empty());
        assert!(two_cycle_cover(&g).is_empty());
        assert!(minimal_two_cycle_cover(&g).is_empty());
    }

    #[test]
    fn minimal_cover_drops_redundant_endpoint_of_isolated_pair() {
        // A single 2-cycle: the matching picks both endpoints, pruning keeps one.
        let g = graph_from_edges(&[(0, 1), (1, 0)]);
        assert_eq!(two_cycle_cover(&g).len(), 2);
        assert_eq!(minimal_two_cycle_cover(&g).len(), 1);
    }

    #[test]
    fn star_of_two_cycles_is_covered_by_the_hub() {
        // Vertex 0 reciprocates with 1..=4: the minimum cover is {0}.
        let g = graph_from_edges(&[
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 0),
            (0, 3),
            (3, 0),
            (0, 4),
            (4, 0),
        ]);
        let minimal = minimal_two_cycle_cover(&g);
        assert!(covers_all_two_cycles(&g, &minimal));
        // The 2-approximation guarantee: at most 2x optimum (= 2 here).
        assert!(minimal.len() <= 2);
    }

    /// The combined cover of `2..=k`: a `Separate` TDB++ request.
    fn combined_cover(g: &tdb_graph::CsrGraph, k: usize) -> crate::CoverReport {
        CoverRequest {
            include_two_cycles: true,
            two_cycle_mode: TwoCycleMode::Separate,
            ..CoverRequest::new(Algorithm::TdbPlusPlus, k)
        }
        .solve(g)
        .expect("unbudgeted solve cannot fail")
    }

    #[test]
    fn combined_cover_is_valid_for_the_two_cycle_constraint() {
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 150,
            out_degree: 3,
            reciprocity: 0.4,
            random_rewire: 0.1,
            seed: 21,
        });
        let run = combined_cover(&g, 4);
        assert!(is_valid_cover(
            &g,
            &run.cover,
            &HopConstraint::with_two_cycles(4)
        ));
        // And it naturally also covers the 3..=k-only constraint.
        assert!(is_valid_cover(&g, &run.cover, &HopConstraint::new(4)));
    }

    #[test]
    fn combined_cover_larger_than_plain_cover() {
        let g = preferential_attachment(&PreferentialConfig {
            num_vertices: 120,
            out_degree: 3,
            reciprocity: 0.5,
            random_rewire: 0.1,
            seed: 33,
        });
        let plain = CoverRequest::new(Algorithm::TdbPlusPlus, 4)
            .solve(&g)
            .unwrap();
        let combined = combined_cover(&g, 4);
        assert!(combined.cover_size() >= plain.cover_size());
    }
}
