//! Compressed-sparse-row storage of a directed graph.

use crate::types::{Edge, VertexId};
use crate::Graph;

/// Immutable directed graph in compressed-sparse-row (CSR) layout.
///
/// Both the out-adjacency and the in-adjacency are stored, because the paper's
/// algorithms traverse in both directions:
///
/// * the block/barrier DFS (`NodeNecessary`, Algorithm 9) walks out-edges while
///   `Unblock` (Algorithm 10) propagates over in-edges,
/// * the BFS-filter (Algorithm 11) walks the reverse direction to bound the
///   length of the shortest closed walk through a vertex, and the block DFS
///   seeds its barriers with a reverse BFS too,
/// * the top-down scan (Algorithm 8) conceptually "inserts all in-edges and
///   out-edges" of the vertex under test.
///
/// Adjacency lists are sorted ascending and deduplicated, so edge membership is
/// a binary search and bidirectional-edge detection (2-cycles) is a merge.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CsrGraph {
    /// `out_offsets[v]..out_offsets[v + 1]` indexes `out_targets`.
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    /// `in_offsets[v]..in_offsets[v + 1]` indexes `in_sources`.
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
}

impl CsrGraph {
    /// Build a graph with `n` vertices from an edge buffer.
    ///
    /// The buffer is sorted and deduplicated in place (which is why it is taken
    /// by mutable reference — the caller's allocation is reused). Self-loops are
    /// kept if present; use [`crate::GraphBuilder`] for the normalizing path.
    pub fn from_edges(n: usize, edges: &mut Vec<Edge>) -> Self {
        edges.sort_unstable();
        edges.dedup();

        let mut out_offsets = vec![0usize; n + 1];
        for e in edges.iter() {
            debug_assert!((e.source as usize) < n && (e.target as usize) < n);
            out_offsets[e.source as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as VertexId; edges.len()];
        {
            // Edges are sorted by (source, target), so targets land sorted too.
            let mut cursor = out_offsets.clone();
            for e in edges.iter() {
                let slot = cursor[e.source as usize];
                out_targets[slot] = e.target;
                cursor[e.source as usize] += 1;
            }
        }

        let mut in_offsets = vec![0usize; n + 1];
        for e in edges.iter() {
            in_offsets[e.target as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as VertexId; edges.len()];
        {
            let mut cursor = in_offsets.clone();
            for e in edges.iter() {
                let slot = cursor[e.target as usize];
                in_sources[slot] = e.source;
                cursor[e.target as usize] += 1;
            }
        }
        // Sources for a fixed target arrive in ascending order because the edge
        // buffer is sorted by source first; the counting pass preserves it.
        debug_assert!((0..n).all(|v| in_sources[in_offsets[v]..in_offsets[v + 1]]
            .windows(2)
            .all(|w| w[0] <= w[1])));

        CsrGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Build an empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_sources: Vec::new(),
        }
    }

    /// The transpose (every edge reversed) of this graph.
    pub fn transpose(&self) -> CsrGraph {
        CsrGraph {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Number of bidirectional (reciprocated) edge pairs `{u, v}` with both
    /// `(u, v)` and `(v, u)` present. Self-loops are not counted.
    ///
    /// These pairs are exactly the 2-cycles that Table IV of the paper toggles.
    pub fn count_bidirectional_pairs(&self) -> usize {
        let mut count = 0usize;
        for u in self.vertices() {
            for &v in self.out_neighbors(u) {
                if v > u && self.has_edge(v, u) {
                    count += 1;
                }
            }
        }
        count
    }

    /// The induced subgraph on `keep[v] == true` vertices.
    ///
    /// Vertex ids are preserved (the result has the same vertex count); edges
    /// incident to dropped vertices are removed. This realizes the paper's
    /// `G − R` reduced graph as a materialized object — algorithms normally use
    /// [`crate::ActiveSet`] instead to avoid the copy, but the verifier and the
    /// examples use this for clarity.
    pub fn induced_subgraph(&self, keep: &[bool]) -> CsrGraph {
        assert_eq!(keep.len(), self.num_vertices());
        let mut edges: Vec<Edge> = Vec::new();
        for u in self.vertices() {
            if !keep[u as usize] {
                continue;
            }
            for &v in self.out_neighbors(u) {
                if keep[v as usize] {
                    edges.push(Edge::new(u, v));
                }
            }
        }
        CsrGraph::from_edges(self.num_vertices(), &mut edges)
    }

    /// The graph with the given vertex set removed (complement of
    /// [`CsrGraph::induced_subgraph`] semantics: `remove[v] == true` drops `v`).
    pub fn remove_vertices(&self, remove: &[bool]) -> CsrGraph {
        assert_eq!(remove.len(), self.num_vertices());
        let keep: Vec<bool> = remove.iter().map(|r| !r).collect();
        self.induced_subgraph(&keep)
    }

    /// Memory footprint of the adjacency arrays in bytes (excluding the struct
    /// itself). Used by the experiment harness to report working-set sizes.
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_sources.len() * std::mem::size_of::<VertexId>()
    }
}

impl Graph for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn diamond() -> CsrGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0
        graph_from_edges(&[(0, 1), (1, 3), (0, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn out_and_in_adjacency_are_consistent() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[3]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn transpose_reverses_every_edge() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for e in g.edges() {
            assert!(t.has_edge(e.target, e.source));
        }
        assert_eq!(t.out_neighbors(3), &[1, 2]);
    }

    #[test]
    fn bidirectional_pair_counting() {
        let g = graph_from_edges(&[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)]);
        assert_eq!(g.count_bidirectional_pairs(), 2);
        let no_pairs = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(no_pairs.count_bidirectional_pairs(), 0);
    }

    #[test]
    fn induced_subgraph_drops_incident_edges() {
        let g = diamond();
        let keep = vec![true, false, true, true];
        let sub = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_edges(), 3); // 0->2, 2->3, 3->0
        assert!(!sub.has_edge(0, 1));
        assert!(sub.has_edge(3, 0));
    }

    #[test]
    fn remove_vertices_is_complement_of_induced() {
        let g = diamond();
        let remove = vec![false, true, false, false];
        let keep = vec![true, false, true, true];
        let a = g.remove_vertices(&remove);
        let b = g.induced_subgraph(&keep);
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edges() {
            assert!(b.has_edge(e.source, e.target));
        }
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_neighbors(4), &[] as &[VertexId]);
    }

    #[test]
    fn memory_bytes_is_positive_for_nonempty() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn from_edges_dedups() {
        let mut edges = vec![Edge::new(0, 1), Edge::new(0, 1), Edge::new(1, 0)];
        let g = CsrGraph::from_edges(2, &mut edges);
        assert_eq!(g.num_edges(), 2);
    }
}
