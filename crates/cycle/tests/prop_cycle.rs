//! Property-style tests for the cycle-search primitives: the fast engines must
//! agree with exhaustive ground truth on arbitrary graphs and activation masks.
//!
//! Deterministic random cases driven by the vendored xoshiro256** RNG replace
//! proptest (the workspace builds offline); each case is reproducible from its
//! printed seed.

use tdb_cycle::bfs_filter::{BfsFilter, FilterDecision};
use tdb_cycle::enumerate::enumerate_cycles;
use tdb_cycle::find_cycle::{find_cycle_through, is_valid_cycle};
use tdb_cycle::reach::{BoundedBfs, Direction};
use tdb_cycle::{BlockSearcher, HopConstraint};
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{random_edge_list, Xoshiro256};
use tdb_graph::{ActiveSet, CsrGraph, DeltaGraph, Graph, GraphBuilder, GraphView, VertexId};

fn random_graph_and_mask(rng: &mut Xoshiro256, n: u32, max_edges: usize) -> (CsrGraph, Vec<bool>) {
    let g = graph_from_edges(&random_edge_list(rng, n, max_edges));
    let mask: Vec<bool> = (0..g.num_vertices()).map(|_| rng.next_bool(0.5)).collect();
    (g, mask)
}

/// A random graph, a mask activating 50–70% of its vertices (the share a
/// top-down scan runs on), and a `DeltaGraph` overlay of the graph churned by
/// random deletions and insertions.
fn random_instance(rng: &mut Xoshiro256) -> (CsrGraph, DeltaGraph, ActiveSet) {
    let g = graph_from_edges(&random_edge_list(rng, 20, 100));
    let n = g.num_vertices();
    let share = 0.5 + 0.2 * rng.next_f64();
    let active = ActiveSet::from_mask((0..n).map(|_| rng.next_bool(share)).collect());
    let mut delta = DeltaGraph::new(g.clone());
    let edges: Vec<_> = g.edges().collect();
    if !edges.is_empty() {
        for _ in 0..rng.next_index(12) {
            let e = edges[rng.next_index(edges.len())];
            delta.remove_edge(e.source, e.target);
            let u = rng.next_index(n) as VertexId;
            let v = rng.next_index(n) as VertexId;
            if u != v {
                delta.insert_edge(u, v);
            }
        }
    }
    (g, delta, active)
}

/// `g` with a self-loop added on every third vertex. A loop closes no cycle
/// of length 2 or more, so every answer must ignore it.
fn with_self_loops(g: &CsrGraph) -> CsrGraph {
    let n = g.num_vertices();
    let mut b = GraphBuilder::with_capacity(n, g.num_edges() + n);
    b.keep_self_loops(true);
    b.extend_edges(g.edges().map(|e| (e.source, e.target)));
    b.extend_edges((0..n as VertexId).step_by(3).map(|v| (v, v)));
    b.build()
}

fn random_constraint(rng: &mut Xoshiro256) -> HopConstraint {
    let k = 2 + rng.next_index(5);
    if rng.next_bool(0.5) {
        HopConstraint::with_two_cycles(k)
    } else {
        HopConstraint::new(k)
    }
}

/// The block DFS returns exactly the naive DFS's witness — the same vertex
/// sequence, not just existence — on arbitrary graphs, on churned
/// `DeltaGraph` overlays, with self-loops kept, under partial activation, for
/// k in 2..=6 and both 2-cycle modes. The seeded barriers only skip branches
/// that cannot close an admissible cycle, so the first cycle in DFS order is
/// unchanged.
#[test]
fn block_dfs_equals_naive_dfs() {
    fn check<V: GraphView>(
        g: &V,
        active: &ActiveSet,
        constraint: &HopConstraint,
        searcher: &mut BlockSearcher,
        label: &str,
    ) -> usize {
        let mut hits = 0;
        for v in 0..g.vertex_count() as VertexId {
            let naive = find_cycle_through(g, active, v, constraint);
            let fast = searcher.find_cycle_through(g, active, v, constraint);
            assert_eq!(fast, naive, "{label}: vertex {v}");
            assert_eq!(
                searcher.is_on_constrained_cycle(g, active, v, constraint),
                naive.is_some(),
                "{label}: existence of vertex {v}"
            );
            if let Some(cycle) = naive {
                assert!(
                    is_valid_cycle(g, active, &cycle, constraint),
                    "{label}: bad witness {cycle:?}"
                );
                hits += 1;
            }
        }
        hits
    }

    let mut hits = 0;
    for case in 0..400u64 {
        let mut rng = Xoshiro256::seed_from_u64(case);
        let (g, delta, active) = random_instance(&mut rng);
        let constraint = random_constraint(&mut rng);
        let mut searcher = BlockSearcher::new(g.num_vertices());
        hits += check(
            &g,
            &active,
            &constraint,
            &mut searcher,
            &format!("case {case}"),
        );
        hits += check(
            &delta,
            &active,
            &constraint,
            &mut searcher,
            &format!("case {case} (overlay)"),
        );
        hits += check(
            &with_self_loops(&g),
            &active,
            &constraint,
            &mut searcher,
            &format!("case {case} (self-loops)"),
        );
    }
    assert!(
        hits > 1_000,
        "too few hits ({hits}) to exercise the witness"
    );
}

/// The early-exit BFS filter reports exactly the shortest closed walk of a
/// full `k − 1`-hop backward ball: the minimum over v's active out-neighbors
/// `w ≠ v` of `dist(w → v) + 1`, on the graph kinds of the test above.
#[test]
fn shortest_walk_equals_the_full_ball() {
    fn full_ball<V: GraphView>(
        g: &V,
        active: &ActiveSet,
        v: VertexId,
        max_hops: usize,
        bfs: &mut BoundedBfs,
    ) -> Option<usize> {
        if max_hops == 0 {
            return None;
        }
        bfs.run(g, active, v, max_hops - 1, Direction::Backward);
        g.out_iter(v)
            .filter(|&w| w != v && active.is_active(w))
            .filter_map(|w| bfs.distance(w))
            .map(|d| d as usize + 1)
            .min()
    }

    fn check<V: GraphView>(g: &V, active: &ActiveSet, max_hops: usize, label: &str) {
        let mut filter = BfsFilter::new(g.vertex_count());
        let mut bfs = BoundedBfs::new(g.vertex_count());
        for v in 0..g.vertex_count() as VertexId {
            assert_eq!(
                filter.shortest_closed_walk(g, active, v, max_hops),
                full_ball(g, active, v, max_hops, &mut bfs),
                "{label}: vertex {v}, max_hops {max_hops}"
            );
        }
    }

    for case in 0..400u64 {
        let mut rng = Xoshiro256::seed_from_u64(5000 + case);
        let (g, delta, active) = random_instance(&mut rng);
        let max_hops = rng.next_index(7);
        check(&g, &active, max_hops, &format!("case {case}"));
        check(&delta, &active, max_hops, &format!("case {case} (overlay)"));
        check(
            &with_self_loops(&g),
            &active,
            max_hops,
            &format!("case {case} (self-loops)"),
        );
    }
}

/// The BFS filter never prunes a vertex that has a constrained cycle, and
/// its exact mode never proves a vertex that has none.
#[test]
fn bfs_filter_is_sound() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(1000 + case);
        let (g, mask) = random_graph_and_mask(&mut rng, 20, 80);
        let k = 2 + rng.next_index(5);
        let active = ActiveSet::from_mask(mask);
        let constraint = HopConstraint::new(k);
        let mut filter = BfsFilter::new(g.num_vertices());
        for v in g.vertices() {
            let truth = find_cycle_through(&g, &active, v, &constraint).is_some();
            match filter.decide_exact(&g, &active, v, &constraint) {
                FilterDecision::Prune => {
                    assert!(!truth, "case {case}: vertex {v} pruned despite a cycle")
                }
                FilterDecision::ProvenNecessary(len) => {
                    assert!(truth, "case {case}: vertex {v} proven despite no cycle");
                    assert!(constraint.covers_len(len), "case {case}");
                }
                FilterDecision::NeedsVerification => {}
            }
        }
    }
}

/// The shortest closed walk reported by the filter is never longer than the
/// shortest enumerated cycle through the vertex.
#[test]
fn shortest_walk_lower_bounds_cycles() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(2000 + case);
        let (g, mask) = random_graph_and_mask(&mut rng, 16, 60);
        let k = 3 + rng.next_index(3);
        let active = ActiveSet::from_mask(mask);
        let constraint = HopConstraint::with_two_cycles(k);
        let mut filter = BfsFilter::new(g.num_vertices());
        let cycles = enumerate_cycles(&g, &active, &constraint, 100_000);
        for v in g.vertices() {
            let shortest_cycle = cycles
                .iter()
                .filter(|c| c.contains(&v))
                .map(|c| c.len())
                .min();
            if let Some(len) = shortest_cycle {
                let walk = filter.shortest_closed_walk(&g, &active, v, k);
                assert!(
                    walk.is_some(),
                    "case {case}: no walk though a cycle of length {len} exists"
                );
                assert!(walk.unwrap() <= len, "case {case}");
            }
        }
    }
}

/// Enumerated cycles are exactly the distinct constrained simple cycles:
/// none is missed (every cycle the per-vertex DFS can find is listed) and
/// none is duplicated.
#[test]
fn enumeration_is_complete_and_duplicate_free() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(3000 + case);
        let (g, mask) = random_graph_and_mask(&mut rng, 14, 50);
        let k = 3 + rng.next_index(3);
        let active = ActiveSet::from_mask(mask);
        let constraint = HopConstraint::new(k);
        let cycles = enumerate_cycles(&g, &active, &constraint, 1_000_000);
        let set: std::collections::HashSet<_> = cycles.iter().cloned().collect();
        assert_eq!(
            set.len(),
            cycles.len(),
            "case {case}: duplicate cycles reported"
        );
        for c in &cycles {
            assert!(is_valid_cycle(&g, &active, c, &constraint), "case {case}");
        }
        // Existence agreement per vertex.
        for v in g.vertices() {
            let listed = cycles.iter().any(|c| c.contains(&v));
            let exists = find_cycle_through(&g, &active, v, &constraint).is_some();
            assert_eq!(listed, exists, "case {case}: vertex {v}");
        }
    }
}

/// Hop-bounded BFS distances match a brute-force Bellman-Ford-style
/// relaxation over active vertices.
#[test]
fn bounded_bfs_distances_are_exact() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from_u64(4000 + case);
        let (g, mask) = random_graph_and_mask(&mut rng, 18, 70);
        let active = ActiveSet::from_mask(mask);
        let n = g.num_vertices();
        if n == 0 {
            continue;
        }
        let source = rng.next_bounded(n as u64) as u32;
        let max_hops = rng.next_index(6);
        let mut bfs = BoundedBfs::new(n);
        bfs.run(&g, &active, source, max_hops, Direction::Forward);

        // Brute force: dist[v] = min hops over <= max_hops rounds.
        let inf = usize::MAX;
        let mut dist = vec![inf; n];
        if active.is_active(source) {
            dist[source as usize] = 0;
            for _ in 0..max_hops {
                let snapshot = dist.clone();
                for u in g.vertices() {
                    if snapshot[u as usize] == inf || !active.is_active(u) {
                        continue;
                    }
                    for &w in g.out_neighbors(u) {
                        if active.is_active(w) {
                            dist[w as usize] = dist[w as usize].min(snapshot[u as usize] + 1);
                        }
                    }
                }
            }
        }
        for v in g.vertices() {
            let expected = if dist[v as usize] == inf {
                None
            } else {
                Some(dist[v as usize] as u32)
            };
            assert_eq!(bfs.distance(v), expected, "case {case}: vertex {v}");
        }
    }
}
