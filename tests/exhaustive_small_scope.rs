//! Exhaustive small-scope checks: every labelled digraph on 1–4 vertices,
//! plus every digraph on at most 3 vertices with self-loops kept, against
//! brute force. Small inputs reach every branch of the pruning logic, and
//! checking all of them finds a wrong prune mechanically; both `Unblock`
//! regressions pinned in `block_dfs.rs` are 4-vertex graphs.
//!
//! * **Engines**, for every activation mask, source, `k ∈ 2..=5` and both
//!   2-cycle modes: the naive DFS finds a cycle exactly when one exists; the
//!   block DFS returns the naive DFS's witness; the BFS filter's
//!   `shortest_closed_walk` equals the shortest closed walk; and
//!   `EdgeCycleSearcher` agrees on every active edge.
//! * **Covers**, for every graph, `k` and mode: `TDB`, `TDB+` and `TDB++`
//!   return equal covers, which `verify_cover` and brute force both find
//!   valid and minimal.
//! * **Dynamic covers**, for every loop-free graph, every ordered vertex pair
//!   and [`DYNAMIC_CONSTRAINTS`]: a `DynamicCover` seeded with the `TDB++`
//!   cover toggles the edge (inserts it if absent, deletes it if present);
//!   `minimize()` then returns the cover a full Algorithm 7 pass returns on
//!   the materialized graph, `verify_cover` finds it valid and minimal, the
//!   `state()` graph equals the materialized graph, and a state captured
//!   before the update still reads the seed graph.
//! * **`BREAKERS?`**, for every loop-free graph and [`DYNAMIC_CONSTRAINTS`]:
//!   a `CoverSnapshot` of the `TDB++` cover answers
//!   `CoverSnapshot::breakers_through` on every ordered pair `(u, v)`, edge
//!   or not, with exactly the cover vertices `w` that have
//!   `d(v → w) + d(w → u) ≤ k − 1` (Floyd–Warshall hop distances over the
//!   whole graph). When `(u, v)` is an edge, that includes every cover
//!   vertex on a simple cycle through it whose length the constraint
//!   counts. `u == v` and out-of-range ids answer empty.
//!
//! The ground truth is the list of every simple cycle of length ≥ 2 on the
//! vertex set, each with the bitmasks of its vertices and edges: a graph
//! holds a cycle iff it holds all its edges, and a mask keeps it iff it
//! keeps all its vertices. A shortest closed walk that ignores self-loops is
//! a shortest simple cycle, so the same list answers the filter.

use tdb::core::Algorithm;
use tdb::cycle::find_cycle::is_valid_cycle;
use tdb::cycle::{BfsFilter, BlockSearcher, EdgeCycleSearcher, NaiveSearcher};
use tdb::prelude::*;
use tdb::serve::{BreakerScratch, CoverSnapshot};

const KS: std::ops::RangeInclusive<usize> = 2..=5;

/// One simple cycle of the complete digraph on the vertex set.
struct Cycle {
    vertices: u32,
    edges: u32,
    len: usize,
}

/// The complete digraph on `n` vertices: its edges (self-loops last, when
/// kept) and every simple cycle of length ≥ 2.
struct Universe {
    n: usize,
    self_loops: bool,
    edges: Vec<(VertexId, VertexId)>,
    cycles: Vec<Cycle>,
}

impl Universe {
    fn new(n: usize, self_loops: bool) -> Self {
        let n32 = n as VertexId;
        let mut edges: Vec<(VertexId, VertexId)> = (0..n32)
            .flat_map(|u| (0..n32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        if self_loops {
            edges.extend((0..n32).map(|v| (v, v)));
        }
        // Each cycle once: starting at its smallest vertex, in either
        // direction.
        fn grow(path: &mut Vec<VertexId>, n: VertexId, out: &mut Vec<Vec<VertexId>>) {
            if path.len() >= 2 {
                out.push(path.clone());
            }
            for v in path[0] + 1..n {
                if !path.contains(&v) {
                    path.push(v);
                    grow(path, n, out);
                    path.pop();
                }
            }
        }
        let mut sequences = Vec::new();
        for s in 0..n32 {
            grow(&mut vec![s], n32, &mut sequences);
        }
        let bit = |e: (VertexId, VertexId)| 1u32 << edges.iter().position(|&x| x == e).unwrap();
        let cycles = sequences
            .iter()
            .map(|c| Cycle {
                vertices: c.iter().map(|&v| 1u32 << v).sum(),
                edges: (0..c.len())
                    .map(|i| bit((c[i], c[(i + 1) % c.len()])))
                    .sum(),
                len: c.len(),
            })
            .collect();
        Universe {
            n,
            self_loops,
            edges,
            cycles,
        }
    }

    /// Every graph on the vertex set, as its edge mask and its CSR graph.
    fn graphs(&self) -> impl Iterator<Item = (u32, CsrGraph)> + '_ {
        (0..1u32 << self.edges.len()).map(move |mask| {
            let mut b = GraphBuilder::with_capacity(self.n, self.edges.len());
            b.keep_self_loops(self.self_loops);
            b.extend_edges(
                (0..self.edges.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| self.edges[i]),
            );
            let g = b.build();
            assert_eq!(g.num_vertices(), self.n);
            (mask, g)
        })
    }
}

/// The length of the shortest cycle in `cycles` (at least `min_len` long)
/// that `on` selects.
fn shortest<'a>(
    cycles: impl Iterator<Item = &'a Cycle>,
    min_len: usize,
    on: impl Fn(&Cycle) -> bool,
) -> Option<usize> {
    cycles
        .filter(|c| c.len >= min_len && on(c))
        .map(|c| c.len)
        .min()
}

fn constraints() -> impl Iterator<Item = HopConstraint> {
    KS.flat_map(|k| [HopConstraint::new(k), HopConstraint::with_two_cycles(k)])
}

/// One reused instance of each engine, as a solver holds them.
struct Engines {
    naive: NaiveSearcher,
    block: BlockSearcher,
    filter: BfsFilter,
    edge: EdgeCycleSearcher,
    vertex_queries: u64,
    edge_queries: u64,
    hits: u64,
}

impl Engines {
    fn new() -> Self {
        Engines {
            naive: NaiveSearcher::new(0),
            block: BlockSearcher::new(0),
            filter: BfsFilter::new(0),
            edge: EdgeCycleSearcher::new(0),
            vertex_queries: 0,
            edge_queries: 0,
            hits: 0,
        }
    }

    /// Every engine on every mask, source, edge, `k` and mode of one graph.
    fn check(&mut self, u: &Universe, mask: u32, g: &CsrGraph) {
        let present: Vec<&Cycle> = u.cycles.iter().filter(|c| c.edges & !mask == 0).collect();
        for act in 0..1u32 << u.n {
            let active = ActiveSet::from_mask((0..u.n).map(|v| act >> v & 1 == 1).collect());
            let live = || present.iter().copied().filter(|c| c.vertices & !act == 0);
            let label = |what: String| format!("n {} graph {mask:#x} mask {act:#b}: {what}", u.n);
            for v in 0..u.n as VertexId {
                let through = |c: &Cycle| c.vertices >> v & 1 == 1;
                let walk = shortest(live(), 2, through);
                for k in KS {
                    let got = self.filter.shortest_closed_walk(g, &active, v, k);
                    let want = walk.filter(|&l| l <= k);
                    assert_eq!(got, want, "{}", label(format!("filter at {v}, k {k}")));
                }
                for c in constraints() {
                    self.vertex_queries += 1;
                    let want =
                        shortest(live(), c.min_len(), through).is_some_and(|l| l <= c.max_hops);
                    let naive = self.naive.find_cycle_through(g, &active, v, &c);
                    let at = || label(format!("vertex {v}, {c:?}"));
                    assert_eq!(naive.is_some(), want, "{}: naive DFS", at());
                    if let Some(w) = &naive {
                        self.hits += 1;
                        assert!(w[0] == v && is_valid_cycle(g, &active, w, &c), "{}", at());
                    }
                    let block = self.block.find_cycle_through(g, &active, v, &c);
                    assert_eq!(block, naive, "{}: block DFS witness", at());
                }
            }
            for (i, &(x, y)) in u.edges.iter().enumerate() {
                if mask >> i & 1 == 0 || act >> x & 1 == 0 || act >> y & 1 == 0 {
                    continue;
                }
                let on = |c: &Cycle| c.edges >> i & 1 == 1;
                for c in constraints() {
                    self.edge_queries += 1;
                    let want = shortest(live(), c.min_len(), on).is_some_and(|l| l <= c.max_hops);
                    let got = self.edge.find_cycle_through_edge(g, &active, x, y, &c);
                    let at = || label(format!("edge ({x}, {y}), {c:?}"));
                    assert_eq!(got.is_some(), want, "{}: edge search", at());
                    if let Some(w) = got {
                        assert!(
                            w[..2] == [x, y] && is_valid_cycle(g, &active, &w, &c),
                            "{}: witness {w:?}",
                            at()
                        );
                    }
                }
            }
        }
    }
}

/// `TDB`, `TDB+` and `TDB++` agree on every `k` and mode of one graph, and
/// their cover is valid and minimal by `verify_cover` and by brute force.
fn check_covers(u: &Universe, mask: u32, g: &CsrGraph) {
    let present: Vec<&Cycle> = u.cycles.iter().filter(|c| c.edges & !mask == 0).collect();
    for c in constraints() {
        let label = format!("n {} graph {mask:#x}, {c:?}", u.n);
        let solve = |alg| {
            Solver::new(alg)
                .solve(g, &c)
                .unwrap_or_else(|e| panic!("{label}: {alg:?} failed: {e}"))
                .cover
        };
        let cover = solve(Algorithm::TdbPlusPlus);
        for alg in [Algorithm::Tdb, Algorithm::TdbPlus] {
            assert_eq!(solve(alg), cover, "{label}: {alg:?} differs from TDB++");
        }
        assert!(
            verify_cover(g, &cover, &c).is_valid_and_minimal(),
            "{label}: verify_cover rejects {cover:?}"
        );
        let chosen: u32 = cover.iter().map(|v| 1u32 << v).sum();
        let admissible = || present.iter().filter(|cy| c.covers_len(cy.len));
        assert!(
            admissible().all(|cy| cy.vertices & chosen != 0),
            "{label}: {cover:?} misses a cycle"
        );
        for v in cover.iter() {
            assert!(
                admissible().any(|cy| cy.vertices & chosen == 1 << v),
                "{label}: {v} is redundant in {cover:?}"
            );
        }
    }
}

/// The constraints the dynamic and `BREAKERS?` checks run: one length per
/// 2-cycle mode keeps the dynamic check to about 5 s in debug, beside the
/// 4 s engine check.
const DYNAMIC_CONSTRAINTS: [(usize, bool); 2] = [(3, true), (4, false)];

/// The edge list of a graph, in vertex order.
fn edge_list(g: &impl GraphView) -> Vec<(VertexId, VertexId)> {
    (0..g.vertex_count() as VertexId)
        .flat_map(|u| g.out_iter(u).map(move |v| (u, v)))
        .collect()
}

/// Toggle every ordered pair of one graph in a fresh `DynamicCover` seeded
/// with its `TDB++` cover, and check the minimized result.
fn check_dynamic(u: &Universe, mask: u32, g: &CsrGraph) {
    if u.self_loops {
        return; // the overlay rejects self-loops
    }
    for (k, two_cycles) in DYNAMIC_CONSTRAINTS {
        let c = if two_cycles {
            HopConstraint::with_two_cycles(k)
        } else {
            HopConstraint::new(k)
        };
        let seed = Solver::new(Algorithm::TdbPlusPlus)
            .solve(g, &c)
            .unwrap()
            .cover;
        for (x, y) in u.edges.iter().copied() {
            let label = format!("n {} graph {mask:#x}, {c:?}, toggle ({x}, {y})", u.n);
            let mut dynamic = DynamicCover::from_cover(g.clone(), seed.clone(), c);
            let before = dynamic.state();
            if dynamic.graph().contains_edge(x, y) {
                assert!(dynamic.remove_edge(x, y), "{label}");
            } else {
                dynamic.insert_edge(x, y);
            }
            let materialized = dynamic.materialize();
            let mut expected = dynamic.cover().clone();
            let mut metrics = RunMetrics::new("full-pass", k, two_cycles);
            minimal_prune(
                &materialized,
                &mut expected,
                &c,
                SearchEngine::Block,
                &mut metrics,
            );
            dynamic.minimize();
            assert_eq!(dynamic.cover(), &expected, "{label}: minimize");
            assert!(
                verify_cover(&materialized, &expected, &c).is_valid_and_minimal(),
                "{label}: verify_cover rejects {expected:?}"
            );
            let state = dynamic.state();
            assert_eq!(state.cover, expected, "{label}: state cover");
            assert_eq!(
                edge_list(&state.graph),
                edge_list(&materialized),
                "{label}: state graph"
            );
            assert_eq!(edge_list(&before.graph), edge_list(g), "{label}: old state");
        }
    }
}

/// `CoverSnapshot::breakers_through` on every ordered pair of one loop-free
/// graph and two out-of-range pairs, against hop distances and the cycle
/// list; returns the number of pairs queried.
fn check_breakers(u: &Universe, mask: u32, g: &CsrGraph, scratch: &mut BreakerScratch) -> usize {
    if u.self_loops {
        return 0; // the overlay rejects self-loops
    }
    // Floyd–Warshall hop distances; INF + INF cannot overflow.
    const INF: usize = usize::MAX / 4;
    let n = u.n;
    let mut d = vec![vec![INF; n]; n];
    for (x, row) in d.iter_mut().enumerate() {
        row[x] = 0;
    }
    for (x, y) in edge_list(g) {
        d[x as usize][y as usize] = 1;
    }
    for m in 0..n {
        for x in 0..n {
            for y in 0..n {
                d[x][y] = d[x][y].min(d[x][m] + d[m][y]);
            }
        }
    }
    let present: Vec<&Cycle> = u.cycles.iter().filter(|c| c.edges & !mask == 0).collect();
    let mut queries = 0;
    for (k, two_cycles) in DYNAMIC_CONSTRAINTS {
        let c = if two_cycles {
            HopConstraint::with_two_cycles(k)
        } else {
            HopConstraint::new(k)
        };
        let cover = Solver::new(Algorithm::TdbPlusPlus)
            .solve(g, &c)
            .unwrap()
            .cover;
        let snap = CoverSnapshot::new(0, DynamicCover::from_cover(g.clone(), cover, c).state());
        let label = |what: String| format!("n {n} graph {mask:#x}, {c:?}: {what}");
        // `u == v` and out-of-range ids answer empty.
        let out = n as VertexId;
        for (x, y) in (0..out).map(|x| (x, x)).chain([(0, out), (out, 0)]) {
            queries += 1;
            let got = snap.breakers_through(scratch, x, y);
            assert!(got.is_empty(), "{}", label(format!("({x}, {y})")));
        }
        for (i, &(x, y)) in u.edges.iter().enumerate() {
            queries += 1;
            let at = || label(format!("({x}, {y})"));
            let got = snap.breakers_through(scratch, x, y);
            let (x, y) = (x as usize, y as usize);
            let want: Vec<VertexId> = snap
                .cover()
                .iter()
                .filter(|&w| d[y][w as usize] + d[w as usize][x] < k) // ≤ k − 1
                .collect();
            assert_eq!(got, want, "{}", at());
            // A present cycle through the edge implies the edge is present.
            let through = present
                .iter()
                .filter(|cy| cy.edges >> i & 1 == 1 && c.covers_len(cy.len));
            for cy in through {
                for w in snap.cover().iter().filter(|&w| cy.vertices >> w & 1 == 1) {
                    assert!(got.contains(&w), "{}: {w} on a cycle", at());
                }
            }
        }
    }
    queries
}

/// Run `check` on every graph: 1 + 4 + 64 + 4,096 loop-free graphs on 1–4
/// vertices and 2 + 16 + 512 graphs with self-loops on 1–3 vertices.
fn every_small_graph(mut check: impl FnMut(&Universe, u32, &CsrGraph)) {
    let mut graphs = 0;
    let universes = (1..=4)
        .map(|n| (n, false))
        .chain((1..=3).map(|n| (n, true)));
    for (n, self_loops) in universes {
        let u = Universe::new(n, self_loops);
        for (mask, g) in u.graphs() {
            graphs += 1;
            check(&u, mask, &g);
        }
    }
    assert_eq!(graphs, 4_695);
}

#[test]
fn every_engine_agrees_with_brute_force_on_every_small_graph() {
    let mut engines = Engines::new();
    every_small_graph(|u, mask, g| engines.check(u, mask, g));
    // Graphs × masks × sources × 8 constraints, summed over the universes.
    assert_eq!(engines.vertex_queries, 2_209_072);
    assert!(engines.hits > 0 && engines.edge_queries > 0);
}

#[test]
fn tdb_covers_are_equal_valid_and_minimal_on_every_small_graph() {
    every_small_graph(check_covers);
}

#[test]
fn dynamic_minimize_matches_a_full_pass_after_every_single_update() {
    every_small_graph(check_dynamic);
}

#[test]
fn breakers_through_matches_hop_distances_on_every_small_graph() {
    let mut scratch = BreakerScratch::default();
    let mut queries = 0;
    every_small_graph(|u, mask, g| queries += check_breakers(u, mask, g, &mut scratch));
    // Loop-free graphs × (n² ordered pairs + 2 out of range) × 2 constraints.
    assert_eq!(queries, 2 * (3 + 4 * 6 + 64 * 11 + 4_096 * 18));
}
