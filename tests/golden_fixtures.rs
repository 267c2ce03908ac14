//! Golden-fixture snapshot tests: four small serialized graphs with pinned
//! cover sizes per algorithm.
//!
//! The fixtures under `tests/fixtures/*.tdbg` are checked-in binary graphs
//! (the `TDBG` codec from `tdb_graph::io`). Every algorithm is run against
//! each fixture at `k = 4`, in both two-cycle modes, and the resulting cover
//! sizes must match the table below **exactly** — a refactor that silently
//! changes any algorithm's result fails loudly here even if the new cover is
//! still valid.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! TDB_REGEN_FIXTURES=1 cargo test --test golden_fixtures -- --nocapture
//! ```
//!
//! which rewrites the fixture files and prints the new `GOLDEN` table to
//! paste into this file.

use std::path::PathBuf;

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::builder::graph_from_edges;
use tdb_graph::gen::{erdos_renyi_gnm, preferential_attachment, small_world, PreferentialConfig};
use tdb_graph::io::{read_binary, write_binary};

const K: usize = 4;

/// The algorithms in `Algorithm::all()` order — the column order of `GOLDEN`.
fn algorithms() -> [Algorithm; 7] {
    Algorithm::all()
}

/// Expected cover sizes: `(fixture, [plain sizes; 7], [2-cycle sizes; 7])`,
/// columns in `Algorithm::all()` order (BUR, BUR+, DARC-DV, TDB, TDB+,
/// TDB++, TDB++X).
const GOLDEN: [(&str, [usize; 7], [usize; 7]); 4] = [
    (
        "erdos_renyi",
        [14, 10, 24, 10, 10, 10, 10],
        [14, 12, 25, 11, 11, 11, 11],
    ),
    (
        "preferential",
        [8, 7, 35, 16, 16, 16, 16],
        [19, 16, 38, 19, 19, 19, 19],
    ),
    ("multi_scc", [3, 3, 3, 3, 3, 3, 3], [3, 3, 3, 3, 3, 3, 3]),
    ("small_world", [6, 5, 7, 5, 5, 5, 5], [6, 5, 7, 5, 5, 5, 5]),
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

/// The generator of each fixture (only used by the regeneration path; the
/// tests proper read the checked-in files).
fn generate(name: &str) -> CsrGraph {
    match name {
        "erdos_renyi" => erdos_renyi_gnm(36, 140, 5),
        "preferential" => preferential_attachment(&PreferentialConfig {
            num_vertices: 48,
            out_degree: 3,
            reciprocity: 0.4,
            random_rewire: 0.12,
            seed: 13,
        }),
        "multi_scc" => {
            // Three blocks (ring of 12, two triangles of 3) plus a tail.
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for v in 0..12u32 {
                edges.push((v, (v + 1) % 12));
            }
            edges.extend([(2, 7), (5, 11), (9, 3), (10, 1), (4, 0), (8, 2)]);
            edges.extend([(11, 12), (12, 13), (13, 14), (14, 12)]);
            edges.extend([(14, 15), (15, 16), (16, 17), (17, 15), (16, 15)]);
            edges.extend([(17, 18), (18, 19)]);
            graph_from_edges(&edges)
        }
        "small_world" => small_world(44, 2, 0.3, 21),
        other => panic!("unknown fixture {other:?}"),
    }
}

fn solve_sizes(g: &CsrGraph, constraint: &HopConstraint) -> [usize; 7] {
    let mut sizes = [0usize; 7];
    for (slot, algorithm) in sizes.iter_mut().zip(algorithms()) {
        *slot = Solver::new(algorithm)
            .solve(g, constraint)
            .expect("unbudgeted solve cannot fail")
            .cover_size();
    }
    sizes
}

#[test]
fn golden_fixture_cover_sizes_are_stable() {
    if std::env::var_os("TDB_REGEN_FIXTURES").is_some() {
        regenerate();
        return;
    }
    for (name, plain_sizes, two_cycle_sizes) in GOLDEN {
        let path = fixtures_dir().join(format!("{name}.tdbg"));
        let g = read_binary(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        let plain = solve_sizes(&g, &HopConstraint::new(K));
        let two = solve_sizes(&g, &HopConstraint::with_two_cycles(K));
        for (i, algorithm) in algorithms().into_iter().enumerate() {
            assert_eq!(
                plain[i], plain_sizes[i],
                "{name}: {algorithm} cover size drifted (k = {K})"
            );
            assert_eq!(
                two[i], two_cycle_sizes[i],
                "{name}: {algorithm} cover size drifted (k = {K}, 2-cycles)"
            );
        }
        // The fixture file is the source of truth — it must also still match
        // its generator, so a codec regression cannot hide behind a regen.
        let regen = generate(name);
        assert_eq!(g.num_vertices(), regen.num_vertices(), "{name}");
        assert_eq!(g.num_edges(), regen.num_edges(), "{name}");
    }
}

/// Sharding must agree with the pinned sizes too (it reuses the same table,
/// so any sharded drift is caught against the same goldens).
#[test]
fn golden_fixture_sizes_hold_under_sharding() {
    if std::env::var_os("TDB_REGEN_FIXTURES").is_some() {
        return;
    }
    for (name, plain_sizes, _) in GOLDEN {
        let g = read_binary(fixtures_dir().join(format!("{name}.tdbg"))).unwrap();
        for (i, algorithm) in algorithms().into_iter().enumerate() {
            let run = CoverRequest {
                sharding: ShardingMode::Threads(2),
                ..CoverRequest::new(algorithm, K)
            }
            .solve(&g)
            .unwrap();
            assert_eq!(
                run.cover_size(),
                plain_sizes[i],
                "{name}: {algorithm} sharded"
            );
        }
    }
}

fn regenerate() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).expect("create fixtures dir");
    println!("const GOLDEN: [(&str, [usize; 7], [usize; 7]); 4] = [");
    for (name, _, _) in GOLDEN {
        let g = generate(name);
        write_binary(&g, dir.join(format!("{name}.tdbg"))).expect("write fixture");
        let plain = solve_sizes(&g, &HopConstraint::new(K));
        let two = solve_sizes(&g, &HopConstraint::with_two_cycles(K));
        println!("    ({name:?}, {plain:?}, {two:?}),");
    }
    println!("];");
}
