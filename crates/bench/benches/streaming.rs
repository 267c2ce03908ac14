//! Streaming bench: one applied update batch of incremental cover
//! maintenance against one static re-solve on the same graph — the
//! headline comparison of the `tdb-dynamic` subsystem.
//!
//! The seeded end-to-end refresh workload, with its validity audits, is
//! `stream-refresh` in the `benchmark/` package.

use tdb_bench::microbench::Microbench;
use tdb_core::{Algorithm, HopConstraint, Solver};
use tdb_dynamic::{EdgeBatch, SolveDynamic};
use tdb_graph::gen::{erdos_renyi_gnm, Xoshiro256};
use tdb_graph::VertexId;

fn main() {
    let bench = Microbench::new("streaming");

    // Microbench rows: one batch of churn vs one full re-solve, same graph.
    let n = 5_000usize;
    let g = erdos_renyi_gnm(n, 20_000, 11);
    let constraint = HopConstraint::new(4);
    let solver = Solver::new(Algorithm::TdbPlusPlus);
    let mut dynamic = solver
        .solve_dynamic(g.clone(), &constraint)
        .expect("unbudgeted solve cannot fail");
    let mut rng = Xoshiro256::seed_from_u64(1234);
    for batch_size in [10usize, 100, 1_000] {
        bench.bench(&format!("apply_batch/{batch_size}"), || {
            let mut batch = EdgeBatch::new();
            for _ in 0..batch_size / 2 {
                let u = rng.next_index(n) as VertexId;
                let v = rng.next_index(n) as VertexId;
                if u != v {
                    batch.insert(u, v);
                    batch.remove(u, v); // net-zero so the graph stays bounded
                }
            }
            dynamic.apply(&batch).updates()
        });
    }
    bench.bench("full_resolve/baseline", || {
        solver.solve(&g, &constraint).unwrap().cover_size()
    });
}
