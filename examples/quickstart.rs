//! Quickstart: build a graph, compute a hop-constrained cycle cover with every
//! algorithm family through one `CoverRequest`/`Solver` surface, and verify
//! the results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use tdb::prelude::*;
use tdb_graph::gen::{erdos_renyi_gnm, Xoshiro256};

fn main() {
    // --- 1. A hand-built graph -------------------------------------------------
    // The e-commerce network of Figure 1 in the paper, with vertices
    // a..h mapped to 0..7. Three short money-flow cycles all pass through `a`.
    let mut builder = GraphBuilder::new();
    builder.extend_edges([
        (0, 1), // a -> b
        (1, 2), // b -> c
        (2, 0), // c -> a
        (0, 3), // a -> d
        (3, 4), // d -> e
        (4, 0), // e -> a
        (0, 5), // a -> f
        (5, 6), // f -> g
        (6, 7), // g -> h
        (7, 0), // h -> a
    ]);
    let figure1 = builder.build();

    let constraint = HopConstraint::new(5);

    // The bottom-up heuristic (BUR+) favours the hub account `a`, which sits on
    // all three cycles, and finds the optimal single-vertex cover.
    let bur = Solver::new(Algorithm::BurPlus)
        .solve(&figure1, &constraint)
        .unwrap();
    println!(
        "Figure-1 network, BUR+ : cover {:?} (size {})",
        bur.cover.as_slice(),
        bur.cover_size()
    );
    assert_eq!(
        bur.cover.as_slice(),
        &[0],
        "vertex `a` covers all three cycles"
    );

    // The top-down algorithm is orders of magnitude faster at scale but, like
    // every algorithm here, only guarantees a *minimal* cover — on this tiny
    // graph its ascending scan keeps one vertex per cycle instead of the hub.
    let run = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&figure1, &constraint)
        .unwrap();
    println!(
        "Figure-1 network, TDB++: cover {:?} (size {})",
        run.cover.as_slice(),
        run.cover_size()
    );
    assert!(verify_cover(&figure1, &run.cover, &constraint).is_valid_and_minimal());
    assert!(verify_cover(&figure1, &bur.cover, &constraint).is_valid_and_minimal());

    // --- 2. A random graph, all algorithms ------------------------------------
    // One `Solver` per algorithm: the same two-line call drives every family.
    let graph = erdos_renyi_gnm(2_000, 10_000, 42);
    let constraint = HopConstraint::new(4);
    println!("\nrandom G(2000, 10000), k = 4:");
    for algorithm in [Algorithm::TdbPlusPlus, Algorithm::TdbExtended] {
        let run = Solver::new(algorithm).solve(&graph, &constraint).unwrap();
        let verification = verify_cover(&graph, &run.cover, &constraint);
        println!(
            "  {:<10} cover size {:>5}  time {:>8.3}s  valid={} minimal={}",
            run.metrics.algorithm,
            run.cover_size(),
            run.metrics.elapsed_secs(),
            verification.is_valid,
            verification.is_minimal,
        );
        assert!(verification.is_valid_and_minimal());
    }

    // --- 3. Time budgets -------------------------------------------------------
    // A request with a time budget fails fast instead of running unbounded:
    // the exhaustive BUR baseline cannot finish this graph in a millisecond.
    let budgeted = CoverRequest {
        time_budget: Some(Duration::from_millis(1)),
        ..CoverRequest::new(Algorithm::Bur, 4)
    };
    match budgeted.solve(&graph) {
        Err(SolveError::BudgetExceeded { budget, elapsed }) => println!(
            "\nBUR with a {:.0}ms budget stopped after {:.3}ms, as intended",
            budget.as_secs_f64() * 1e3,
            elapsed.as_secs_f64() * 1e3
        ),
        Ok(report) => println!(
            "\nBUR finished within the 1ms budget (size {}) — fast machine!",
            report.cover_size()
        ),
        Err(other) => panic!("unexpected solve error: {other}"),
    }

    // --- 4. Sampling spot checks -----------------------------------------------
    // Pick random vertices outside the cover and confirm none of them sits on a
    // hop-constrained cycle in the reduced graph.
    let run = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&graph, &constraint)
        .unwrap();
    let active = run.cover.reduced_active_set(graph.num_vertices());
    let mut searcher = tdb::cycle::BlockSearcher::new(graph.num_vertices());
    let mut rng = Xoshiro256::seed_from_u64(7);
    for _ in 0..50 {
        let v = rng.next_index(graph.num_vertices()) as VertexId;
        if active.is_active(v) {
            assert!(!searcher.is_on_constrained_cycle(&graph, &active, v, &constraint));
        }
    }
    println!("\nspot checks passed: the reduced graph is free of cycles of length 3..=4");
}
