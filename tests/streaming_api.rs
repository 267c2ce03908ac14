//! End-to-end tests of the streaming surface through the `tdb` façade:
//! `Solver::solve_dynamic` seeding, batched updates, validity invariants, and
//! the interaction with the two-cycle builder mode.

use tdb::prelude::*;

#[test]
fn prelude_exposes_the_full_streaming_surface() {
    let graph = tdb::graph::gen::erdos_renyi_gnm(300, 1_200, 5);
    let constraint = HopConstraint::new(4);
    let mut live = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic(graph, &constraint)
        .unwrap();
    assert!(live.is_valid());

    let mut batch = EdgeBatch::new();
    for i in 0..50u32 {
        batch.insert((i * 7) % 300, (i * 13 + 1) % 300);
        if i % 3 == 0 {
            batch.remove(i % 300, (i + 1) % 300);
        }
    }
    let metrics: UpdateMetrics = live.apply(&batch);
    assert!(metrics.updates() > 0);
    assert!(live.is_valid());

    live.minimize();
    let final_graph = live.materialize();
    let v = verify_cover(&final_graph, live.cover(), &constraint);
    assert!(v.is_valid_and_minimal());
}

#[test]
fn dynamic_cover_tracks_a_two_cycle_constraint() {
    let graph = tdb::graph::builder::graph_from_edges(&[(0, 1), (1, 2), (2, 3)]);
    let mut live = DynamicCover::new(graph, HopConstraint::with_two_cycles(4));
    assert!(live.cover().is_empty());
    // A reciprocated pair is a 2-cycle under this constraint.
    assert_eq!(live.insert_edge(1, 0), 1);
    assert!(live.is_valid());
}

#[test]
fn delta_graph_interoperates_with_static_solvers() {
    // Maintain dynamically, then hand the materialized graph back to the
    // static pipeline — the two worlds must agree on validity.
    let graph = tdb::graph::gen::erdos_renyi_gnm(150, 600, 9);
    let constraint = HopConstraint::new(4);
    let mut live = Solver::new(Algorithm::BurPlus)
        .solve_dynamic(graph, &constraint)
        .unwrap();
    for i in 0..40u32 {
        live.insert_edge((i * 11) % 150, (i * 17 + 3) % 150);
        live.remove_edge((i * 5) % 150, (i * 7 + 1) % 150);
    }
    let snapshot: CsrGraph = live.materialize();
    let scratch = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&snapshot, &constraint)
        .unwrap();
    assert!(is_valid_cover(&snapshot, &scratch.cover, &constraint));
    assert!(is_valid_cover(&snapshot, live.cover(), &constraint));
}

#[test]
fn dynamic_config_knobs_are_reachable_from_the_facade() {
    let graph = tdb::graph::gen::erdos_renyi_gnm(120, 480, 2);
    let constraint = HopConstraint::new(4);
    let mut live = Solver::new(Algorithm::TdbPlusPlus)
        .solve_dynamic_with_config(
            graph,
            &constraint,
            DynamicConfig {
                compaction_threshold: 16,
                ..Default::default()
            },
        )
        .unwrap();
    let mut batch = EdgeBatch::new();
    for i in 0..60u32 {
        batch.insert((i * 3 + 1) % 120, (i * 19 + 4) % 120);
    }
    let metrics = live.apply(&batch);
    assert!(metrics.compactions > 0, "threshold 16 must compact");
    live.minimize();
    assert!(!live.is_dirty(), "minimize must clear the dirty flag");
    assert!(live.is_valid());
    let audit = verify_cover(&live.materialize(), live.cover(), &constraint);
    assert!(audit.is_valid_and_minimal());
}
