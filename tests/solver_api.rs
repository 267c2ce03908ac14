//! Acceptance tests for the one solve surface (`CoverRequest`, executed by
//! `Solver`): equivalence with the per-family `_with` entry points, lossless
//! `Algorithm` parsing, and budget enforcement.

use std::time::Duration;

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::gen::{
    complete_digraph, directed_cycle, erdos_renyi_gnm, preferential_attachment, small_world,
    PreferentialConfig,
};
use tdb_graph::CsrGraph;

/// Generator graphs covering the shapes the algorithms care about: pure
/// cycles, dense cliques, sparse random, scale-free with reciprocation, and
/// small-world rings.
fn generator_graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("directed_cycle", directed_cycle(6)),
        ("complete_digraph", complete_digraph(7)),
        ("erdos_renyi", erdos_renyi_gnm(40, 170, 11)),
        (
            "preferential",
            preferential_attachment(&PreferentialConfig {
                num_vertices: 60,
                out_degree: 3,
                reciprocity: 0.3,
                random_rewire: 0.1,
                seed: 5,
            }),
        ),
        ("small_world", small_world(50, 2, 0.2, 3)),
    ]
}

/// The per-family `_with` entry point for each algorithm, reproducing the
/// dispatch the consumers used to hand-roll before the `Solver` existed.
fn legacy_cover(g: &CsrGraph, constraint: &HopConstraint, algorithm: Algorithm) -> CoverRun {
    let ctx = &mut SolveContext::new();
    match algorithm {
        Algorithm::Bur => bottom_up_cover_with(g, constraint, &BottomUpConfig::bur(), ctx),
        Algorithm::BurPlus => bottom_up_cover_with(g, constraint, &BottomUpConfig::bur_plus(), ctx),
        Algorithm::DarcDv => darc_dv_cover_with(g, constraint, ctx),
        Algorithm::Tdb => top_down_cover_with(g, constraint, &TopDownConfig::tdb(), ctx),
        Algorithm::TdbPlus => top_down_cover_with(g, constraint, &TopDownConfig::tdb_plus(), ctx),
        Algorithm::TdbPlusPlus => {
            top_down_cover_with(g, constraint, &TopDownConfig::tdb_plus_plus(), ctx)
        }
        Algorithm::TdbExtended => {
            top_down_cover_with(g, constraint, &TopDownConfig::extended(), ctx)
        }
    }
    .expect("unbudgeted solve cannot fail")
}

/// `Solver::new(alg).solve(..)` returns exactly the cover of the legacy free
/// function, for every algorithm, on every generator graph.
#[test]
fn solver_matches_legacy_free_functions() {
    for (name, g) in generator_graphs() {
        for k in [3usize, 4] {
            let constraint = HopConstraint::new(k);
            for algorithm in Algorithm::all() {
                let legacy = legacy_cover(&g, &constraint, algorithm);
                let unified = Solver::new(algorithm).solve(&g, &constraint).unwrap();
                assert_eq!(
                    unified.cover, legacy.cover,
                    "{algorithm} differs from its legacy entry point on {name}, k = {k}"
                );
                assert_eq!(unified.metrics.algorithm, legacy.metrics.algorithm);
            }
        }
    }
}

/// Every algorithm is runnable through the solver and produces a valid cover.
#[test]
fn every_algorithm_is_runnable_via_solver() {
    let g = erdos_renyi_gnm(35, 150, 23);
    let constraint = HopConstraint::new(4);
    for algorithm in Algorithm::all() {
        let run = Solver::new(algorithm).solve(&g, &constraint).unwrap();
        assert!(
            is_valid_cover(&g, &run.cover, &constraint),
            "{algorithm} produced an invalid cover via the solver"
        );
    }
}

/// `Algorithm` parsing accepts every `name()` output losslessly, including
/// the awkward `TDB++X`, in any case, and rejects unknown names with a typed
/// error.
#[test]
fn algorithm_from_str_display_round_trip() {
    for algorithm in Algorithm::all() {
        let name = algorithm.name();
        assert_eq!(name.parse::<Algorithm>().unwrap(), algorithm, "{name}");
        assert_eq!(
            name.to_ascii_lowercase().parse::<Algorithm>().unwrap(),
            algorithm,
            "lowercase {name}"
        );
        assert_eq!(algorithm.to_string(), name);
    }
    // The historically lossy name must parse.
    assert_eq!(
        "TDB++X".parse::<Algorithm>().unwrap(),
        Algorithm::TdbExtended
    );

    let err = "turbo-cover".parse::<Algorithm>().unwrap_err();
    assert_eq!(err.input(), "turbo-cover");
    let message = err.to_string();
    for algorithm in Algorithm::all() {
        assert!(
            message.contains(algorithm.name()),
            "error message should list {}: {message}",
            algorithm.name()
        );
    }
}

/// A request with an impossible budget reports `BudgetExceeded` instead of
/// running unbounded — for the top-down and the exhaustive families.
#[test]
fn time_budget_interrupts_instead_of_running_unbounded() {
    let g = preferential_attachment(&PreferentialConfig {
        num_vertices: 3_000,
        out_degree: 4,
        reciprocity: 0.2,
        random_rewire: 0.15,
        seed: 9,
    });
    let constraint = HopConstraint::new(5);
    for algorithm in [Algorithm::TdbPlusPlus, Algorithm::Bur] {
        let result = Solver::from_request(CoverRequest {
            time_budget: Some(Duration::ZERO),
            ..CoverRequest::new(algorithm, 5)
        })
        .solve(&g, &constraint);
        match result {
            Err(SolveError::BudgetExceeded { budget, .. }) => {
                assert_eq!(budget, Duration::ZERO, "{algorithm}")
            }
            other => panic!("{algorithm}: expected BudgetExceeded, got {other:?}"),
        }
    }
}

/// A budget generous enough for the graph leaves the result identical to an
/// unbudgeted run.
#[test]
fn generous_budget_does_not_change_the_cover() {
    let g = erdos_renyi_gnm(60, 260, 31);
    let constraint = HopConstraint::new(4);
    let unbudgeted = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&g, &constraint)
        .unwrap();
    let budgeted = Solver::from_request(CoverRequest {
        time_budget: Some(Duration::from_secs(120)),
        ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
    })
    .solve(&g, &constraint)
    .unwrap();
    assert_eq!(unbudgeted.cover, budgeted.cover);
}

/// Request options flow through: scan order changes the top-down result the
/// same way the family config does.
#[test]
fn builder_options_are_honored() {
    let g = complete_digraph(8);
    let constraint = HopConstraint::new(4);
    for order in [
        ScanOrder::Ascending,
        ScanOrder::DegreeDescending,
        ScanOrder::DegreeAscending,
        ScanOrder::Random(3),
    ] {
        let legacy = top_down_cover_with(
            &g,
            &constraint,
            &TopDownConfig::tdb_plus_plus().with_scan_order(order),
            &mut SolveContext::new(),
        )
        .unwrap();
        let unified = CoverRequest {
            scan_order: order,
            ..CoverRequest::new(Algorithm::TdbPlusPlus, 4)
        }
        .solve(&g)
        .unwrap();
        assert_eq!(unified.cover, legacy.cover, "{order:?}");
    }
}

/// The context accumulates metrics across solves and reports progress.
#[test]
fn context_accumulation_and_progress() {
    let g = erdos_renyi_gnm(50, 210, 17);
    let constraint = HopConstraint::new(4);
    let solver = Solver::new(Algorithm::TdbPlusPlus);

    let mut ctx = solver.context();
    let first = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
    let second = solver.solve_with(&g, &constraint, &mut ctx).unwrap();
    assert_eq!(ctx.completed_solves(), 2);
    assert_eq!(
        ctx.totals().cycle_queries,
        first.metrics.cycle_queries + second.metrics.cycle_queries
    );

    let mut reports = 0u64;
    {
        let mut ctx = solver.context();
        ctx.set_progress_callback(|p| {
            assert!(p.processed <= p.total);
            reports += 1;
        });
        solver.solve_with(&g, &constraint, &mut ctx).unwrap();
    }
    assert!(reports > 0, "no progress reports were delivered");
}
