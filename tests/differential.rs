//! The cross-algorithm differential test kit — the reusable oracle for
//! future refactors.
//!
//! A deterministic scenario matrix
//! `graph family × hop bound × algorithm × sharding on/off × two-cycle mode`
//! is solved through the unified [`Solver`] API, and every configuration is
//! held to the properties the crate documents:
//!
//! * every cover is **valid** (verified independently by
//!   `tdb_core::verify`);
//! * algorithms that guarantee minimality (`BUR+` via Algorithm 7, the
//!   top-down family via Theorem 7) produce **minimal** covers in the plain
//!   and `Integrated` configurations;
//! * the SCC-**sharded** solve returns the **same cover** as the unsharded
//!   one (the partition argument: every constrained cycle lives inside one
//!   SCC, and the extraction's id remap is monotone);
//! * the **top-down variants** (`TDB`, `TDB+`, `TDB++`, `TDB++X`) return
//!   **identical covers** — the filters only skip work, never change
//!   decisions (paper §VII-B);
//! * `Objective::MinWeight` under **all-1 weights** reproduces the
//!   `MinCardinality` cover **bit-exactly** in every configuration — the
//!   weight hooks are stable orderings and `u128` cross-multiplications
//!   that degenerate to the unweighted comparisons when costs are equal.
//!
//! Budgeted solves are covered by separate property tests below: a
//! [`Budget`] cap is never exceeded, and the reported residual is exactly
//! the set of uncovered constrained cycles (audited with the verifier).
//!
//! The whole matrix is also written to `target/differential/matrix.md` so CI
//! can publish it as a build artifact: a refactor that shifts any cover size
//! shows up as a diff of that table even before an assertion trips.

use std::fmt::Write as _;

use tdb::prelude::*;
use tdb_core::Algorithm;
use tdb_graph::gen::{
    erdos_renyi_gnm, multi_scc_chain, preferential_attachment, small_world, MultiSccConfig,
    PreferentialConfig,
};
use tdb_graph::CostModel;

/// One graph family instance of the matrix, seeded and deterministic.
struct Family {
    name: &'static str,
    graph: CsrGraph,
}

/// A medium multi-SCC instance: three ring-plus-chords blocks of different
/// sizes chained by one-way bridges, plus an acyclic tail.
fn multi_scc_instance(seed: u64) -> CsrGraph {
    multi_scc_chain(&MultiSccConfig {
        component_sizes: vec![14, 10, 7],
        chords_per_component: vec![42, 30, 21],
        tail_len: 2,
        seed,
    })
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "erdos-renyi",
            graph: erdos_renyi_gnm(40, 170, 7),
        },
        Family {
            name: "preferential",
            graph: preferential_attachment(&PreferentialConfig {
                num_vertices: 50,
                out_degree: 3,
                reciprocity: 0.35,
                random_rewire: 0.1,
                seed: 11,
            }),
        },
        Family {
            name: "small-world",
            graph: small_world(40, 2, 0.25, 9),
        },
        Family {
            name: "multi-scc",
            graph: multi_scc_instance(23),
        },
    ]
}

const HOP_BOUNDS: [usize; 2] = [3, 5];

/// The two-cycle axis: `(label, whether the constraint counts 2-cycles, how
/// they are covered)`. The two 2-cycle configurations solve under
/// [`HopConstraint::with_two_cycles`]; the plain one under
/// [`HopConstraint::new`], where the mode is inert.
const TWO_CYCLE_MODES: [(&str, bool, TwoCycleMode); 3] = [
    ("plain", false, TwoCycleMode::Integrated),
    ("2cyc-integrated", true, TwoCycleMode::Integrated),
    ("2cyc-separate", true, TwoCycleMode::Separate),
];

/// Whether this algorithm guarantees a minimal cover in this two-cycle mode.
///
/// `BUR` skips the Algorithm-7 pruning pass by definition; `DARC-DV` maps an
/// edge-minimal line-graph transversal to vertices, which is not
/// vertex-minimal; and the `Separate` mode unions two independently minimal
/// covers, which the solver documents as not guaranteed minimal.
fn guarantees_minimal(algorithm: Algorithm, mode: TwoCycleMode) -> bool {
    !matches!(algorithm, Algorithm::Bur | Algorithm::DarcDv) && mode != TwoCycleMode::Separate
}

/// Run the full matrix, assert every documented property, and return the
/// markdown summary.
fn run_matrix() -> String {
    let mut summary = String::from(
        "# Differential matrix\n\n\
         Cover sizes per (graph family, k, two-cycle mode, algorithm), \
         unsharded vs sharded.\n\n\
         | family | k | mode | algorithm | unsharded | sharded | valid | minimal |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for family in families() {
        let g = &family.graph;
        for k in HOP_BOUNDS {
            for (mode_label, two_cycles, mode) in TWO_CYCLE_MODES {
                let constraint = if two_cycles {
                    HopConstraint::with_two_cycles(k)
                } else {
                    HopConstraint::new(k)
                };
                let mut top_down_reference: Option<CycleCover> = None;
                for algorithm in Algorithm::all() {
                    let label = format!("{}/k={k}/{mode_label}/{algorithm}", family.name);
                    let request = CoverRequest {
                        two_cycle_mode: mode,
                        ..CoverRequest::new(algorithm, k)
                    };
                    let solve = |request: CoverRequest, what: &str| {
                        Solver::from_request(request)
                            .solve(g, &constraint)
                            .unwrap_or_else(|e| panic!("{label}: {what} solve failed: {e}"))
                    };
                    let sharded_request = CoverRequest {
                        sharding: ShardingMode::Threads(3),
                        ..request.clone()
                    };
                    let plain = solve(request.clone(), "unsharded");
                    let sharded = solve(sharded_request.clone(), "sharded");

                    // Sharded must reproduce the unsharded cover exactly: the
                    // default scan order is ascending and the extraction's id
                    // remap is monotone.
                    assert_eq!(
                        sharded.cover, plain.cover,
                        "{label}: sharded cover differs from unsharded"
                    );

                    // Objective axis: MinWeight under all-1 weights must be
                    // bit-identical to MinCardinality — every weight hook
                    // degenerates to the unweighted comparison when costs
                    // are equal. `from_fn` deliberately builds a PerVertex
                    // model (not Uniform) so the weight-aware code paths
                    // actually run.
                    let unit = CostModel::from_fn(g.num_vertices(), |_| 1);
                    let weighted = solve(
                        CoverRequest {
                            objective: Objective::MinWeight,
                            costs: unit.clone(),
                            ..request
                        },
                        "all-1 MinWeight",
                    );
                    assert_eq!(
                        weighted.cover, plain.cover,
                        "{label}: all-1 MinWeight cover differs from MinCardinality"
                    );
                    let weighted_sharded = solve(
                        CoverRequest {
                            objective: Objective::MinWeight,
                            costs: unit,
                            ..sharded_request
                        },
                        "sharded all-1 MinWeight",
                    );
                    assert_eq!(
                        weighted_sharded.cover, plain.cover,
                        "{label}: sharded all-1 MinWeight cover differs from MinCardinality"
                    );

                    let verification = verify_cover(g, &plain.cover, &constraint);
                    assert!(
                        verification.is_valid,
                        "{label}: invalid cover, witness {:?}",
                        verification.witness
                    );
                    let minimal_required = guarantees_minimal(algorithm, mode);
                    if minimal_required {
                        assert!(
                            verification.is_minimal,
                            "{label}: non-minimal cover, redundant {:?}",
                            verification.redundant
                        );
                    }

                    // The top-down variants must agree vertex-for-vertex.
                    if matches!(
                        algorithm,
                        Algorithm::Tdb
                            | Algorithm::TdbPlus
                            | Algorithm::TdbPlusPlus
                            | Algorithm::TdbExtended
                    ) {
                        match &top_down_reference {
                            None => top_down_reference = Some(plain.cover.clone()),
                            Some(reference) => assert_eq!(
                                &plain.cover, reference,
                                "{label}: top-down variants must produce identical covers"
                            ),
                        }
                    }

                    writeln!(
                        summary,
                        "| {} | {k} | {mode_label} | {algorithm} | {} | {} | yes | {} |",
                        family.name,
                        plain.cover.len(),
                        sharded.cover.len(),
                        if minimal_required {
                            "yes"
                        } else if verification.is_minimal {
                            "yes*"
                        } else {
                            "n/a"
                        },
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
    }
    summary.push_str(
        "\n`yes*` = minimal in this run though the configuration does not guarantee it.\n",
    );
    summary
}

#[test]
fn differential_matrix_holds_across_all_configurations() {
    let summary = run_matrix();
    // Publish the matrix for the CI artifact; failure to write is not a test
    // failure (read-only checkouts still validate everything above).
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target/differential");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = format!("{dir}/matrix.md");
        if let Err(e) = std::fs::write(&path, &summary) {
            eprintln!("note: could not write {path}: {e}");
        }
    }
    // 4 families x 2 hop bounds x 3 modes x 7 algorithms data rows, plus the
    // header row (the `|---|` separator does not start with a pipe + space).
    let rows = summary.lines().filter(|l| l.starts_with("| ")).count();
    assert_eq!(rows, 4 * 2 * 3 * 7 + 1, "matrix data rows + header");
}

/// Audit one budgeted report against the graph it was solved on:
///
/// * the budget cap is actually respected (vertices or cost, per variant);
/// * `total_cost` is the cost model's own sum over the kept cover;
/// * `exhausted` ⟺ the kept cover misses some constrained cycle ⟺ the
///   residual is non-empty (the enumeration is complete below the cap);
/// * every residual cycle is hop-bounded and **disjoint from the kept
///   cover** (otherwise it would not be residual); and
/// * the residual really is *all* that is missing: re-covering every
///   residual vertex on top of the kept cover passes the independent
///   verifier.
fn audit_budgeted_report(
    label: &str,
    g: &CsrGraph,
    report: &tdb_core::CoverReport,
    budget: Budget,
    costs: &CostModel,
    check: &HopConstraint,
) {
    match budget {
        Budget::None => {}
        Budget::MaxVertices(n) => assert!(
            report.cover_size() <= n,
            "{label}: {} vertices exceed the MaxVertices({n}) cap",
            report.cover_size()
        ),
        Budget::MaxCost(cap) => assert!(
            report.total_cost <= cap,
            "{label}: cost {} exceeds the MaxCost({cap}) cap",
            report.total_cost
        ),
    }
    assert_eq!(
        report.total_cost,
        costs.total(report.cover.iter()),
        "{label}: total_cost must be the model's sum over the kept cover"
    );

    let verification = verify_cover(g, &report.cover, check);
    assert_eq!(
        report.exhausted, !verification.is_valid,
        "{label}: exhausted must mean exactly 'the kept cover is incomplete'"
    );
    assert_eq!(
        report.residual.is_empty(),
        !report.exhausted,
        "{label}: residual cycles and the exhausted flag must agree"
    );
    assert!(
        report.residual.len() < DEFAULT_RESIDUAL_CAP,
        "{label}: test graphs must stay below the residual cap for a complete audit"
    );

    let mut patched = report.cover.clone();
    for cycle in &report.residual {
        assert!(
            check.covers_len(cycle.len()),
            "{label}: residual cycle {cycle:?} violates the hop bound"
        );
        for &v in cycle {
            assert!(
                !report.cover.contains(v),
                "{label}: residual cycle {cycle:?} passes through kept breaker {v}"
            );
            patched.insert(v);
        }
    }
    // Completeness: the residual listed *every* escaped cycle, so covering
    // all of their vertices must restore validity.
    assert!(
        verify_cover(g, &patched, check).is_valid,
        "{label}: covering every residual vertex must yield a valid cover"
    );
}

/// Budgeted solves across the graph families: caps are hard, reports are
/// self-consistent, and the residual audit passes for vertex budgets, cost
/// budgets (under skewed weights), and the unbudgeted degenerate case.
#[test]
fn budgeted_solves_respect_caps_and_residuals_audit_clean() {
    for family in families() {
        let g = &family.graph;
        let k = 4;
        let full = Solver::new(Algorithm::TdbPlusPlus)
            .solve(g, &HopConstraint::new(k))
            .unwrap();
        assert!(
            full.cover.len() >= 4,
            "{}: family too easy to exercise budgets",
            family.name
        );
        let skewed = CostModel::from_fn(g.num_vertices(), |v| 1 + u64::from(v) % 7);

        // (budget, costs, objective) scenarios, from degenerate to tight.
        let scenarios: Vec<(Budget, CostModel, Objective)> = vec![
            (Budget::None, CostModel::Uniform, Objective::MinCardinality),
            (
                Budget::MaxVertices(full.cover.len()),
                CostModel::Uniform,
                Objective::MinCardinality,
            ),
            (
                Budget::MaxVertices(full.cover.len() / 2),
                CostModel::Uniform,
                Objective::MinCardinality,
            ),
            (Budget::MaxVertices(1), skewed.clone(), Objective::MinWeight),
            (
                Budget::MaxCost(skewed.total(full.cover.iter()) / 2),
                skewed.clone(),
                Objective::MinWeight,
            ),
            (Budget::MaxCost(3), skewed.clone(), Objective::MinWeight),
        ];
        for (budget, costs, objective) in scenarios {
            let label = format!("{}/k={k}/{budget:?}/{objective:?}", family.name);
            let mut request = CoverRequest::new(Algorithm::TdbPlusPlus, k);
            request.budget = budget;
            request.costs = costs.clone();
            request.objective = objective;
            let report = request
                .solve(g)
                .unwrap_or_else(|e| panic!("{label}: budgeted solve failed: {e}"));
            audit_budgeted_report(&label, g, &report, budget, &costs, &request.constraint());
        }

        // A generous vertex budget is a no-op: same cover as the plain solve.
        let mut roomy = CoverRequest::new(Algorithm::TdbPlusPlus, k);
        roomy.budget = Budget::MaxVertices(full.cover.len());
        let report = roomy.solve(g).unwrap();
        assert_eq!(
            report.cover, full.cover,
            "{}: a budget the cover fits under must not change it",
            family.name
        );
        assert!(!report.exhausted);
    }
}

/// The kit must catch what it claims to catch: a cover with one vertex
/// removed fails validation, a cover with one extra vertex fails minimality.
#[test]
fn differential_oracle_detects_broken_covers() {
    let g = multi_scc_instance(23);
    let constraint = HopConstraint::new(4);
    let run = Solver::new(Algorithm::TdbPlusPlus)
        .solve(&g, &constraint)
        .unwrap();
    assert!(!run.cover.is_empty());

    let mut too_small = run.cover.clone();
    let dropped = too_small.iter().next().unwrap();
    too_small.remove(dropped);
    assert!(
        !verify_cover(&g, &too_small, &constraint).is_valid,
        "removing cover vertex {dropped} must expose a cycle"
    );

    let mut too_big = run.cover.clone();
    let extra = (0..g.num_vertices() as VertexId)
        .find(|&v| !too_big.contains(v))
        .expect("some vertex is uncovered");
    too_big.insert(extra);
    let v = verify_cover(&g, &too_big, &constraint);
    assert!(v.is_valid);
    assert!(
        !v.is_minimal,
        "vertex {extra} was added gratuitously and must be reported redundant"
    );
}
