//! Engine-vs-reference parity: the engine's subset arm solves by
//! conflict component, and it must return **the same repair** as the
//! whole-table library solvers (`fd_srepair::engine::solve_subset`,
//! `SRepairSolver`) on every schema of the `fd-gen` adversarial pool —
//! same cost, same deleted ids, same repaired table — under every
//! optimality regime where the two resolve to the same class of method,
//! and a **never weaker** guarantee everywhere (sharding may
//! legitimately *upgrade* a 2-approximation to per-component exactness;
//! it must never lose optimality the whole-table solve had).
//!
//! An optimal subset repair is the complement of a minimum-weight vertex
//! cover of the conflict graph, so it splits exactly over connected
//! components; these tests pin that the implementation honors it.
//!
//! A differential fuzz campaign (engine vs brute-force oracle) closes
//! the loop: zero divergences over 120 generated cases.

use fd_gen::adversarial::{schema_pool, sized_instance};
use fd_repairs::prelude::*;
use fd_srepair::engine::{solve_subset, subset_strategy};
use fd_srepair::SRepairSolver;

fn run(table: &Table, fds: &FdSet, request: &RepairRequest) -> RepairReport {
    Planner.run(table, fds, request).expect("request solves")
}

fn deleted_ids(report: &RepairReport) -> Vec<u32> {
    match &report.body {
        ReportBody::Subset { deleted, .. } => deleted.iter().map(|id| id.0).collect(),
        other => panic!("expected a subset body, got {other:?}"),
    }
}

/// The whole-table reference: the library's default method for a
/// hard-side cutoff of `exact_limit` rows, with the 2-approximation
/// replaced by the exact baseline when `exact` is demanded.
fn reference(table: &Table, fds: &FdSet, exact_limit: usize, exact: bool) -> SSolution {
    let method = match subset_strategy(fds, table.len(), exact_limit) {
        SMethod::Approx2 if exact => SMethod::ExactVertexCover,
        method => method,
    };
    solve_subset(table, fds, method)
}

/// The comparisons: (name, engine request, reference cutoff, reference
/// forced exact), with knobs aligned so both sides resolve the same
/// method class.
fn aligned_requests() -> Vec<(&'static str, RepairRequest, usize, bool)> {
    let engine = RepairRequest::subset();
    vec![
        (
            // Both sides fully exact: cutoffs generous
            // (exact_fallback_limit is the global allowance that caps
            // the per-component cutoff, so raise both).
            "exact-everywhere",
            engine
                .component_exact_limit(10_000)
                .exact_fallback_limit(10_000),
            10_000,
            false,
        ),
        (
            // Both sides forced to approximate on the hard side.
            "approx-everywhere",
            engine.component_exact_limit(0),
            0,
            false,
        ),
        (
            // Certified exactness demanded of both.
            "optimality-exact",
            engine.optimality(Optimality::Exact),
            64,
            true,
        ),
    ]
}

#[test]
fn sharded_reports_are_bit_identical_across_the_adversarial_pool() {
    for case in schema_pool() {
        for rows in [10, 28] {
            for seed in [3, 17] {
                let table = sized_instance(&case, rows, 3, seed % 2 == 1, seed);
                for (name, request, exact_limit, exact) in aligned_requests() {
                    // Approximating a consistent table differs in
                    // *guarantee* only; skip the approx alignment there.
                    if name == "approx-everywhere" && table.satisfies(&case.fds) {
                        continue;
                    }
                    let sharded = run(&table, &case.fds, &request);
                    let whole = reference(&table, &case.fds, exact_limit, exact);
                    let ctx = format!("{} {name} rows={rows} seed={seed}", case.name);
                    assert_eq!(sharded.cost, whole.repair.cost, "{ctx}: cost drifted");
                    assert_eq!(
                        deleted_ids(&sharded),
                        whole
                            .repair
                            .deleted(&table)
                            .iter()
                            .map(|id| id.0)
                            .collect::<Vec<_>>(),
                        "{ctx}: deleted set drifted"
                    );
                    assert_eq!(
                        sharded.repaired().unwrap().to_string(),
                        whole.repair.apply(&table).to_string(),
                        "{ctx}: repaired table drifted"
                    );
                    assert_eq!(sharded.optimal, whole.optimal, "{ctx}: guarantee drifted");
                    assert_eq!(sharded.ratio, whole.ratio, "{ctx}: ratio drifted");
                    // Every subset report carries component statistics.
                    assert!(sharded.components.is_some(), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn sharding_never_weakens_and_often_upgrades_the_guarantee() {
    // Default knobs on 90-row instances — past the whole-table exact
    // cutoff (64), so the library solver must 2-approximate every hard
    // Δ, while the engine stays exact whenever the individual
    // components fit the (identically-valued) per-component cutoff.
    // The guarantee may only improve, and the cost may only go down.
    let mut upgraded = 0usize;
    for case in schema_pool() {
        for seed in [5, 9] {
            let table = sized_instance(&case, 90, 3, false, seed);
            let sharded = run(&table, &case.fds, &RepairRequest::subset());
            let whole = SRepairSolver::default().solve(&table, &case.fds);
            assert!(
                sharded.ratio <= whole.ratio,
                "{}: sharding weakened the ratio {} -> {}",
                case.name,
                whole.ratio,
                sharded.ratio
            );
            assert!(
                sharded.cost <= whole.repair.cost + 1e-9,
                "{}: sharding worsened the cost {} -> {}",
                case.name,
                whole.repair.cost,
                sharded.cost
            );
            if sharded.optimal && !whole.optimal {
                upgraded += 1;
            }
        }
    }
    assert!(
        upgraded > 0,
        "no pool instance exercised the per-component exactness upgrade"
    );
}

#[test]
fn forced_shard_fuzz_campaign_has_zero_divergences() {
    use fd_oracle::{run_fuzz, FuzzConfig, FuzzNotion};
    let summary = run_fuzz(&FuzzConfig {
        notion: FuzzNotion::Subset,
        cases: 120,
        seed: 23,
        max_rows: 0,
    });
    assert_eq!(summary.cases, 120);
    for d in &summary.divergences {
        eprintln!(
            "case {} (seed {}) on {}: {}\n{}",
            d.case_index, d.case_seed, d.schema_name, d.message, d.instance_fdr
        );
    }
    assert!(
        summary.divergences.is_empty(),
        "{} divergence(s) from the oracle",
        summary.divergences.len()
    );
}
