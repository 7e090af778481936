//! A plan/solve split over the whole-table subset-repair methods.
//!
//! [`SRepairSolver::solve`](crate::SRepairSolver::solve) fuses strategy
//! selection and execution; splitting them lets a caller override the
//! planned method (e.g. force exactness) and read a method's guarantee
//! without running it — the `fd-engine` planner quotes
//! [`subset_guarantees`] in its plan steps, and the whole-table solve is
//! the reference its component-sharded subset arm is tested against. The
//! invariant `solve_subset(t, Δ, subset_strategy(Δ, |t|, k)) ≡
//! SRepairSolver { exact_fallback_limit: k }.solve(t, Δ)` is pinned by a
//! test below.

use crate::approx::approx_s_repair;
use crate::exact::exact_s_repair;
use crate::optsrepair::opt_s_repair;
use crate::solver::{SMethod, SSolution};
use crate::succeeds::osr_succeeds;
use fd_core::{FdSet, Table};

/// The method the default policy would pick: Algorithm 1 on the
/// tractable side, else exact vertex cover within `exact_fallback_limit`
/// rows, else the 2-approximation.
pub fn subset_strategy(fds: &FdSet, rows: usize, exact_fallback_limit: usize) -> SMethod {
    if osr_succeeds(fds) {
        SMethod::Dichotomy
    } else if rows <= exact_fallback_limit {
        SMethod::ExactVertexCover
    } else {
        SMethod::Approx2
    }
}

/// The (optimal, guaranteed-ratio) pair a method promises.
pub fn subset_guarantees(method: SMethod) -> (bool, f64) {
    match method {
        SMethod::Dichotomy | SMethod::ExactVertexCover => (true, 1.0),
        SMethod::Approx2 => (false, 2.0),
    }
}

/// Executes exactly the given method.
///
/// # Panics
/// Panics if `method` is [`SMethod::Dichotomy`] but `OSRSucceeds(Δ)`
/// fails — plan with [`subset_strategy`] to avoid this.
pub fn solve_subset(table: &Table, fds: &FdSet, method: SMethod) -> SSolution {
    let repair = match method {
        SMethod::Dichotomy => opt_s_repair(table, fds)
            .expect("planned Dichotomy requires OSRSucceeds(Δ) (Theorem 3.4)"),
        SMethod::ExactVertexCover => exact_s_repair(table, fds),
        SMethod::Approx2 => approx_s_repair(table, fds),
    };
    let (optimal, ratio) = subset_guarantees(method);
    SSolution {
        repair,
        method,
        optimal,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SRepairSolver;
    use fd_core::{schema_rabc, tup};

    fn dirty_table(n: usize) -> Table {
        let rows = (0..n).map(|i| tup![(i % 3) as i64, (i % 2) as i64, (i % 5) as i64]);
        Table::build_unweighted(schema_rabc(), rows).unwrap()
    }

    #[test]
    fn plan_plus_solve_matches_the_legacy_solver() {
        let s = schema_rabc();
        for (spec, n, limit) in [
            ("A -> B C", 10, 64),       // tractable: Algorithm 1
            ("A -> B; B -> C", 10, 64), // hard, small: exact
            ("A -> B; B -> C", 30, 5),  // hard, large: 2-approximation
        ] {
            let fds = FdSet::parse(&s, spec).unwrap();
            let t = dirty_table(n);
            let method = subset_strategy(&fds, t.len(), limit);
            let planned = solve_subset(&t, &fds, method);
            let legacy = SRepairSolver {
                exact_fallback_limit: limit,
            }
            .solve(&t, &fds);
            assert_eq!(planned.method, legacy.method, "{spec}");
            assert_eq!(planned.optimal, legacy.optimal, "{spec}");
            assert_eq!(planned.ratio, legacy.ratio, "{spec}");
            assert_eq!(planned.repair.cost, legacy.repair.cost, "{spec}");
            planned.repair.verify(&t, &fds);
        }
    }

    #[test]
    fn forced_exact_beats_the_size_cutoff() {
        // The engine's Optimality::Exact path: override the planned
        // 2-approximation with the exact baseline.
        let s = schema_rabc();
        let fds = FdSet::parse(&s, "A -> B; B -> C").unwrap();
        let t = dirty_table(12);
        assert_eq!(subset_strategy(&fds, t.len(), 5), SMethod::Approx2);
        let sol = solve_subset(&t, &fds, SMethod::ExactVertexCover);
        assert!(sol.optimal);
        sol.repair.verify(&t, &fds);
    }
}
