//! Plan-level composition of the `xct-check` invariant analysis.
//!
//! `xct-check` knows how to validate one structure at a time; this module
//! knows which structures a preprocessed plan actually holds and how they
//! relate. [`plan_checker`] sweeps every memoized artifact in an
//! [`Operators`] (matrices, transpose pair, buffered/ELL layouts,
//! orderings); [`dist_checker`] extends the sweep to distributed
//! [`RankPlan`]s (domain partitions, local operators, the alltoallv
//! schedule); [`ledger_check`] reconciles an observed `comm/bytes` matrix
//! (the `xct-obs` export fed by the runtime's `CommLedger`) against the
//! traffic the schedule predicts.
//!
//! Validation is read-only: a validated build is bit-identical to an
//! unvalidated one.

use crate::dist::RankPlan;
use crate::operator::PooledPlans;
use crate::preprocess::Operators;
use xct_check::{
    BufferedCheck, Checker, CsrCheck, EllCheck, ExecPlanCheck, LedgerCheck, PartitionCheck,
    PermutationCheck, Report, ScheduleCheck, TransposeCheck,
};

/// A [`Checker`] over every memoized structure the plan holds: CSR
/// well-formedness of `A` and `At`, the transpose-pair relation, buffered
/// layouts against their sources, ELL layouts against their sources, and
/// both domain orderings as bijections.
pub fn plan_checker(ops: &Operators) -> Checker<'_> {
    let mut c = Checker::new();
    c.add(CsrCheck::new("csr(A)", &ops.a));
    // Transposed rows are sorted by original row index (§3.5.1), so the
    // stronger sortedness invariant holds for At.
    c.add(CsrCheck::new("csr(At)", &ops.at).require_sorted_columns());
    c.add(TransposeCheck::new("pair(A,At)", &ops.a, &ops.at));
    c.add(PermutationCheck::of_ordering(
        "ordering(tomogram)",
        &ops.tomo_ord,
    ));
    c.add(PermutationCheck::of_ordering(
        "ordering(sinogram)",
        &ops.sino_ord,
    ));
    if let Some(b) = &ops.a_buf {
        c.add(BufferedCheck::new("buffered(A)", b).with_source(&ops.a));
    }
    if let Some(b) = &ops.at_buf {
        c.add(BufferedCheck::new("buffered(At)", b).with_source(&ops.at));
    }
    if let Some(e) = &ops.a_ell {
        c.add(EllCheck::new("ell(A)", e, &ops.a, ops.partsize));
    }
    if let Some(e) = &ops.at_ell {
        c.add(EllCheck::new("ell(At)", e, &ops.at, ops.partsize));
    }
    c
}

/// Run [`plan_checker`] into a fresh [`Report`].
pub fn validate_plan(ops: &Operators) -> Report {
    plan_checker(ops).run()
}

/// A [`Checker`] over the static execution plans of a pooled
/// reconstructor: every plan's partition bounds must tile its domain,
/// its `weights`/`assign` arrays must be structurally sound, and every
/// worker's assigned weight must respect the greedy split's balance
/// bound.
pub fn exec_checker(plans: &PooledPlans) -> Checker<'_> {
    let mut c = Checker::new();
    for (name, plan) in plans.all() {
        c.add(ExecPlanCheck::new(
            name,
            plan.rows(),
            plan.bounds().to_vec(),
            plan.weights().to_vec(),
            plan.assign().to_vec(),
            plan.max_unit_weight(),
        ));
    }
    c
}

/// A [`Checker`] over distributed rank plans: both domain partitions cover
/// their domains disjointly, every local operator pair is well-formed, and
/// the alltoallv schedule is pairwise consistent (what the owner of a
/// sinogram block plans to duplicate to rank `s` is exactly what `s`
/// expects, ascending, and owned by the sender).
pub fn dist_checker<'a>(ops: &Operators, plans: &'a [RankPlan]) -> Checker<'a> {
    let mut c = Checker::new();
    c.add(PartitionCheck::new(
        "partition(tomogram)",
        ops.a.ncols(),
        plans
            .iter()
            .map(|p| p.tomo_range.start as usize..p.tomo_range.end as usize)
            .collect(),
    ));
    let sino_owners: Vec<std::ops::Range<usize>> = plans
        .iter()
        .map(|p| p.sino_range.start as usize..p.sino_range.end as usize)
        .collect();
    c.add(PartitionCheck::new(
        "partition(sinogram)",
        ops.a.nrows(),
        sino_owners.clone(),
    ));
    for plan in plans {
        let r = plan.rank;
        c.add(CsrCheck::new(format!("csr(A_p[{r}])"), &plan.a_local));
        c.add(CsrCheck::new(format!("csr(A_p[{r}]^T)"), &plan.at_local).require_sorted_columns());
        c.add(TransposeCheck::new(
            format!("pair(A_p[{r}])"),
            &plan.a_local,
            &plan.at_local,
        ));
        if let Some((a, at)) = &plan.local_buf {
            let name = |t: &str| format!("buffered(A_p[{r}]{t})");
            c.add(BufferedCheck::new(name(""), a).with_source(&plan.a_local));
            c.add(BufferedCheck::new(name("^T"), at).with_source(&plan.at_local));
        }
    }
    // Backprojection-direction schedule (Rᵀ): the owner of each sinogram
    // block sends `rows_from[dst]` to each peer, and each peer expects its
    // interaction rows back. Both sides must derive the same row lists.
    let sends: Vec<Vec<Vec<u32>>> = plans.iter().map(|p| p.rows_from.clone()).collect();
    let recvs: Vec<Vec<Vec<u32>>> = plans
        .iter()
        .map(|p| {
            (0..plans.len())
                .map(|q| p.inter_rows[p.dest_ranges[q].clone()].to_vec())
                .collect()
        })
        .collect();
    c.add(ScheduleCheck::new(
        "schedule(alltoallv)",
        sino_owners,
        sends,
        recvs,
    ));
    c
}

/// A [`LedgerCheck`] reconciling an observed per-pair byte matrix with the
/// data-plane traffic the plans predict for `forwards` forward and `backs`
/// backprojection applications. Per off-diagonal pair `(s, q)` the schedule
/// predicts `4·|dest_ranges[s][q]|` bytes per forward (partials routed to
/// the owner) and `4·|rows_from[s][q]|` bytes per backprojection (owned
/// values duplicated back); whatever remains must be the uniform 8-byte
/// [`crate::dist::allreduce_f64`] control traffic.
pub fn ledger_check(
    name: impl Into<String>,
    plans: &[RankPlan],
    observed: Vec<u64>,
    forwards: u64,
    backs: u64,
) -> LedgerCheck {
    let n = plans.len();
    let mut predicted = vec![0u64; n * n];
    for (s, plan) in plans.iter().enumerate() {
        for q in 0..n {
            if s == q {
                continue;
            }
            let fwd = plan.dest_ranges[q].len() as u64;
            let back = plan.rows_from[q].len() as u64;
            predicted[s * n + q] = forwards * 4 * fwd + backs * 4 * back;
        }
    }
    LedgerCheck::new(name, n, observed, predicted, 8)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dist::{build_plans, DistConfig};
    use crate::preprocess::{preprocess, Config};
    use crate::request::Solver;
    use crate::solvers::StopRule;
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
    use xct_sparse::EllMatrix;

    /// The default (buffered) plan, with the ELL pair attached when
    /// `with_ell`.
    fn setup(n: u32, m: u32, with_ell: bool) -> (Operators, Vec<f32>) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let mut ops = preprocess(grid, scan, &Config::default());
        if with_ell {
            ops.a_ell = Some(EllMatrix::from_csr(&ops.a, ops.partsize));
            ops.at_ell = Some(EllMatrix::from_csr(&ops.at, ops.partsize));
        }
        let y = ops.order_sinogram(&sino);
        (ops, y)
    }

    /// Corrupt `plans`' schedule: rank 0 plans to send one fewer row to
    /// rank 1 than rank 1 expects.
    pub(crate) fn drop_scheduled_row(plans: &mut [RankPlan]) {
        let r = plans[0].dest_ranges[1].clone();
        if r.len() > 1 {
            plans[0].dest_ranges[1] = r.start..r.end - 1;
        }
    }

    #[test]
    fn preprocessed_plan_is_clean() {
        let (ops, _) = setup(16, 12, true);
        let report = validate_plan(&ops);
        assert!(report.is_ok(), "{report}");
        // The sweep actually covered every memoized structure.
        assert_eq!(plan_checker(&ops).len(), 9);
    }

    #[test]
    fn dist_plans_are_clean() {
        let (ops, _) = setup(16, 12, false);
        for ranks in [1, 3] {
            let plans = build_plans(&ops, ranks, true);
            let report = dist_checker(&ops, &plans).run();
            assert!(report.is_ok(), "ranks {ranks}: {report}");
        }
    }

    #[test]
    fn ledger_reconciles_a_real_run() {
        let (ops, y) = setup(16, 12, false);
        let iters = 4;
        let out = crate::dist::try_reconstruct_distributed(
            &ops,
            &y,
            &DistConfig {
                ranks: 3,
                use_buffered: false,
                stop: StopRule::Fixed(iters),
                solver: Solver::Cg,
            },
        )
        .unwrap();
        let plans = build_plans(&ops, 3, false);
        // CG applies A once per iteration and Aᵀ once per iteration plus
        // once for the initial gradient.
        let check = ledger_check(
            "ledger",
            &plans,
            out.ledger.byte_matrix(),
            iters as u64,
            iters as u64 + 1,
        );
        let mut report = Report::new();
        xct_check::Check::run(&check, &mut report);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn ledger_detects_a_corrupted_schedule() {
        let (ops, y) = setup(16, 12, false);
        let out = crate::dist::try_reconstruct_distributed(
            &ops,
            &y,
            &DistConfig {
                ranks: 3,
                use_buffered: false,
                stop: StopRule::Fixed(2),
                solver: Solver::Cg,
            },
        )
        .unwrap();
        let mut plans = build_plans(&ops, 3, false);
        // The residual for the pair 0 → 1 no longer matches the others.
        drop_scheduled_row(&mut plans);
        let check = ledger_check("ledger", &plans, out.ledger.byte_matrix(), 2, 3);
        let mut report = Report::new();
        xct_check::Check::run(&check, &mut report);
        assert!(
            report.has(xct_check::Invariant::LedgerReconciliation),
            "{report}"
        );
    }
}
