//! MemXCT: memory-centric X-ray CT reconstruction (SC '19).
//!
//! The memory-centric approach memoizes ray tracing into explicit sparse
//! matrices once, then runs every solver iteration as optimized SpMV:
//!
//! 1. **Preprocessing** ([`preprocess()`], §3.5): order both the tomogram
//!    and the sinogram domain with the two-level pseudo-Hilbert ordering,
//!    trace every ray to build the forward-projection CSR matrix directly
//!    in ordered coordinates, scan-transpose it for backprojection, and
//!    build the partitioned/buffered kernel layouts.
//! 2. **Solvers** ([`solvers`], §3.5.2): conjugate gradient (CGLS) with
//!    early termination, and SIRT for baseline comparisons, both recording
//!    the per-iteration residual/solution norms of the L-curve (Fig 8).
//! 3. **Distributed execution** ([`dist`], §3.4): both domains are
//!    partitioned across ranks by contiguous tile runs; forward projection
//!    is factored `A = R·C·A_p` (partial projection, sparse all-to-all,
//!    overlap reduction) and backprojection is its transpose — no domain
//!    duplication, no atomics.
//!
//! Every projection path — the memoized CSR / buffered / ELL layouts
//! (one [`KernelOperator`] on a worker pool of one or more), the
//! distributed `R·C·A_p` factorization, and the CompXCT baseline —
//! implements the [`ProjectionOperator`] trait ([`operator`]), and every
//! solver is the single generic engine [`run_engine_in`] parameterized by
//! an [`UpdateRule`] (CG, SIRT, OS-SIRT) plus optional constraints. Batch
//! width is a property of the [`SolverWorkspace`] the engine runs in —
//! one loop and one [`UpdateRule::step`] per rule serve one slice or
//! many; [`run_engine`] is the allocating single-slice convenience.
//!
//! Use [`Reconstructor`] for the high-level API: build once per geometry,
//! then describe each job as a [`ReconRequest`] and hand it to
//! [`Reconstructor::run`] — the one front door.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod dist;
pub mod errors;
pub mod fbp;
pub mod operator;
pub mod plan_check;
pub mod prelude;
pub mod preprocess;
pub mod reconstructor;
pub mod regularize;
pub mod request;
pub mod solvers;
mod subsets;

pub use checkpoint::{plan_fingerprint, validate_snapshot};
pub use dist::{
    allreduce_f64, try_allreduce_f64, try_reconstruct_distributed, try_reconstruct_distributed_ft,
    DistConfig, DistOperator, DistOutput, DistSolver, FaultTolerance, RankPlan,
};
pub use errors::BuildError;
pub use fbp::{fbp, FbpConfig};
pub use operator::{
    ClosureOperator, CompOperator, KernelBreakdown, KernelOperator, PooledOperator, PooledPlans,
    ProjectionOperator, StackedOperator, POOL_IMBALANCE_BACK, POOL_IMBALANCE_FORWARD,
};
pub use plan_check::{dist_checker, exec_checker, ledger_check, plan_checker, validate_plan};
pub use preprocess::{
    preprocess, try_preprocess, try_preprocess_with_metrics, Config, DomainOrdering, Kernel,
    Operators, PreprocessTimings, Projector,
};
pub use reconstructor::{Reconstructor, ReconstructorBuilder};
pub use regularize::{cgls_smooth, gradient_operator};
pub use request::{
    CheckpointPolicy, DistDetail, ExecMode, ReconError, ReconInput, ReconRequest, ReconResponse,
    RunControl, RunOutcome, Solver,
};
// `recon-bench` still spells batched solves this way; drop the alias when
// `benchmark/` calls `run_engine_in`.
#[doc(hidden)]
pub use solvers::run_engine_in as run_engine_batched_in;
pub use solvers::{
    cgls, cgls_regularized, run_engine, run_engine_in, sirt, sirt_nonneg, CgRule, Constraint,
    IterationRecord, SirtRule, SolverWorkspace, StopRule, UpdateRule,
};
pub use xct_check::{CheckViolation, Invariant, Report as CheckReport};

/// Relative L2 error `‖a − b‖₂ / ‖b‖₂`, the yardstick the unit tests share.
#[cfg(test)]
pub(crate) fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    num / den
}
