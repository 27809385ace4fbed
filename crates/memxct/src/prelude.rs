//! One-stop imports for typical reconstructions:
//! `use memxct::prelude::*;` brings in the builder and high-level API,
//! the operator trait and solver engine, the error and configuration
//! types, and the observability handles (re-exported from [`xct_obs`]).
//!
//! ```
//! use memxct::prelude::*;
//! use xct_geometry::{Grid, ScanGeometry};
//!
//! let (grid, scan) = (Grid::new(16), ScanGeometry::new(12, 16));
//! let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
//! assert_eq!(rec.kernel(), Kernel::Buffered);
//! // The kernel is the plan's: a CSR plan builds no buffered layout.
//! let csr = Config { kernel: Kernel::Serial, ..Config::default() };
//! let rec = ReconstructorBuilder::new(grid, scan).config(csr).build().unwrap();
//! assert!(rec.operators().a_buf.is_none());
//! ```

pub use crate::checkpoint::{plan_fingerprint, validate_snapshot};
pub use crate::dist::{
    try_reconstruct_distributed, DistConfig, DistOutput, DistSolver, FaultTolerance,
};
pub use crate::errors::BuildError;
pub use crate::fbp::{fbp, FbpConfig};
pub use crate::operator::{KernelBreakdown, ProjectionOperator};
pub use crate::plan_check::{dist_checker, plan_checker, validate_plan};
pub use crate::preprocess::{
    preprocess, try_preprocess, Config, DomainOrdering, Kernel, Operators, Projector,
};
pub use crate::reconstructor::{Reconstructor, ReconstructorBuilder};
pub use crate::request::{
    CheckpointPolicy, DistDetail, ExecMode, ReconError, ReconInput, ReconRequest, ReconResponse,
    RunControl, RunOutcome, Solver,
};
pub use crate::solvers::{
    run_engine, CgRule, Constraint, IterationRecord, SirtRule, StopRule, UpdateRule,
};
pub use xct_obs::{Metrics, MetricsSnapshot, TimerSummary};
pub use xct_runtime::{
    CheckpointError, CheckpointSink, CommConfig, CommError, CommErrorKind, FaultKind, FaultPlan,
    FaultSpec, FaultStats, FileCheckpointSink, MemoryCheckpointSink, Snapshot,
};
