//! Execution substrate for distributed MemXCT: an MPI-style communicator
//! backed by threads, plus analytic machine models for projecting measured
//! kernel volumes onto the paper's supercomputers.
//!
//! The paper runs MPI ranks across up to 4096 nodes of ALCF Theta and NCSA
//! Blue Waters. This reproduction provides:
//!
//! - [`run_ranks`] / [`Communicator`]: an SPMD harness where each "rank"
//!   is a thread with private state, exchanging data only through MPI-like
//!   collectives (`alltoallv`, `alltoall_counts`, `barrier`).
//!   Semantics match MPI; per-pair traffic is accounted into a
//!   communication matrix (Fig 7(c)).
//! - [`MachineSpec`] / [`iteration_time`]: an α–β network + streaming
//!   memory model parameterized by Table 2's machine characteristics. The
//!   *volumes* fed to the model (nonzeroes per rank, bytes on each wire)
//!   are computed by the real partitioner on the real matrices; only the
//!   per-byte and per-message rates are modeled. This is the documented
//!   substitution for hardware we do not have (see DESIGN.md).
//! - [`WorkerPool`] / [`ExecPlan`]: the in-node execution layer — a
//!   persistent worker pool (spawned once, parked between dispatches)
//!   driving static nnz-balanced row partitions, mirroring the paper's
//!   `partsize` load balancing (§3.2).
//! - [`prefetch`]: a cache hint for the plan build's scatter passes.
//!
//! The workspace's `unsafe` lives here and nowhere else, each site with a
//! `SAFETY` argument: the two in `pool.rs` (lifetime-erased job pointer,
//! disjoint output slicing) and the prefetch intrinsic in `hint.rs`.

#![warn(missing_docs)]

pub mod checkpoint;
mod comm;
pub mod fault;
mod hint;
mod model;
mod pool;

pub use checkpoint::{
    CheckpointError, CheckpointSink, FileCheckpointSink, MemoryCheckpointSink, Snapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use comm::{fnv1a64, run_ranks, run_ranks_with, CollectiveStats, CommLedger, Communicator};
pub use fault::{
    CommConfig, CommError, CommErrorKind, FaultKind, FaultPlan, FaultSpec, FaultStats,
};
pub use hint::prefetch;
pub use model::{
    iteration_time, KernelTimes, KernelVolumes, MachineSpec, BLUE_WATERS, COOLEY, THETA,
};
pub use pool::{
    env_threads, ExecPlan, PoolPoisoned, WorkerPool, POOL_DISPATCHES, POOL_DISPATCH_SECONDS,
    POOL_UTILIZATION, POOL_WORKERS,
};
