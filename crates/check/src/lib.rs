//! `xct-check`: static invariant analysis for MemXCT's memoized structures
//! plus the in-repo lint gate.
//!
//! MemXCT's premise is that correctness is *memoized up front*: projection
//! matrices, Hilbert permutations, stage buffers, and the communication
//! schedule are built once and then trusted by every SpMV iteration. A
//! single malformed structure therefore corrupts every subsequent
//! iteration with no diagnostic. This crate proves the invariants once, at
//! plan time:
//!
//! - [`Check`] / [`Checker`]: composable structural validation producing
//!   typed [`CheckViolation`]s (structure, invariant, location, fix) —
//!   never panics;
//! - concrete checks for every memoized artifact: [`CsrCheck`],
//!   [`TransposeCheck`], [`PermutationCheck`], [`BufferedCheck`],
//!   [`PartitionCheck`], [`ScheduleCheck`], [`LedgerCheck`];
//! - [`lint`]: the repo-tuned source lint driver behind the `xct-lint`
//!   binary (narrowing casts, panics in public API paths, unsafe policy).
//!
//! Plan-level composition (wiring a whole `Operators` + distributed plan
//! set into a `Checker`) lives in the `memxct` crate
//! (`memxct::plan_check`), which depends on this one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checks;
pub mod lint;
mod violation;

pub use checks::{
    BufferedCheck, Check, Checker, CheckpointCheck, CheckpointSection, CsrCheck, ExecPlanCheck,
    LedgerCheck, LockOrderCheck, PartitionCheck, PermutationCheck, ScheduleCheck, TransposeCheck,
};
pub use violation::{CheckViolation, Invariant, Report};
