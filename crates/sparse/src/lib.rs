//! Sparse kernels for MemXCT (SC '19, §3.1 and §3.3).
//!
//! MemXCT performs forward and backprojection as explicit SpMV over a
//! memoized projection matrix. This crate provides:
//!
//! - [`CsrMatrix`]: compressed sparse row storage (f32 values, u32 column
//!   indices — the paper's layout);
//! - [`CsrMatrix::transpose_scan`]: the order-preserving scan-based sparse
//!   transposition of §3.5.1 (no atomics, locality preserved);
//! - [`spmv`] / [`spmv_into`]: the baseline kernel of Listing 2, on the
//!   calling thread — the reference every other kernel is pinned to;
//! - [`BufferedCsr`]: the multi-stage input-buffered kernel of Listing 3,
//!   with 16-bit in-buffer addressing (§3.3.5);
//! - [`spmv_pooled_into`] / [`dot_f64_batched_pooled`] (plus pooled
//!   methods on the buffered layout): the same kernels driven by the
//!   persistent `xct-runtime` worker pool over static nnz-balanced
//!   partitions — no per-call thread spawns, bit-identical results for
//!   every worker count. The pool is the **only** threaded path: every
//!   entry point without a `pool` argument runs on the calling thread —
//!   [`dot_f64_chunked`] is the pooled dot's summation order there;
//! - [`spmm_into`] / [`spmm_pooled_into`] (plus SpMM methods on the
//!   buffered layout): batched right-hand sides as slice-interleaved
//!   slabs (element `i` of slice `j` at `i·k + j`; [`interleave`] /
//!   [`deinterleave`] convert at the edges), `Y = A · [x₁ … xₖ]`,
//!   streaming the matrix once per k slices with per-slice results
//!   bit-identical to the SpMV kernels;
//! - [`PartitionStats`]: footprint / data-reuse / staging statistics used
//!   by Fig 6 and the bandwidth accounting of Fig 9;
//! - [`lanes`]: the fixed-width lane-split row reduction every kernel
//!   above shares — explicit 8-lane f32 accumulators with a deterministic
//!   reduction order, written so rustc/LLVM emits SIMD without intrinsics
//!   (the scalar Listing 2 chain survives as [`spmv_scalar_into`], the
//!   roofline baseline).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
mod buffered;
mod csr;
pub mod lanes;
mod pooled;
mod reduce;
mod spare;
mod spmv;
mod stats;

pub use batch::{deinterleave, interleave, spmm_into, spmm_pooled_into};
pub use buffered::{BufferIndex, BufferedCsr, BufferedCsr32, BufferedCsrImpl, LayoutError};
pub use csr::{CsrMatrix, TRANSPOSE_LOOKAHEAD};
pub use pooled::{
    csr_plan, csr_plan_equal, dot_chunks, dot_f64_batched_pooled, dot_plan, spmv_pooled_into,
    DOT_CHUNK,
};
pub use reduce::{dot_f64, dot_f64_chunked, dot_f64_chunked_batch, norm_f64};
pub use spmv::{spmv, spmv_into, spmv_scalar_into};
pub use stats::{partition_stats, PartitionStats};
