//! Structured errors for the fallible construction and solve entry points
//! ([`crate::preprocess::try_preprocess`], `ReconstructorBuilder::build`,
//! `Reconstructor::run` — wrapped in `ReconError::Build` — and
//! `try_reconstruct_distributed`). The panicking
//! `preprocess` / `Reconstructor::new` remain as thin shims for callers
//! that prefer crashing on misconfiguration.

use std::fmt;

use xct_runtime::{CheckpointError, CommError};

/// Why an operator/reconstructor could not be built or applied.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BuildError {
    /// `Config::partsize` was zero; row partitioning needs at least one
    /// row per partition.
    ZeroPartitionSize,
    /// `Config::buffsize` was zero or exceeds what the buffered kernel's
    /// index width can address (`u16` addressing caps buffers at 65536
    /// f32 elements).
    InvalidBufferSize {
        /// The rejected buffer capacity (f32 elements).
        buffsize: usize,
        /// Largest capacity the in-buffer index width can address.
        max: usize,
    },
    /// A distributed run was asked for zero ranks.
    ZeroRanks,
    /// `ReconstructorBuilder::batch` was given zero; batched solves need
    /// at least one slice.
    ZeroBatch,
    /// The number of sinograms handed to a solve does not match the
    /// batch width the reconstructor was built with (in every execution
    /// mode: a `Slice` into a batched reconstructor is a width of 1).
    BatchWidth {
        /// Batch width the reconstructor was configured for.
        expected: usize,
        /// Number of slices actually supplied.
        got: usize,
    },
    /// `try_reconstruct_distributed` was handed a SIRT relaxation factor
    /// that is NaN or not positive (requests are screened earlier, as
    /// `ReconError::InvalidRelaxation`).
    InvalidRelaxation {
        /// The rejected factor.
        relax: f32,
    },
    /// `Solver::OsSirt` was asked for zero subsets, or for more subsets
    /// than the scan has projections.
    InvalidSubsets {
        /// The rejected subset count.
        subsets: usize,
        /// Projections of the scan (the largest valid count).
        projections: usize,
    },
    /// `Solver::OsSirt` was requested on the named executor
    /// (`"distributed"`), which has no subset kernel — ranks would need
    /// per-subset halo schedules. It runs on the calling thread or the
    /// worker pool only, and is refused before anything runs.
    SerialOnly(&'static str),
    /// A measurement vector's length does not match the operator's rows
    /// (for the distributed slab: is empty or not a whole number of
    /// slices).
    SinogramLength {
        /// Rows of the projection matrix (expected sinogram length).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// Plan validation (`ReconstructorBuilder::validate_plan`) found
    /// invariant violations in the memoized structures; the report lists
    /// every one.
    PlanCheck(xct_check::Report),
    /// A distributed collective failed beyond recovery: a rank crashed or
    /// panicked, a peer timed out past its deadline, a message stayed
    /// corrupt after the retry budget, or a channel disconnected. The
    /// payload identifies the origin rank, peer, and collective.
    Comm(CommError),
    /// A solver checkpoint could not be saved, loaded, or decoded
    /// (truncated file, checksum mismatch, unsupported version, I/O).
    Checkpoint(CheckpointError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroPartitionSize => {
                write!(f, "partition size must be positive")
            }
            BuildError::InvalidBufferSize { buffsize, max } => {
                write!(
                    f,
                    "buffer size {buffsize} invalid: must be in 1..={max} f32 elements"
                )
            }
            BuildError::ZeroRanks => write!(f, "distributed run needs at least one rank"),
            BuildError::ZeroBatch => write!(f, "batch width must be positive"),
            BuildError::BatchWidth { expected, got } => {
                write!(
                    f,
                    "got {got} slices but the reconstructor was built for a batch of {expected}"
                )
            }
            BuildError::InvalidRelaxation { relax } => {
                write!(f, "SIRT relaxation must be positive, got {relax}")
            }
            BuildError::InvalidSubsets {
                subsets,
                projections,
            } => write!(f, "OS-SIRT needs 1..={projections} subsets, got {subsets}"),
            BuildError::SerialOnly(mode) => {
                write!(
                    f,
                    "OS-SIRT has no {mode} subset kernel (serial or pooled only)"
                )
            }
            BuildError::SinogramLength { expected, got } => {
                write!(
                    f,
                    "sinogram length {got} does not match matrix rows {expected}"
                )
            }
            BuildError::PlanCheck(report) => {
                write!(f, "plan validation failed: {report}")
            }
            BuildError::Comm(e) => write!(f, "distributed run failed: {e}"),
            BuildError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(BuildError::ZeroPartitionSize
            .to_string()
            .contains("partition"));
        let e = BuildError::InvalidBufferSize {
            buffsize: 0,
            max: 65536,
        };
        assert!(e.to_string().contains("65536"));
        let e = BuildError::SinogramLength {
            expected: 10,
            got: 7,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains("10"));
    }
}
