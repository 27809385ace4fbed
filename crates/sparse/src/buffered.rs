//! Multi-stage input buffering (paper §3.3, Listing 3).
//!
//! Rows are grouped into partitions of `partsize`. Each partition's
//! irregular input footprint (the distinct `x` entries it touches) is
//! staged through a small buffer of at most `buffsize` elements: for each
//! stage, the kernel first *gathers* the stage's footprint from `x` into
//! the buffer (regular writes, one irregular read each), then performs the
//! FMAs reading the buffer with **16-bit** indices instead of 32-bit global
//! ones — saving 25 % of the regular-data bandwidth (§3.3.5).
//!
//! Because both domains are Hilbert-ordered, consecutive entries of the
//! sorted footprint are spatially close, so stages inherit data locality
//! ("stages are determined with respect to Hilbert ordering").
//!
//! One kernel serves SpMV and SpMM: it is generic over a slice-block
//! width `W` and stages the footprint *slice-interleaved*, so the gather
//! stays the only irregular read for any number of slices and everything
//! per nonzero (index, value, mask) is paid once per block of `W` slices.
//! `W = 1` is the SpMV.

use crate::batch::{for_each_block, SliceBlocks};
use crate::csr::CsrMatrix;
use crate::lanes::{reduce_lanes, LANES};
use std::array::from_fn;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Why a buffered layout could not be constructed from a CSR source.
///
/// Construction is the *plan-build* step: it runs once, so it affords full
/// checked conversions. Only the SpMV inner loop (which runs per
/// iteration, after the plan has been validated) keeps unchecked index
/// arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// `partsize` was zero.
    ZeroPartitionSize,
    /// `buffsize` was zero or exceeds what the index type can address.
    BufferSize {
        /// Rejected buffer capacity (f32 elements).
        buffsize: usize,
        /// Largest capacity the index width can address.
        max: usize,
    },
    /// A buffer-local index did not fit the index type — the silent
    /// release-mode truncation this error replaces.
    IndexOverflow {
        /// The out-of-range buffer-local index.
        value: usize,
        /// Largest representable index.
        max: usize,
    },
    /// The source matrix stores a column outside `0..ncols` — only
    /// possible for a matrix assembled with
    /// [`CsrMatrix::from_raw_unchecked`].
    ColumnOutOfRange {
        /// The offending column index.
        column: u32,
        /// The source matrix's column count.
        ncols: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::ZeroPartitionSize => write!(f, "partition size must be positive"),
            LayoutError::BufferSize { buffsize, max } => write!(
                f,
                "buffer size {buffsize} must fit 16-bit addressing (or the index type's range): 1..={max}"
            ),
            LayoutError::IndexOverflow { value, max } => write!(
                f,
                "buffer-local index {value} exceeds the index type's maximum {max}"
            ),
            LayoutError::ColumnOutOfRange { column, ncols } => {
                write!(f, "source column {column} out of 0..{ncols}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Index type used to address the staging buffer. The paper's kernel uses
/// 16-bit indices ("16-bit addressing can address buffer sizes up to
/// 256 KB"), saving 25 % of regular-data bandwidth over 32-bit; the
/// 32-bit instantiation exists to measure that saving (the
/// `ablation_addressing` experiment).
pub trait BufferIndex: Copy + Default + Send + Sync + 'static {
    /// Largest addressable buffer (in elements).
    const MAX_BUFFER: usize;
    /// Bytes per stored index.
    const BYTES: u64;
    /// Checked narrowing conversion: the plan-build path. Rejects values
    /// the index type cannot represent instead of truncating.
    fn try_from_usize(v: usize) -> Result<Self, LayoutError>;
    /// Narrowing conversion (caller guarantees range — only valid after
    /// the layout has passed construction-time checking).
    fn from_usize(v: usize) -> Self;
    /// Widening conversion.
    fn to_usize(self) -> usize;
}

impl BufferIndex for u16 {
    const MAX_BUFFER: usize = u16::MAX as usize + 1;
    const BYTES: u64 = 2;
    #[inline]
    fn try_from_usize(v: usize) -> Result<Self, LayoutError> {
        u16::try_from(v).map_err(|_| LayoutError::IndexOverflow {
            value: v,
            max: u16::MAX as usize,
        })
    }
    #[inline]
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize);
        v as u16 // lint: allow(narrow-cast) blessed BufferIndex helper; guarded by try_from_usize at plan build
    }
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl BufferIndex for u32 {
    const MAX_BUFFER: usize = 1 << 31;
    const BYTES: u64 = 4;
    #[inline]
    fn try_from_usize(v: usize) -> Result<Self, LayoutError> {
        u32::try_from(v).map_err(|_| LayoutError::IndexOverflow {
            value: v,
            max: u32::MAX as usize,
        })
    }
    #[inline]
    fn from_usize(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize);
        v as u32 // lint: allow(narrow-cast) blessed BufferIndex helper; guarded by try_from_usize at plan build
    }
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
}

/// The paper's kernel: 16-bit in-buffer addressing.
pub type BufferedCsr = BufferedCsrImpl<u16>;

/// 32-bit addressing variant, for the bandwidth-saving ablation.
pub type BufferedCsr32 = BufferedCsrImpl<u32>;

/// A CSR matrix re-laid-out for the multi-stage buffered kernel.
#[derive(Debug, Clone)]
pub struct BufferedCsrImpl<I: BufferIndex> {
    nrows: usize,
    ncols: usize,
    partsize: usize,
    buffsize: usize,
    nnz: usize,
    /// Global stage-id range of each partition: stages of partition `p`
    /// are `partdispl[p]..partdispl[p+1]`.
    partdispl: Vec<u32>,
    /// Offsets into `map` per stage (length `nstages + 1`); the stage's
    /// buffer occupancy ("stagenz") is the difference of two entries.
    stagedispl: Vec<usize>,
    /// Global column gathered into each buffer slot, stage-concatenated.
    map: Vec<u32>,
    /// Entry offsets of the `(stage, row)` runs: run `(s, j)` of a
    /// partition with stages `s0..s1` is slot `s·partsize + j`
    /// (stage-major) or `s0·partsize + j·(s1 − s0) + (s − s0)`
    /// (row-major, see `row_major`), its entries
    /// `displ[slot]..displ[slot + 1]` ([`BufferedCsrImpl::run`]).
    displ: Vec<usize>,
    /// Whether each partition's runs are stored row-major — a row's runs
    /// together, in ascending stage order — instead of stage-major.
    row_major: bool,
    /// Buffer-local column indices, then [`TAIL`] pad entries so the
    /// kernel's fixed-length tail window of the last run stays in range.
    ind: Vec<I>,
    /// Values, grouped to match `ind` (pad included): the source's own
    /// padded value array when the runs are its entries in its order.
    val: Arc<Vec<f32>>,
    /// Staging slots the kernel masks its reads into: the widest stage's
    /// footprint rounded up to a power of two ([`staging_slots`]).
    slots: usize,
}

impl<I: BufferIndex> BufferedCsrImpl<I> {
    /// Re-layout `a` for partitions of `partsize` rows staged through a
    /// buffer of `buffsize` f32 elements.
    ///
    /// # Panics
    /// Panics if `buffsize` is 0 or exceeds `u16::MAX + 1` (the 16-bit
    /// addressing limit: "16-bit addressing can address buffer sizes up to
    /// 256 KB" of f32 data), if `partsize` is 0, or if `a` (assembled
    /// with [`CsrMatrix::from_raw_unchecked`]) stores a column outside
    /// `0..ncols`.
    ///
    /// ```
    /// use xct_sparse::{BufferedCsr, CsrMatrix, spmv};
    /// let a = CsrMatrix::from_rows(4, &[
    ///     vec![(0, 1.0), (3, 2.0)],
    ///     vec![(1, 0.5), (2, 0.5)],
    /// ]);
    /// let buffered = BufferedCsr::from_csr(&a, 128, 2048);
    /// let x = [1.0, 2.0, 3.0, 4.0];
    /// assert_eq!(buffered.spmv(&x), spmv(&a, &x));
    /// ```
    pub fn from_csr(a: &CsrMatrix, partsize: usize, buffsize: usize) -> Self {
        // lint: allow(no-panic) documented panicking shim over try_from_csr
        match Self::try_from_csr(a, partsize, buffsize) {
            Ok(b) => b,
            Err(LayoutError::ZeroPartitionSize) => panic!("partition size must be positive"),
            Err(e @ LayoutError::BufferSize { .. }) => {
                panic!("buffer size must fit 16-bit addressing (or the index type's range): {e}")
            }
            Err(e) => panic!("invalid buffered layout: {e}"),
        }
    }

    /// Fallible [`BufferedCsrImpl::from_csr`]: every narrowing conversion
    /// on the plan-build path is checked, returning a typed
    /// [`LayoutError`] instead of panicking (or, in release mode,
    /// silently truncating buffer-local indices).
    ///
    /// Linear in the source: `O(nnz)` table lookups plus one sort of each
    /// partition's *distinct* column set.
    ///
    /// A source whose every row ascends — every scan transpose — is laid
    /// out row-major: stages are ascending chunks of the sorted footprint,
    /// so such a row visits them in order and its runs, row after row,
    /// are the source's entries in the source's order. Any other source is
    /// laid out stage-major: the kernel walks a partition one stage at a
    /// time, and a stage's runs side by side stream faster than runs
    /// strided by the row's other stages. A partition of one stage has
    /// one run a row, so both orders store it as the source does.
    ///
    /// The layout shares `a`'s value array instead of copying it while its
    /// entries are the source's in order: every partition when rows
    /// ascend or none has two stages or more. Otherwise the first
    /// partition of two stages or more copies the values before it and
    /// the layout fills its own array from there, so the source's values
    /// are never held twice in passing.
    pub fn try_from_csr(
        a: &CsrMatrix,
        partsize: usize,
        buffsize: usize,
    ) -> Result<Self, LayoutError> {
        if partsize == 0 {
            return Err(LayoutError::ZeroPartitionSize);
        }
        if buffsize == 0 || buffsize > I::MAX_BUFFER {
            return Err(LayoutError::BufferSize {
                buffsize,
                max: I::MAX_BUFFER,
            });
        }
        let (rowptr, colind, values) = (a.rowptr(), a.colind(), a.values());
        let nparts = a.nrows().div_ceil(partsize).max(1);
        let mut partdispl = Vec::with_capacity(nparts + 1);
        partdispl.push(0u32);
        let mut stagedispl = vec![0usize];
        let mut map: Vec<u32> = Vec::new();
        let mut displ = vec![0usize];
        let mut ind: Vec<I> = Vec::with_capacity(a.nnz() + TAIL);
        // Entry `e` of the layout can be entry `e` of the source.
        let aligned = rowptr.first() == Some(&0) && rowptr.last() == Some(&values.len());
        // Every row ascending (a scan over the columns that stops at the
        // first row that does not): row-major runs, the source's values.
        let row_major = aligned && rowptr.windows(2).all(|r| colind[r[0]..r[1]].is_sorted());
        // `None` while the layout shares the source's values.
        let mut val: Option<Vec<f32>> = (!aligned).then(|| Vec::with_capacity(a.nnz() + TAIL));

        // Dense per-column lookup of the current partition's (stage,
        // buffer-local index), so the count and scatter passes below are
        // O(1) per nonzero. Only the partition's footprint is ever live;
        // it is reset by walking the footprint, never the whole table.
        const UNSEEN: u32 = u32::MAX;
        let mut stage_of = vec![UNSEEN; a.ncols()];
        let mut local_of = vec![I::default(); a.ncols()];
        let mut footprint: Vec<u32> = Vec::new();
        // Per-run entry counts, then turned in place into the scatter
        // cursors.
        let mut cursor: Vec<usize> = Vec::new();
        for base in (0..a.nrows().max(1)).step_by(partsize) {
            let rows = partsize.min(a.nrows().saturating_sub(base));
            // Distinct columns touched by this partition, ascending —
            // ascending rank order *is* Hilbert traversal order. Collected
            // by first touch, so only the distinct set is sorted.
            footprint.clear();
            for i in base..base + rows {
                for &c in &colind[rowptr[i]..rowptr[i + 1]] {
                    let Some(seen) = stage_of.get_mut(c as usize) else {
                        return Err(LayoutError::ColumnOutOfRange {
                            column: c,
                            ncols: a.ncols(),
                        });
                    };
                    if *seen == UNSEEN {
                        *seen = 0; // placeholder until the footprint is sorted
                        footprint.push(c);
                    }
                }
            }
            footprint.sort_unstable();
            let nstages_here = footprint.len().div_ceil(buffsize);
            if val.is_none() && !row_major && nstages_here > 1 {
                // The first split: stage-major runs leave the source's
                // order here, and everything before it is the source's.
                let mut owned = Vec::with_capacity(a.nnz() + TAIL);
                owned.extend_from_slice(&values[..rowptr[base]]);
                val = Some(owned);
            }

            // Stage buffer maps, and each footprint column's stage and
            // buffer-local index (its rank in the sorted footprint).
            for (s, chunk) in footprint.chunks(buffsize).enumerate() {
                // in-range: s < footprint.len(), a count of distinct u32 columns
                let s = s as u32;
                for (local, &c) in chunk.iter().enumerate() {
                    stage_of[c as usize] = s;
                    // Checked narrowing: `local < buffsize <= MAX_BUFFER`
                    // holds by construction, but the plan-build path never
                    // trusts that silently (satellite of ISSUE 3).
                    local_of[c as usize] = I::try_from_usize(local)?;
                }
                map.extend_from_slice(chunk);
                stagedispl.push(map.len());
            }

            // Counting sort of the partition's entries by run slot
            // (`Runs`; stages numbered within the partition, slots from its
            // first). Both domains are Hilbert-ordered, so consecutive
            // entries of a row almost always share a stage: each run of
            // them is carried in registers and touches its `cursor` word
            // once, not once per entry (a store-to-load chain per nonzero).
            let runs = Runs::new(row_major, 0, nstages_here, partsize);
            let slot = |j: usize, stage: u32| runs.slot(stage as usize, j);
            cursor.clear();
            cursor.resize(nstages_here * partsize, 0);
            for j in 0..rows {
                let cols = &colind[rowptr[base + j]..rowptr[base + j + 1]];
                let Some(&first) = cols.first() else { continue };
                let (mut run_stage, mut run) = (stage_of[first as usize], 0usize);
                for &c in cols {
                    let stage = stage_of[c as usize];
                    if stage != run_stage {
                        cursor[slot(j, run_stage)] += run;
                        (run_stage, run) = (stage, 0);
                    }
                    run += 1;
                }
                cursor[slot(j, run_stage)] += run;
            }
            let mut next = ind.len();
            for slot in &mut cursor {
                let count = *slot;
                *slot = next;
                next += count;
                displ.push(next);
            }
            ind.resize(next, I::default());
            let mut val_out = val.as_mut().map(|v| {
                v.resize(next, 0.0);
                &mut v[..]
            });
            for j in 0..rows {
                let (lo, hi) = (rowptr[base + j], rowptr[base + j + 1]);
                let Some(&first) = colind[lo..hi].first() else {
                    continue;
                };
                // A row's slots are its own, so the last run of a row is
                // never read back: only a stage change stores `dst`.
                let mut run_stage = stage_of[first as usize];
                let mut dst = cursor[slot(j, run_stage)];
                for (&c, &v) in colind[lo..hi].iter().zip(&values[lo..hi]) {
                    let stage = stage_of[c as usize];
                    if stage != run_stage {
                        cursor[slot(j, run_stage)] = dst;
                        (run_stage, dst) = (stage, cursor[slot(j, stage)]);
                    }
                    ind[dst] = local_of[c as usize];
                    if let Some(out) = &mut val_out {
                        out[dst] = v;
                    }
                    dst += 1;
                }
            }

            for &c in &footprint {
                stage_of[c as usize] = UNSEEN;
            }
            // in-range: stage counts are bounded by nnz, which fits u32
            partdispl.push(partdispl.last().unwrap() + nstages_here as u32);
        }
        pad_tail(&mut ind);
        let val = match val {
            Some(mut owned) => {
                pad_tail(&mut owned);
                Arc::new(owned)
            }
            None => Arc::clone(a.shared_values()),
        };
        // The plan keeps these arrays for its lifetime: drop the growth
        // slack (`ind`/`val` were reserved at exactly nnz + the pad).
        stagedispl.shrink_to_fit();
        map.shrink_to_fit();
        displ.shrink_to_fit();
        let slots = staging_slots(&stagedispl, map.len());

        Ok(BufferedCsrImpl {
            nrows: a.nrows(),
            ncols: a.ncols(),
            partsize,
            buffsize,
            nnz: a.nnz(),
            partdispl,
            stagedispl,
            map,
            displ,
            row_major,
            ind,
            val,
            slots,
        })
    }

    /// Assemble a buffered layout directly from its raw arrays, with **no
    /// validation whatsoever**. This exists so static-analysis tooling
    /// (`xct-check`) can be tested against deliberately corrupted layouts;
    /// production code should always go through
    /// [`BufferedCsrImpl::try_from_csr`].
    ///
    /// `ind`/`val` are the entries alone (the kernel's pad is appended
    /// here); `row_major` says how `displ` orders the runs
    /// ([`BufferedCsrImpl::row_major_runs`]). The kernel is memory-safe
    /// on any layout, but an out-of-footprint buffer-local index reads
    /// some other staging slot unreported (result unspecified):
    /// `xct-check`'s `BufferedCheck` is what catches it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts_unchecked(
        nrows: usize,
        ncols: usize,
        partsize: usize,
        buffsize: usize,
        nnz: usize,
        partdispl: Vec<u32>,
        stagedispl: Vec<usize>,
        map: Vec<u32>,
        displ: Vec<usize>,
        row_major: bool,
        mut ind: Vec<I>,
        mut val: Vec<f32>,
    ) -> Self {
        pad_tail(&mut ind);
        pad_tail(&mut val);
        let slots = staging_slots(&stagedispl, map.len());
        BufferedCsrImpl {
            nrows,
            ncols,
            partsize,
            buffsize,
            nnz,
            partdispl,
            stagedispl,
            map,
            displ,
            row_major,
            ind,
            val: Arc::new(val),
            slots,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored nonzeroes.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Row-partition size.
    pub fn partsize(&self) -> usize {
        self.partsize
    }

    /// Buffer capacity in f32 elements.
    pub fn buffsize(&self) -> usize {
        self.buffsize
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partdispl.len() - 1
    }

    /// Total number of stages across all partitions.
    pub fn num_stages(&self) -> usize {
        self.stagedispl.len() - 1
    }

    /// Number of stages of partition `p` (Fig 6(b)).
    pub fn stages_of_partition(&self, p: usize) -> usize {
        (self.partdispl[p + 1] - self.partdispl[p]) as usize
    }

    /// Total buffer-map slots (= Σ per-partition footprints); the staging
    /// overhead reads one u32 map entry and one irregular f32 per slot.
    pub fn map_len(&self) -> usize {
        self.map.len()
    }

    /// Raw per-partition stage ranges (`partdispl`, length
    /// `num_partitions + 1`). Read-only view for static analysis.
    pub fn partdispl(&self) -> &[u32] {
        &self.partdispl
    }

    /// Raw per-stage map offsets (`stagedispl`, length `num_stages + 1`).
    /// Read-only view for static analysis.
    pub fn stagedispl(&self) -> &[usize] {
        &self.stagedispl
    }

    /// Raw stage-concatenated buffer map (global column gathered into each
    /// buffer slot). Read-only view for static analysis.
    pub fn stage_map(&self) -> &[u32] {
        &self.map
    }

    /// Raw entry offsets of the `(stage, row)` runs (length
    /// `num_stages * partsize + 1`), in the order
    /// [`BufferedCsrImpl::row_major_runs`] names: index them through
    /// [`BufferedCsrImpl::run`]. Read-only view for static analysis.
    pub fn entry_displ(&self) -> &[usize] {
        &self.displ
    }

    /// Whether each partition's runs are stored row-major (a row's runs
    /// together, in ascending stage order: the layout of a source whose
    /// rows ascend, which shares that source's values) rather than
    /// stage-major (a stage's runs together, in row order).
    pub fn row_major_runs(&self) -> bool {
        self.row_major
    }

    /// The entries of `row` staged through `stage`, one of the stages of
    /// `row`'s partition: a range into [`BufferedCsrImpl::entry_ind`] and
    /// [`BufferedCsrImpl::entry_val`].
    ///
    /// # Panics
    /// Panics if the run's slot is outside [`BufferedCsrImpl::entry_displ`],
    /// or (debug builds) if `stage` precedes the partition's first stage.
    pub fn run(&self, stage: usize, row: usize) -> Range<usize> {
        let p = row / self.partsize;
        self.run_in(self.runs(p), stage, row - p * self.partsize)
    }

    /// Partition `p`'s runs.
    #[inline(always)]
    fn runs(&self, p: usize) -> Runs {
        let (s0, s1) = (self.partdispl[p] as usize, self.partdispl[p + 1] as usize);
        Runs::new(self.row_major, s0, s1 - s0, self.partsize)
    }

    /// The entries of local row `j` staged through `stage`, one of the
    /// stages of the partition `runs` belongs to.
    #[inline(always)]
    fn run_in(&self, runs: Runs, stage: usize, j: usize) -> Range<usize> {
        let slot = runs.slot(stage, j);
        self.displ[slot]..self.displ[slot + 1]
    }

    /// Raw buffer-local column indices. Read-only view for static
    /// analysis.
    pub fn entry_ind(&self) -> &[I] {
        &self.ind[..self.ind.len() - TAIL]
    }

    /// Raw values, grouped to match [`BufferedCsrImpl::entry_ind`].
    /// Read-only view for static analysis.
    pub fn entry_val(&self) -> &[f32] {
        &self.val[..self.val.len() - TAIL]
    }

    /// Bytes of regular data streamed per SpMV: index + f32 value per
    /// nonzero, plus the u32 map per buffer slot (§3.3.5, §4.2.3).
    /// 6 bytes/nnz with 16-bit addressing, 8 with 32-bit.
    pub fn regular_bytes(&self) -> u64 {
        self.nnz as u64 * (4 + I::BYTES) + self.map.len() as u64 * 4
    }

    /// `y = A·x` with the buffered kernel, sequential.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0f32; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sequential buffered SpMV into a caller-provided output: the
    /// one-slice case of [`BufferedCsrImpl::spmm_into`].
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) {
        self.spmm_into(x, y, 1);
    }

    /// An nnz-balanced [`xct_runtime::ExecPlan`] over this layout's row partitions:
    /// each buffered partition is one plan block (its stage structure
    /// cannot be split), weighted by the data it streams — stored entries
    /// plus staging-map slots — and workers get contiguous partition runs
    /// balanced by the greedy prefix split.
    pub fn exec_plan(&self, workers: usize) -> xct_runtime::ExecPlan {
        let nparts = self.num_partitions();
        let mut bounds = Vec::with_capacity(nparts + 1);
        let mut weights = Vec::with_capacity(nparts);
        bounds.push(0usize);
        for p in 0..nparts {
            bounds.push(((p + 1) * self.partsize).min(self.nrows));
            let (s0, s1) = (self.partdispl[p] as usize, self.partdispl[p + 1] as usize);
            let runs = self.runs(p);
            let entries: usize = (s0..s1)
                .flat_map(|s| (0..self.partsize).map(move |j| self.run_in(runs, s, j).len()))
                .sum();
            let staged = self.stagedispl[s1] - self.stagedispl[s0];
            weights.push((entries + staged) as u64);
        }
        xct_runtime::ExecPlan::balanced_blocks(&bounds, &weights, workers)
    }

    /// Pooled buffered SpMV into a caller-provided output: the one-slice
    /// case of [`BufferedCsrImpl::spmm_pooled_into`].
    pub fn spmv_pooled_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        plan: &xct_runtime::ExecPlan,
        pool: &xct_runtime::WorkerPool,
    ) {
        self.spmm_pooled_into(x, y, 1, plan, pool);
    }

    /// Sequential buffered SpMM into a caller-provided slice-interleaved
    /// output: `y = A · [x₁ … xₖ]`, `x` slice-interleaved too. Slices go
    /// through the kernel in blocks of [`LANES`], then 4, then single
    /// slices; a block of `W` slices pays each nonzero's index, value and
    /// index mask once (see [`BufferedCsrImpl::process_partition`]). Each
    /// slice's per-row accumulation order does not depend on the block it
    /// lands in, so column `j` is bit-identical to
    /// [`BufferedCsrImpl::spmv_into`] on slice `j` for every batch width.
    pub fn spmm_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        assert!(batch > 0, "batch width must be positive");
        assert_eq!(x.len(), self.ncols * batch, "x length");
        assert_eq!(y.len(), self.nrows * batch, "y length");
        self.run_partitions(0..self.num_partitions(), x, batch, &mut Vec::new(), y);
    }

    /// Pooled buffered SpMM into a caller-provided slice-interleaved
    /// output: one dispatch computes all k columns, each worker running
    /// its partition run through the same slice-block kernel as
    /// [`BufferedCsrImpl::spmm_into`] on its persistent staging (the pool
    /// scratch and the thread's lines, sized on first use, then reused —
    /// steady-state calls allocate nothing). Column `j` is bit-identical to
    /// [`BufferedCsrImpl::spmv_into`] on slice `j` for every worker count.
    pub fn spmm_pooled_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        batch: usize,
        plan: &xct_runtime::ExecPlan,
        pool: &xct_runtime::WorkerPool,
    ) {
        assert!(batch > 0, "batch width must be positive");
        assert_eq!(x.len(), self.ncols * batch, "x length");
        assert_eq!(y.len(), self.nrows * batch, "y length");
        assert_eq!(plan.rows(), self.nrows, "plan rows");
        assert_eq!(plan.num_partitions(), self.num_partitions(), "plan blocks");
        pool.run_batched(plan, y, batch, |parts, _rows, out, scratch| {
            self.run_partitions(parts, x, batch, scratch, out)
        });
    }

    /// The driver behind every entry point: partitions `parts` × all `k`
    /// slices of the slice-interleaved `x`, into `out` — the partitions'
    /// rows, `k` values each. Slice blocks are the inner loop, so a
    /// partition's matrix data is re-read from cache.
    ///
    /// The staging buffer has the layout's widest stage rounded up to a
    /// power of two slots, so the kernel can mask its indices instead of
    /// checking them. Single slices stage through `scratch` (one `f32` a
    /// slot); wider blocks through this thread's [`Line`]s. Both only ever
    /// grow.
    fn run_partitions(
        &self,
        parts: Range<usize>,
        x: &[f32],
        k: usize,
        scratch: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let slots = self.slots;
        if scratch.len() < slots {
            scratch.resize(slots, 0.0);
        }
        let singles = scratch.as_chunks_mut::<1>().0;
        LINES.with_borrow_mut(|lines| {
            if k >= 4 && lines.len() < slots {
                lines.resize(slots, Line::default());
            }
            for (p, rows) in parts.zip(out.chunks_mut(self.partsize * k)) {
                let mut part = Partition(self, p, x, k, &mut *singles, &mut lines[..], rows);
                for_each_block(k, &mut part);
            }
        });
    }

    /// Run all stages of partition `p` for slices `s0..s0 + W` of the
    /// `k`-wide slice-interleaved `x`, accumulating straight into those
    /// slices' values of the partition's rows (`rows`, `k` values a row).
    ///
    /// Each stage's footprint is staged as one contiguous `W`-float copy
    /// per slot (`input[slot] = x[map[slot]·k + s0..][..W]`), so the
    /// accumulation loads one contiguous `W`-vector per nonzero and the
    /// index and value are paid once for all `W` slices. Per slice the
    /// order is exactly [`crate::lanes`]'s — entry `k` of a `(stage, row)`
    /// run into lane `k % LANES`, [`reduce_lanes`], sequential tail,
    /// stages added to the row in ascending order — whatever `W` is,
    /// which is what makes every column bit-identical to its SpMV. At
    /// `W = LANES` the 8-lane × 8-slice accumulator tile would fill all
    /// sixteen XMM registers of the baseline x86-64 build and spill, so a
    /// run is accumulated in two passes of four lanes, each half reduced
    /// by its side of the tree before the next starts: lane `l` still
    /// sees entries `l, l + 8, …` in order.
    ///
    /// Nothing between a run's first and last nonzero branches on data.
    /// Staging reads are *masked*, not checked: the buffer is sliced to a
    /// power-of-two slot count and each index ANDed with `slots - 1` —
    /// provably in range, and the identity on a valid layout. On a
    /// corrupted one ([`BufferedCsrImpl::from_raw_parts_unchecked`]) an
    /// out-of-footprint index therefore does not panic: the kernel stays
    /// inside the staging buffer (memory-safe, result unspecified) and
    /// `xct-check`'s `BufferedCheck` is what reports it. The tail is
    /// always [`TAIL`] steps, each product ANDed with its [`TAIL_LIVE`]
    /// word: a dead step reads the next run's entry (or the pad) and adds
    /// `+0.0`, which is exact because the sum, grown from `+0.0` lanes,
    /// is never `-0.0`.
    ///
    /// Kept out of line: inlined, the three widths share one register
    /// allocation in `run_partitions` and the `W = 1` loop spills
    /// (measured 10 % slower).
    #[inline(never)]
    fn process_partition<const W: usize, S: Slot<W>>(
        &self,
        p: usize,
        x: &[f32],
        k: usize,
        s0: usize,
        input: &mut [S],
        rows: &mut [f32],
    ) {
        let mask = self.slots - 1;
        let input = &mut input[..=mask];
        let runs = self.runs(p);
        // A block that is the whole batch (`k = W`, so `s0 = 0`) reads and
        // writes whole rows: one bounds check a slot, none a row.
        let (xw, _) = x.as_chunks::<W>();
        if k == W {
            rows.fill(0.0);
        } else {
            for row in rows.chunks_exact_mut(k) {
                row[s0..s0 + W].fill(0.0);
            }
        }
        for stage in self.partdispl[p] as usize..self.partdispl[p + 1] as usize {
            // Staging: the only irregular reads in the kernel. A map entry
            // outside `0..ncols` panics instead of reading past `x`.
            let stage_map = &self.map[self.stagedispl[stage]..self.stagedispl[stage + 1]];
            let staged = &mut input[..stage_map.len()];
            if k == W {
                gather(staged, stage_map, |g| xw[g as usize]);
            } else {
                let xs = &x[s0..];
                gather(staged, stage_map, |g| {
                    let v = &xs[g as usize * k..][..W];
                    from_fn(|s| v[s])
                });
            }
            let input = &*input;
            let run = |j: usize| self.run_sum::<W, S>(input, mask, self.run_in(runs, stage, j));
            if k == W {
                for (j, row) in rows.as_chunks_mut::<W>().0.iter_mut().enumerate() {
                    add(row, run(j));
                }
            } else {
                for (j, row) in rows.chunks_exact_mut(k).enumerate() {
                    add(&mut row[s0..s0 + W], run(j));
                }
            }
        }
    }

    /// The `W` sums of the `(stage, row)` run `d0..d1`, against the staged
    /// inputs: full lane groups, the reduction tree, then the fixed-length
    /// tail (see [`BufferedCsrImpl::process_partition`]).
    #[inline(always)]
    fn run_sum<const W: usize, S: Slot<W>>(
        &self,
        input: &[S],
        mask: usize,
        Range { start: d0, end: d1 }: Range<usize>,
    ) -> [f32; W] {
        let (c8s, left) = self.ind[d0..d1].as_chunks::<LANES>();
        let (v8s, _) = self.val[d0..d1].as_chunks::<LANES>();
        let mut sum: [f32; W] = if W == LANES {
            // reduce_lanes's tree, ((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7)),
            // one half per pass.
            let half = |acc: [[f32; W]; 4]| -> [f32; W] {
                from_fn(|s| (acc[0][s] + acc[1][s]) + (acc[2][s] + acc[3][s]))
            };
            let lo = half(accumulate::<4, W, I, S>(c8s, v8s, input, mask, 0));
            let hi = half(accumulate::<4, W, I, S>(c8s, v8s, input, mask, 4));
            from_fn(|s| lo[s] + hi[s])
        } else {
            let mut acc = accumulate::<LANES, W, I, S>(c8s, v8s, input, mask, 0);
            // At `W = 1` LLVM's SLP pass, seeing the tree below, pairs the
            // loop's accumulators as the tree does: half-filled vectors, a
            // shuffle per nonzero. Handed over opaquely, the loop keeps two
            // full registers.
            if W == 1 {
                acc = std::hint::black_box(acc);
            }
            from_fn(|s| reduce_lanes(&from_fn(|l| acc[l][s])))
        };
        let (d8, live) = (d1 - left.len(), &TAIL_LIVE[TAIL - left.len()..][..TAIL]);
        let (ct, vt) = (&self.ind[d8..d8 + TAIL], &self.val[d8..d8 + TAIL]);
        for t in 0..TAIL {
            let xv = input[ct[t].to_usize() & mask].get();
            for s in 0..W {
                sum[s] += f32::from_bits((xv[s] * vt[t]).to_bits() & live[t]);
            }
        }
        sum
    }
}

/// Where a partition's `(stage, row)` runs sit in `displ`: the one place
/// their order is spelled out. A partition with stages `s0..s1` owns slots
/// `s0·partsize .. s1·partsize`, in stage-major or row-major order.
#[derive(Clone, Copy)]
struct Runs {
    /// The partition's first stage.
    s0: usize,
    /// Slots from one stage's run of a row to the next stage's.
    stage_step: usize,
    /// Slots from one row's run of a stage to the next row's.
    row_step: usize,
    /// Number of rows in the partition.
    partsize: usize,
}

impl Runs {
    #[inline(always)]
    fn new(row_major: bool, s0: usize, nstages: usize, partsize: usize) -> Self {
        let (stage_step, row_step) = if row_major {
            (1, nstages)
        } else {
            (partsize, 1)
        };
        Runs {
            s0,
            stage_step,
            row_step,
            partsize,
        }
    }

    /// The `displ` slot of local row `j`'s run of `stage`.
    #[inline(always)]
    fn slot(self, stage: usize, j: usize) -> usize {
        self.s0 * self.partsize + (stage - self.s0) * self.stage_step + j * self.row_step
    }
}

/// Partition `p` of [`BufferedCsrImpl::run_partitions`] as a slice-block
/// body, `(layout, p, x, k, singles, lines, rows)`: single slices stage
/// through `singles`, wider blocks through `lines`.
struct Partition<'a, I: BufferIndex>(
    &'a BufferedCsrImpl<I>,
    usize,
    &'a [f32],
    usize,
    &'a mut [[f32; 1]],
    &'a mut [Line],
    &'a mut [f32],
);

impl<I: BufferIndex> SliceBlocks for Partition<'_, I> {
    fn block<const W: usize>(&mut self, s0: usize) {
        let Partition(m, p, x, k, singles, lines, rows) = self;
        if W == 1 {
            m.process_partition::<1, _>(*p, x, *k, s0, singles, rows);
        } else {
            m.process_partition::<W, _>(*p, x, *k, s0, lines, rows);
        }
    }
}

/// Stage one footprint: `staged[slot] = at(map[slot])`, eight slots a
/// step so the regular buffer writes vectorize (each slot is a pure
/// write, so order is irrelevant here).
#[inline(always)]
fn gather<const W: usize, S: Slot<W>>(staged: &mut [S], map: &[u32], at: impl Fn(u32) -> [f32; W]) {
    let (m8, mt) = map.as_chunks::<LANES>();
    let (d8, dt) = staged.as_chunks_mut::<LANES>();
    for (d, g) in d8.iter_mut().zip(m8) {
        for l in 0..LANES {
            d[l].set(at(g[l]));
        }
    }
    for (slot, &g) in dt.iter_mut().zip(mt) {
        slot.set(at(g));
    }
}

/// A staging slot holding one footprint column's `W` slices.
trait Slot<const W: usize> {
    fn get(&self) -> &[f32; W];
    fn set(&mut self, v: [f32; W]);
}

impl Slot<1> for [f32; 1] {
    #[inline(always)]
    fn get(&self) -> &[f32; 1] {
        self
    }
    #[inline(always)]
    fn set(&mut self, v: [f32; 1]) {
        *self = v;
    }
}

/// A staging slot of up to [`LANES`] slices, 32-byte aligned: the
/// kernel's 16-byte loads from it then fold into its multiplies on the
/// baseline x86-64 build, which an `f32` buffer's 4-byte alignment does
/// not allow.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct Line([f32; LANES]);

impl<const W: usize> Slot<W> for Line {
    #[inline(always)]
    fn get(&self) -> &[f32; W] {
        self.0
            .first_chunk()
            .expect("a slice block is at most LANES wide")
    }
    #[inline(always)]
    fn set(&mut self, v: [f32; W]) {
        *self
            .0
            .first_chunk_mut()
            .expect("a slice block is at most LANES wide") = v;
    }
}

thread_local! {
    /// This thread's staging lines for blocks of 4 and 8 slices, grown on
    /// first use and kept for the thread's lifetime (pool workers live as
    /// long as their pool), so steady-state calls allocate nothing.
    static LINES: RefCell<Vec<Line>> = const { RefCell::new(Vec::new()) };
}

/// Add a run's `W` sums to its row's values of the block's slices.
#[inline(always)]
fn add<const W: usize>(row: &mut [f32], sum: [f32; W]) {
    for (r, s) in row.iter_mut().zip(sum) {
        *r += s;
    }
}

/// Lanes `lo..lo + N` of a run's full lane groups for `W` slices:
/// `acc[l][s]` sums entries `lo + l`, `lo + l + 8`, … of the run, in
/// order, against slice `s` of their staged inputs.
#[inline(always)]
fn accumulate<const N: usize, const W: usize, I: BufferIndex, S: Slot<W>>(
    c8s: &[[I; LANES]],
    v8s: &[[f32; LANES]],
    input: &[S],
    mask: usize,
    lo: usize,
) -> [[f32; W]; N] {
    let mut acc = [[0f32; W]; N];
    for (c8, v8) in c8s.iter().zip(v8s) {
        for l in 0..N {
            let xv = input[c8[lo + l].to_usize() & mask].get();
            for s in 0..W {
                acc[l][s] += xv[s] * v8[lo + l];
            }
        }
    }
    acc
}

/// Staging slots for a layout's stages: the widest footprint in
/// `stagedispl` rounded up to a power of two. A stage that would not fit
/// `map` is counted at `map`'s length — the kernel panics slicing `map`
/// for it before it stages anything — so a corrupted `stagedispl` cannot
/// size the buffer past the map, and every stage the kernel stages fits.
fn staging_slots(stagedispl: &[usize], map_len: usize) -> usize {
    let widest = stagedispl.windows(2).map(|s| s[1].saturating_sub(s[0]));
    widest.max().unwrap_or(0).min(map_len).next_power_of_two()
}

/// Steps of the kernel's fixed-length run tail, and pad entries that keep
/// the last run's tail window inside `ind`/`val` (and, so a layout can
/// share it, past the last value of every [`CsrMatrix`]).
pub(crate) const TAIL: usize = LANES - 1;

/// `TAIL_LIVE[TAIL - n..][t]` is all ones when `t < n` — tail step `t` is
/// inside a run with `n` leftover entries — and zero past the run's end.
const TAIL_LIVE: [u32; 2 * TAIL] = [!0, !0, !0, !0, !0, !0, !0, 0, 0, 0, 0, 0, 0, 0];

/// Append the [`TAIL`] zero pad entries to an entry array, growing it by
/// exactly that much.
pub(crate) fn pad_tail<T: Copy + Default>(v: &mut Vec<T>) {
    v.reserve_exact(TAIL);
    v.resize(v.len() + TAIL, T::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            8,
            &[
                vec![(0, 1.0), (7, 2.0), (3, -1.0)],
                vec![(1, -1.0), (2, 0.25)],
                vec![],
                vec![(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)],
                vec![(5, 3.0), (6, -2.0)],
                vec![(7, 1.0)],
            ],
        )
    }

    fn x8() -> Vec<f32> {
        (1..=8).map(|i| i as f32).collect()
    }

    /// The pre-dense-table builder, kept as the reference the production
    /// builder must match array for array: it sorts every nonzero of a
    /// partition for the footprint, finds each entry's stage by binary
    /// search, and always copies the values. Runs are row-major when every
    /// row ascends.
    fn reference_from_csr<I: BufferIndex>(
        a: &CsrMatrix,
        partsize: usize,
        buffsize: usize,
    ) -> Result<BufferedCsrImpl<I>, LayoutError> {
        let nparts = a.nrows().div_ceil(partsize).max(1);
        let mut partdispl = Vec::with_capacity(nparts + 1);
        partdispl.push(0u32);
        let mut stagedispl = vec![0usize];
        let mut map: Vec<u32> = Vec::new();
        let mut displ = vec![0usize];
        let mut ind: Vec<I> = Vec::new();
        let mut val: Vec<f32> = Vec::new();
        let row_major = (0..a.nrows()).all(|i| {
            let cols: Vec<u32> = a.row(i).map(|(c, _)| c).collect();
            cols.is_sorted()
        });

        let mut footprint: Vec<u32> = Vec::new();
        for base in (0..a.nrows().max(1)).step_by(partsize) {
            let rows = partsize.min(a.nrows().saturating_sub(base));
            // Distinct columns touched by this partition, ascending —
            // ascending rank order *is* Hilbert traversal order.
            footprint.clear();
            for i in base..base + rows {
                footprint.extend(a.row(i).map(|(c, _)| c));
            }
            footprint.sort_unstable();
            footprint.dedup();
            let nstages_here = footprint.len().div_ceil(buffsize);

            // Per-entry stage and buffer-local index, via rank in the
            // sorted footprint.
            let stage_of = |col: u32| -> (usize, usize) {
                let rank = footprint.binary_search(&col).expect("col in footprint");
                ((rank / buffsize), rank % buffsize)
            };

            // Counting sort of the partition's entries by (row, stage) or
            // (stage, row).
            let slot_of = |j: usize, s: usize| match row_major {
                true => j * nstages_here + s,
                false => s * partsize + j,
            };
            let mut counts = vec![0usize; nstages_here * partsize];
            for i in base..base + rows {
                for (c, _) in a.row(i) {
                    let (s, _) = stage_of(c);
                    counts[slot_of(i - base, s)] += 1;
                }
            }
            let entry_base = ind.len();
            let mut offsets = Vec::with_capacity(counts.len() + 1);
            offsets.push(entry_base);
            for &c in &counts {
                offsets.push(offsets.last().unwrap() + c);
            }
            let total: usize = counts.iter().sum();
            ind.resize(entry_base + total, I::default());
            val.resize(entry_base + total, 0.0);
            let mut cursor = offsets.clone();
            for i in base..base + rows {
                for (c, v) in a.row(i) {
                    let (s, local) = stage_of(c);
                    let slot = slot_of(i - base, s);
                    let dst = cursor[slot];
                    cursor[slot] += 1;
                    // Checked narrowing: `local < buffsize <= MAX_BUFFER`
                    // holds by construction, but the plan-build path never
                    // trusts that silently (satellite of ISSUE 3).
                    ind[dst] = I::try_from_usize(local)?;
                    val[dst] = v;
                }
            }
            displ.extend_from_slice(&offsets[1..]);

            // Stage buffer maps.
            for chunk in footprint.chunks(buffsize) {
                map.extend_from_slice(chunk);
                stagedispl.push(map.len());
            }
            // in-range: stage counts are bounded by nnz, which fits u32
            partdispl.push(partdispl.last().unwrap() + nstages_here as u32);
        }
        pad_tail(&mut ind);
        pad_tail(&mut val);
        let slots = staging_slots(&stagedispl, map.len());

        Ok(BufferedCsrImpl {
            nrows: a.nrows(),
            ncols: a.ncols(),
            partsize,
            buffsize,
            nnz: a.nnz(),
            partdispl,
            stagedispl,
            map,
            displ,
            row_major,
            ind,
            val: Arc::new(val),
            slots,
        })
    }

    /// A random matrix in traversal (unsorted) column order without
    /// duplicates; roughly one row in four is empty.
    fn random_csr(seed: u64, nrows: usize, ncols: usize, max_row: usize) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<(u32, f32)>> = (0..nrows)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    return Vec::new();
                }
                let len = rng.gen_range(0..max_row.min(ncols) + 1);
                let mut cols: Vec<u32> = Vec::new();
                while cols.len() < len {
                    let c = rng.gen_range(0..ncols) as u32;
                    if !cols.contains(&c) {
                        cols.push(c);
                    }
                }
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(-1.0f32..1.0)))
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(ncols, &rows)
    }

    fn assert_same_layout<I: BufferIndex>(a: &CsrMatrix, partsize: usize, buffsize: usize) {
        let got = BufferedCsrImpl::<I>::try_from_csr(a, partsize, buffsize).unwrap();
        let want = reference_from_csr::<I>(a, partsize, buffsize).unwrap();
        let ctx = format!(
            "{}x{} nnz {} partsize {partsize} buffsize {buffsize}",
            a.nrows(),
            a.ncols(),
            a.nnz()
        );
        assert_eq!(got.partdispl, want.partdispl, "partdispl: {ctx}");
        assert_eq!(got.stagedispl, want.stagedispl, "stagedispl: {ctx}");
        assert_eq!(got.map, want.map, "map: {ctx}");
        assert_eq!(got.displ, want.displ, "displ: {ctx}");
        assert_eq!(got.row_major, want.row_major, "row_major: {ctx}");
        let usizes = |v: &[I]| v.iter().map(|i| i.to_usize()).collect::<Vec<_>>();
        assert_eq!(usizes(&got.ind), usizes(&want.ind), "ind: {ctx}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.val), bits(&want.val), "val: {ctx}");
        assert_eq!(
            (got.nrows, got.ncols, got.nnz, got.partsize, got.buffsize),
            (
                want.nrows,
                want.ncols,
                want.nnz,
                want.partsize,
                want.buffsize
            ),
            "shape: {ctx}"
        );
    }

    #[test]
    fn builder_matches_binary_search_reference() {
        // Shapes cover: the empty matrix, all-empty rows, a partial last
        // partition (nrows not a multiple of any partsize > 1), and — at
        // buffsize 1 and 5 against up to 300 columns — footprints spanning
        // hundreds of stages.
        let shapes = [
            (0usize, 4usize, 0usize),
            (5, 3, 0),
            (1, 1, 1),
            (7, 9, 4),
            (37, 300, 24),
            (131, 70, 70),
        ];
        for (k, &(nrows, ncols, max_row)) in shapes.iter().enumerate() {
            for seed in 0..3u64 {
                let a = random_csr(seed * 31 + k as u64, nrows, ncols, max_row);
                for partsize in [1, 3, 16, 128] {
                    for buffsize in [1, 5, 64, 2048] {
                        assert_same_layout::<u16>(&a, partsize, buffsize);
                        assert_same_layout::<u32>(&a, partsize, buffsize);
                    }
                }
            }
        }
        assert_same_layout::<u16>(&sample(), 2, 2);
        // A column repeated inside a row (only from_raw_unchecked makes
        // one) is touched once for the footprint and stored twice.
        let dup = CsrMatrix::from_raw_unchecked(
            2,
            4,
            vec![0, 3, 4],
            vec![3, 1, 3, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_same_layout::<u16>(&dup, 2, 1);
    }

    #[test]
    fn run_coalescing_survives_adversarial_rows() {
        // What carrying a row's runs in registers could get wrong, a row
        // each. Eight columns: at buffsize 2 a partition that touches
        // them all has the stages {0,1} {2,3} {4,5} {6,7}.
        let rows: [&[u32]; 7] = [
            &[0, 2, 4, 6, 1, 3, 5, 7], // run length 1; every stage left and re-entered
            &[],
            &[7, 6], // wholly in the last stage
            &[],
            &[0, 1, 2, 3, 4, 5, 6, 7], // one run per stage
            &[1, 2, 2, 1, 1, 2],       // duplicates straddling the {0,1} | {2,3} boundary
            &[5],                      // the partial last partition at partsize 2, 3 and 4
        ];
        let mut rowptr = vec![0];
        for row in rows {
            rowptr.push(rowptr[rowptr.len() - 1] + row.len());
        }
        let colind = rows.concat();
        let values = (0..colind.len()).map(|k| k as f32 + 1.0).collect();
        // Unchecked: `from_raw` would accept the duplicates too, but the
        // builder must not rely on what it checks.
        let a = CsrMatrix::from_raw_unchecked(rows.len(), 8, rowptr, colind, values);
        for partsize in [1, 2, 3, 4, 128] {
            for buffsize in [1, 2, 3, 8, 2048] {
                assert_same_layout::<u16>(&a, partsize, buffsize);
                assert_same_layout::<u32>(&a, partsize, buffsize);
                let b = BufferedCsr::from_csr(&a, partsize, buffsize);
                assert_eq!(b.spmv(&x8()), spmv(&a, &x8()), "{partsize} {buffsize}");
            }
        }
    }

    #[test]
    fn nnz_sized_arrays_carry_no_growth_slack() {
        let a = random_csr(7, 200, 150, 40);
        for (partsize, buffsize) in [(1, 1), (16, 8), (128, 2048)] {
            let b = BufferedCsr::from_csr(&a, partsize, buffsize);
            assert_eq!(b.ind.len(), a.nnz() + TAIL, "entries + the kernel's pad");
            assert_eq!(b.entry_ind().len(), a.nnz(), "accessors hide the pad");
            assert_eq!(b.entry_val().len(), a.nnz(), "accessors hide the pad");
            assert_eq!(b.ind.capacity(), b.ind.len(), "ind slack");
            assert_eq!(b.val.capacity(), b.val.len(), "val slack");
        }
    }

    #[test]
    fn ascending_sources_lay_out_row_major_and_share_their_values() {
        let shares = |b: &BufferedCsr, a: &CsrMatrix| Arc::ptr_eq(&b.val, a.shared_values());
        // A transpose's rows ascend: every layout of it is row-major and
        // shares, its entries the source's values, pad included.
        let at = random_csr(3, 90, 70, 30).transpose_scan();
        for (partsize, buffsize) in [(1, 1), (3, 5), (16, 8), (128, 2048)] {
            let b = BufferedCsr::from_csr(&at, partsize, buffsize);
            assert!(
                b.row_major_runs() && shares(&b, &at),
                "{partsize} {buffsize}"
            );
            assert_eq!(b.entry_val().as_ptr(), at.values().as_ptr());
            assert_eq!(b.val.len(), at.nnz() + TAIL);
            assert_same_layout::<u16>(&at, partsize, buffsize);
        }
        // One row out of order (the last one) and the layout is
        // stage-major, with its own copy.
        let late = CsrMatrix::from_rows(
            8,
            &[
                vec![(0, 1.0), (5, 2.0)],
                vec![(1, 3.0)],
                vec![(6, 4.0), (2, 5.0)],
            ],
        );
        let b = BufferedCsr::from_csr(&late, 2, 1);
        assert!(!b.row_major_runs() && !shares(&b, &late));
        assert_eq!(b.spmv(&x8()), spmv(&late, &x8()));
        // Partition 0 of `late` has stages {0} {1} {5}: row 1's run of
        // stage 0 follows row 0's. In a row-major layout a row's runs are
        // the neighbours.
        assert_eq!((b.run(0, 0), b.run(0, 1), b.run(1, 1)), (0..1, 1..1, 1..2));
        let sorted = CsrMatrix::from_rows(8, &[vec![(0, 1.0), (3, 2.0), (6, 3.0)], vec![(1, 4.0)]]);
        let b = BufferedCsr::from_csr(&sorted, 2, 2);
        assert_eq!((b.run(0, 0), b.run(1, 0), b.run(0, 1)), (0..1, 1..3, 3..4));
    }

    /// A source of `nparts` partitions of `partsize` rows (the last one
    /// partial) over `4·buffsize` columns, with chosen footprints: the
    /// partitions before `first_split` fit one stage of `buffsize`, that
    /// one needs two or more, and each one after it either, at random
    /// (all of them one stage when there is no split). Rows ascend when
    /// `ascending` and are in random order otherwise.
    fn staged_source(
        seed: u64,
        (nparts, partsize, buffsize): (usize, usize, usize),
        first_split: Option<usize>,
        ascending: bool,
    ) -> CsrMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ncols = 4 * buffsize;
        let shuffle = |v: &mut Vec<u32>, rng: &mut SmallRng| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..i + 1));
            }
        };
        let nrows = nparts * partsize - rng.gen_range(0..partsize);
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); nrows];
        for (p, part) in rows.chunks_mut(partsize).enumerate() {
            let split = match first_split {
                Some(f) if p == f => true,
                Some(f) if p > f => rng.gen::<bool>(),
                _ => false,
            };
            let width = match split {
                true => rng.gen_range(buffsize + 1..ncols + 1),
                false => rng.gen_range(0..buffsize + 1),
            };
            let mut cols: Vec<u32> = (0..ncols as u32).collect();
            shuffle(&mut cols, &mut rng);
            cols.truncate(width);
            // Every footprint column in some row, then a few more in others.
            for &c in &cols {
                part[rng.gen_range(0..part.len())].push(c);
            }
            for _ in 0..width {
                let (row, c) = (rng.gen_range(0..part.len()), cols[rng.gen_range(0..width)]);
                if !part[row].contains(&c) {
                    part[row].push(c);
                }
            }
            for row in part.iter_mut() {
                match ascending {
                    true => row.sort_unstable(),
                    false => shuffle(row, &mut rng),
                }
            }
        }
        let rows: Vec<Vec<(u32, f32)>> = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|c| (c, rng.gen_range(-1.0f32..1.0)))
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(ncols, &rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn layouts_share_their_source_values_until_the_first_split(
            seed in proptest::prelude::any::<u64>(),
            nparts in 1usize..7,
            partsize in 1usize..6,
            buffsize in 1usize..9,
            split in 0usize..4,
            ascending in 0u8..2,
        ) {
            // No split, or the first one at partition 0, mid-matrix or the
            // last partition.
            let first_split = [None, Some(0), Some(nparts / 2), Some(nparts - 1)][split];
            let shape = (nparts, partsize, buffsize);
            let a = staged_source(seed, shape, first_split, ascending == 1);
            let got = BufferedCsr::try_from_csr(&a, partsize, buffsize).unwrap();
            let owned = reference_from_csr::<u16>(&a, partsize, buffsize).unwrap();
            assert_same_layout::<u16>(&a, partsize, buffsize);
            let ctx = format!("{shape:?} first split {first_split:?} ascending {ascending}");
            let split_at = (0..got.num_partitions()).find(|&p| got.stages_of_partition(p) > 1);
            assert_eq!(split_at, first_split, "{ctx}");

            let shares = got.entry_val().as_ptr() == a.values().as_ptr();
            assert_eq!(shares, got.row_major_runs() || split_at.is_none(), "{ctx}");
            assert_eq!(got.val.len(), a.nnz() + TAIL, "{ctx}");
            assert!(!Arc::ptr_eq(&owned.val, a.shared_values()));
            let widest = (0..got.num_stages()).map(|s| got.stagedispl[s + 1] - got.stagedispl[s]);
            assert_eq!(got.slots, widest.max().unwrap_or(0).next_power_of_two(), "{ctx}");

            let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let x: Vec<f32> = (0..a.ncols() * 8).map(|i| 0.5 + 0.37 * i as f32).collect();
            assert_eq!(bits(&got.spmv(&x[..a.ncols()])), bits(&owned.spmv(&x[..a.ncols()])));
            let (mut y, mut want) = (vec![0f32; a.nrows() * 8], vec![0f32; a.nrows() * 8]);
            got.spmm_into(&x, &mut y, 8);
            owned.spmm_into(&x, &mut want, 8);
            assert_eq!(bits(&y), bits(&want), "{ctx}");
        }
    }

    #[test]
    fn out_of_range_column_is_a_typed_error() {
        // Column 9 of a 4-column matrix: only from_raw_unchecked can make
        // this; the dense tables must not be indexed with it.
        let a =
            CsrMatrix::from_raw_unchecked(2, 4, vec![0, 2, 3], vec![1, 9, 0], vec![1.0, 2.0, 3.0]);
        let err = BufferedCsr::try_from_csr(&a, 2, 4).unwrap_err();
        assert_eq!(
            err,
            LayoutError::ColumnOutOfRange {
                column: 9,
                ncols: 4
            }
        );
        assert_eq!(err.to_string(), "source column 9 out of 0..4");
    }

    #[test]
    #[should_panic(expected = "invalid buffered layout: source column 9 out of 0..4")]
    fn from_csr_panics_on_out_of_range_column() {
        let a = CsrMatrix::from_raw_unchecked(1, 4, vec![0, 1], vec![9], vec![1.0]);
        BufferedCsr::from_csr(&a, 2, 4);
    }

    #[test]
    fn matches_plain_spmv_for_various_sizes() {
        let a = sample();
        let want = spmv(&a, &x8());
        for partsize in [1, 2, 3, 4, 16] {
            for buffsize in [1, 2, 3, 8, 64] {
                let b = BufferedCsr::from_csr(&a, partsize, buffsize);
                let got = b.spmv(&x8());
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() < 1e-5,
                        "part {partsize} buff {buffsize}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_matches_sequential_for_every_worker_count() {
        let a = sample();
        for partsize in [1, 2, 3] {
            let b = BufferedCsr::from_csr(&a, partsize, 4);
            let want = b.spmv(&x8());
            for workers in [1, 2, 3, 8] {
                let pool = xct_runtime::WorkerPool::new(workers);
                let plan = b.exec_plan(workers);
                assert!(plan.is_well_formed());
                let mut y = vec![0f32; b.nrows()];
                // Twice on the same pool: scratch buffers are reused.
                for _ in 0..2 {
                    b.spmv_pooled_into(&x8(), &mut y, &plan, &pool);
                    assert_eq!(y, want, "partsize {partsize} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn stage_counts_reflect_buffer_size() {
        let a = sample();
        // Partition 0 (rows 0-1) touches columns {0,1,2,3,7} = 5 distinct.
        let tight = BufferedCsr::from_csr(&a, 2, 2);
        assert_eq!(tight.stages_of_partition(0), 3); // ceil(5/2)
        let loose = BufferedCsr::from_csr(&a, 2, 8);
        assert_eq!(loose.stages_of_partition(0), 1);
    }

    #[test]
    fn map_holds_each_partition_footprint_once() {
        let a = sample();
        let b = BufferedCsr::from_csr(&a, 6, 64); // one partition
        assert_eq!(b.num_partitions(), 1);
        assert_eq!(b.map_len(), 8); // columns 0..=7 all touched
        assert_eq!(b.num_stages(), 1);
    }

    #[test]
    fn regular_bytes_smaller_than_csr() {
        // The 16-bit addressing must beat 8 bytes/nnz once footprints are
        // reused (map overhead amortized).
        let a = sample();
        let b = BufferedCsr::from_csr(&a, 6, 64);
        assert!(b.regular_bytes() < a.regular_bytes() + b.map_len() as u64 * 4 + 1);
        assert_eq!(b.regular_bytes(), a.nnz() as u64 * 6 + 8 * 4);
    }

    #[test]
    fn empty_matrix_works() {
        let a = CsrMatrix::zeros(0, 4);
        let b = BufferedCsr::from_csr(&a, 4, 4);
        assert_eq!(b.spmv(&[1.0; 4]), Vec::<f32>::new());
    }

    #[test]
    fn all_empty_rows_work() {
        let a = CsrMatrix::zeros(5, 3);
        let b = BufferedCsr::from_csr(&a, 2, 2);
        assert_eq!(b.spmv(&[1.0; 3]), vec![0.0; 5]);
        assert_eq!(b.num_stages(), 0);
    }

    #[test]
    #[should_panic(expected = "16-bit")]
    fn oversized_buffer_rejected() {
        BufferedCsr::from_csr(&sample(), 2, 1 << 17);
    }

    #[test]
    fn partial_last_partition() {
        let a = sample(); // 6 rows
        let b = BufferedCsr::from_csr(&a, 4, 8); // partitions of 4, last has 2
        assert_eq!(b.num_partitions(), 2);
        let want = spmv(&a, &x8());
        let got = b.spmv(&x8());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5);
        }
    }
}
