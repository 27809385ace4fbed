//! Concrete invariant checks over MemXCT's memoized structures.
//!
//! Each check borrows a structure (and, where relevant, the source it was
//! derived from) and appends [`CheckViolation`]s to a [`Report`]. A
//! [`Checker`] composes them so a whole plan is validated in one sweep.

use crate::violation::{Invariant, Report};
use std::ops::Range;
use xct_hilbert::Ordering2D;
use xct_sparse::{BufferIndex, BufferedCsrImpl, CsrMatrix, EllMatrix};

/// One static invariant check.
pub trait Check {
    /// Human-readable name (shown in `memxct-cli check` progress output).
    fn name(&self) -> String;
    /// Run the check, appending any violations to `report`.
    fn run(&self, report: &mut Report);
}

/// A composable collection of checks.
#[derive(Default)]
pub struct Checker<'a> {
    checks: Vec<Box<dyn Check + 'a>>,
}

impl<'a> Checker<'a> {
    /// An empty checker.
    pub fn new() -> Self {
        Checker { checks: Vec::new() }
    }

    /// Add a check (builder style).
    pub fn with(mut self, check: impl Check + 'a) -> Self {
        self.checks.push(Box::new(check));
        self
    }

    /// Add a check in place.
    pub fn add(&mut self, check: impl Check + 'a) {
        self.checks.push(Box::new(check));
    }

    /// Names of the registered checks, in execution order.
    pub fn names(&self) -> Vec<String> {
        self.checks.iter().map(|c| c.name()).collect()
    }

    /// Number of registered checks.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True when no checks are registered.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Run every check into a fresh report.
    pub fn run(&self) -> Report {
        let mut report = Report::new();
        self.run_into(&mut report);
        report
    }

    /// Run every check, appending to an existing report.
    pub fn run_into(&self, report: &mut Report) {
        for check in &self.checks {
            check.run(report);
        }
    }
}

// ---------------------------------------------------------------------------
// CSR well-formedness
// ---------------------------------------------------------------------------

/// CSR well-formedness: array shapes, monotone `rowptr`, in-bounds columns,
/// finite values, no duplicate column within a row.
///
/// `require_sorted_columns` additionally demands strictly ascending columns
/// per row. MemXCT's projection matrices keep *ray-traversal* order (which
/// the buffered layout and the order-preserving transpose rely on), so they
/// set this to `false`; enable it for structures that do guarantee
/// sortedness.
pub struct CsrCheck<'a> {
    name: String,
    a: &'a CsrMatrix,
    require_sorted_columns: bool,
}

impl<'a> CsrCheck<'a> {
    /// Check `a` under the given display name (e.g. `"csr(A)"`).
    pub fn new(name: impl Into<String>, a: &'a CsrMatrix) -> Self {
        CsrCheck {
            name: name.into(),
            a,
            require_sorted_columns: false,
        }
    }

    /// Also require strictly ascending columns within each row.
    pub fn require_sorted_columns(mut self) -> Self {
        self.require_sorted_columns = true;
        self
    }
}

impl Check for CsrCheck<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let a = self.a;
        let name = &self.name;
        let rowptr = a.rowptr();
        if rowptr.len() != a.nrows() + 1 {
            report.violation(
                name,
                Invariant::RowPtrShape,
                "rowptr",
                format!("len {} != nrows+1 = {}", rowptr.len(), a.nrows() + 1),
                "rebuild with CsrMatrix::from_raw",
            );
            return; // row iteration below would index out of bounds
        }
        if rowptr.first() != Some(&0) {
            report.violation(
                name,
                Invariant::RowPtrShape,
                "rowptr[0]",
                format!("{} != 0", rowptr[0]),
                "rebuild with CsrMatrix::from_raw",
            );
        }
        if a.colind().len() != a.values().len() {
            report.violation(
                name,
                Invariant::RowPtrShape,
                "colind/values",
                format!(
                    "{} columns vs {} values",
                    a.colind().len(),
                    a.values().len()
                ),
                "rebuild with CsrMatrix::from_raw",
            );
            return;
        }
        if *rowptr.last().unwrap_or(&0) != a.colind().len() {
            report.violation(
                name,
                Invariant::RowPtrShape,
                "rowptr end",
                format!(
                    "rowptr[{}]={} != nnz {}",
                    rowptr.len() - 1,
                    rowptr.last().unwrap_or(&0),
                    a.colind().len()
                ),
                "rebuild with CsrMatrix::from_raw",
            );
        }
        let mut monotone = true;
        for (i, w) in rowptr.windows(2).enumerate() {
            if w[0] > w[1] {
                report.violation(
                    name,
                    Invariant::RowPtrMonotone,
                    format!("row {i}"),
                    format!("rowptr[{i}]={} > rowptr[{}]={}", w[0], i + 1, w[1]),
                    "recompute the row pointer prefix sums",
                );
                monotone = false;
            }
        }
        for (k, &c) in a.colind().iter().enumerate() {
            if (c as usize) >= a.ncols() {
                report.violation(
                    name,
                    Invariant::ColumnBounds,
                    format!("entry {k}"),
                    format!("column {} out of 0..{}", c, a.ncols()),
                    "re-trace the geometry; columns must index the input domain",
                );
            }
        }
        for (k, &v) in a.values().iter().enumerate() {
            if !v.is_finite() {
                report.violation(
                    name,
                    Invariant::ValueFinite,
                    format!("entry {k}"),
                    format!("value {v} is not finite"),
                    "check intersection-length computation for degenerate rays",
                );
            }
        }
        if !monotone || rowptr.last().copied().unwrap_or(0) > a.colind().len() {
            return; // per-row slicing below would be out of bounds
        }
        // Per-row duplicate / sortedness scan. A strictly ascending row
        // cannot hold a duplicate; any other row is screened against a
        // table stamped with the row index, and only a row that fails the
        // screen (repeated or out-of-range column) pays for the sort that
        // names the duplicated column.
        let mut stamp = vec![usize::MAX; a.ncols()];
        let mut seen: Vec<u32> = Vec::new();
        for i in 0..a.nrows() {
            let cols = &a.colind()[rowptr[i]..rowptr[i + 1]];
            let Some(j) = cols.windows(2).position(|w| w[0] >= w[1]) else {
                continue;
            };
            if self.require_sorted_columns {
                report.violation(
                    name,
                    Invariant::ColumnSorted,
                    format!("row {i}"),
                    format!("columns {} then {} at slot {j}", cols[j], cols[j + 1]),
                    "sort row entries by column",
                );
            }
            let distinct = cols.iter().all(|&c| match stamp.get_mut(c as usize) {
                Some(s) if *s != i => {
                    *s = i;
                    true
                }
                _ => false,
            });
            if distinct {
                continue;
            }
            seen.clear();
            seen.extend_from_slice(cols);
            seen.sort_unstable();
            if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
                report.violation(
                    name,
                    Invariant::DuplicateColumn,
                    format!("row {i}"),
                    format!("column {} stored twice", w[0]),
                    "merge duplicate entries during tracing",
                );
            }
        }
    }
}

/// Whether `a`'s structural arrays are sound enough to iterate rows
/// without panicking. Relation checks (transpose pair, buffered/ELL
/// sources) skip their entry comparisons for non-traversable matrices —
/// the [`CsrCheck`] that every plan sweep also runs pinpoints the
/// structural breakage instead.
fn csr_traversable(a: &CsrMatrix) -> bool {
    let rowptr = a.rowptr();
    rowptr.len() == a.nrows() + 1
        && rowptr.first() == Some(&0)
        && rowptr.windows(2).all(|w| w[0] <= w[1])
        && rowptr.last().copied().unwrap_or(0) == a.colind().len()
        && a.colind().len() == a.values().len()
}

// ---------------------------------------------------------------------------
// Transpose-pair consistency
// ---------------------------------------------------------------------------

/// `At` must be exactly the order-preserving scan transpose of `A`
/// (§3.5.1): same shapes transposed, same nnz, and bit-identical entry
/// order (backprojection correctness and Hilbert locality both depend on
/// the stable order).
pub struct TransposeCheck<'a> {
    name: String,
    a: &'a CsrMatrix,
    at: &'a CsrMatrix,
}

impl<'a> TransposeCheck<'a> {
    /// Check the pair under the given display name (e.g. `"pair(A,At)"`).
    pub fn new(name: impl Into<String>, a: &'a CsrMatrix, at: &'a CsrMatrix) -> Self {
        TransposeCheck {
            name: name.into(),
            a,
            at,
        }
    }
}

impl Check for TransposeCheck<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let (a, at) = (self.a, self.at);
        if !csr_traversable(a) || !csr_traversable(at) {
            return; // CsrCheck pinpoints the structural breakage
        }
        if at.nrows() != a.ncols() || at.ncols() != a.nrows() || at.nnz() != a.nnz() {
            report.violation(
                &self.name,
                Invariant::TransposeShape,
                "shape",
                format!(
                    "A is {}x{} ({} nnz) but At is {}x{} ({} nnz)",
                    a.nrows(),
                    a.ncols(),
                    a.nnz(),
                    at.nrows(),
                    at.ncols(),
                    at.nnz()
                ),
                "rebuild At with CsrMatrix::transpose_scan",
            );
            return;
        }
        // Fast path: walk A once with a cursor per At row. The k-th entry
        // of column c met in A must be the k-th entry of At's row c (same
        // source row, `==` value — the comparison `CsrMatrix: PartialEq`
        // makes), and every cursor must end on its row's end; together
        // that is exactly `at == a.transpose_scan()`. A row's end is read
        // once, at the end, not once per entry: cursors only advance, so
        // one that ran past its row (`get` keeps it in bounds) ends past
        // it. Only a mismatch pays for materialising the transpose to
        // name the row.
        let mut cursor = at.rowptr()[..at.nrows()].to_vec();
        let row_ends = &at.rowptr()[1..];
        let (rows_t, values_t) = (at.colind(), at.values());
        let in_order = (0..a.nrows()).all(|i| {
            a.row(i).all(|(c, v)| {
                let Some(k) = cursor.get_mut(c as usize) else {
                    return false;
                };
                let (Some(&row), Some(&value)) = (rows_t.get(*k), values_t.get(*k)) else {
                    return false;
                };
                *k += 1;
                row as usize == i && value == v
            })
        });
        if in_order && cursor.iter().eq(row_ends) {
            return;
        }
        if a.colind().iter().any(|&c| c as usize >= a.ncols()) {
            return; // no transpose to compare against; CsrCheck reports ColumnBounds
        }
        let expected = a.transpose_scan();
        if *at != expected {
            // Locate the first differing transposed row for the report.
            let mut loc = "unknown".to_string();
            for i in 0..at.nrows() {
                let got: Vec<(u32, f32)> = at.row(i).collect();
                let want: Vec<(u32, f32)> = expected.row(i).collect();
                if got != want {
                    loc = format!("transposed row {i}");
                    break;
                }
            }
            report.violation(
                &self.name,
                Invariant::TransposeEntries,
                loc,
                "At differs from the scan transpose of A",
                "rebuild At with CsrMatrix::transpose_scan",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Permutation bijection
// ---------------------------------------------------------------------------

/// An ordering's `rank_of` / `pos_of` tables must be mutually inverse
/// bijections on `0..n` — otherwise gather/scatter silently drops or
/// duplicates cells.
pub struct PermutationCheck<'a> {
    name: String,
    rank_of: &'a [u32],
    pos_of: &'a [u32],
}

impl<'a> PermutationCheck<'a> {
    /// Check raw permutation tables.
    pub fn new(name: impl Into<String>, rank_of: &'a [u32], pos_of: &'a [u32]) -> Self {
        PermutationCheck {
            name: name.into(),
            rank_of,
            pos_of,
        }
    }

    /// Check the tables of an [`Ordering2D`].
    pub fn of_ordering(name: impl Into<String>, ord: &'a Ordering2D) -> Self {
        Self::new(name, ord.rank_of(), ord.pos_of())
    }
}

impl Check for PermutationCheck<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let n = self.rank_of.len();
        if self.pos_of.len() != n {
            report.violation(
                &self.name,
                Invariant::PermutationBijection,
                "tables",
                format!("rank_of has {n} cells but pos_of has {}", self.pos_of.len()),
                "rebuild the ordering from its visit sequence",
            );
            return;
        }
        for (pos, &rank) in self.rank_of.iter().enumerate() {
            if (rank as usize) >= n {
                report.violation(
                    &self.name,
                    Invariant::PermutationBijection,
                    format!("cell {pos}"),
                    format!("rank {rank} out of 0..{n}"),
                    "rebuild the ordering from its visit sequence",
                );
            } else if self.pos_of[rank as usize] as usize != pos {
                report.violation(
                    &self.name,
                    Invariant::PermutationBijection,
                    format!("cell {pos}"),
                    format!(
                        "rank_of[{pos}]={rank} but pos_of[{rank}]={}",
                        self.pos_of[rank as usize]
                    ),
                    "rebuild the ordering from its visit sequence",
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Buffered-SpMV layout
// ---------------------------------------------------------------------------

/// The multi-stage buffered layout (§3.3): stage footprints must fit the
/// buffer, buffer-local indices must fit the index width and stay inside
/// their stage's occupied footprint, stage maps must be the sorted distinct
/// footprint of their partition, and the layout must reproduce exactly the
/// source matrix's entries.
pub struct BufferedCheck<'a, I: BufferIndex> {
    name: String,
    buf: &'a BufferedCsrImpl<I>,
    source: Option<&'a CsrMatrix>,
}

impl<'a, I: BufferIndex> BufferedCheck<'a, I> {
    /// Check the layout alone (internal consistency only).
    pub fn new(name: impl Into<String>, buf: &'a BufferedCsrImpl<I>) -> Self {
        BufferedCheck {
            name: name.into(),
            buf,
            source: None,
        }
    }

    /// Also verify the layout reproduces `source`'s rows exactly.
    pub fn with_source(mut self, source: &'a CsrMatrix) -> Self {
        self.source = Some(source);
        self
    }
}

impl<I: BufferIndex> Check for BufferedCheck<'_, I> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let b = self.buf;
        let name = &self.name;
        let before = report.len();

        if let Some(src) = self.source {
            if b.nrows() != src.nrows() || b.ncols() != src.ncols() || b.nnz() != src.nnz() {
                report.violation(
                    name,
                    Invariant::BufferedShape,
                    "shape",
                    format!(
                        "layout is {}x{} ({} nnz) but source is {}x{} ({} nnz)",
                        b.nrows(),
                        b.ncols(),
                        b.nnz(),
                        src.nrows(),
                        src.ncols(),
                        src.nnz()
                    ),
                    "rebuild with BufferedCsrImpl::try_from_csr",
                );
            }
        }

        if b.partsize() == 0 {
            report.violation(
                name,
                Invariant::PartitionDispl,
                "partsize",
                "partition size is zero",
                "rebuild with a positive partsize",
            );
            return;
        }
        if b.buffsize() == 0 || b.buffsize() > I::MAX_BUFFER {
            report.violation(
                name,
                Invariant::StageFootprint,
                "buffsize",
                format!(
                    "buffer capacity {} outside 1..={} addressable by the index width",
                    b.buffsize(),
                    I::MAX_BUFFER
                ),
                "rebuild with a buffer the index type can address (§3.3.5)",
            );
        }

        // partdispl: per-partition stage ranges.
        let nparts = b.nrows().div_ceil(b.partsize()).max(1);
        let partdispl = b.partdispl();
        let nstages = b.stagedispl().len().saturating_sub(1);
        if partdispl.len() != nparts + 1
            || partdispl.first() != Some(&0)
            || partdispl.last().map(|&s| s as usize) != Some(nstages)
        {
            report.violation(
                name,
                Invariant::PartitionDispl,
                "partdispl",
                format!(
                    "expected {} monotone entries from 0 to {} stages, got {:?}-shaped table",
                    nparts + 1,
                    nstages,
                    partdispl.len()
                ),
                "rebuild with BufferedCsrImpl::try_from_csr",
            );
            return;
        }
        if let Some(p) = partdispl.windows(2).position(|w| w[0] > w[1]) {
            report.violation(
                name,
                Invariant::PartitionDispl,
                format!("partition {p}"),
                format!(
                    "partdispl[{p}]={} > partdispl[{}]={}",
                    partdispl[p],
                    p + 1,
                    partdispl[p + 1]
                ),
                "rebuild with BufferedCsrImpl::try_from_csr",
            );
            return;
        }

        // stagedispl: footprint ranges into `map`.
        let stagedispl = b.stagedispl();
        if stagedispl.first() != Some(&0)
            || stagedispl.last().copied().unwrap_or(0) != b.stage_map().len()
            || stagedispl.windows(2).any(|w| w[0] > w[1])
        {
            report.violation(
                name,
                Invariant::BufferedShape,
                "stagedispl",
                "stage footprint offsets are not a monotone cover of the stage map",
                "rebuild with BufferedCsrImpl::try_from_csr",
            );
            return;
        }
        for s in 0..nstages {
            let footprint = stagedispl[s + 1] - stagedispl[s];
            if footprint > b.buffsize() {
                report.violation(
                    name,
                    Invariant::StageFootprint,
                    format!("stage {s}"),
                    format!(
                        "footprint {footprint} exceeds buffer capacity {}",
                        b.buffsize()
                    ),
                    "split the stage; footprints must gather into the buffer",
                );
            }
        }

        // Stage maps: in-bounds, and strictly ascending across each
        // partition's concatenated footprint (the footprint is the sorted
        // distinct column set, chunked into stages).
        for (k, &col) in b.stage_map().iter().enumerate() {
            if (col as usize) >= b.ncols() {
                report.violation(
                    name,
                    Invariant::StageMapBounds,
                    format!("map slot {k}"),
                    format!("gathers column {col} out of 0..{}", b.ncols()),
                    "rebuild the footprint from the partition's columns",
                );
            }
        }
        for p in 0..nparts {
            let lo = stagedispl[partdispl[p] as usize];
            let hi = stagedispl[partdispl[p + 1] as usize];
            let span = &b.stage_map()[lo..hi];
            if let Some(j) = span.windows(2).position(|w| w[0] >= w[1]) {
                report.violation(
                    name,
                    Invariant::StageMapSorted,
                    format!("partition {p}, footprint slot {j}"),
                    format!(
                        "column {} then {} (must be strictly ascending)",
                        span[j],
                        span[j + 1]
                    ),
                    "sort and dedup the partition footprint (Hilbert rank order)",
                );
            }
        }

        // displ / ind / val: entry table shape.
        let displ = b.entry_displ();
        if displ.len() != 1 + nstages * b.partsize()
            || displ.first() != Some(&0)
            || displ.windows(2).any(|w| w[0] > w[1])
            || displ.last().copied().unwrap_or(0) != b.entry_ind().len()
            || b.entry_ind().len() != b.entry_val().len()
        {
            report.violation(
                name,
                Invariant::BufferedShape,
                "displ/ind/val",
                format!(
                    "entry table is inconsistent: {} displ ({} expected), {} ind, {} val",
                    displ.len(),
                    1 + nstages * b.partsize(),
                    b.entry_ind().len(),
                    b.entry_val().len()
                ),
                "rebuild with BufferedCsrImpl::try_from_csr",
            );
            return;
        }
        for (k, &v) in b.entry_val().iter().enumerate() {
            if !v.is_finite() {
                report.violation(
                    name,
                    Invariant::ValueFinite,
                    format!("entry {k}"),
                    format!("value {v} is not finite"),
                    "check the source matrix values",
                );
            }
        }
        // Buffer-local indices stay inside their stage's occupied window:
        // every run of every row slot of the stage's partition.
        for p in 0..nparts {
            for s in partdispl[p] as usize..partdispl[p + 1] as usize {
                let footprint = stagedispl[s + 1] - stagedispl[s];
                for row in p * b.partsize()..(p + 1) * b.partsize() {
                    for k in b.run(s, row) {
                        let local = b.entry_ind()[k].to_usize();
                        if local >= footprint {
                            report.violation(
                                name,
                                Invariant::BufferLocalBounds,
                                format!("stage {s}, entry {k}"),
                                format!("buffer-local index {local} outside footprint {footprint}"),
                                "rebuild; indices must address the gathered stage window",
                            );
                        }
                    }
                }
            }
        }

        // Entry reconstruction against the source (only meaningful once the
        // structure itself is sound).
        if report.len() > before {
            return;
        }
        if let Some(src) = self.source.filter(|s| csr_traversable(s)) {
            let (map, ind, val) = (b.stage_map(), b.entry_ind(), b.entry_val());
            // Fast path: stamp the source row's columns (and value bits)
            // into dense tables, then tick each layout entry off its
            // column. With no surprise — repeated or out-of-range source
            // column, a layout column the row lacks or already ticked,
            // different value bits, different counts — the two rows are
            // equal as multisets. Any surprise proves nothing: that row
            // falls through to the sorted comparison below, which alone
            // decides the verdict and its text.
            const SPENT: usize = usize::MAX;
            // One entry per column — (stamping row, value bits) — so an
            // entry is one cache line to look up, not two tables' two.
            let mut stamp = vec![(SPENT, 0u32); b.ncols()];
            let mut ticks_off = |p: usize, row: usize| -> bool {
                let mut want = 0usize;
                for (c, v) in src.row(row) {
                    match stamp.get_mut(c as usize) {
                        Some(s) if s.0 != row => *s = (row, v.to_bits()),
                        _ => return false,
                    }
                    want += 1;
                }
                let mut got = 0usize;
                for s in partdispl[p] as usize..partdispl[p + 1] as usize {
                    let stage_map = &map[stagedispl[s]..stagedispl[s + 1]];
                    let run = b.run(s, row);
                    for (local, v) in ind[run.clone()].iter().zip(&val[run]) {
                        let slot = &mut stamp[stage_map[local.to_usize()] as usize];
                        if *slot != (row, v.to_bits()) {
                            return false;
                        }
                        slot.0 = SPENT;
                        got += 1;
                    }
                }
                got == want
            };
            for p in 0..nparts {
                let base = p * b.partsize();
                let rows = b.partsize().min(b.nrows().saturating_sub(base));
                for j in 0..rows {
                    if ticks_off(p, base + j) {
                        continue;
                    }
                    let mut got: Vec<(u32, u32)> = Vec::new();
                    for s in partdispl[p] as usize..partdispl[p + 1] as usize {
                        let stage_map = &map[stagedispl[s]..stagedispl[s + 1]];
                        for k in b.run(s, base + j) {
                            got.push((stage_map[ind[k].to_usize()], val[k].to_bits()));
                        }
                    }
                    let mut want: Vec<(u32, u32)> =
                        src.row(base + j).map(|(c, v)| (c, v.to_bits())).collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    if got != want {
                        report.violation(
                            name,
                            Invariant::BufferedEntries,
                            format!("row {}", base + j),
                            format!(
                                "layout reproduces {} entries, source row has {}{}",
                                got.len(),
                                want.len(),
                                if got.len() == want.len() {
                                    " (same count, different content)"
                                } else {
                                    ""
                                }
                            ),
                            "rebuild with BufferedCsrImpl::try_from_csr",
                        );
                        return;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ELL padding consistency
// ---------------------------------------------------------------------------

/// ELL partitions must mirror their CSR source: per-partition width is the
/// max row length, payload entries match the source in order, and every
/// padding slot is the (column 0, value 0) sentinel the divergence-free
/// kernel multiplies redundantly (§3.1.4).
pub struct EllCheck<'a> {
    name: String,
    ell: &'a EllMatrix,
    source: &'a CsrMatrix,
    partsize: usize,
}

impl<'a> EllCheck<'a> {
    /// Check `ell` against the CSR matrix and partition size it was built
    /// from.
    pub fn new(
        name: impl Into<String>,
        ell: &'a EllMatrix,
        source: &'a CsrMatrix,
        partsize: usize,
    ) -> Self {
        EllCheck {
            name: name.into(),
            ell,
            source,
            partsize,
        }
    }
}

impl Check for EllCheck<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let (ell, src) = (self.ell, self.source);
        let name = &self.name;
        if !csr_traversable(src) {
            return; // CsrCheck pinpoints the structural breakage
        }
        if self.partsize == 0 {
            report.violation(
                name,
                Invariant::EllShape,
                "partsize",
                "partition size is zero",
                "rebuild with a positive partsize",
            );
            return;
        }
        let expected_parts = src.nrows().div_ceil(self.partsize);
        if ell.nrows() != src.nrows()
            || ell.ncols() != src.ncols()
            || ell.nnz() != src.nnz()
            || ell.num_partitions() != expected_parts
        {
            report.violation(
                name,
                Invariant::EllShape,
                "shape",
                format!(
                    "ELL is {}x{} ({} nnz, {} partitions) but source implies {}x{} ({} nnz, {} partitions)",
                    ell.nrows(),
                    ell.ncols(),
                    ell.nnz(),
                    ell.num_partitions(),
                    src.nrows(),
                    src.ncols(),
                    src.nnz(),
                    expected_parts
                ),
                "rebuild with EllMatrix::from_csr",
            );
            return;
        }
        let mut padded = 0usize;
        for p in 0..expected_parts {
            let base = p * self.partsize;
            let rows = self.partsize.min(src.nrows() - base);
            let want_width = (0..rows)
                .map(|j| src.rowptr()[base + j + 1] - src.rowptr()[base + j])
                .max()
                .unwrap_or(0);
            let part = ell.partition_view(p);
            padded += part.rows * part.width;
            if part.rows != rows || part.width != want_width {
                report.violation(
                    name,
                    Invariant::EllShape,
                    format!("partition {p}"),
                    format!(
                        "{} rows x width {} but source implies {} rows x width {}",
                        part.rows, part.width, rows, want_width
                    ),
                    "pad each partition to its own max row length",
                );
                continue;
            }
            if part.colind.len() != rows * want_width || part.values.len() != rows * want_width {
                report.violation(
                    name,
                    Invariant::EllShape,
                    format!("partition {p}"),
                    format!(
                        "column-major arrays hold {} / {} slots, expected {}",
                        part.colind.len(),
                        part.values.len(),
                        rows * want_width
                    ),
                    "rebuild with EllMatrix::from_csr",
                );
                continue;
            }
            for j in 0..rows {
                let lo = src.rowptr()[base + j];
                let hi = src.rowptr()[base + j + 1];
                for s in 0..part.width {
                    let (col, val) = (part.colind[s * rows + j], part.values[s * rows + j]);
                    if s < hi - lo {
                        let (want_col, want_val) = (src.colind()[lo + s], src.values()[lo + s]);
                        if col != want_col || val.to_bits() != want_val.to_bits() {
                            report.violation(
                                name,
                                Invariant::EllEntries,
                                format!("partition {p}, row {}, slot {s}", base + j),
                                format!("({col}, {val}) but source has ({want_col}, {want_val})"),
                                "rebuild with EllMatrix::from_csr",
                            );
                        }
                    } else if col != 0 || val.to_bits() != 0 {
                        report.violation(
                            name,
                            Invariant::EllPadding,
                            format!("partition {p}, row {}, slot {s}", base + j),
                            format!("padding slot holds ({col}, {val}), expected (0, 0.0)"),
                            "padding must be the redundant-multiply sentinel",
                        );
                    }
                }
            }
        }
        if padded != ell.padded_nnz() {
            report.violation(
                name,
                Invariant::EllShape,
                "padded_nnz",
                format!("{} cached but slots sum to {padded}", ell.padded_nnz()),
                "rebuild with EllMatrix::from_csr",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Partition coverage
// ---------------------------------------------------------------------------

/// Contiguous rank partitions must cover `0..total` disjointly — every
/// cell owned by exactly one rank.
pub struct PartitionCheck {
    name: String,
    total: usize,
    ranges: Vec<Range<usize>>,
}

impl PartitionCheck {
    /// Check that `ranges` tile `0..total` in order.
    pub fn new(name: impl Into<String>, total: usize, ranges: Vec<Range<usize>>) -> Self {
        PartitionCheck {
            name: name.into(),
            total,
            ranges,
        }
    }
}

impl Check for PartitionCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let mut cursor = 0usize;
        for (i, r) in self.ranges.iter().enumerate() {
            if r.start != cursor {
                report.violation(
                    &self.name,
                    Invariant::PartitionCoverage,
                    format!("partition {i}"),
                    format!(
                        "starts at {} but previous partition ended at {cursor} ({})",
                        r.start,
                        if r.start > cursor { "gap" } else { "overlap" }
                    ),
                    "partitions must tile the domain contiguously",
                );
            }
            if r.end < r.start {
                report.violation(
                    &self.name,
                    Invariant::PartitionCoverage,
                    format!("partition {i}"),
                    format!("inverted range {}..{}", r.start, r.end),
                    "partitions must tile the domain contiguously",
                );
            }
            cursor = r.end.max(cursor);
        }
        if cursor != self.total {
            report.violation(
                &self.name,
                Invariant::PartitionCoverage,
                "end",
                format!(
                    "partitions end at {cursor} but the domain has {} cells",
                    self.total
                ),
                "partitions must cover the whole domain",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Communication schedule
// ---------------------------------------------------------------------------

/// Alltoallv schedule consistency: what rank `s` plans to send to rank `q`
/// must be exactly what `q` plans to receive from `s` — same count, same
/// global rows, ascending, and owned by `s`.
pub struct ScheduleCheck {
    name: String,
    owners: Vec<Range<usize>>,
    sends: Vec<Vec<Vec<u32>>>,
    recvs: Vec<Vec<Vec<u32>>>,
}

impl ScheduleCheck {
    /// `owners[s]` is the global row range owned by rank `s`;
    /// `sends[s][q]` the global rows `s` sends to `q`; `recvs[q][s]` the
    /// global rows `q` expects from `s`.
    pub fn new(
        name: impl Into<String>,
        owners: Vec<Range<usize>>,
        sends: Vec<Vec<Vec<u32>>>,
        recvs: Vec<Vec<Vec<u32>>>,
    ) -> Self {
        ScheduleCheck {
            name: name.into(),
            owners,
            sends,
            recvs,
        }
    }
}

impl Check for ScheduleCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let size = self.owners.len();
        if self.sends.len() != size
            || self.recvs.len() != size
            || self.sends.iter().any(|row| row.len() != size)
            || self.recvs.iter().any(|row| row.len() != size)
        {
            report.violation(
                &self.name,
                Invariant::ScheduleSymmetry,
                "shape",
                format!(
                    "{size} ranks but send table is {}x* and recv table {}x*",
                    self.sends.len(),
                    self.recvs.len()
                ),
                "rebuild the plans for a consistent communicator size",
            );
            return;
        }
        for s in 0..size {
            for q in 0..size {
                let send = &self.sends[s][q];
                let recv = &self.recvs[q][s];
                if send.len() != recv.len() {
                    report.violation(
                        &self.name,
                        Invariant::ScheduleSymmetry,
                        format!("pair {s}->{q}"),
                        format!(
                            "rank {s} sends {} rows but rank {q} expects {}",
                            send.len(),
                            recv.len()
                        ),
                        "alltoallv counts must match pairwise",
                    );
                    continue;
                }
                if send != recv {
                    report.violation(
                        &self.name,
                        Invariant::ScheduleRows,
                        format!("pair {s}->{q}"),
                        "sent rows differ from expected rows".to_string(),
                        "both sides must derive the schedule from the same partition",
                    );
                }
                if send.windows(2).any(|w| w[0] >= w[1]) {
                    report.violation(
                        &self.name,
                        Invariant::ScheduleRows,
                        format!("pair {s}->{q}"),
                        "row list is not strictly ascending".to_string(),
                        "keep schedules in Hilbert rank order",
                    );
                }
                let owner = &self.owners[s];
                if let Some(&row) = send
                    .iter()
                    .find(|&&r| (r as usize) < owner.start || (r as usize) >= owner.end)
                {
                    report.violation(
                        &self.name,
                        Invariant::ScheduleRows,
                        format!("pair {s}->{q}"),
                        format!(
                            "row {row} outside rank {s}'s owned range {}..{}",
                            owner.start, owner.end
                        ),
                        "ranks may only send rows they own",
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ledger reconciliation
// ---------------------------------------------------------------------------

/// Observed communication bytes (the `xct-obs` `comm/bytes` matrix, fed by
/// the runtime's `CommLedger`) must reconcile with the schedule's predicted
/// data-plane traffic: for every off-diagonal pair the residual
/// `observed - predicted` must be non-negative, a multiple of the
/// collective granularity (allreduce control traffic), and *identical
/// across pairs* — collectives send the same bytes to every peer, so a
/// per-pair discrepancy pins a corrupted schedule or a misrecorded send.
pub struct LedgerCheck {
    name: String,
    size: usize,
    observed: Vec<u64>,
    predicted: Vec<u64>,
    collective_granularity: u64,
}

impl LedgerCheck {
    /// `observed` and `predicted` are row-major `size x size` byte
    /// matrices; `collective_granularity` is the bytes one collective call
    /// contributes per peer (8 for the f64 allreduce).
    pub fn new(
        name: impl Into<String>,
        size: usize,
        observed: Vec<u64>,
        predicted: Vec<u64>,
        collective_granularity: u64,
    ) -> Self {
        LedgerCheck {
            name: name.into(),
            size,
            observed,
            predicted,
            collective_granularity,
        }
    }
}

impl Check for LedgerCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let n = self.size;
        if self.observed.len() != n * n || self.predicted.len() != n * n {
            report.violation(
                &self.name,
                Invariant::LedgerReconciliation,
                "shape",
                format!(
                    "expected {n}x{n} byte matrices, got {} observed / {} predicted entries",
                    self.observed.len(),
                    self.predicted.len()
                ),
                "export the comm matrix for the same communicator size",
            );
            return;
        }
        let mut residual: Option<u64> = None;
        for s in 0..n {
            for q in 0..n {
                let (obs, pred) = (self.observed[s * n + q], self.predicted[s * n + q]);
                if s == q {
                    if obs != 0 {
                        report.violation(
                            &self.name,
                            Invariant::LedgerReconciliation,
                            format!("pair {s}->{q}"),
                            format!("ledger records {obs} self-bytes; self-sends are local copies"),
                            "only off-rank traffic may be recorded",
                        );
                    }
                    continue;
                }
                if obs < pred {
                    report.violation(
                        &self.name,
                        Invariant::LedgerReconciliation,
                        format!("pair {s}->{q}"),
                        format!("observed {obs} bytes < predicted data-plane {pred} bytes"),
                        "the schedule predicts traffic the ledger never saw",
                    );
                    continue;
                }
                let r = obs - pred;
                if self.collective_granularity != 0 && r % self.collective_granularity != 0 {
                    report.violation(
                        &self.name,
                        Invariant::LedgerReconciliation,
                        format!("pair {s}->{q}"),
                        format!(
                            "residual {r} bytes is not a multiple of the {}-byte collective granularity",
                            self.collective_granularity
                        ),
                        "non-collective traffic must match the schedule exactly",
                    );
                    continue;
                }
                match residual {
                    None => residual = Some(r),
                    Some(r0) if r0 != r => {
                        report.violation(
                            &self.name,
                            Invariant::LedgerReconciliation,
                            format!("pair {s}->{q}"),
                            format!(
                                "collective residual {r} bytes differs from {r0} on earlier pairs"
                            ),
                            "collectives contribute uniformly; reconcile the schedule",
                        );
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Validate the raw arrays of an `xct-runtime` execution plan: partition
/// `bounds` must tile `0..rows` contiguously ([`Invariant::PartitionCoverage`]),
/// the `weights`/`assign` arrays must have the right lengths, endpoints,
/// and monotonicity ([`Invariant::ExecPlanShape`]), and no worker's
/// assigned weight may exceed the greedy prefix split's guarantee
/// `total/workers + max_unit + 1` ([`Invariant::ExecPlanBalance`]).
///
/// Takes raw arrays rather than the plan type so the mutation suite can
/// corrupt individual fields; production callers pass a plan's accessors
/// straight through.
pub struct ExecPlanCheck {
    name: String,
    rows: usize,
    bounds: Vec<usize>,
    weights: Vec<u64>,
    assign: Vec<usize>,
    max_unit: u64,
}

impl ExecPlanCheck {
    /// Check a plan over `rows` domain rows with partition `bounds`
    /// (length `parts + 1`), per-partition `weights` (length `parts`),
    /// worker partition runs `assign` (length `workers + 1`), and the
    /// plan's recorded maximum indivisible unit weight `max_unit`.
    pub fn new(
        name: impl Into<String>,
        rows: usize,
        bounds: Vec<usize>,
        weights: Vec<u64>,
        assign: Vec<usize>,
        max_unit: u64,
    ) -> Self {
        ExecPlanCheck {
            name: name.into(),
            rows,
            bounds,
            weights,
            assign,
            max_unit,
        }
    }
}

impl Check for ExecPlanCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        let before = report.len();
        // Partition bounds must tile the row domain — the same coverage
        // invariant the distributed domain partitions obey.
        if self.bounds.first() != Some(&0) {
            report.violation(
                &self.name,
                Invariant::PartitionCoverage,
                "bounds[0]",
                format!("partition bounds start at {:?}, not 0", self.bounds.first()),
                "bounds must begin at row 0",
            );
        }
        if self.bounds.last() != Some(&self.rows) {
            report.violation(
                &self.name,
                Invariant::PartitionCoverage,
                "bounds[last]",
                format!(
                    "partition bounds end at {:?} but the domain has {} rows",
                    self.bounds.last(),
                    self.rows
                ),
                "bounds must end at the domain size",
            );
        }
        for (i, w) in self.bounds.windows(2).enumerate() {
            if w[1] < w[0] {
                report.violation(
                    &self.name,
                    Invariant::PartitionCoverage,
                    format!("bounds[{}]", i + 1),
                    format!("bound {} precedes bound {}", w[1], w[0]),
                    "partition bounds must be non-decreasing",
                );
            }
        }
        let parts = self.bounds.len().saturating_sub(1);
        if self.weights.len() != parts {
            report.violation(
                &self.name,
                Invariant::ExecPlanShape,
                "weights",
                format!("{} weights for {parts} partitions", self.weights.len()),
                "one weight per partition",
            );
        }
        if self.assign.first() != Some(&0) || self.assign.last() != Some(&parts) {
            report.violation(
                &self.name,
                Invariant::ExecPlanShape,
                "assign",
                format!(
                    "worker runs span {:?}..{:?}, expected 0..{parts}",
                    self.assign.first(),
                    self.assign.last()
                ),
                "assign must cover every partition exactly once",
            );
        }
        for (w, run) in self.assign.windows(2).enumerate() {
            if run[1] < run[0] || run[1] > parts {
                report.violation(
                    &self.name,
                    Invariant::ExecPlanShape,
                    format!("assign[{}]", w + 1),
                    format!("worker {w} run {}..{} is invalid", run[0], run[1]),
                    "worker runs must be non-decreasing and within the partitions",
                );
            }
        }
        if report.len() > before {
            // Structure is broken; the balance bound below would read
            // through the corrupted arrays and mask the root cause.
            return;
        }
        let workers = self.assign.len().saturating_sub(1).max(1) as u64;
        let total: u64 = self.weights.iter().sum();
        let bound = total / workers + self.max_unit + 1;
        for (w, run) in self.assign.windows(2).enumerate() {
            let weight: u64 = self.weights[run[0]..run[1]].iter().sum();
            if weight > bound {
                report.violation(
                    &self.name,
                    Invariant::ExecPlanBalance,
                    format!("worker {w}"),
                    format!(
                        "assigned weight {weight} exceeds the balance bound {bound} \
                         (total {total} over {workers} workers, max unit {})",
                        self.max_unit
                    ),
                    "rebuild the plan with the greedy prefix split",
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint consistency
// ---------------------------------------------------------------------------

/// One named checkpoint section to reconcile against the workspace it
/// must restore into: the length the solver expects and the length the
/// snapshot actually holds (`None` when the section is absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSection {
    /// Section name inside the snapshot (e.g. `"x"`, `"resid"`).
    pub name: String,
    /// Vector length the resuming workspace requires.
    pub expected_len: usize,
    /// Vector length found in the snapshot, or `None` if missing.
    pub found_len: Option<usize>,
}

/// Validate a decoded checkpoint against the solve it is resuming:
/// the plan hash must match ([`Invariant::CheckpointHash`]), every
/// required section must exist with the workspace's vector length
/// ([`Invariant::CheckpointShape`]), and the iteration counter must be
/// consistent — within the run's iteration cap and equal to the number
/// of recorded iterations ([`Invariant::CheckpointMonotone`]).
///
/// Takes plain data rather than the snapshot type so the mutation suite
/// can corrupt individual fields and this crate stays free of runtime
/// dependencies; production callers pass a snapshot's accessors through.
pub struct CheckpointCheck {
    name: String,
    expected_plan_hash: u64,
    snapshot_plan_hash: u64,
    max_iters: u64,
    snapshot_iteration: u64,
    records_len: u64,
    batch: Option<(u64, u64)>,
    sections: Vec<CheckpointSection>,
}

impl CheckpointCheck {
    /// Reconcile a snapshot header against the resuming run: the hash of
    /// the plan being resumed, the snapshot's stored hash, the run's
    /// iteration cap, the snapshot's iteration counter, and how many
    /// per-iteration records the snapshot carries.
    pub fn new(
        name: impl Into<String>,
        expected_plan_hash: u64,
        snapshot_plan_hash: u64,
        max_iters: u64,
        snapshot_iteration: u64,
        records_len: u64,
    ) -> Self {
        CheckpointCheck {
            name: name.into(),
            expected_plan_hash,
            snapshot_plan_hash,
            max_iters,
            snapshot_iteration,
            records_len,
            batch: None,
            sections: Vec::new(),
        }
    }

    /// Reconcile the snapshot's batch width against the resuming
    /// configuration's (builder style). On mismatch the check reports
    /// [`Invariant::CheckpointBatch`] and skips the per-section shape
    /// checks — section lengths scale with the batch width, so
    /// comparing them across widths would only produce derivative
    /// noise.
    pub fn batch(mut self, expected: u64, found: u64) -> Self {
        self.batch = Some((expected, found));
        self
    }

    /// Require a section with the given workspace length (builder style).
    pub fn section(
        mut self,
        name: impl Into<String>,
        expected_len: usize,
        found_len: Option<usize>,
    ) -> Self {
        self.sections.push(CheckpointSection {
            name: name.into(),
            expected_len,
            found_len,
        });
        self
    }
}

impl Check for CheckpointCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        if self.snapshot_plan_hash != self.expected_plan_hash {
            report.violation(
                &self.name,
                Invariant::CheckpointHash,
                "header",
                format!(
                    "snapshot plan hash {:#018x} != resuming plan hash {:#018x}",
                    self.snapshot_plan_hash, self.expected_plan_hash
                ),
                "resume with the geometry/partitioning the checkpoint was taken under",
            );
        }
        let batch_mismatch = match self.batch {
            Some((expected, found)) if expected != found => {
                report.violation(
                    &self.name,
                    Invariant::CheckpointBatch,
                    "header",
                    format!("snapshot batch width {found} != resuming batch width {expected}"),
                    "resume with the batch width the checkpoint was taken under, \
                     or restart the batch from scratch",
                );
                true
            }
            _ => false,
        };
        // Section lengths are per-slice vectors times the batch width;
        // once the widths disagree every shape comparison would fail as
        // a consequence, so only the root cause is reported.
        if !batch_mismatch {
            for s in &self.sections {
                match s.found_len {
                    None => report.violation(
                        &self.name,
                        Invariant::CheckpointShape,
                        format!("section `{}`", s.name),
                        "required section is missing".to_string(),
                        "the snapshot was written by a different solver configuration",
                    ),
                    Some(found) if found != s.expected_len => report.violation(
                        &self.name,
                        Invariant::CheckpointShape,
                        format!("section `{}`", s.name),
                        format!(
                            "snapshot holds {found} elements, workspace requires {}",
                            s.expected_len
                        ),
                        "resume with the problem size the checkpoint was taken under",
                    ),
                    Some(_) => {}
                }
            }
        }
        if self.snapshot_iteration > self.max_iters {
            report.violation(
                &self.name,
                Invariant::CheckpointMonotone,
                "header",
                format!(
                    "snapshot iteration {} exceeds the run's cap {}",
                    self.snapshot_iteration, self.max_iters
                ),
                "the checkpoint is from a longer run; raise max_iters or discard it",
            );
        }
        if self.records_len != self.snapshot_iteration {
            report.violation(
                &self.name,
                Invariant::CheckpointMonotone,
                "records",
                format!(
                    "snapshot carries {} iteration records but claims iteration {}",
                    self.records_len, self.snapshot_iteration
                ),
                "the iteration counter and the record series must advance together",
            );
        }
    }
}

/// Validates that a lock-acquisition-order graph is acyclic.
///
/// The `xct-model` sync facade records directed `held → acquired` edges
/// between named lock classes (`xct_model::lockdep::edges`); a cycle in
/// that graph is a reachable ABBA deadlock even when no observed run ever
/// deadlocked. This check owns its edge list (names, not borrows) so the
/// graph can come from a live process, a metrics export, or a fixture.
pub struct LockOrderCheck {
    name: String,
    edges: Vec<(String, String)>,
}

impl LockOrderCheck {
    /// A lock-order check over `(held, acquired)` class-name pairs.
    pub fn new(name: impl Into<String>, edges: Vec<(String, String)>) -> Self {
        LockOrderCheck {
            name: name.into(),
            edges,
        }
    }

    /// The check over the process-global graph recorded by the facade.
    pub fn from_recorded(name: impl Into<String>) -> Self {
        LockOrderCheck::new(name, xct_model::lockdep::edges())
    }
}

impl Check for LockOrderCheck {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(&self, report: &mut Report) {
        use std::collections::HashMap;
        // Intern the class names and build adjacency lists.
        fn intern<'e>(
            ids: &mut HashMap<&'e str, usize>,
            names: &mut Vec<&'e str>,
            adj: &mut Vec<Vec<usize>>,
            n: &'e str,
        ) -> usize {
            match ids.get(n) {
                Some(&i) => i,
                None => {
                    let i = names.len();
                    names.push(n);
                    ids.insert(n, i);
                    adj.push(Vec::new());
                    i
                }
            }
        }
        let mut ids: HashMap<&str, usize> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut adj: Vec<Vec<usize>> = Vec::new();
        for (held, acquired) in &self.edges {
            let h = intern(&mut ids, &mut names, &mut adj, held);
            let a = intern(&mut ids, &mut names, &mut adj, acquired);
            adj[h].push(a);
        }
        // Three-color DFS; on hitting a gray node, report the cycle path.
        fn dfs(
            v: usize,
            adj: &[Vec<usize>],
            color: &mut [u8],
            stack: &mut Vec<usize>,
            names: &[&str],
            check: &str,
            report: &mut Report,
        ) {
            color[v] = 1; // gray: on the current DFS path
            stack.push(v);
            for &w in &adj[v] {
                if color[w] == 1 {
                    // Cycle: the stack suffix from w back around to w.
                    let start = stack.iter().position(|&x| x == w).unwrap_or(0);
                    let mut path: Vec<&str> = stack[start..].iter().map(|&i| names[i]).collect();
                    path.push(names[w]);
                    report.violation(
                        check,
                        Invariant::LockOrderAcyclic,
                        path.join(" -> "),
                        "lock classes are acquired in conflicting orders; an \
                         ABBA deadlock is reachable",
                        "impose a total order on these lock classes (acquire \
                         in one fixed order) or split the offending class",
                    );
                } else if color[w] == 0 {
                    dfs(w, adj, color, stack, names, check, report);
                }
            }
            stack.pop();
            color[v] = 2; // black: fully explored
        }
        let mut color = vec![0u8; names.len()];
        let mut stack: Vec<usize> = Vec::new();
        for v in 0..names.len() {
            if color[v] == 0 {
                dfs(v, &adj, &mut color, &mut stack, &names, &self.name, report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        CsrMatrix::from_rows(
            6,
            &[
                vec![(0, 1.0), (3, 2.0), (5, 1.5)],
                vec![(1, -1.0)],
                vec![],
                vec![(0, 0.5), (2, 0.5), (4, 0.5)],
                vec![(2, 3.0), (1, 1.0)],
            ],
        )
    }

    #[test]
    fn valid_structures_pass() {
        let a = sample_csr();
        let at = a.transpose_scan();
        let buf = xct_sparse::BufferedCsr::from_csr(&a, 2, 4);
        let ell = EllMatrix::from_csr(&a, 2);
        let ord = Ordering2D::two_level_hilbert(5, 4, 2);
        let report = Checker::new()
            .with(CsrCheck::new("csr(A)", &a))
            .with(CsrCheck::new("csr(At)", &at))
            .with(TransposeCheck::new("pair(A,At)", &a, &at))
            .with(BufferedCheck::new("buffered(A)", &buf).with_source(&a))
            .with(EllCheck::new("ell(A)", &ell, &a, 2))
            .with(PermutationCheck::of_ordering("ordering", &ord))
            .run();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn transposed_csr_rows_are_sorted() {
        // The scan transpose sorts each transposed row by original row
        // index, so the sorted-columns option holds for it.
        let at = sample_csr().transpose_scan();
        let report = Checker::new()
            .with(CsrCheck::new("csr(At)", &at).require_sorted_columns())
            .run();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn schedule_and_partition_pass_on_consistent_tables() {
        let owners = vec![0..3, 3..6];
        let sends = vec![
            vec![vec![], vec![0, 2]], //
            vec![vec![4], vec![]],
        ];
        let recvs = vec![
            vec![vec![], vec![4]], //
            vec![vec![0, 2], vec![]],
        ];
        let report = Checker::new()
            .with(PartitionCheck::new("partition", 6, owners.clone()))
            .with(ScheduleCheck::new("schedule", owners, sends, recvs))
            .run();
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn ledger_reconciles_with_uniform_collective_residual() {
        // 2 ranks: data-plane predicts 100/60; each pair also carries 3
        // allreduce calls x 8 bytes = 24 bytes of collective traffic.
        let observed = vec![0, 124, 84, 0];
        let predicted = vec![0, 100, 60, 0];
        let report = Checker::new()
            .with(LedgerCheck::new("ledger", 2, observed, predicted, 8))
            .run();
        assert!(report.is_ok(), "{report}");

        let skewed = vec![0, 124, 92, 0]; // 32 != 24 residual
        let report = Checker::new()
            .with(LedgerCheck::new(
                "ledger",
                2,
                skewed,
                vec![0, 100, 60, 0],
                8,
            ))
            .run();
        assert!(report.has(Invariant::LedgerReconciliation), "{report}");
    }

    #[test]
    fn checker_reports_names_in_order() {
        let a = sample_csr();
        let checker = Checker::new()
            .with(CsrCheck::new("first", &a))
            .with(CsrCheck::new("second", &a));
        assert_eq!(checker.names(), vec!["first", "second"]);
        assert_eq!(checker.len(), 2);
        assert!(!checker.is_empty());
    }

    fn owned(edges: &[(&str, &str)]) -> Vec<(String, String)> {
        edges
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn acyclic_lock_order_passes() {
        // A diamond: strictly ordered, no cycle.
        let check = LockOrderCheck::new(
            "lockdep",
            owned(&[
                ("pool/state", "pool/dispatch"),
                ("pool/state", "comm/barrier"),
                ("pool/dispatch", "serve/job/state"),
                ("comm/barrier", "serve/job/state"),
            ]),
        );
        let mut report = Report::new();
        check.run(&mut report);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn abba_cycle_is_reported_with_its_path() {
        let check = LockOrderCheck::new("lockdep", owned(&[("a", "b"), ("b", "a"), ("a", "c")]));
        let mut report = Report::new();
        check.run(&mut report);
        assert_eq!(report.len(), 1, "exactly the one cycle: {report}");
        assert!(report.has(Invariant::LockOrderAcyclic));
        let text = report.to_string();
        assert!(
            text.contains("a -> b -> a") || text.contains("b -> a -> b"),
            "the cycle path must be spelled out: {text}"
        );
    }

    #[test]
    fn empty_lock_graph_is_trivially_acyclic() {
        let mut report = Report::new();
        LockOrderCheck::new("lockdep", Vec::new()).run(&mut report);
        assert!(report.is_ok());
    }
}
