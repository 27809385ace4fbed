//! Verdict equivalence of the linear-time fast paths.
//!
//! `CsrCheck`, `TransposeCheck` and `BufferedCheck` decide the clean case
//! with dense tables and cursors, and hand anything suspicious to the
//! sort-based comparison that decided every case before. The expected
//! lines below were recorded from that sort-based implementation: each
//! corruption must still produce exactly the same report — invariant,
//! location and message — and the odd inputs the fast paths cannot prove
//! clean (a duplicated source column that the layout reproduces faithfully)
//! must still come out clean.

use xct_check::{BufferedCheck, Check, CsrCheck, Report, TransposeCheck};
use xct_sparse::{BufferedCsr, BufferedCsrImpl, CsrMatrix};

/// 5x6, 9 nnz, an empty row, and an unsorted row (row 4: column 2 before
/// column 1 — ray-traversal order).
fn specimen() -> CsrMatrix {
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

fn lines(check: impl Check) -> Vec<String> {
    let mut report = Report::new();
    check.run(&mut report);
    report.violations().iter().map(|v| v.to_string()).collect()
}

fn csr_with(mutate: impl FnOnce(&mut Vec<usize>, &mut Vec<u32>, &mut Vec<f32>)) -> CsrMatrix {
    let a = specimen();
    let (mut rowptr, mut colind, mut values) = (
        a.rowptr().to_vec(),
        a.colind().to_vec(),
        a.values().to_vec(),
    );
    mutate(&mut rowptr, &mut colind, &mut values);
    CsrMatrix::from_raw_unchecked(a.nrows(), a.ncols(), rowptr, colind, values)
}

/// The entry arrays a buffered-layout corruption may touch.
struct Entries {
    displ: Vec<usize>,
    ind: Vec<u16>,
    val: Vec<f32>,
}

/// The specimen's layout (partsize 2, buffsize 2: partition 0 spans two
/// stages) after `mutate`.
fn corrupted_layout(mutate: impl FnOnce(&mut Entries)) -> BufferedCsr {
    let b = BufferedCsr::from_csr(&specimen(), 2, 2);
    let mut e = Entries {
        displ: b.entry_displ().to_vec(),
        ind: b.entry_ind().to_vec(),
        val: b.entry_val().to_vec(),
    };
    mutate(&mut e);
    BufferedCsrImpl::from_raw_parts_unchecked(
        b.nrows(),
        b.ncols(),
        b.partsize(),
        b.buffsize(),
        b.nnz(),
        b.partdispl().to_vec(),
        b.stagedispl().to_vec(),
        b.stage_map().to_vec(),
        e.displ,
        b.row_major_runs(),
        e.ind,
        e.val,
    )
}

/// Report of [`corrupted_layout`] against the specimen.
fn buffered_lines(mutate: impl FnOnce(&mut Entries)) -> Vec<String> {
    let corrupted = corrupted_layout(mutate);
    lines(BufferedCheck::new("buffered(A)", &corrupted).with_source(&specimen()))
}

#[test]
fn uncorrupted_specimens_are_clean() {
    let a = specimen();
    let at = a.transpose_scan();
    assert_eq!(lines(CsrCheck::new("csr(A)", &a)), Vec::<String>::new());
    assert_eq!(
        lines(CsrCheck::new("csr(At)", &at).require_sorted_columns()),
        Vec::<String>::new()
    );
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        Vec::<String>::new()
    );
    assert_eq!(buffered_lines(|_| {}), Vec::<String>::new());
}

#[test]
fn duplicate_column_in_an_unsorted_row() {
    // Row 4 is [2, 1]; make it [2, 2].
    let a = csr_with(|_, colind, _| colind[8] = 2);
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[DuplicateColumn] csr(A) at row 4: column 2 stored twice \
          (fix: merge duplicate entries during tracing)"
        ]
    );
}

#[test]
fn duplicate_column_in_a_sorted_row() {
    // Row 0 is [0, 3, 5]; make it [0, 3, 3] — ascending, not strictly.
    let a = csr_with(|_, colind, _| colind[2] = 3);
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[DuplicateColumn] csr(A) at row 0: column 3 stored twice \
          (fix: merge duplicate entries during tracing)"
        ]
    );
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a).require_sorted_columns()),
        [
            "CheckViolation[ColumnSorted] csr(A) at row 0: columns 3 then 3 at slot 1 \
             (fix: sort row entries by column)",
            "CheckViolation[DuplicateColumn] csr(A) at row 0: column 3 stored twice \
             (fix: merge duplicate entries during tracing)",
            "CheckViolation[ColumnSorted] csr(A) at row 4: columns 2 then 1 at slot 0 \
             (fix: sort row entries by column)",
        ]
    );
}

#[test]
fn out_of_range_column() {
    // In the unsorted row, so the stamp table is asked about column 60 of
    // 6: no duplicate, only the bounds violation.
    let a = csr_with(|_, colind, _| colind[7] = 60);
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[ColumnBounds] csr(A) at entry 7: column 60 out of 0..6 \
          (fix: re-trace the geometry; columns must index the input domain)"
        ]
    );
    // Twice in that row: out of range *and* duplicated.
    let a = csr_with(|_, colind, _| {
        colind[7] = 60;
        colind[8] = 60;
    });
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[ColumnBounds] csr(A) at entry 7: column 60 out of 0..6 \
             (fix: re-trace the geometry; columns must index the input domain)",
            "CheckViolation[ColumnBounds] csr(A) at entry 8: column 60 out of 0..6 \
             (fix: re-trace the geometry; columns must index the input domain)",
            "CheckViolation[DuplicateColumn] csr(A) at row 4: column 60 stored twice \
             (fix: merge duplicate entries during tracing)",
        ]
    );
}

/// An `A` storing a column past `ncols` has no transpose: the pair check
/// skips it, as it skips a non-traversable source, instead of panicking
/// in `transpose_scan`, and `CsrCheck` names the entry.
#[test]
fn out_of_range_column_skips_the_transpose_pair() {
    // Row 0 is [0, 3, 5]; make it [0, 3, 9], still ascending.
    let a = csr_with(|_, colind, _| colind[2] = 9);
    let at = specimen().transpose_scan();
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        Vec::<String>::new()
    );
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[ColumnBounds] csr(A) at entry 2: column 9 out of 0..6 \
             (fix: re-trace the geometry; columns must index the input domain)"
        ]
    );
}

#[test]
fn flipped_value_bit_in_entry_val() {
    let got = buffered_lines(|e| e.val[5] = f32::from_bits(e.val[5].to_bits() ^ 1));
    assert_eq!(
        got,
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 3: layout reproduces 3 \
          entries, source row has 3 (same count, different content) \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn buffer_local_index_outside_its_footprint() {
    // Entry 5 lives in stage 2, whose footprint is two slots; 9 is
    // outside the footprint and outside the two-slot buffer.
    let corrupt = |e: &mut Entries| e.ind[5] = 9;
    assert_eq!(
        buffered_lines(corrupt),
        [
            "CheckViolation[BufferLocalBounds] buffered(A) at stage 2, entry 5: \
          buffer-local index 9 outside footprint 2 \
          (fix: rebuild; indices must address the gathered stage window)"
        ]
    );
    // The kernel masks staging reads into the buffer instead of checking
    // them per nonzero: memory-safe, result unspecified — the report
    // above is what stands between this layout and a solve.
    let b = corrupted_layout(corrupt);
    for batch in [1usize, 4, 8] {
        let mut y = vec![0f32; b.nrows() * batch];
        b.spmm_into(&vec![1.0; b.ncols() * batch], &mut y, batch);
        assert!(y.iter().all(|v| v.is_finite()), "finite in, finite out");
    }
}

#[test]
fn entry_moved_to_another_rows_run() {
    // Stage 0 of partition 0 holds row 0's columns {0} and row 1's {1}:
    // end row 0's run one entry early so row 1's run swallows it.
    let got = buffered_lines(|e| {
        assert_eq!(&e.displ[..3], [0, 1, 2], "specimen layout changed");
        e.displ[1] = 0;
    });
    assert_eq!(
        got,
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 0: layout reproduces 2 \
          entries, source row has 3 \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn dropped_entry() {
    // Remove the last stored entry (row 4's second) and close its run.
    let got = buffered_lines(|e| {
        e.ind.pop();
        e.val.pop();
        let end = e.ind.len();
        for d in e.displ.iter_mut() {
            *d = (*d).min(end);
        }
    });
    assert_eq!(
        got,
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 4: layout reproduces 1 \
          entries, source row has 2 \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn duplicated_source_column_reproduced_faithfully_is_clean() {
    // The fast path cannot tick a repeated column off twice; the sorted
    // comparison it falls through to sees equal multisets.
    let a = csr_with(|_, colind, _| colind[8] = 2);
    let b = BufferedCsr::from_csr(&a, 2, 2);
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        Vec::<String>::new()
    );
}

#[test]
fn two_at_entries_swapped_within_a_row() {
    // At row 0 holds A's column 0: (row 0, 1.0) then (row 3, 0.5).
    let a = specimen();
    let t = a.transpose_scan();
    let (mut colind, mut values) = (t.colind().to_vec(), t.values().to_vec());
    assert_eq!(&colind[..2], [0, 3], "specimen transpose changed");
    colind.swap(0, 1);
    values.swap(0, 1);
    let at =
        CsrMatrix::from_raw_unchecked(t.nrows(), t.ncols(), t.rowptr().to_vec(), colind, values);
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        [
            "CheckViolation[TransposeEntries] pair(A,At) at transposed row 0: At differs from \
          the scan transpose of A (fix: rebuild At with CsrMatrix::transpose_scan)"
        ]
    );
}

#[test]
fn one_at_value_perturbed() {
    let a = specimen();
    let t = a.transpose_scan();
    let mut values = t.values().to_vec();
    let last = values.len() - 1;
    values[last] += 1.0;
    let at = CsrMatrix::from_raw_unchecked(
        t.nrows(),
        t.ncols(),
        t.rowptr().to_vec(),
        t.colind().to_vec(),
        values,
    );
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        [
            "CheckViolation[TransposeEntries] pair(A,At) at transposed row 5: At differs from \
          the scan transpose of A (fix: rebuild At with CsrMatrix::transpose_scan)"
        ]
    );
}

#[test]
fn at_row_boundary_moved_between_equal_entries() {
    // A = [1 1], so At's rows are [(0, 1.0)] and [(0, 1.0)]; hand row 1
    // both. Every entry a cursor meets still matches what A holds — row
    // 0's cursor just runs past its (empty) row — so only the cursors'
    // final positions tell this At from the transpose.
    let a = CsrMatrix::from_rows(2, &[vec![(0, 1.0), (1, 1.0)]]);
    let t = a.transpose_scan();
    let (colind, values) = (t.colind().to_vec(), t.values().to_vec());
    let at = CsrMatrix::from_raw_unchecked(2, 1, vec![0, 0, 2], colind, values);
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        [
            "CheckViolation[TransposeEntries] pair(A,At) at transposed row 0: At differs from \
          the scan transpose of A (fix: rebuild At with CsrMatrix::transpose_scan)"
        ]
    );
}

#[test]
fn nan_in_both_matrices_still_fails_the_pair() {
    // `CsrMatrix: PartialEq` compares values with `==`, so a NaN never
    // equals its own transpose; the cursor walk must agree.
    let a = csr_with(|_, _, values| values[0] = f32::NAN);
    let at = a.transpose_scan();
    assert_eq!(
        lines(TransposeCheck::new("pair(A,At)", &a, &at)),
        [
            "CheckViolation[TransposeEntries] pair(A,At) at transposed row 0: At differs from \
          the scan transpose of A (fix: rebuild At with CsrMatrix::transpose_scan)"
        ]
    );
}
