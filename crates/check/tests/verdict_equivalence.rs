//! Verdict equivalence of the linear-time fast paths.
//!
//! `CsrCheck` and `BufferedCheck` prove the clean case in one pass over
//! their structure, `TransposeCheck` with one cursor walk; anything
//! suspicious falls through to the passes that decided every case
//! before, which alone write the report. The expected lines below were
//! recorded from those passes, before each screen existed: each
//! corruption must still produce exactly the same report — invariant,
//! location and message — and odd inputs that are clean (a duplicated
//! source column that the layout reproduces faithfully, a stage-major
//! row out of stage order, two entries swapped within one stage's run,
//! which only the reporter's multiset comparison proves) must still come
//! out clean.

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

/// `b` after `mutate` changes its entry arrays.
fn with_entries(b: &BufferedCsr, mutate: impl FnOnce(&mut Entries)) -> BufferedCsr {
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

/// The specimen's layout (partsize 2, buffsize 2: partition 0 spans two
/// stages) after `mutate`.
fn corrupted_layout(mutate: impl FnOnce(&mut Entries)) -> BufferedCsr {
    with_entries(&BufferedCsr::from_csr(&specimen(), 2, 2), mutate)
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
fn out_of_range_column_in_an_ascending_row() {
    // At's row 0 is [0, 3]; make it [0, 7]: still ascending, so only the
    // last column's bound tells.
    let t = specimen().transpose_scan();
    let mut colind = t.colind().to_vec();
    assert_eq!(&colind[..2], [0, 3], "specimen transpose changed");
    colind[1] = 7;
    let at = CsrMatrix::from_raw_unchecked(
        t.nrows(),
        t.ncols(),
        t.rowptr().to_vec(),
        colind,
        t.values().to_vec(),
    );
    assert_eq!(
        lines(CsrCheck::new("csr(At)", &at).require_sorted_columns()),
        [
            "CheckViolation[ColumnBounds] csr(At) at entry 1: column 7 out of 0..5 \
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
    // Row 4 repeats column 2, and the layout holds it twice in order:
    // the screen meets both, as the reporter's multisets would.
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

/// The specimen's layout at a buffer that holds every partition's
/// footprint in one stage, so each row is one run in the source's order.
fn in_order_layout(a: &CsrMatrix) -> BufferedCsr {
    let b = BufferedCsr::from_csr(a, 2, 8);
    assert!((0..b.num_partitions()).all(|p| b.stages_of_partition(p) == 1));
    b
}

#[test]
fn in_order_layout_with_a_local_index_past_its_footprint() {
    // Partition 0 (rows 0 and 1) gathers columns {0, 1, 3, 5}: local
    // index 4 is one past its footprint but inside the 8-slot buffer.
    let corrupted = with_entries(&in_order_layout(&specimen()), |e| {
        assert_eq!(&e.ind[..4], [0, 2, 3, 1], "specimen layout changed");
        e.ind[1] = 4;
    });
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &corrupted).with_source(&specimen())),
        [
            "CheckViolation[BufferLocalBounds] buffered(A) at stage 0, entry 1: \
          buffer-local index 4 outside footprint 4 \
          (fix: rebuild; indices must address the gathered stage window)"
        ]
    );
}

#[test]
fn non_finite_layout_value_with_its_sources_bits() {
    // The layout reproduces the source bit for bit, infinity included:
    // the entry comparison would pass, the finiteness check must not.
    let a = csr_with(|_, _, values| values[4] = f32::INFINITY);
    let b = in_order_layout(&a);
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        [
            "CheckViolation[ValueFinite] buffered(A) at entry 4: value inf is not finite \
          (fix: check the source matrix values)"
        ]
    );
    // Two stages: the same entry, first of partition 1's stage-0 runs.
    let b = BufferedCsr::from_csr(&a, 2, 2);
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        [
            "CheckViolation[ValueFinite] buffered(A) at entry 4: value inf is not finite \
          (fix: check the source matrix values)"
        ]
    );
}

#[test]
fn multi_stage_layout_out_of_stage_order() {
    // Row 0 visits column 3 (stage 1 of a two-slot buffer) before
    // columns 0 and 1 (stage 0): its runs, stage by stage, are not the
    // source's order, and the rows do not ascend, so the runs are
    // stage-major.
    let a = CsrMatrix::from_rows(4, &[vec![(3, 1.0), (0, 2.0), (1, 3.0)], vec![(2, 4.0)]]);
    let b = BufferedCsr::from_csr(&a, 2, 2);
    assert_eq!(b.stages_of_partition(0), 2);
    assert!(!b.row_major_runs());
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        Vec::<String>::new()
    );
    // One flipped bit in it is still named by its row.
    let corrupted = with_entries(&b, |e| e.val[2] = f32::from_bits(e.val[2].to_bits() ^ 1));
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &corrupted).with_source(&a)),
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 0: layout reproduces 3 \
          entries, source row has 3 (same count, different content) \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn out_of_range_column_and_nan_in_different_rows() {
    // Entry 3 is row 1's only entry, entry 6 row 3's last.
    let a = csr_with(|_, colind, values| {
        colind[3] = 60;
        values[6] = f32::NAN;
    });
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[ColumnBounds] csr(A) at entry 3: column 60 out of 0..6 \
             (fix: re-trace the geometry; columns must index the input domain)",
            "CheckViolation[ValueFinite] csr(A) at entry 6: value NaN is not finite \
             (fix: check intersection-length computation for degenerate rays)",
        ]
    );
}

#[test]
fn non_monotone_rowptr() {
    // The specimen's rowptr is [0, 3, 4, 4, 7, 9]. Row 0 ending past
    // nnz, and row 2 ending before it starts.
    let a = csr_with(|rowptr, _, _| rowptr[1] = 100);
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a)),
        [
            "CheckViolation[RowPtrMonotone] csr(A) at row 1: rowptr[1]=100 > rowptr[2]=4 \
          (fix: recompute the row pointer prefix sums)"
        ]
    );
    let a = csr_with(|rowptr, _, _| rowptr[3] = 2);
    assert_eq!(
        lines(CsrCheck::new("csr(A)", &a).require_sorted_columns()),
        [
            "CheckViolation[RowPtrMonotone] csr(A) at row 2: rowptr[2]=4 > rowptr[3]=2 \
          (fix: recompute the row pointer prefix sums)"
        ]
    );
}

/// `rows` laid out at partitions of two rows and a two-slot buffer, from
/// raw arrays (a repeated column included): every partition whose
/// footprint passes two columns splits, and a row that does not ascend
/// makes the runs stage-major.
fn stage_major_layout(ncols: usize, rows: &[Vec<(u32, f32)>]) -> (CsrMatrix, BufferedCsr) {
    let mut rowptr = vec![0];
    let (mut colind, mut values) = (Vec::new(), Vec::new());
    for row in rows {
        colind.extend(row.iter().map(|e| e.0));
        values.extend(row.iter().map(|e| e.1));
        rowptr.push(colind.len());
    }
    let a = CsrMatrix::from_raw_unchecked(rows.len(), ncols, rowptr, colind, values);
    let b = BufferedCsr::from_csr(&a, 2, 2);
    assert!(b.stages_of_partition(0) >= 2 && !b.row_major_runs());
    (a, b)
}

#[test]
fn stage_major_row_repeating_a_column_reproduced_faithfully_is_clean() {
    // Row 0 visits column 3 (stage 1) twice, around column 0 (stage 0).
    let (a, b) = stage_major_layout(
        4,
        &[vec![(3, 1.0), (0, 2.0), (3, 5.0), (1, 3.0)], vec![(2, 4.0)]],
    );
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        Vec::<String>::new()
    );
}

#[test]
fn two_entries_of_a_stage_run_swapped_is_clean() {
    // Row 0's stage-0 run holds columns 0 and 1, entries 0 and 1: the row
    // still holds the same entries, only their order within the run moved.
    let (a, b) = stage_major_layout(4, &[vec![(3, 1.0), (0, 2.0), (1, 3.0)], vec![(2, 4.0)]]);
    let swapped = with_entries(&b, |e| {
        assert_eq!(&e.displ[..2], [0, 2], "layout changed");
        e.ind.swap(0, 1);
        e.val.swap(0, 1);
    });
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &swapped).with_source(&a)),
        Vec::<String>::new()
    );
}

#[test]
fn nan_with_its_sources_bits_in_a_later_stages_run() {
    // Row 0's stage-1 run is columns 3 then 2 (entries 2 and 3), the NaN
    // second; the layout reproduces the source bit for bit.
    let (a, b) = stage_major_layout(
        4,
        &[
            vec![(3, 1.0), (0, 2.0), (2, f32::NAN), (1, 3.0)],
            vec![(2, 4.0)],
        ],
    );
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &b).with_source(&a)),
        [
            "CheckViolation[ValueFinite] buffered(A) at entry 3: value NaN is not finite \
          (fix: check the source matrix values)"
        ]
    );
}

#[test]
fn stage_major_entry_moved_into_another_rows_run() {
    // Stages {0, 1} and {3}: row 0's stage-1 run is column 3 (entry 3),
    // row 1 has no stage-1 entry. End row 0's run one early, so row 1's
    // swallows it: each row still meets its own entries in order, and
    // only the runs' ends tell.
    let (a, b) = stage_major_layout(4, &[vec![(3, 1.0), (0, 2.0), (1, 3.0)], vec![(0, 4.0)]]);
    let moved = with_entries(&b, |e| {
        assert_eq!(e.displ, [0, 2, 3, 4, 4], "layout changed");
        e.displ[3] = 3;
    });
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &moved).with_source(&a)),
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 0: layout reproduces 2 \
          entries, source row has 3 \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn local_index_past_a_last_stage_reads_the_next_partitions_column() {
    // One-row partitions, a one-slot buffer: partition 0 (row 0, columns
    // 1 then 0) gathers column 0, then column 1; partition 1 gathers
    // column 1 again. Row 0's stage-1 index 1 is past its footprint, and
    // the map slot it names holds the very column it should gather.
    let a = CsrMatrix::from_rows(2, &[vec![(1, 1.0), (0, 2.0)], vec![(1, 3.0)]]);
    let b = BufferedCsr::from_csr(&a, 1, 1);
    assert!(!b.row_major_runs());
    let corrupted = with_entries(&b, |e| {
        assert_eq!(b.stage_map(), [0, 1, 1], "layout changed");
        assert_eq!(e.ind, [0, 0, 0], "layout changed");
        e.ind[1] = 1;
    });
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &corrupted).with_source(&a)),
        [
            "CheckViolation[BufferLocalBounds] buffered(A) at stage 1, entry 1: \
          buffer-local index 1 outside footprint 1 \
          (fix: rebuild; indices must address the gathered stage window)"
        ]
    );
}

#[test]
fn stage_major_run_with_an_extra_entry() {
    // Row 1's stage-1 run, the last of the layout, holds its one entry
    // twice: every source entry is met, and only the run's end tells.
    let (a, b) = stage_major_layout(4, &[vec![(3, 1.0), (0, 2.0), (1, 3.0)], vec![(2, 4.0)]]);
    let extra = with_entries(&b, |e| {
        assert_eq!(e.displ, [0, 2, 2, 3, 4], "layout changed");
        e.ind.push(e.ind[3]);
        e.val.push(e.val[3]);
        e.displ[4] = 5;
    });
    assert_eq!(
        lines(BufferedCheck::new("buffered(A)", &extra).with_source(&a)),
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 1: layout reproduces 2 \
          entries, source row has 1 \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}

#[test]
fn padding_row_with_an_entry() {
    // The specimen's last partition holds row 4 and padding row 5, whose
    // run ends the layout: append a copy of row 4's last entry to it.
    let lines = buffered_lines(|e| {
        let (&k, last) = (e.displ.last().unwrap(), e.displ.len() - 1);
        assert_eq!(e.displ[last - 1], k, "padding row's run is not empty");
        e.ind.push(e.ind[k - 1]);
        e.val.push(e.val[k - 1]);
        e.displ[last] = k + 1;
    });
    assert_eq!(
        lines,
        [
            "CheckViolation[BufferedEntries] buffered(A) at row 5: layout reproduces 1 \
          entries, source row has 0 \
          (fix: rebuild with BufferedCsrImpl::try_from_csr)"
        ]
    );
}
