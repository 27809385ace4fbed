//! Batched vs. looped-single-slice bit-identity: column `j` of
//! `A · [x₁ … xₖ]` must equal `A · xⱼ` bitwise for all three kernel
//! families (CSR, buffered u16/u32, ELL), serial and pooled, at 1/2/4
//! worker threads. The buffered kernel cuts a batch into slice blocks of
//! 8, 4 and 1, so its widths cover every decomposition up to two full
//! blocks, and its columns are also pinned to a plainly-written staged
//! reference — its SpMV is the same kernel at width 1.

use xct_runtime::WorkerPool;
use xct_sparse::lanes::row_dot_ref;
use xct_sparse::{
    csr_plan, deinterleave, interleave, spmm_into, spmm_pooled_into, spmv_into, BufferIndex,
    BufferedCsrImpl, CsrMatrix, EllMatrix,
};

/// A matrix with skewed row lengths (rows shorter and longer than the 8
/// lanes), empty rows, and enough rows to span several partitions — the
/// last one partial at partition size 32 — and a CSR SpMM row tile.
fn matrix() -> CsrMatrix {
    let ncols = 96u32;
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    for i in 0..400usize {
        let nnz = match i % 7 {
            0 => 0,
            1 => 13,
            2 => 1,
            3 => 37,
            _ => 4,
        };
        // BTreeMap dedups and sorts the columns, as CSR rows require.
        let mut row = std::collections::BTreeMap::new();
        for k in 0..nnz {
            let c = ((i * 31 + k * 17) % ncols as usize) as u32;
            row.insert(c, ((i * 7 + k) as f32 * 0.113).sin());
        }
        rows.push(row.into_iter().collect());
    }
    CsrMatrix::from_rows(ncols as usize, &rows)
}

fn rhs(ncols: usize, batch: usize) -> Vec<f32> {
    (0..ncols * batch)
        .map(|i| ((i * 53 + 7) % 211) as f32 * 0.0091 - 0.7)
        .collect()
}

/// The slice-interleaved form of the slice-major `x` (`batch` slices).
fn interleaved(x: &[f32], batch: usize) -> Vec<f32> {
    let mut out = vec![0f32; x.len()];
    interleave(x, &mut out, batch);
    out
}

/// The slice-major form of the slice-interleaved `y` (`batch` slices).
fn slice_major(y: &[f32], batch: usize) -> Vec<f32> {
    let mut out = vec![0f32; y.len()];
    deinterleave(y, &mut out, batch);
    out
}

fn assert_bitwise(got: &[f32], want: &[f32], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{tag}: element {i}: {g} vs {w}");
    }
}

#[test]
fn csr_spmm_columns_equal_spmv_serial_and_pooled() {
    let a = matrix();
    for batch in [1usize, 2, 4, 16] {
        let x = rhs(a.ncols(), batch);
        // Serial reference per slice.
        let mut want = vec![0f32; a.nrows() * batch];
        for j in 0..batch {
            spmv_into(
                &a,
                &x[j * a.ncols()..(j + 1) * a.ncols()],
                &mut want[j * a.nrows()..(j + 1) * a.nrows()],
            );
        }
        let mut y = vec![0f32; a.nrows() * batch];
        spmm_into(&a, &interleaved(&x, batch), &mut y, batch);
        assert_bitwise(
            &slice_major(&y, batch),
            &want,
            &format!("csr serial k={batch}"),
        );
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let plan = csr_plan(&a, workers);
            let mut y = vec![0f32; a.nrows() * batch];
            spmm_pooled_into(&a, &interleaved(&x, batch), &mut y, batch, &plan, &pool);
            let y = slice_major(&y, batch);
            assert_bitwise(&y, &want, &format!("csr pooled k={batch} w={workers}"));
        }
    }
}

/// Every slice-block decomposition up to two full blocks: 1s only, 4+1s,
/// 8, 8+1, 8+4, 8+4+1, 8+8.
const BUFFERED_BATCHES: [usize; 11] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16];

/// The buffered layout under test: 32-row partitions (the 400-row
/// matrix leaves a partial last one) staged through 16 slots, so a
/// partition's footprint of up to 96 columns takes several stages and
/// most `(stage, row)` runs are short or empty.
fn buffered<I: BufferIndex>(a: &CsrMatrix) -> BufferedCsrImpl<I> {
    let b = BufferedCsrImpl::<I>::from_csr(a, 32, 16);
    assert!(b.num_stages() >= 3 * b.num_partitions(), "want multi-stage");
    assert!(
        !b.nrows().is_multiple_of(b.partsize()),
        "want a partial last partition"
    );
    let runs = b.entry_displ().windows(2);
    assert!(runs.clone().any(|d| d[0] == d[1]), "want an empty run");
    assert!(
        runs.clone().any(|d| d[1] - d[0] >= 8),
        "want a full lane group"
    );
    b
}

/// Plainly-written model of the buffered kernel's order, through the
/// public accessors: per row, stages ascending, each `(stage, row)` run
/// reduced in lane order and added to the row.
fn staged_ref<I: BufferIndex>(b: &BufferedCsrImpl<I>, x: &[f32]) -> Vec<f32> {
    let partsize = b.partsize();
    (0..b.nrows())
        .map(|i| {
            let p = i / partsize;
            let stages = b.partdispl()[p] as usize..b.partdispl()[p + 1] as usize;
            stages.fold(0f32, |acc, stage| {
                let run = b.run(stage, i);
                let cols: Vec<u32> = b.entry_ind()[run.clone()]
                    .iter()
                    .map(|ix| b.stage_map()[b.stagedispl()[stage] + ix.to_usize()])
                    .collect();
                acc + row_dot_ref(&cols, &b.entry_val()[run], x)
            })
        })
        .collect()
}

/// [`staged_ref`] of each slice of the slice-major `x`, back to back.
fn staged_ref_slices<I: BufferIndex>(b: &BufferedCsrImpl<I>, x: &[f32]) -> Vec<f32> {
    x.chunks(b.ncols())
        .flat_map(|xs| staged_ref(b, xs))
        .collect()
}

/// Slice `j`'s SpMV for each slice of the slice-major `x`, back to back.
fn looped_spmv<I: BufferIndex>(b: &BufferedCsrImpl<I>, x: &[f32], batch: usize) -> Vec<f32> {
    let mut want = vec![0f32; b.nrows() * batch];
    for (xs, ys) in x.chunks(b.ncols()).zip(want.chunks_mut(b.nrows())) {
        b.spmv_into(xs, ys);
    }
    want
}

fn buffered_columns_equal_spmv<I: BufferIndex>(tag: &str) {
    let a = matrix();
    let b = buffered::<I>(&a);
    for batch in BUFFERED_BATCHES {
        let x = rhs(a.ncols(), batch);
        let want = looped_spmv(&b, &x, batch);
        for (j, (xs, ws)) in x.chunks(a.ncols()).zip(want.chunks(a.nrows())).enumerate() {
            assert_bitwise(ws, &staged_ref(&b, xs), &format!("{tag} spmv vs ref s{j}"));
        }
        let mut y = vec![0f32; a.nrows() * batch];
        b.spmm_into(&interleaved(&x, batch), &mut y, batch);
        assert_bitwise(
            &slice_major(&y, batch),
            &want,
            &format!("{tag} serial k={batch}"),
        );
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let plan = b.exec_plan(workers);
            let mut y = vec![0f32; a.nrows() * batch];
            b.spmm_pooled_into(&interleaved(&x, batch), &mut y, batch, &plan, &pool);
            let y = slice_major(&y, batch);
            assert_bitwise(&y, &want, &format!("{tag} pooled k={batch} w={workers}"));
        }
    }
}

#[test]
fn buffered_spmm_columns_equal_spmv_serial_and_pooled() {
    buffered_columns_equal_spmv::<u16>("buffered-u16");
    buffered_columns_equal_spmv::<u32>("buffered-u32");
}

/// A slice full of NaN and ±Inf shares staging slots and accumulator
/// registers with its block neighbours; none of it may leak into them.
#[test]
fn buffered_spmm_isolates_a_poisoned_slice() {
    let a = matrix();
    let b = buffered::<u16>(&a);
    let pool = WorkerPool::new(2);
    let plan = b.exec_plan(2);
    for batch in [8usize, 13] {
        for poisoned in 0..batch {
            let mut x = rhs(a.ncols(), batch);
            for (i, v) in x[poisoned * a.ncols()..][..a.ncols()]
                .iter_mut()
                .enumerate()
            {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
            }
            let want = looped_spmv(&b, &x, batch);
            let mut serial = vec![0f32; a.nrows() * batch];
            b.spmm_into(&interleaved(&x, batch), &mut serial, batch);
            let serial = slice_major(&serial, batch);
            let mut pooled = vec![0f32; a.nrows() * batch];
            b.spmm_pooled_into(&interleaved(&x, batch), &mut pooled, batch, &plan, &pool);
            let pooled = slice_major(&pooled, batch);
            for j in 0..batch {
                let col = j * a.nrows()..(j + 1) * a.nrows();
                let tag = format!("k={batch} poisoned={poisoned} column {j}");
                if j == poisoned {
                    // NaN payloads are not pinned; NaN-ness per row is.
                    let nan = |v: &[f32]| v.iter().map(|f| f.is_nan()).collect::<Vec<_>>();
                    assert!(nan(&want[col.clone()]).contains(&true), "{tag}: no NaN");
                    assert_eq!(nan(&serial[col.clone()]), nan(&want[col.clone()]), "{tag}");
                    assert_eq!(nan(&pooled[col.clone()]), nan(&want[col]), "{tag}");
                } else {
                    assert!(want[col.clone()].iter().all(|f| f.is_finite()), "{tag}");
                    assert_bitwise(&serial[col.clone()], &want[col.clone()], &tag);
                    assert_bitwise(&pooled[col.clone()], &want[col], &tag);
                }
            }
        }
    }
}

/// Columns only [`boundary_matrix`]'s poisoned rows touch; `x` holds NaN
/// and ±Inf there.
const POISON_COLS: std::ops::Range<usize> = 40..64;

/// Run-boundary specimen: clean rows of every length `0..=24` (each tail
/// length × 0–3 full lane groups), rotated so the *last* one — whose run
/// ends exactly at the end of `ind`/`val` — has length `last`, each pair
/// separated by a seven-entry poisoned row. The kernel's tail always
/// takes seven steps, so a clean run's dead steps land on the
/// neighbouring poisoned run: NaN, ±Inf and −0.0 values times staging
/// slots that hold NaN and ±Inf. The first run starts at offset 0.
fn boundary_matrix(last: usize) -> CsrMatrix {
    let poison = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        1.0,
        f32::NAN,
        -0.0,
    ];
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    for i in 0..25usize {
        if i > 0 {
            let at = POISON_COLS.start + i % 17;
            rows.push((0..7).map(|k| ((at + k) as u32, poison[k])).collect());
        }
        let len = (last + 1 + i) % 25;
        rows.push(
            (0..len)
                .map(|k| (((i + k) % 40) as u32, ((i * 29 + k) as f32 * 0.37).sin()))
                .collect(),
        );
    }
    assert_eq!(rows.last().map(Vec::len), Some(last));
    CsrMatrix::from_rows(POISON_COLS.end, &rows)
}

fn boundary_rhs(ncols: usize, batch: usize) -> Vec<f32> {
    let mut x = rhs(ncols, batch);
    for (i, v) in x.iter_mut().enumerate() {
        if POISON_COLS.contains(&(i % ncols)) {
            *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i % 3];
        }
    }
    x
}

/// Bitwise on the clean (even) rows; the poisoned (odd) rows must be NaN
/// on both sides — payloads are not pinned.
fn assert_boundary_rows(got: &[f32], want: &[f32], nrows: usize, tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (i % nrows).is_multiple_of(2) {
            assert!(w.is_finite(), "{tag}: clean row {i} poisoned: {w}");
            assert_eq!(g.to_bits(), w.to_bits(), "{tag}: element {i}: {g} vs {w}");
        } else {
            assert!(g.is_nan() && w.is_nan(), "{tag}: element {i}: {g} vs {w}");
        }
    }
}

fn buffered_run_boundaries<I: BufferIndex>(tag: &str) {
    for last in 0..25usize {
        let a = boundary_matrix(last);
        // One stage a partition, so a row is one run; 13 partitions, the
        // last of one row.
        let b = BufferedCsrImpl::<I>::from_csr(&a, 4, 64);
        assert!(b.num_stages() <= b.num_partitions(), "want one run a row");
        for batch in [1usize, 4, 8, 13] {
            let tag = format!("{tag} last={last} k={batch}");
            let x = boundary_rhs(a.ncols(), batch);
            let want = staged_ref_slices(&b, &x);
            let mut y = vec![0f32; a.nrows() * batch];
            b.spmm_into(&interleaved(&x, batch), &mut y, batch);
            let y = slice_major(&y, batch);
            assert_boundary_rows(&y, &want, a.nrows(), &format!("{tag} serial"));
            for workers in [1usize, 2, 4] {
                let pool = WorkerPool::new(workers);
                let plan = b.exec_plan(workers);
                let mut y = vec![0f32; a.nrows() * batch];
                // Twice: the second call's dead steps read slots the
                // first one left behind.
                for _ in 0..2 {
                    b.spmm_pooled_into(&interleaved(&x, batch), &mut y, batch, &plan, &pool);
                    let y = slice_major(&y, batch);
                    assert_boundary_rows(&y, &want, a.nrows(), &format!("{tag} w={workers}"));
                }
            }
        }
    }
}

/// Every run length, every neighbour: a dead tail step must not poison
/// its row, whatever it reads.
#[test]
fn buffered_runs_of_every_length_ignore_their_neighbours() {
    buffered_run_boundaries::<u16>("boundary-u16");
    buffered_run_boundaries::<u32>("boundary-u32");
}

/// A run whose products are all −0.0 sums to +0.0 (the lanes start at
/// +0.0), whatever its length and however many tail steps are dead.
#[test]
fn buffered_rows_of_negative_zero_products_stay_positive_zero() {
    let rows: Vec<Vec<(u32, f32)>> = (0..25usize)
        .map(|len| (0..len).map(|k| (k as u32, -0.0)).collect())
        .collect();
    let a = CsrMatrix::from_rows(24, &rows);
    let b = BufferedCsrImpl::<u16>::from_csr(&a, 4, 64);
    for batch in [1usize, 4, 8] {
        let x = vec![1.5f32; a.ncols() * batch];
        let want = staged_ref_slices(&b, &x);
        assert!(want.iter().all(|w| w.to_bits() == 0), "reference: +0.0");
        let mut y = vec![f32::NAN; a.nrows() * batch];
        b.spmm_into(&interleaved(&x, batch), &mut y, batch);
        let y = slice_major(&y, batch);
        assert_bitwise(&y, &want, &format!("negative zeros k={batch}"));
    }
}

/// The pool's per-worker scratch is sized by the widest block it has
/// seen and never shrinks: narrower calls afterwards must not read what
/// a wider one left behind.
#[test]
fn buffered_spmm_reuses_pool_scratch_across_widths() {
    let a = matrix();
    let b = buffered::<u16>(&a);
    for workers in [1usize, 2, 4] {
        let plan = b.exec_plan(workers);
        let used = WorkerPool::new(workers);
        let x8 = rhs(a.ncols(), 8);
        let x8 = interleaved(&x8, 8);
        b.spmm_pooled_into(&x8, &mut vec![0f32; a.nrows() * 8], 8, &plan, &used);
        for batch in [1usize, 5] {
            // A right-hand side unlike the one the scratch last held.
            let x: Vec<f32> = rhs(a.ncols(), batch).iter().map(|v| 1.5 - v).collect();
            let xi = interleaved(&x, batch);
            let mut fresh = vec![0f32; a.nrows() * batch];
            b.spmm_pooled_into(&xi, &mut fresh, batch, &plan, &WorkerPool::new(workers));
            let mut reused = vec![0f32; a.nrows() * batch];
            b.spmm_pooled_into(&xi, &mut reused, batch, &plan, &used);
            assert_bitwise(&reused, &fresh, &format!("k={batch} w={workers} after k=8"));
            let reused = slice_major(&reused, batch);
            assert_bitwise(&reused, &looped_spmv(&b, &x, batch), "vs spmv");
        }
    }
}

#[test]
fn ell_spmm_columns_equal_spmv_serial_and_pooled() {
    let a = matrix();
    let ell = EllMatrix::from_csr(&a, 32);
    for batch in [1usize, 2, 4] {
        let x = rhs(a.ncols(), batch);
        let mut want = vec![0f32; a.nrows() * batch];
        for j in 0..batch {
            ell.spmv_into(
                &x[j * a.ncols()..(j + 1) * a.ncols()],
                &mut want[j * a.nrows()..(j + 1) * a.nrows()],
            );
        }
        let mut y = vec![0f32; a.nrows() * batch];
        ell.spmm_into(&interleaved(&x, batch), &mut y, batch);
        assert_bitwise(
            &slice_major(&y, batch),
            &want,
            &format!("ell serial k={batch}"),
        );
        for workers in [1usize, 2, 4] {
            let pool = WorkerPool::new(workers);
            let plan = ell.exec_plan(workers);
            let mut y = vec![0f32; a.nrows() * batch];
            ell.spmm_pooled_into(&interleaved(&x, batch), &mut y, batch, &plan, &pool);
            let y = slice_major(&y, batch);
            assert_bitwise(&y, &want, &format!("ell pooled k={batch} w={workers}"));
        }
    }
}
