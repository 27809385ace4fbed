//! Bit-identity of every vectorized kernel against its scalar reference.
//!
//! The vectorized kernels (ISSUE 9) commit to the deterministic lane
//! order specified by `xct_sparse::lanes`: 8 accumulator lanes filled
//! round-robin over each entry run, a fixed reduction tree, a sequential
//! tail. This suite recomputes every kernel family's expected output with
//! `row_dot_ref` — the plainly-written scalar model of that order — and
//! requires bitwise equality from the real kernels across
//! CSR/ELL/buffered × spmv/spmm × serial/pooled, thread counts 1/2/4,
//! and batch widths 1/4/16.
//!
//! Values are rounding-sensitive (irrational trig values), so any drift
//! in summation order fails loudly instead of rounding away.

use xct_runtime::WorkerPool;
use xct_sparse::lanes::row_dot_ref;
use xct_sparse::{
    csr_plan, spmm_into, spmm_pooled_into, spmv_into, spmv_pooled_into, BufferedCsr, BufferedCsr32,
    CsrMatrix, EllMatrix,
};

const THREADS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 3] = [1, 4, 16];

/// A rounding-sensitive test matrix: irregular row lengths (0–40 entries,
/// crossing the 8-lane boundary in every residue class), scattered
/// columns, irrational values. Large enough that pooled plans split it.
fn matrix() -> CsrMatrix {
    let ncols = 233usize;
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    for i in 0..311 {
        let n = (i * 17 + 5) % 41;
        let mut r: Vec<(u32, f32)> = (0..n)
            .map(|e| {
                let c = ((e * 53 + i * 29) % ncols) as u32;
                (c, ((i * 7 + e * 13) as f32 * 0.37).sin())
            })
            .collect();
        r.sort_by_key(|&(c, _)| c);
        r.dedup_by_key(|&mut (c, _)| c);
        rows.push(r);
    }
    CsrMatrix::from_rows(ncols, &rows)
}

fn xvec(ncols: usize, slice: usize) -> Vec<f32> {
    (0..ncols)
        .map(|i| ((i * 11 + slice * 97) as f32 * 0.23).cos())
        .collect()
}

/// Slice-interleaved batched right-hand side built from `xvec` slices.
fn xbatch(ncols: usize, batch: usize) -> Vec<f32> {
    let slices: Vec<Vec<f32>> = (0..batch).map(|j| xvec(ncols, j)).collect();
    (0..ncols * batch)
        .map(|i| slices[i % batch][i / batch])
        .collect()
}

/// Slice `j` of the slice-interleaved `batch`-wide slab `y`.
fn column(y: &[f32], batch: usize, j: usize) -> Vec<f32> {
    y.iter().skip(j).step_by(batch).copied().collect()
}

/// CSR reference: `row_dot_ref` over each row's stored entries.
fn csr_ref(a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    (0..a.nrows())
        .map(|i| {
            let (lo, hi) = (a.rowptr()[i], a.rowptr()[i + 1]);
            row_dot_ref(&a.colind()[lo..hi], &a.values()[lo..hi], x)
        })
        .collect()
}

/// ELL reference: per row, slot-ascending sequential accumulation over the
/// padded width (padding multiplies x[0] by 0, as the kernel does). The
/// 8-row-blocked kernel must preserve exactly this per-row order.
fn ell_ref(e: &EllMatrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0f32; e.nrows()];
    let mut base = 0usize;
    for p in 0..e.num_partitions() {
        let v = e.partition_view(p);
        for j in 0..v.rows {
            let mut acc = 0f32;
            for s in 0..v.width {
                acc += x[v.colind[s * v.rows + j] as usize] * v.values[s * v.rows + j];
            }
            y[base + j] = acc;
        }
        base += v.rows;
    }
    y
}

/// Buffered reference: per row, stages ascending; each stage's entry run
/// reduced in lane order (via the stage map back to global columns) and
/// added to the row's accumulator.
fn buffered_ref(b: &BufferedCsr, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0f32; b.nrows()];
    let partsize = b.partsize();
    for p in 0..b.num_partitions() {
        let rows = partsize.min(b.nrows() - p * partsize);
        for j in 0..rows {
            let i = p * partsize + j;
            let mut acc = 0f32;
            for stage in b.partdispl()[p] as usize..b.partdispl()[p + 1] as usize {
                let run = b.run(stage, i);
                let mlo = b.stagedispl()[stage];
                let cols: Vec<u32> = b.entry_ind()[run.clone()]
                    .iter()
                    .map(|&ix| b.stage_map()[mlo + ix as usize])
                    .collect();
                acc += row_dot_ref(&cols, &b.entry_val()[run], x);
            }
            y[i] = acc;
        }
    }
    y
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {i}: {g} vs {w}");
    }
}

#[test]
fn csr_serial_spmv_matches_lane_reference() {
    let a = matrix();
    let x = xvec(a.ncols(), 0);
    let want = csr_ref(&a, &x);
    let mut y = vec![0f32; a.nrows()];
    spmv_into(&a, &x, &mut y);
    assert_bits(&y, &want, "csr serial spmv");
}

#[test]
fn csr_pooled_spmv_matches_lane_reference_across_threads() {
    let a = matrix();
    let x = xvec(a.ncols(), 0);
    let want = csr_ref(&a, &x);
    for workers in THREADS {
        let pool = WorkerPool::new(workers);
        let plan = csr_plan(&a, workers);
        let mut y = vec![0f32; a.nrows()];
        spmv_pooled_into(&a, &x, &mut y, &plan, &pool);
        assert_bits(&y, &want, &format!("csr pooled spmv w{workers}"));
    }
}

#[test]
fn csr_spmm_matches_lane_reference_across_batches_and_threads() {
    let a = matrix();
    for batch in BATCHES {
        let x = xbatch(a.ncols(), batch);
        let mut y = vec![0f32; a.nrows() * batch];
        spmm_into(&a, &x, &mut y, batch);
        for j in 0..batch {
            let want = csr_ref(&a, &xvec(a.ncols(), j));
            assert_bits(
                &column(&y, batch, j),
                &want,
                &format!("csr serial spmm b{batch} s{j}"),
            );
        }
        for workers in THREADS {
            let pool = WorkerPool::new(workers);
            let plan = csr_plan(&a, workers);
            let mut y = vec![0f32; a.nrows() * batch];
            spmm_pooled_into(&a, &x, &mut y, batch, &plan, &pool);
            for j in 0..batch {
                let want = csr_ref(&a, &xvec(a.ncols(), j));
                assert_bits(
                    &column(&y, batch, j),
                    &want,
                    &format!("csr pooled spmm w{workers} b{batch} s{j}"),
                );
            }
        }
    }
}

#[test]
fn ell_kernels_match_slot_order_reference() {
    let a = matrix();
    let e = EllMatrix::from_csr(&a, 24);
    let x = xvec(a.ncols(), 0);
    let want = ell_ref(&e, &x);
    let mut y = vec![0f32; e.nrows()];
    e.spmv_into(&x, &mut y);
    assert_bits(&y, &want, "ell serial spmv");
    for workers in THREADS {
        let pool = WorkerPool::new(workers);
        let plan = e.exec_plan(workers);
        let mut y = vec![0f32; e.nrows()];
        e.spmv_pooled_into(&x, &mut y, &plan, &pool);
        assert_bits(&y, &want, &format!("ell pooled spmv w{workers}"));
        for batch in BATCHES {
            let xb = xbatch(a.ncols(), batch);
            let mut yb = vec![0f32; e.nrows() * batch];
            e.spmm_pooled_into(&xb, &mut yb, batch, &plan, &pool);
            for j in 0..batch {
                let want_j = ell_ref(&e, &xvec(a.ncols(), j));
                assert_bits(
                    &column(&yb, batch, j),
                    &want_j,
                    &format!("ell pooled spmm w{workers} b{batch} s{j}"),
                );
            }
        }
    }
    for batch in BATCHES {
        let xb = xbatch(a.ncols(), batch);
        let mut yb = vec![0f32; e.nrows() * batch];
        e.spmm_into(&xb, &mut yb, batch);
        for j in 0..batch {
            let want_j = ell_ref(&e, &xvec(a.ncols(), j));
            assert_bits(
                &column(&yb, batch, j),
                &want_j,
                &format!("ell serial spmm b{batch} s{j}"),
            );
        }
    }
}

#[test]
fn buffered_kernels_match_staged_lane_reference() {
    let a = matrix();
    // A buffer smaller than most partition footprints forces multi-stage
    // partitions, exercising the per-stage accumulation order.
    let b = BufferedCsr::from_csr(&a, 24, 64);
    assert!(b.num_stages() > b.num_partitions(), "want multi-stage");
    let x = xvec(a.ncols(), 0);
    let want = buffered_ref(&b, &x);
    let mut y = vec![0f32; b.nrows()];
    b.spmv_into(&x, &mut y);
    assert_bits(&y, &want, "buffered serial spmv");
    // The §3.3.5 addressing ablation stores the same stages with 32-bit
    // buffer-local indices: index width never touches a bit of the result.
    let b32 = BufferedCsr32::from_csr(&a, 24, 64);
    assert_bits(&b32.spmv(&x), &want, "buffered u32 serial spmv");
    for workers in THREADS {
        let pool = WorkerPool::new(workers);
        let plan = b.exec_plan(workers);
        let mut y = vec![0f32; b.nrows()];
        b.spmv_pooled_into(&x, &mut y, &plan, &pool);
        assert_bits(&y, &want, &format!("buffered pooled spmv w{workers}"));
        for batch in BATCHES {
            let xb = xbatch(a.ncols(), batch);
            let mut yb = vec![0f32; b.nrows() * batch];
            b.spmm_pooled_into(&xb, &mut yb, batch, &plan, &pool);
            for j in 0..batch {
                let want_j = buffered_ref(&b, &xvec(a.ncols(), j));
                assert_bits(
                    &column(&yb, batch, j),
                    &want_j,
                    &format!("buffered pooled spmm w{workers} b{batch} s{j}"),
                );
            }
        }
    }
    for batch in BATCHES {
        let xb = xbatch(a.ncols(), batch);
        let mut yb = vec![0f32; b.nrows() * batch];
        b.spmm_into(&xb, &mut yb, batch);
        for j in 0..batch {
            let want_j = buffered_ref(&b, &xvec(a.ncols(), j));
            assert_bits(
                &column(&yb, batch, j),
                &want_j,
                &format!("buffered serial spmm b{batch} s{j}"),
            );
        }
    }
}

#[test]
fn single_slice_spmm_is_the_spmv_bitwise_for_all_families() {
    let a = matrix();
    let x = xvec(a.ncols(), 0);
    let mut spmv_y = vec![0f32; a.nrows()];
    spmv_into(&a, &x, &mut spmv_y);
    let mut spmm_y = vec![0f32; a.nrows()];
    spmm_into(&a, &x, &mut spmm_y, 1);
    assert_bits(&spmm_y, &spmv_y, "csr spmm(1) == spmv");

    let e = EllMatrix::from_csr(&a, 24);
    let mut ev = vec![0f32; e.nrows()];
    e.spmv_into(&x, &mut ev);
    let mut em = vec![0f32; e.nrows()];
    e.spmm_into(&x, &mut em, 1);
    assert_bits(&em, &ev, "ell spmm(1) == spmv");

    let b = BufferedCsr::from_csr(&a, 24, 64);
    let mut bv = vec![0f32; b.nrows()];
    b.spmv_into(&x, &mut bv);
    let mut bm = vec![0f32; b.nrows()];
    b.spmm_into(&x, &mut bm, 1);
    assert_bits(&bm, &bv, "buffered spmm(1) == spmv");
}
