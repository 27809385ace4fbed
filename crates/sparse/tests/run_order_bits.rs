//! The buffered kernel's output bits, pinned on layouts where the order
//! of a partition's `(stage, row)` runs in memory could show: a traced,
//! Hilbert-ordered projection matrix (its rows do not ascend: stage-major
//! runs) and its scan transpose (they do: row-major runs), staged through
//! 64 slots, so every partition takes two stages or more. The kernel adds
//! each row's stage sums in ascending stage order whatever the storage
//! order; the hashes hold it to that, for SpMV (k = 1) and SpMM (k = 3:
//! blocks of 1; k = 8: one full block) at both index widths.

use xct_geometry::{trace_ray, Grid, ScanGeometry};
use xct_hilbert::{default_tile_size, Ordering2D};
use xct_sparse::{interleave, BufferIndex, BufferedCsrImpl, CsrMatrix};

/// `A` of a 32×32 grid scanned at 24 projections × 32 channels, rows and
/// columns both in two-level Hilbert order (as a MemXCT plan builds it).
fn traced() -> CsrMatrix {
    let (n, m) = (32u32, 24u32);
    let (grid, scan) = (Grid::new(n), ScanGeometry::new(m, n));
    let tomo = Ordering2D::two_level_hilbert(n, n, default_tile_size(n, n));
    let sino = Ordering2D::two_level_hilbert(n, m, default_tile_size(n, m));
    let rows: Vec<Vec<(u32, f32)>> = (0..scan.num_rays())
        .map(|rank| {
            let (chan, proj) = sino.cell(rank as u32);
            let mut row = Vec::new();
            trace_ray(&grid, &scan.ray(proj, chan), |pixel, len| {
                let (i, j) = grid.pixel_coords(pixel);
                row.push((tomo.rank(i, j), len));
            });
            row
        })
        .collect();
    CsrMatrix::from_rows(grid.num_pixels(), &rows)
}

/// FNV-1a over the output's bits.
fn hash(y: &[f32]) -> u64 {
    y.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    })
}

/// Hashes of `y = B · X` for `k` = 1, 3 and 8 slices of a fixed input.
fn hashes<I: BufferIndex>(a: &CsrMatrix) -> [u64; 3] {
    let b = BufferedCsrImpl::<I>::from_csr(a, 32, 64);
    for p in 0..b.num_partitions() {
        assert!(b.stages_of_partition(p) >= 2, "partition {p}: one stage");
    }
    [1, 3, 8].map(|k| {
        let x: Vec<f32> = (0..a.ncols() * k)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.6)
            .collect();
        let mut xi = vec![0f32; x.len()];
        interleave(&x, &mut xi, k);
        let mut y = vec![0f32; a.nrows() * k];
        b.spmm_into(&xi, &mut y, k);
        hash(&y)
    })
}

#[test]
fn buffered_outputs_keep_their_bits_on_multi_stage_layouts() {
    let a = traced();
    let at = a.transpose_scan();
    let got = [
        hashes::<u16>(&a),
        hashes::<u32>(&a),
        hashes::<u16>(&at),
        hashes::<u32>(&at),
    ];
    // [A u16, A u32, Aᵀ u16, Aᵀ u32] × [k = 1, 3, 8], recorded when every
    // layout was stage-major.
    let a_bits = [0x0187c0d997e4da3c, 0x88daa263e5619b9c, 0xdad7dfe7f4e4bc9f];
    let at_bits = [0x749cf8586368f055, 0xb3c6b937950afa69, 0x31e98fa20b44360c];
    let want = [a_bits, a_bits, at_bits, at_bits];
    assert_eq!(got, want, "{got:#018x?}");
}
