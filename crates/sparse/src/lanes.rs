//! Fixed-width lane-split row reductions — the SIMD building block shared
//! by every SpMV/SpMM kernel in this crate.
//!
//! The paper's inner loop (Listing 2) is a scalar chain of fused
//! multiply-adds with a loop-carried dependence on the accumulator, so a
//! compiler cannot vectorize it without changing the floating-point
//! reduction order. Instead of asking LLVM to reassociate (which would
//! make results depend on optimization decisions), every kernel here
//! commits to one explicit, deterministic order:
//!
//! - entries of a row are processed in groups of [`LANES`] (= 8) via
//!   `chunks_exact`, one independent f32 accumulator per lane — the
//!   dependence chains are independent, so LLVM can emit packed SIMD
//!   under `#![forbid(unsafe_code)]` (no intrinsics);
//! - the 8 lane accumulators are combined by a fixed tree:
//!   `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`;
//! - the `len % 8` tail entries are added sequentially onto that sum.
//!
//! The order is a function of the row's entry sequence only — never of
//! thread count, partition plan, or batch width — so pooled, parallel,
//! batched, and serial kernels built on these helpers are bit-identical
//! to one another by construction.
//!
//! On the shipped build (no `target-cpu`: baseline x86-64, SSE2) 8 lanes
//! are *two* 128-bit registers, and the packing is not reliable: the
//! reduction tree, visible from the accumulation loop, steers LLVM's SLP
//! pass into pairing lanes (0,4)(1,5)(2,6)(3,7) — four half-filled
//! multiply/adds and eight shuffles per 8 entries. The buffered kernel
//! hides the tree from its loop; [`row_dot`], the CSR oracle, compiles
//! the same way and is deliberately left alone (no benchmarked workload
//! runs it; ROADMAP item 2 decides whether it survives).

/// Lane width of the vectorized kernels: 8 × f32, two 128-bit registers
/// on the baseline x86-64 build, one 256-bit register under AVX2.
///
/// 8 was chosen by measurement: 16 lanes spill on AVX2-class cores and
/// measured slower; 8 is also wide enough that AVX-512 hardware can fuse
/// pairs of iterations.
pub const LANES: usize = 8;

/// Lane-split dot product of a CSR row with the gathered input:
/// `Σ x[cols[k] · stride] * vals[k]` in the deterministic lane order.
/// `stride` is the width of a slice-interleaved slab (pass `&slab[j..]`
/// for slice `j`); 1 reads a plain vector.
///
/// The gather and the multiply-add are split into two passes over a stack
/// buffer so the bounds-checked gathers don't serialize the FMA chain —
/// measured ~1.3× the scalar loop on ADS1-shaped rows.
#[inline]
pub fn row_dot(cols: &[u32], vals: &[f32], x: &[f32], stride: usize) -> f32 {
    let mut acc = [0f32; LANES];
    let mut gat = [0f32; LANES];
    let ci = cols.chunks_exact(LANES);
    let vi = vals.chunks_exact(LANES);
    let (ct, vt) = (ci.remainder(), vi.remainder());
    for (c8, v8) in ci.zip(vi) {
        for l in 0..LANES {
            gat[l] = x[c8[l] as usize * stride];
        }
        for l in 0..LANES {
            acc[l] += gat[l] * v8[l];
        }
    }
    let mut s = reduce_lanes(&acc);
    for (c, v) in ct.iter().zip(vt) {
        s += x[*c as usize * stride] * v;
    }
    s
}

/// The fixed lane-combination tree. Exposed so reference implementations
/// (tests, benches) can reproduce the exact order without duplicating it.
#[inline]
pub fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Plainly-written scalar model of [`row_dot`]'s exact order, kept free of
/// any vectorization-motivated structure. Tests pin the vectorized kernels
/// against this; it is the executable spec of the reduction contract.
pub fn row_dot_ref(cols: &[u32], vals: &[f32], x: &[f32]) -> f32 {
    let full = cols.len() / LANES * LANES;
    let mut acc = [0f32; LANES];
    for k in 0..full {
        acc[k % LANES] += x[cols[k] as usize] * vals[k];
    }
    let mut s = reduce_lanes(&acc);
    for k in full..cols.len() {
        s += x[cols[k] as usize] * vals[k];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize) -> (Vec<u32>, Vec<f32>, Vec<f32>) {
        // Deliberately rounding-sensitive values: different summation
        // orders give different f32 bits, so these tests would catch an
        // order drift between the kernel and its reference.
        let cols: Vec<u32> = (0..n).map(|k| ((k * 7 + 3) % 64) as u32).collect();
        let vals: Vec<f32> = (0..n).map(|k| ((k * 37 % 101) as f32).sin()).collect();
        let x: Vec<f32> = (0..64).map(|i| ((i * 13 % 29) as f32).cos()).collect();
        (cols, vals, x)
    }

    #[test]
    fn row_dot_matches_reference_bitwise() {
        for n in [0, 1, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257] {
            let (cols, vals, x) = row(n);
            let a = row_dot(&cols, &vals, &x, 1);
            let b = row_dot_ref(&cols, &vals, &x);
            assert_eq!(a.to_bits(), b.to_bits(), "len {n}: {a} vs {b}");
        }
    }

    #[test]
    fn differs_from_sequential_order_on_rounding_sensitive_rows() {
        // Sanity: the lane order is genuinely different from the scalar
        // Listing 2 chain (otherwise the bit-identity tests above would be
        // vacuous).
        let (cols, vals, x) = row(257);
        let seq: f32 = cols
            .iter()
            .zip(&vals)
            .fold(0f32, |a, (&c, &v)| a + x[c as usize] * v);
        let lane = row_dot(&cols, &vals, &x, 1);
        assert!((seq - lane).abs() < 1e-4, "same sum to tolerance");
        assert_ne!(seq.to_bits(), lane.to_bits(), "expected a different order");
    }
}
