//! Shared f64-accumulation reductions.
//!
//! Every solver records `‖y − A·x‖` and `‖x‖` by accumulating f32
//! products in f64. Serial, pooled and distributed paths must use the
//! *same* accumulation (element order, chunking and widening) so their
//! residual records agree bit-for-bit on identical data; this module is
//! the single home for that arithmetic.

use crate::batch::{for_each_block, SliceBlocks};
use crate::pooled::{dot_chunks, DOT_CHUNK};
use std::ops::Range;

/// Dot product of two f32 slices, accumulated in f64:
/// `Σ (aᵢ as f64)·(bᵢ as f64)` in index order.
pub fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// The one summation order of every solver dot, on the calling thread:
/// [`dot_f64`] over each [`DOT_CHUNK`]-element chunk, the partials summed
/// in chunk order. The one-slice case of [`dot_f64_chunked_batch`].
pub fn dot_f64_chunked(a: &[f32], b: &[f32]) -> f64 {
    let mut out = [0.0];
    dot_f64_chunked_batch(a, b, &mut out);
    out[0]
}

/// [`dot_f64_chunked`] of each slice of two `k`-wide slice-interleaved
/// slabs (`k = out.len()`): `out[j] = ⟨a_j, b_j⟩`, all `k` chains in one
/// pass, each slice in its own chunk order. Bit-identical to each slice
/// of [`crate::dot_f64_batched_pooled`] for every worker count.
///
/// # Panics
/// If `out` is empty, or the slab lengths differ or are not a multiple
/// of `out.len()`.
pub fn dot_f64_chunked_batch(a: &[f32], b: &[f32], out: &mut [f64]) {
    let k = out.len();
    assert!(k > 0 && a.len().is_multiple_of(k), "slab length vs width");
    assert_eq!(a.len(), b.len(), "vector lengths");
    let len = a.len() / k;
    out.fill(-0.0);
    for c in 0..dot_chunks(len) {
        add_row_dots(a, b, chunk(c, len), out);
    }
}

/// Elements `c·DOT_CHUNK ..` of a `len`-element vector: reduction chunk `c`.
pub(crate) fn chunk(c: usize, len: usize) -> Range<usize> {
    c * DOT_CHUNK..((c + 1) * DOT_CHUNK).min(len)
}

/// Add to `out[j]` the [`dot_f64`] of slice `j` over elements `elems` of
/// two `out.len()`-wide slice-interleaved slabs. The slices go in the
/// blocks of [`for_each_block`], each block's chains side by side in
/// registers; slice `j`'s products are summed in element order from
/// `-0.0`, where `Iterator::sum` starts.
pub(crate) fn add_row_dots(a: &[f32], b: &[f32], elems: Range<usize>, out: &mut [f64]) {
    let k = out.len();
    let rows = elems.start * k..elems.end * k;
    let (a, b) = (&a[rows.clone()], &b[rows]);
    for_each_block(k, &mut RowDots(a, b, out));
}

/// One [`add_row_dots`]'s `(a, b, out)`, the slabs cut to its rows.
struct RowDots<'a>(&'a [f32], &'a [f32], &'a mut [f64]);

impl SliceBlocks for RowDots<'_> {
    fn block<const W: usize>(&mut self, s0: usize) {
        let RowDots(a, b, out) = self;
        let k = out.len();
        let mut acc = [-0.0f64; W];
        for (ar, br) in a.chunks_exact(k).zip(b.chunks_exact(k)) {
            let (ar, br) = (&ar[s0..s0 + W], &br[s0..s0 + W]);
            for s in 0..W {
                acc[s] += ar[s] as f64 * br[s] as f64;
            }
        }
        for (o, s) in out[s0..s0 + W].iter_mut().zip(acc) {
            *o += s;
        }
    }
}

/// Euclidean norm of an f32 slice via [`dot_f64`].
pub fn norm_f64(a: &[f32]) -> f64 {
    dot_f64(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_widens_before_summing() {
        // 1e8 * 1e8 overflows f32 accumulation badly; f64 is exact here.
        let a = vec![1e8f32; 3];
        let d = dot_f64(&a, &a);
        assert_eq!(d, 3.0 * 1e16);
    }

    #[test]
    fn batched_chunked_dot_is_each_slice_chunked_dot() {
        // Longer than a chunk, every block mix, and signed zeros: −0·x
        // products must sum as `Iterator::sum` sums them.
        let len = DOT_CHUNK + 37;
        for k in [1usize, 3, 4, 5, 8, 13] {
            let a: Vec<f32> = (0..len * k)
                .map(|i| {
                    if i % 7 == 0 {
                        -0.0
                    } else {
                        ((i * 37) % 101) as f32 * 0.01
                    }
                })
                .collect();
            let b: Vec<f32> = (0..len * k)
                .map(|i| ((i * 53) % 97) as f32 * 0.02 - 0.3)
                .collect();
            let mut out = vec![f64::NAN; k];
            dot_f64_chunked_batch(&a, &b, &mut out);
            for (j, got) in out.iter().enumerate() {
                let (aj, bj): (Vec<f32>, Vec<f32>) =
                    (0..len).map(|i| (a[i * k + j], b[i * k + j])).unzip();
                let want: f64 = aj
                    .chunks(DOT_CHUNK)
                    .zip(bj.chunks(DOT_CHUNK))
                    .map(|(a, b)| dot_f64(a, b))
                    .sum();
                assert_eq!(got.to_bits(), want.to_bits(), "k {k} slice {j}");
            }
        }
        let (neg, mut out) = ([-0.0f32; 3], [0.0; 1]);
        dot_f64_chunked_batch(&neg, &[1.0; 3], &mut out);
        assert_eq!(out[0].to_bits(), dot_f64(&neg, &[1.0; 3]).to_bits());
        assert_eq!(
            dot_f64_chunked(&[], &[]).to_bits(),
            dot_f64(&[], &[]).to_bits()
        );
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm_f64(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_f64(&[]), 0.0);
    }
}
