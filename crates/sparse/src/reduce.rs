//! Shared f64-accumulation reductions.
//!
//! Every solver records `‖y − A·x‖` and `‖x‖` by accumulating f32
//! products in f64. Serial, pooled and distributed paths must use the
//! *same* accumulation (element order, chunking and widening) so their
//! residual records agree bit-for-bit on identical data; this module is
//! the single home for that arithmetic.

use crate::pooled::DOT_CHUNK;

/// Dot product of two f32 slices, accumulated in f64:
/// `Σ (aᵢ as f64)·(bᵢ as f64)` in index order.
pub fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// The one summation order of every solver dot, on the calling thread:
/// [`dot_f64`] over each [`DOT_CHUNK`]-element chunk, the partials summed
/// in chunk order. Bit-identical to each slice of
/// [`crate::dot_f64_batched_pooled`] for every worker count and batch
/// width.
pub fn dot_f64_chunked(a: &[f32], b: &[f32]) -> f64 {
    a.chunks(DOT_CHUNK)
        .zip(b.chunks(DOT_CHUNK))
        .map(|(a, b)| dot_f64(a, b))
        .sum()
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
    fn norm_of_unit_axes() {
        assert_eq!(norm_f64(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_f64(&[]), 0.0);
    }
}
