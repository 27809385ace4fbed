//! SpMV access-trace generation.
//!
//! In the baseline kernel (paper Listing 2) the only irregular stream is
//! `x[ind[j]]`: 4-byte reads at `4 * column` for every nonzero, in row
//! order. The miss rate of that stream against an L2-sized cache is what
//! Fig 9(b) reports, and what distinguishes row-major from Hilbert-ordered
//! domains (Fig 5).

use crate::cache::{CacheConfig, CacheSim, CacheStats};

/// Byte addresses of the irregular (`x`) accesses of `y = A·x`, row by
/// row. The matrix is given as CSR arrays so the crate stays independent
/// of `xct-sparse` (callers pass `colind` grouped by row, which is exactly
/// the stored order).
pub fn spmv_irregular_trace<'a>(colind: &'a [u32]) -> impl Iterator<Item = u64> + 'a {
    colind.iter().map(|&c| c as u64 * 4)
}

/// Miss rate of the irregular stream of one SpMV pass over a cold cache.
pub fn spmv_irregular_miss_rate(colind: &[u32], config: CacheConfig) -> CacheStats {
    let mut sim = CacheSim::new(config);
    for addr in spmv_irregular_trace(colind) {
        sim.access(addr);
    }
    sim.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_addresses_are_scaled_indices() {
        let cols = [0u32, 3, 7];
        let addrs: Vec<u64> = spmv_irregular_trace(&cols).collect();
        assert_eq!(addrs, vec![0, 12, 28]);
    }

    #[test]
    fn sequential_columns_have_low_miss_rate() {
        // 16 f32 per 64 B line: sequential access misses 1/16 of the time.
        let cols: Vec<u32> = (0..4096).collect();
        let stats = spmv_irregular_miss_rate(&cols, CacheConfig::new(64, 32 * 1024, 8));
        assert!((stats.miss_rate() - 1.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn strided_columns_have_full_miss_rate() {
        // Stride 16 = one access per line, no reuse, footprint >> cache.
        let cols: Vec<u32> = (0..65536u32).step_by(16).collect();
        let stats = spmv_irregular_miss_rate(&cols, CacheConfig::new(64, 4096, 4));
        assert_eq!(stats.miss_rate(), 1.0);
    }

    #[test]
    fn repeated_block_hits_after_warmup() {
        let block: Vec<u32> = (0..256).collect();
        let mut cols = block.clone();
        cols.extend(&block);
        let stats = spmv_irregular_miss_rate(&cols, CacheConfig::new(64, 32 * 1024, 8));
        // First pass: 16 compulsory misses; second pass: all hits.
        assert_eq!(stats.misses, 16);
        assert_eq!(stats.accesses, 512);
    }
}
