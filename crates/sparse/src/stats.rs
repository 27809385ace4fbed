//! Footprint / reuse / staging statistics (paper Fig 6 and the bandwidth
//! accounting of §4.2).

use crate::csr::CsrMatrix;

/// Statistics of one row partition's irregular input footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    /// First row of the partition.
    pub row_base: usize,
    /// Rows in the partition.
    pub rows: usize,
    /// Nonzeroes (= FMAs = irregular accesses before buffering).
    pub nnz: usize,
    /// Distinct input entries touched (the buffer footprint).
    pub footprint: usize,
    /// Stages needed for a given buffer size: `ceil(footprint / buffsize)`.
    pub stages: usize,
}

impl PartitionStats {
    /// Average data reuse: irregular accesses per distinct input entry
    /// (the "Average Data Reuse" annotation of Fig 6(a)).
    pub fn reuse(&self) -> f64 {
        if self.footprint == 0 {
            0.0
        } else {
            self.nnz as f64 / self.footprint as f64
        }
    }
}

/// Per-partition footprint statistics for partitions of `partsize` rows,
/// with stage counts for buffer capacity `buffsize`.
pub fn partition_stats(a: &CsrMatrix, partsize: usize, buffsize: usize) -> Vec<PartitionStats> {
    assert!(partsize > 0 && buffsize > 0);
    let mut out = Vec::with_capacity(a.nrows().div_ceil(partsize));
    let mut cols: Vec<u32> = Vec::new();
    for base in (0..a.nrows()).step_by(partsize) {
        let rows = partsize.min(a.nrows() - base);
        cols.clear();
        let mut nnz = 0;
        for i in base..base + rows {
            for (c, _) in a.row(i) {
                cols.push(c);
                nnz += 1;
            }
        }
        cols.sort_unstable();
        cols.dedup();
        out.push(PartitionStats {
            row_base: base,
            rows,
            nnz,
            footprint: cols.len(),
            stages: cols.len().div_ceil(buffsize),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (1, 2.0)],
                vec![(0, 3.0), (1, 4.0)],
                vec![(2, 5.0)],
                vec![(2, 6.0), (3, 7.0)],
            ],
        )
    }

    #[test]
    fn footprint_and_reuse() {
        let stats = partition_stats(&sample(), 2, 64);
        assert_eq!(stats.len(), 2);
        // Partition 0: 4 nnz over columns {0,1} => reuse 2.0.
        assert_eq!(stats[0].nnz, 4);
        assert_eq!(stats[0].footprint, 2);
        assert_eq!(stats[0].reuse(), 2.0);
        // Partition 1: 3 nnz over {2,3} => reuse 1.5.
        assert_eq!(stats[1].reuse(), 1.5);
    }

    #[test]
    fn stages_depend_on_buffsize() {
        let stats = partition_stats(&sample(), 4, 1);
        assert_eq!(stats[0].footprint, 4);
        assert_eq!(stats[0].stages, 4);
        let stats = partition_stats(&sample(), 4, 3);
        assert_eq!(stats[0].stages, 2);
    }
}
