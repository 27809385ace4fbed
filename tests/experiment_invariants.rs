//! Regression tests pinning the quantitative claims the experiment
//! binaries reproduce: Table 3 footprints, the Fig 6 reuse numbers, the
//! Table 1 communication law, Fig 5's ordering contrast, and the Table 5
//! super-linear speedup mechanism.

use memxct::dist::build_plans;
use memxct::{preprocess, Config, DomainOrdering, Kernel};
use xct_cachesim::{spmv_irregular_miss_rate, CacheConfig};
use xct_geometry::{ADS1, ADS2, RDS2};
use xct_runtime::{iteration_time, KernelVolumes, BLUE_WATERS, THETA};
use xct_sparse::partition_stats;

#[test]
fn table3_ads1_footprint_matches_paper() {
    let f = ADS1.footprint();
    // Paper: 215 MB regular, 256/360 KB irregular.
    let mb = f.regular_forward as f64 / (1024.0 * 1024.0);
    assert!(
        (200.0..240.0).contains(&mb),
        "ADS1 regular {mb:.1} MB vs paper 215 MB"
    );
    assert_eq!(f.irregular_forward, 256 * 1024);
    assert_eq!(f.irregular_backward, 360 * 256 * 4);
}

#[test]
fn table3_rds2_footprint_matches_paper() {
    let f = RDS2.footprint();
    let tb = f.regular_forward as f64 / 1024f64.powi(4);
    // Paper: 5.1 TB per direction.
    assert!(
        (4.5..5.5).contains(&tb),
        "RDS2 regular {tb:.2} TB vs paper 5.1 TB"
    );
}

#[test]
fn fig6_reuse_numbers_match_paper() {
    // 256x256 domains, 64x64 partitions, 32 KB buffer: paper reports
    // reuse 46.63 (forward) / 64.73 (back) and 4 / 3 stages.
    let ops = preprocess(
        xct_geometry::Grid::new(256),
        xct_geometry::ScanGeometry::new(256, 256),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let fwd = partition_stats(&ops.a, 4096, 8192);
    let back = partition_stats(&ops.at, 4096, 8192);
    let mid_f = &fwd[fwd.len() / 2];
    let mid_b = &back[back.len() / 2];
    assert!(
        (40.0..55.0).contains(&mid_f.reuse()),
        "fwd reuse {}",
        mid_f.reuse()
    );
    assert!(
        (58.0..72.0).contains(&mid_b.reuse()),
        "back reuse {}",
        mid_b.reuse()
    );
    assert_eq!(mid_f.stages, 4);
    assert_eq!(mid_b.stages, 3);
}

#[test]
fn table1_comm_scales_as_sqrt_p() {
    let ds = ADS2.scaled(4);
    let ops = preprocess(
        ds.grid(),
        ds.scan(),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let total_comm = |p: usize| -> f64 {
        build_plans(&ops, p, false)
            .iter()
            .map(|pl| pl.volumes().comm_bytes)
            .sum()
    };
    let c4 = total_comm(4);
    let c16 = total_comm(16);
    let c64 = total_comm(64);
    // Quadrupling P should roughly double total communication. Allow wide
    // slack for boundary effects on the scaled domain.
    assert!((1.5..3.4).contains(&(c16 / c4)), "c16/c4 = {}", c16 / c4);
    assert!((1.5..3.4).contains(&(c64 / c16)), "c64/c16 = {}", c64 / c16);
}

#[test]
fn fig5_hilbert_halves_the_miss_rate() {
    let ds = ADS1; // full size: footprint 256 KB vs 1 MB L2
    let build = |ordering| {
        preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                ordering,
                kernel: Kernel::Serial,
                ..Config::default()
            },
        )
    };
    // Use a small cache so the 256 KB footprint exercises capacity misses.
    let cache = CacheConfig::new(64, 32 * 1024, 8);
    let rm = build(DomainOrdering::RowMajor);
    let hl = build(DomainOrdering::TwoLevelHilbert(None));
    let m_rm = spmv_irregular_miss_rate(rm.a.colind(), cache).miss_rate();
    let m_hl = spmv_irregular_miss_rate(hl.a.colind(), cache).miss_rate();
    assert!(
        m_hl < 0.6 * m_rm,
        "hilbert {m_hl:.3} should be well under row-major {m_rm:.3}"
    );
}

#[test]
fn table5_superlinear_mechanism() {
    // RDS1's 56 GB working set: DRAM-bound on 1 Theta node, MCDRAM-fast
    // once split 8 ways — per-iteration speedup must exceed the 8x node
    // ratio (paper: 19x).
    let mk = |gb: f64| KernelVolumes {
        flops: 0.0,
        regular_bytes: gb * 1e9,
        footprint_bytes: 0.02e9,
        comm_bytes: 1e6,
        comm_peers: 8.0,
        reduce_bytes: 1e6,
    };
    let one = iteration_time(&THETA, &mk(112.0), 1).unwrap();
    let eight = iteration_time(&THETA, &mk(14.0), 8).unwrap();
    assert!(one.ap / eight.ap > 8.0);
}

#[test]
fn paper_fit_constraints_hold() {
    // §4.1.3: RDS1 does not fit on fewer than 32 Blue Waters nodes.
    let per_node_at = |nodes: f64| KernelVolumes {
        regular_bytes: 112e9 / nodes,
        footprint_bytes: 0.02e9,
        ..Default::default()
    };
    assert!(iteration_time(&BLUE_WATERS, &per_node_at(8.0), 8).is_none());
    assert!(iteration_time(&BLUE_WATERS, &per_node_at(32.0), 32).is_some());
    // ...but a single Theta node handles it in DDR.
    assert!(iteration_time(&THETA, &per_node_at(1.0), 1).is_some());
}

#[test]
fn communication_matrix_transposes_between_directions() {
    // §3.4.2: the backprojection communication matrix is the transpose of
    // the forward one. In plan terms: what rank r sends q in forward is
    // exactly what q sends r in backprojection.
    let ds = ADS1.scaled(8);
    let ops = preprocess(ds.grid(), ds.scan(), &Config::default());
    let plans = build_plans(&ops, 6, false);
    for r in &plans {
        for (q, range) in r.dest_ranges.iter().enumerate() {
            // Forward: r -> q sends `range.len()` values. Backward: q -> r
            // sends the same rows back.
            assert_eq!(
                range.len(),
                plans[q].rows_from[r.rank].len(),
                "pair ({}, {q})",
                r.rank
            );
        }
    }
}
