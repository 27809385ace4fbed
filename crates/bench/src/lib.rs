//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the MemXCT paper's evaluation (§4).
//!
//! Each `src/bin/<id>.rs` binary reproduces one artifact; see DESIGN.md's
//! per-experiment index. Conventions:
//!
//! - Datasets run **scaled down** by a divisor (default in
//!   [`bench_scale`], override with the `XCT_BENCH_SCALE` env var or a CLI
//!   argument) because this is a laptop-class reproduction; the *shape*
//!   of each result (who wins, by what factor, where crossovers fall) is
//!   the target, not the absolute numbers.
//! - Paper reference values are printed next to measured/modeled values
//!   wherever the paper states them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;
use xct_geometry::{simulate_sinogram, Dataset, NoiseModel, Sinogram};
use xct_runtime::{KernelVolumes, WorkerPool};
use xct_sparse::{BufferIndex, BufferedCsrImpl, CsrMatrix};

pub use memxct::{preprocess, Config, Kernel, Operators};

/// Default dataset scale divisor (1 = paper-size). Override with
/// `XCT_BENCH_SCALE` or a CLI argument.
pub fn bench_scale() -> u32 {
    std::env::var("XCT_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4)
}

/// First CLI argument as a scale divisor, else [`bench_scale`].
pub fn scale_from_args() -> u32 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or_else(bench_scale)
}

/// Phantom + simulated measurement for a (scaled) dataset.
pub fn simulate(ds: &Dataset, noisy: bool) -> (Vec<f32>, Sinogram) {
    let truth = ds.phantom().rasterize(ds.channels);
    let noise = if noisy {
        NoiseModel::Poisson {
            incident: 1e5,
            scale: 0.02,
        }
    } else {
        NoiseModel::None
    };
    let sino = simulate_sinogram(&truth, &ds.grid(), &ds.scan(), noise, 0xfeed);
    (truth, sino)
}

/// Median seconds of `reps` timed runs of `f` (after one warmup run).
pub fn time_median<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median seconds of one CSR SpMV on `pool` over the static equal-rows
/// split — Listing 2's baseline schedule, with the workers parked between
/// calls instead of spawned per call.
pub fn time_csr_spmv(a: &CsrMatrix, x: &[f32], pool: &WorkerPool, reps: usize) -> f64 {
    let plan = xct_sparse::csr_plan_equal(a, pool.num_threads());
    let mut y = vec![0f32; a.nrows()];
    let spmv = || xct_sparse::spmv_pooled_into(a, x, std::hint::black_box(&mut y), &plan, pool);
    time_median(spmv, reps)
}

/// Median seconds of one buffered SpMV (Listing 3) on `pool` over the
/// layout's own partition plan.
pub fn time_buffered_spmv<I: BufferIndex>(
    m: &BufferedCsrImpl<I>,
    x: &[f32],
    pool: &WorkerPool,
    reps: usize,
) -> f64 {
    let plan = m.exec_plan(pool.num_threads());
    let mut y = vec![0f32; m.nrows()];
    let spmv = || m.spmv_pooled_into(x, std::hint::black_box(&mut y), &plan, pool);
    time_median(spmv, reps)
}

/// GFLOPS of one projection: two FLOPs (one FMA) per nonzero (§4.2).
pub fn gflops(nnz: usize, seconds: f64) -> f64 {
    2.0 * nnz as f64 / seconds / 1e9
}

/// Effective memory bandwidth for regular data, GB/s (§4.2's metric).
pub fn bandwidth_gbs(regular_bytes: u64, seconds: f64) -> f64 {
    regular_bytes as f64 / seconds / 1e9
}

/// Human-readable byte count (KiB/MiB/GiB/TiB like Table 3).
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1000.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if v >= 100.0 {
        format!("{v:.0} {}", UNITS[u])
    } else if v >= 10.0 {
        format!("{v:.1} {}", UNITS[u])
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Human-readable seconds (matching the paper's "1.44 d / 1.89 h / 41.6 m"
/// style in Table 5).
pub fn fmt_secs(s: f64) -> String {
    if s >= 86400.0 {
        format!("{:.2} d", s / 86400.0)
    } else if s >= 3600.0 {
        format!("{:.2} h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.1} m", s / 60.0)
    } else if s >= 1.0 {
        format!("{:.2} s", s)
    } else {
        format!("{:.0} ms", s * 1e3)
    }
}

/// Exact full-size and scaled work volumes for projecting measured plans
/// up to paper-size datasets (used by the machine-model experiments:
/// Tables 5/7, Fig 11).
pub struct ScaledVolumes {
    /// Per-rank volumes, scaled to the full dataset.
    pub per_rank: Vec<KernelVolumes>,
    /// The nnz ratio used for compute/regular streams.
    pub nnz_ratio: f64,
    /// The sinogram-size ratio used for communication streams.
    pub sino_ratio: f64,
}

/// Build rank plans on `ds.scaled(divisor)` and scale the resulting
/// per-rank volumes up to the full dataset: compute and regular-data
/// streams scale with the nonzero count (`O(M·N²)`), communication and
/// reduction streams with the sinogram size (`O(M·N)`), both computed
/// exactly from the dataset geometry.
pub fn modeled_volumes(ds: &Dataset, divisor: u32, ranks: usize) -> ScaledVolumes {
    let small = ds.scaled(divisor);
    let ops = preprocess(
        small.grid(),
        small.scan(),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let plans = memxct::dist::build_plans(&ops, ranks, false);

    let nnz_full = ds.footprint().nnz as f64;
    let nnz_small = ops.a.nnz() as f64;
    let nnz_ratio = nnz_full / nnz_small;
    let sino_full = (ds.projections as f64) * (ds.channels as f64);
    let sino_small = (small.projections as f64) * (small.channels as f64);
    let sino_ratio = sino_full / sino_small;

    let per_rank = plans
        .iter()
        .map(|p| {
            let v = p.volumes();
            KernelVolumes {
                flops: v.flops * nnz_ratio,
                regular_bytes: v.regular_bytes * nnz_ratio,
                footprint_bytes: v.footprint_bytes * sino_ratio,
                comm_bytes: v.comm_bytes * sino_ratio,
                comm_peers: v.comm_peers,
                reduce_bytes: v.reduce_bytes * sino_ratio,
            }
        })
        .collect();
    ScaledVolumes {
        per_rank,
        nnz_ratio,
        sino_ratio,
    }
}

/// The bottleneck (max per-kernel) volumes across ranks.
pub fn bottleneck(volumes: &[KernelVolumes]) -> KernelVolumes {
    let mut out = KernelVolumes::default();
    for v in volumes {
        out.flops = out.flops.max(v.flops);
        out.regular_bytes = out.regular_bytes.max(v.regular_bytes);
        out.footprint_bytes = out.footprint_bytes.max(v.footprint_bytes);
        out.comm_bytes = out.comm_bytes.max(v.comm_bytes);
        out.comm_peers = out.comm_peers.max(v.comm_peers);
        out.reduce_bytes = out.reduce_bytes.max(v.reduce_bytes);
    }
    out
}

/// L2 miss rate of the forward-projection irregular stream at **full
/// dataset size**, computed by streaming: rays are traced in
/// sinogram-ordered sequence and each touched tomogram rank feeds the
/// cache simulator directly — no matrix is materialized, so paper-size
/// datasets fit in memory (time is O(nnz)).
pub fn streamed_miss_rate(
    ds: &Dataset,
    ordering: memxct::DomainOrdering,
    cache: xct_cachesim::CacheConfig,
) -> f64 {
    use xct_hilbert::Ordering2D;
    let n = ds.channels;
    let m = ds.projections;
    let build = |w: u32, h: u32| -> Ordering2D {
        match ordering {
            memxct::DomainOrdering::RowMajor => Ordering2D::row_major(w, h),
            memxct::DomainOrdering::ColumnMajor => Ordering2D::column_major(w, h),
            memxct::DomainOrdering::HilbertSquare => Ordering2D::hilbert_square(w, h),
            memxct::DomainOrdering::Gilbert => Ordering2D::gilbert(w, h),
            memxct::DomainOrdering::Morton => Ordering2D::morton(w, h),
            memxct::DomainOrdering::TwoLevelHilbert(t) => Ordering2D::two_level_hilbert(
                w,
                h,
                t.unwrap_or_else(|| xct_hilbert::default_tile_size(w, h)),
            ),
        }
    };
    let tomo_ord = build(n, n);
    let sino_ord = build(n, m);
    let grid = ds.grid();
    let scan = ds.scan();
    let mut sim = xct_cachesim::CacheSim::new(cache);
    // A traced pixel index is `j * n + i`, what `rank_of` is indexed by.
    let rank_of = tomo_ord.rank_of();
    // in-range: ray count is bounded by the u32 scan geometry
    for rank in 0..scan.num_rays() as u32 {
        let (chan, proj) = sino_ord.cell(rank);
        let ray = scan.ray(proj, chan);
        xct_geometry::trace_ray(&grid, &ray, |pixel, _| {
            sim.access(rank_of[pixel as usize] as u64 * 4);
        });
    }
    sim.stats().miss_rate()
}

/// Communication-model constants calibrated from real rank plans.
///
/// Table 1 gives the complexity law — per-rank communication is
/// `O(M·N/√P)` on the sinogram domain, with `O(√P)`-ish peer counts — and
/// the `table1` binary verifies it empirically. These constants anchor
/// that law to measured plan footprints at a reference rank count, so the
/// scaling experiments (Tables 5/7, Fig 11) can extrapolate to node
/// counts whose plans would be degenerate on a scaled dataset.
#[derive(Debug, Clone, Copy)]
pub struct CommCalibration {
    /// comm bytes per rank = `coeff · (M·N) / √P`.
    pub bytes_coeff: f64,
    /// reduce bytes per rank = `coeff · (M·N) / √P`.
    pub reduce_coeff: f64,
    /// peers per rank (roughly constant with P for tile decompositions).
    pub peers: f64,
}

/// Measure the communication constants on `ds.scaled(divisor)` at
/// `p_ref` ranks.
pub fn calibrate_comm(ds: &Dataset, divisor: u32, p_ref: usize) -> CommCalibration {
    let small = ds.scaled(divisor);
    let ops = preprocess(
        small.grid(),
        small.scan(),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let plans = memxct::dist::build_plans(&ops, p_ref, false);
    let bott = bottleneck(&plans.iter().map(|p| p.volumes()).collect::<Vec<_>>());
    let mn = (small.projections as f64) * (small.channels as f64);
    let unit = mn / (p_ref as f64).sqrt();
    CommCalibration {
        bytes_coeff: bott.comm_bytes / unit,
        reduce_coeff: bott.reduce_bytes / unit,
        peers: bott.comm_peers,
    }
}

/// Analytic per-rank (bottleneck) volumes for the *full-size* dataset at
/// `p` ranks, anchored by [`calibrate_comm`]: compute/regular streams from
/// the exact nonzero count, communication from the verified `O(M·N/√P)`
/// law.
pub fn analytic_volumes(ds: &Dataset, p: usize, cal: &CommCalibration) -> KernelVolumes {
    let nnz = ds.footprint().nnz as f64 / p as f64;
    let mn = (ds.projections as f64) * (ds.channels as f64);
    let comm_unit = mn / (p as f64).sqrt();
    KernelVolumes {
        flops: 4.0 * nnz,
        regular_bytes: 2.0 * nnz * 8.0,
        footprint_bytes: 4.0 * ((ds.channels as f64).powi(2) + mn) / p as f64,
        comm_bytes: if p == 1 {
            0.0
        } else {
            cal.bytes_coeff * comm_unit
        },
        comm_peers: if p == 1 { 0.0 } else { cal.peers },
        reduce_bytes: cal.reduce_coeff * comm_unit,
    }
}

/// A generic "library" CSR SpMV standing in for MKL/cuSPARSE in Table 6:
/// statically-scheduled equal row chunks, 32-bit indices, no
/// application-specific partitioning or padding decisions — the same
/// measurement as `spmv-bench`'s `pooled_equal` row.
pub fn spmv_library(a: &CsrMatrix, x: &[f32], pool: &WorkerPool) -> Vec<f32> {
    let plan = xct_sparse::csr_plan_equal(a, pool.num_threads());
    let mut y = vec![0f32; a.nrows()];
    xct_sparse::spmv_pooled_into(a, x, &mut y, &plan, pool);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::ADS1;

    #[test]
    fn fmt_bytes_matches_table3_style() {
        assert_eq!(fmt_bytes(256 * 1024), "256 KB");
        assert_eq!(fmt_bytes(1024 * 1024 * 1024 * 5 + 1024), "5.00 GB");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0103), "10 ms");
        assert_eq!(fmt_secs(62.0), "1.0 m");
        assert_eq!(fmt_secs(2.0 * 86400.0), "2.00 d");
    }

    #[test]
    fn gflops_math() {
        assert!((gflops(500_000_000, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_volumes_scale_up() {
        let sv = modeled_volumes(&ADS1, 8, 2);
        assert_eq!(sv.per_rank.len(), 2);
        assert!(sv.nnz_ratio > 100.0, "nnz ratio {}", sv.nnz_ratio);
        assert!(sv.sino_ratio > 30.0, "sino ratio {}", sv.sino_ratio);
    }

    #[test]
    fn library_spmv_matches_reference() {
        let ds = ADS1.scaled(16);
        let ops = preprocess(ds.grid(), ds.scan(), &Config::default());
        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| (i % 3) as f32).collect();
        let want = xct_sparse::spmv(&ops.a, &x);
        let got = spmv_library(&ops.a, &x, &WorkerPool::from_env());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn bottleneck_takes_maxima() {
        let a = KernelVolumes {
            flops: 1.0,
            regular_bytes: 10.0,
            ..Default::default()
        };
        let b = KernelVolumes {
            flops: 2.0,
            regular_bytes: 5.0,
            ..Default::default()
        };
        let m = bottleneck(&[a, b]);
        assert_eq!(m.flops, 2.0);
        assert_eq!(m.regular_bytes, 10.0);
    }
}
