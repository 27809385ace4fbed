//! Fig 9: single-device performance of the three optimization stages —
//! baseline SpMV, + two-level pseudo-Hilbert ordering, + multi-stage
//! buffering — across the artificial datasets: GFLOPS, L2 miss rate
//! (simulated against a KNL-like L2), and effective memory bandwidth.
//!
//! Datasets keep their **full tomogram width** (so the irregular footprint
//! is the real one; the ordering optimizations are pointless on a
//! footprint that fits in cache) and scale the projection count instead,
//! which shrinks the matrix without changing per-row locality.
//!
//! Paper reference (KNL): Hilbert ordering gives 1.59× (ADS1, small) to
//! 4.62× (ADS2); buffering adds up to ~1.3× more on ADS2+ and nothing on
//! ADS1; L2 miss rates drop from tens of percent to single digits.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig9 [extra_projection_divisor]
//! ```

use memxct::{
    preprocess, Config, DomainOrdering, Kernel, KernelOperator, Operators, PooledPlans,
    ProjectionOperator,
};
use xct_bench::{bandwidth_gbs, gflops};
use xct_cachesim::{spmv_irregular_miss_rate, CacheConfig};
use xct_geometry::{Dataset, ADS1, ADS2, ADS3, ADS4};
use xct_runtime::WorkerPool;
use xct_sparse::BufferedCsr;

struct Variant {
    name: &'static str,
    gflops: f64,
    miss_rate: f64,
    bandwidth: f64,
}

/// Median per-call kernel seconds, read from the operator's own
/// [`memxct::KernelBreakdown`] instrumentation — the same timing path the
/// solvers and the distributed ranks use.
fn median_kernel_time(
    op: &dyn ProjectionOperator,
    reps: usize,
    mut call: impl FnMut(&dyn ProjectionOperator),
) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let before = op.breakdown().expect("instrumented operator").total();
        call(op);
        t.push(op.breakdown().expect("instrumented operator").total() - before);
    }
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Forward+backprojection GFLOPS/bandwidth of one configuration, timed
/// through the [`ProjectionOperator`] layer on the worker pool (threads
/// from `RAYON_NUM_THREADS`, as before).
fn run(ops: &Operators, kernel: Kernel, reps: usize) -> (f64, f64) {
    let x: Vec<f32> = (0..ops.a.ncols()).map(|i| (i % 13) as f32 * 0.3).collect();
    let y: Vec<f32> = (0..ops.a.nrows()).map(|i| (i % 11) as f32 * 0.2).collect();
    let mut yo = vec![0f32; ops.a.nrows()];
    let mut xo = vec![0f32; ops.a.ncols()];
    let nnz = ops.a.nnz();
    let pool = WorkerPool::from_env();
    let plans = PooledPlans::new_batched(ops, kernel, pool.num_threads(), 1);
    let op = KernelOperator::pooled(ops, kernel, &plans, &pool);
    let t_f = median_kernel_time(&op, reps, |o| {
        o.forward_into(&x, std::hint::black_box(&mut yo))
    });
    let t_b = median_kernel_time(&op, reps, |o| {
        o.back_into(&y, std::hint::black_box(&mut xo))
    });
    let t = (t_f + t_b) / 2.0;
    let bytes = match (&ops.a_buf, &ops.at_buf, kernel) {
        (Some(fa), Some(fb), Kernel::Buffered) => (fa.regular_bytes() + fb.regular_bytes()) / 2,
        _ => ops.a.regular_bytes(),
    };
    (gflops(nnz, t), bandwidth_gbs(bytes, t))
}

fn measure(ds: &Dataset, reps: usize) -> Vec<Variant> {
    // The simulated L2 sees the real footprint (full tomogram width).
    let l2 = CacheConfig::knl_l2();
    let mut out = Vec::new();

    // Build configurations one at a time to bound peak memory.
    {
        let base = preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                ordering: DomainOrdering::RowMajor,
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        let (g, b) = run(&base, Kernel::Serial, reps);
        let m = spmv_irregular_miss_rate(base.a.colind(), l2).miss_rate();
        out.push(Variant {
            name: "baseline",
            gflops: g,
            miss_rate: m,
            bandwidth: b,
        });
    }
    {
        let mut hil = preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        let (g, b) = run(&hil, Kernel::Serial, reps);
        let m = spmv_irregular_miss_rate(hil.a.colind(), l2).miss_rate();
        out.push(Variant {
            name: "+hilbert",
            gflops: g,
            miss_rate: m,
            bandwidth: b,
        });
        // Partition size 128, 8 KB buffer: the paper's tuned KNL values.
        hil.a_buf = Some(BufferedCsr::from_csr(&hil.a, 128, 2048));
        hil.at_buf = Some(BufferedCsr::from_csr(&hil.at, 128, 2048));
        let (g, b) = run(&hil, Kernel::Buffered, reps);
        out.push(Variant {
            name: "+buffering",
            gflops: g,
            miss_rate: m,
            bandwidth: b,
        });
    }
    out
}

fn main() {
    let extra: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    // Per-dataset projection divisors keep every matrix around or below
    // ~250M nonzeroes at full tomogram width.
    let cases = [(ADS1, 1u32), (ADS2, 4), (ADS3, 16), (ADS4, 48)];
    println!(
        "Fig 9: optimization stages per dataset (full tomogram width, projections/{extra} extra)\n"
    );
    println!(
        "{:<6} {:>11} {:<12} {:>8} {:>12} {:>10} {:>16}",
        "data", "sinogram", "variant", "GFLOPS", "L2 miss", "BW GB/s", "speedup vs base"
    );
    for (ds, base_div) in cases {
        let small = ds.scaled_projections(base_div * extra);
        let variants = measure(&small, 2);
        let base = variants[0].gflops;
        for v in &variants {
            println!(
                "{:<6} {:>4}x{:<6} {:<12} {:>8.2} {:>11.1}% {:>10.1} {:>15.2}x",
                small.name,
                small.projections,
                small.channels,
                v.name,
                v.gflops,
                v.miss_rate * 100.0,
                v.bandwidth,
                v.gflops / base
            );
        }
        println!();
    }
    println!("paper (KNL): hilbert speedups 1.59x (ADS1) to 4.62x (ADS2); buffering adds");
    println!("up to ~1.3x more on ADS2+ and nothing on ADS1; miss rates drop to single");
    println!("digits. on this host a 260 MB L3 softens the penalty the orderings remove,");
    println!("so measured speedups are compressed relative to KNL; the simulated L2 miss");
    println!("rates show the KNL-faithful picture.");
}
