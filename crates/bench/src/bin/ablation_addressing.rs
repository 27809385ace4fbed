//! Ablation: 16-bit vs 32-bit buffer addressing (§3.3.5).
//!
//! "We use 16-bit addressing to access input buffer, rather than 32-bit
//! addressing. ... This saves 25 % of total bandwidth consumption of
//! regular data, and provides additional speedup."
//!
//! Both variants run the *identical* multi-stage kernel; only the stored
//! index width differs, so any time difference is pure bandwidth.
//!
//! ```text
//! cargo run --release -p xct-bench --bin ablation_addressing [scale_divisor]
//! ```

use memxct::{preprocess, Config, Kernel};
use xct_bench::{bandwidth_gbs, gflops, scale_from_args, time_buffered_spmv};
use xct_geometry::ADS2;
use xct_runtime::WorkerPool;
use xct_sparse::{BufferedCsr, BufferedCsr32};

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled_projections(div);
    println!(
        "buffer-addressing ablation on {} (projections/{div}: {}x{})\n",
        ds.name, ds.projections, ds.channels
    );
    let ops = preprocess(
        ds.grid(),
        ds.scan(),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let x: Vec<f32> = (0..ops.a.ncols()).map(|i| (i % 13) as f32 * 0.3).collect();
    let nnz = ops.a.nnz();
    let reps = 5;

    let m16 = BufferedCsr::from_csr(&ops.a, 128, 2048);
    let m32 = BufferedCsr32::from_csr(&ops.a, 128, 2048);

    // Same layout, same stages — only the index bytes differ.
    assert_eq!(m16.num_stages(), m32.num_stages());
    assert_eq!(m16.map_len(), m32.map_len());

    let pool = WorkerPool::from_env();
    let t16 = time_buffered_spmv(&m16, &x, &pool, reps);
    let t32 = time_buffered_spmv(&m32, &x, &pool, reps);

    println!(
        "{:<16} {:>14} {:>10} {:>10} {:>12}",
        "index width", "regular B/nnz", "time ms", "GFLOPS", "BW GB/s"
    );
    for (name, t, bytes) in [
        ("u16 (paper)", t16, m16.regular_bytes()),
        ("u32", t32, m32.regular_bytes()),
    ] {
        println!(
            "{:<16} {:>14.2} {:>10.1} {:>10.2} {:>12.1}",
            name,
            bytes as f64 / nnz as f64,
            t * 1e3,
            gflops(nnz, t),
            bandwidth_gbs(bytes, t)
        );
    }
    let saving = 1.0 - m16.regular_bytes() as f64 / m32.regular_bytes() as f64;
    println!(
        "\nbytes saved by 16-bit addressing: {:.1}% (paper: 25% of ind+val stream);",
        saving * 100.0
    );
    println!("measured speedup u32 -> u16: {:.2}x", t32 / t16);
    println!("(on a bandwidth-bound machine like KNL the byte saving converts ~1:1 to");
    println!("speedup; a latency-tolerant host converts less of it)");
}
