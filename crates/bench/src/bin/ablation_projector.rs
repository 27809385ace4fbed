//! Ablation: projection model — Siddon's exact intersection lengths (the
//! paper's choice, §2.3) vs Joseph's linear interpolation (TomoPy's
//! default). Compares matrix size, preprocessing cost, kernel throughput,
//! and reconstruction accuracy.
//!
//! ```text
//! cargo run --release -p xct-bench --bin ablation_projector [scale_divisor]
//! ```

use memxct::prelude::Metrics;
use memxct::{preprocess, run_engine, CgRule, Config, Constraint, Kernel, Projector, StopRule};
use xct_bench::{gflops, scale_from_args, time_buffered_spmv};
use xct_geometry::{simulate_sinogram, NoiseModel, ADS2};
use xct_runtime::WorkerPool;

fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    num / den
}

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled(div);
    println!(
        "projector ablation on {} scaled 1/{div} ({}x{})\n",
        ds.name, ds.projections, ds.channels
    );
    let truth = ds.phantom().rasterize(ds.channels);
    let sino = simulate_sinogram(&truth, &ds.grid(), &ds.scan(), NoiseModel::None, 7);

    let pool = WorkerPool::from_env();
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "projector", "nnz (M)", "nnz/row", "preproc ms", "GFLOPS", "recon err"
    );
    for (name, projector) in [("siddon", Projector::Siddon), ("joseph", Projector::Joseph)] {
        let t0 = std::time::Instant::now();
        let ops = preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                projector,
                ..Config::default()
            },
        );
        let pre_ms = t0.elapsed().as_secs_f64() * 1e3;

        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| (i % 9) as f32 * 0.25).collect();
        let buf = ops.a_buf.as_ref().unwrap();
        let t = time_buffered_spmv(buf, &x, &pool, 3);

        let y = ops.order_sinogram(&sino);
        let op = ops.operator_with_metrics(Kernel::Buffered, Metrics::noop());
        let (rule, stop) = (&mut CgRule::new(), StopRule::Fixed(30));
        let (rec, _) = run_engine(&*op, &y, rule, Constraint::None, stop);
        let img = ops.unorder_tomogram(&rec);

        println!(
            "{:<10} {:>10.2} {:>12.1} {:>12.1} {:>10.2} {:>12.4}",
            name,
            ops.a.nnz() as f64 / 1e6,
            ops.a.nnz() as f64 / ops.a.nrows() as f64,
            pre_ms,
            gflops(ops.a.nnz(), t),
            rel_err(&img, &truth)
        );
    }
    println!("\nnote: the simulated measurement uses Siddon, so the Siddon reconstruction");
    println!("benefits from an exactly-matched (\"inverse crime\") forward model; Joseph's");
    println!("error includes genuine model mismatch, as it would against real data.");
}
