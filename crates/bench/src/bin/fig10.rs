//! Fig 10: tuning the buffered kernel — GFLOPS heat map over partition
//! size × buffer size for ADS2.
//!
//! The paper's sweet spot on KNL is partition size 128 with an 8 KB
//! buffer; too-small buffers stage too often, too-large partitions blow
//! the footprint, too-large buffers leak out of L1.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig10 [scale_divisor]
//! ```

use memxct::{preprocess, Config, Kernel};
use xct_bench::{gflops, scale_from_args, time_buffered_spmv};
use xct_geometry::ADS2;
use xct_runtime::WorkerPool;
use xct_sparse::BufferedCsr;

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled(div);
    println!(
        "Fig 10: buffered-kernel tuning heat map, {} scaled 1/{div} ({}x{})\n",
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
    let pool = WorkerPool::from_env();

    let partsizes = [16usize, 32, 64, 128, 256, 512, 1024];
    let buffsizes_kb = [1usize, 2, 4, 8, 16, 32, 64];

    println!("GFLOPS (rows: partition size, cols: buffer size in KB):");
    print!("{:>6}", "");
    for kb in buffsizes_kb {
        print!("{kb:>8}");
    }
    println!();
    let mut best = (0.0f64, 0usize, 0usize);
    for ps in partsizes {
        print!("{ps:>6}");
        for kb in buffsizes_kb {
            let buff = kb * 1024 / 4;
            let m = BufferedCsr::from_csr(&ops.a, ps, buff);
            let t = time_buffered_spmv(&m, &x, &pool, 3);
            let g = gflops(nnz, t);
            if g > best.0 {
                best = (g, ps, kb);
            }
            print!("{g:>8.2}");
        }
        println!();
    }
    println!(
        "\nbest: {:.2} GFLOPS at partition {} / buffer {} KB (paper's KNL peak: partition 128, 8 KB)",
        best.0, best.1, best.2
    );
}
