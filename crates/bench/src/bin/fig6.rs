//! Fig 6: partition footprints, data reuse, and multi-stage buffer shapes.
//!
//! The paper's example: 256×256 tomogram and sinogram domains, 64×64
//! partitions (4096 rows). The tomogram partition (backprojection rows)
//! reads the sinogram domain with average data reuse 64.73; the sinogram
//! partition (forward rows) reads the tomogram domain with reuse 46.63.
//! With a 32 KB buffer (8192 f32), the two partitions need 3 and 4 stages.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig6
//! ```

use xct_bench::{preprocess, Config, Kernel};
use xct_geometry::{Grid, ScanGeometry};
use xct_sparse::partition_stats;

fn main() {
    let n = 256u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(n, n); // 256x256 sinogram domain
    let ops = preprocess(
        grid,
        scan,
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );

    let partsize = 64 * 64; // one 64x64 subdomain worth of rows
    let buffsize_f32 = 32 * 1024 / 4; // 32 KB buffer

    println!("Fig 6: partition footprints and buffer stages");
    println!("256x256 domains, 64x64 partitions ({partsize} rows), 32 KB buffer\n");
    println!(
        "{:<22} {:>8} {:>11} {:>12} {:>8} {:>14}",
        "partition (reads from)", "nnz", "footprint", "avg reuse", "stages", "paper reuse"
    );

    // Sinogram partition -> reads tomogram domain (rows of A).
    let fwd = partition_stats(&ops.a, partsize, buffsize_f32);
    let mid = fwd.len() / 2;
    let s = &fwd[mid];
    println!(
        "{:<22} {:>8} {:>11} {:>12.2} {:>8} {:>14}",
        "sinogram (tomogram)",
        s.nnz,
        s.footprint,
        s.reuse(),
        s.stages,
        "46.63 / 4 stg"
    );

    // Tomogram partition -> reads sinogram domain (rows of A^T).
    let back = partition_stats(&ops.at, partsize, buffsize_f32);
    let mid = back.len() / 2;
    let s = &back[mid];
    println!(
        "{:<22} {:>8} {:>11} {:>12.2} {:>8} {:>14}",
        "tomogram (sinogram)",
        s.nnz,
        s.footprint,
        s.reuse(),
        s.stages,
        "64.73 / 3 stg"
    );

    // Whole-matrix view: reuse and stage distribution across partitions.
    println!("\nper-partition distribution (all partitions):");
    for (name, stats) in [("forward", &fwd), ("backprojection", &back)] {
        let reuse: Vec<f64> = stats.iter().map(|s| s.reuse()).collect();
        let stages: Vec<usize> = stats.iter().map(|s| s.stages).collect();
        let mean_reuse = reuse.iter().sum::<f64>() / reuse.len() as f64;
        let max_stage = stages.iter().max().unwrap();
        let min_stage = stages.iter().min().unwrap();
        println!(
            "  {name:<16} partitions {:>3}  mean reuse {:>7.2}  stages {}..{}",
            stats.len(),
            mean_reuse,
            min_stage,
            max_stage
        );
    }
    println!("\nhigher reuse on the backprojection side matches the paper: sinogram data");
    println!("is reused more, which is why MemXCT communicates sinograms (§3.4.2).");
}
