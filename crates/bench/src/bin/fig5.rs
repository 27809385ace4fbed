//! Fig 5: data access patterns on 2D domains — cache behaviour of one
//! ray's tomogram footprint (forward projection) and one pixel's sinusoid
//! (backprojection) under row-major vs Hilbert ordering.
//!
//! The paper's worked example uses 16×16 domains with one 64 B cache line
//! per row (row-major) or per 4×4 block (Hilbert): 25 tomogram accesses
//! miss 16 times (64%) row-major vs 6 times (24%) Hilbert; 30 sinogram
//! accesses miss 16 (53%) vs 7 (23%).
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig5
//! ```

use xct_bench::{preprocess, Config, Kernel};
use xct_cachesim::{CacheConfig, CacheSim};
use xct_geometry::{Grid, ScanGeometry};

/// Compulsory-miss count of an index sequence under a given ordering:
/// a huge cache isolates spatial locality (distinct lines touched).
fn misses(indices: &[u32], ranks: &dyn Fn(u32) -> u32) -> (usize, usize) {
    let mut sim = CacheSim::new(CacheConfig::new(64, 1 << 22, 16));
    for &i in indices {
        sim.access(ranks(i) as u64 * 4);
    }
    (sim.stats().accesses as usize, sim.stats().misses as usize)
}

fn main() {
    let n = 16u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(n, n);

    // Build A twice: row-major and two-level Hilbert (4x4 tiles = one
    // cache line per tile, the paper's configuration).
    let rm = preprocess(
        grid,
        scan,
        &Config {
            ordering: memxct::preprocess::DomainOrdering::RowMajor,
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let hl = preprocess(
        grid,
        scan,
        &Config {
            ordering: memxct::preprocess::DomainOrdering::TwoLevelHilbert(Some(4)),
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );

    println!("Fig 5: cache behaviour of single-row footprints (16x16 domains, 64 B lines)");
    println!("paper reference: tomogram 64% row-major vs 24% Hilbert; sinogram 53% vs 23%\n");

    // Forward projection: one sinogram row (ray) gathers a linear footprint
    // from the tomogram domain. Pick an oblique ray (structure like the
    // figure's diagonal line). Row indices differ between the two
    // orderings, so locate the same physical ray in each.
    let pick_proj = n / 3;
    let pick_chan = n / 2;
    println!("forward projection: ray (projection {pick_proj}, channel {pick_chan}) over the tomogram domain");
    println!(
        "{:<14} {:>9} {:>7} {:>10}",
        "ordering", "accesses", "misses", "miss rate"
    );
    for (name, ops) in [("row-major", &rm), ("hilbert", &hl)] {
        let row = ops.sino_ord.rank(pick_chan, pick_proj) as usize;
        // Columns of this row are already in that ordering's ranks.
        let cols: Vec<u32> = ops.a.row(row).map(|(c, _)| c).collect();
        let (acc, miss) = misses(&cols, &|c| c);
        println!(
            "{:<14} {:>9} {:>7} {:>9.0}%",
            name,
            acc,
            miss,
            100.0 * miss as f64 / acc as f64
        );
    }

    // Backprojection: one tomogram pixel gathers a sinusoidal footprint
    // from the sinogram domain (a row of Aᵀ).
    let (px, py) = (n / 4, n / 3);
    println!("\nbackprojection: pixel ({px},{py}) over the sinogram domain");
    println!(
        "{:<14} {:>9} {:>7} {:>10}",
        "ordering", "accesses", "misses", "miss rate"
    );
    for (name, ops) in [("row-major", &rm), ("hilbert", &hl)] {
        let row = ops.tomo_ord.rank(px, py) as usize;
        let cols: Vec<u32> = ops.at.row(row).map(|(c, _)| c).collect();
        let (acc, miss) = misses(&cols, &|c| c);
        println!(
            "{:<14} {:>9} {:>7} {:>9.0}%",
            name,
            acc,
            miss,
            100.0 * miss as f64 / acc as f64
        );
    }

    // Aggregate over the full matrices: the average story, not one row.
    println!("\naggregate over all rows (mean compulsory miss rate per row):");
    println!(
        "{:<14} {:>16} {:>16}",
        "ordering", "forward", "backprojection"
    );
    for (name, ops) in [("row-major", &rm), ("hilbert", &hl)] {
        let fwd = aggregate(&ops.a);
        let back = aggregate(&ops.at);
        println!(
            "{:<14} {:>15.1}% {:>15.1}%",
            name,
            fwd * 100.0,
            back * 100.0
        );
    }
}

/// Mean per-row miss rate with a cold cache per row (spatial locality of
/// each row's footprint in isolation).
fn aggregate(a: &xct_sparse::CsrMatrix) -> f64 {
    let mut total = 0f64;
    let mut rows = 0usize;
    for i in 0..a.nrows() {
        let cols: Vec<u32> = a.row(i).map(|(c, _)| c).collect();
        if cols.is_empty() {
            continue;
        }
        let mut sim = CacheSim::new(CacheConfig::new(64, 1 << 22, 16));
        for &c in &cols {
            sim.access(c as u64 * 4);
        }
        total += sim.stats().miss_rate();
        rows += 1;
    }
    total / rows as f64
}
