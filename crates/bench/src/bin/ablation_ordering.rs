//! Ablation: which properties of the two-level pseudo-Hilbert ordering
//! matter? (§3.2's design rationale.)
//!
//! Compares six orderings of both domains on four axes: curve continuity,
//! partition connectivity (thread/process locality), simulated L2 miss
//! rate of the irregular SpMV stream, and total communication volume of a
//! 16-rank decomposition. The paper argues Morton fails on partition
//! connectivity (§3.2.3) and row-major fails on cache locality (§3.2.1);
//! this makes both failure modes measurable.
//!
//! ```text
//! cargo run --release -p xct-bench --bin ablation_ordering [scale_divisor]
//! ```

use memxct::dist::build_plans;
use memxct::{preprocess, Config, DomainOrdering, Kernel};
use xct_bench::scale_from_args;
use xct_cachesim::{spmv_irregular_miss_rate, CacheConfig};
use xct_geometry::ADS2;
use xct_hilbert::Ordering2D;

fn ordering_2d(ordering: DomainOrdering, w: u32, h: u32) -> Ordering2D {
    match ordering {
        DomainOrdering::RowMajor => Ordering2D::row_major(w, h),
        DomainOrdering::ColumnMajor => Ordering2D::column_major(w, h),
        DomainOrdering::HilbertSquare => Ordering2D::hilbert_square(w, h),
        DomainOrdering::Gilbert => Ordering2D::gilbert(w, h),
        DomainOrdering::Morton => Ordering2D::morton(w, h),
        DomainOrdering::TwoLevelHilbert(t) => Ordering2D::two_level_hilbert(
            w,
            h,
            t.unwrap_or_else(|| xct_hilbert::default_tile_size(w, h)),
        ),
    }
}

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled(div);
    let n = ds.channels;
    println!(
        "ordering ablation on {} scaled 1/{div} ({}x{}), 16 ranks\n",
        ds.name, ds.projections, ds.channels
    );
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "ordering", "adjacency", "conn parts", "L2 miss", "comm total KB", "comm pairs"
    );

    let orderings = [
        ("row-major", DomainOrdering::RowMajor),
        ("column-major", DomainOrdering::ColumnMajor),
        ("morton", DomainOrdering::Morton),
        ("hilbert-square", DomainOrdering::HilbertSquare),
        ("gilbert", DomainOrdering::Gilbert),
        ("two-level", DomainOrdering::TwoLevelHilbert(None)),
    ];

    // Cache small enough that the scaled tomogram exercises capacity
    // misses (footprint/capacity ratio comparable to the paper's).
    let cache = CacheConfig::new(
        64,
        (n as usize * n as usize / 8).next_power_of_two().max(4096),
        8,
    );

    for (name, ordering) in orderings {
        let ord2d = ordering_2d(ordering, n, n);
        let adjacency = ord2d.adjacency_fraction();
        let connected = ord2d.connected_partition_count(16);

        let ops = preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                ordering,
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        let miss = spmv_irregular_miss_rate(ops.a.colind(), cache).miss_rate();
        let plans = build_plans(&ops, 16, false);
        let comm_total: f64 = plans.iter().map(|p| p.volumes().comm_bytes).sum();
        let pairs: usize = plans
            .iter()
            .flat_map(|p| {
                p.dest_ranges
                    .iter()
                    .enumerate()
                    .filter(move |(q, r)| *q != p.rank && !r.is_empty())
            })
            .count();
        println!(
            "{:<18} {:>9.1}% {:>9}/16 {:>11.1}% {:>14.1} {:>9}/240",
            name,
            adjacency * 100.0,
            connected,
            miss * 100.0,
            comm_total / 1024.0,
            pairs
        );
    }
    println!("\nreading the table: two-level hilbert is the only ordering that wins on");
    println!("*both* cache locality (low miss rate) and partition structure (connected");
    println!("partitions, low communication) — the paper's justification for the");
    println!("two-level construction over Morton (§3.2.3) and row-major (§3.2.1).");
}
