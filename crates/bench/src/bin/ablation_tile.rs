//! Ablation: tile granularity (§3.4): "While processes are not perfectly
//! load balanced, it can be improved by finer tile granularity at the
//! cost of more preprocessing."
//!
//! Sweeps the level-1 tile size and reports process load imbalance,
//! communication volume, ordering-construction cost, and curve adjacency.
//!
//! ```text
//! cargo run --release -p xct-bench --bin ablation_tile [scale_divisor]
//! ```

use memxct::dist::build_plans;
use memxct::{preprocess, Config, DomainOrdering, Kernel};
use std::time::Instant;
use xct_bench::scale_from_args;
use xct_geometry::ADS2;
use xct_hilbert::TwoLevelOrdering;

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled(div);
    let n = ds.channels;
    let ranks = 16;
    println!(
        "tile-size ablation on {} scaled 1/{div} ({}x{}), {ranks} ranks\n",
        ds.name, ds.projections, ds.channels
    );
    println!(
        "{:<6} {:>10} {:>14} {:>14} {:>12} {:>14}",
        "tile", "tiles", "imbalance", "comm KB", "adjacency", "ordering ms"
    );

    for k in 1..=6u32 {
        let tile = 1 << k;
        if tile > n {
            break;
        }
        let t0 = Instant::now();
        let two = TwoLevelOrdering::new(n, n, tile);
        let ordering_ms = t0.elapsed().as_secs_f64() * 1e3;
        let adjacency = two.ordering().adjacency_fraction();
        let num_tiles = two.layout().num_tiles();

        // Load imbalance of the rank decomposition: max/mean cells.
        let ranges = two.layout().partition_ranks(ranks);
        let sizes: Vec<f64> = ranges.iter().map(|r| (r.end - r.start) as f64).collect();
        let mean = sizes.iter().sum::<f64>() / ranks as f64;
        let imbalance = sizes.iter().cloned().fold(0.0, f64::max) / mean;

        let ops = preprocess(
            ds.grid(),
            ds.scan(),
            &Config {
                ordering: DomainOrdering::TwoLevelHilbert(Some(tile)),
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        let plans = build_plans(&ops, ranks, false);
        let comm: f64 = plans.iter().map(|p| p.volumes().comm_bytes).sum();

        println!(
            "{:<6} {:>10} {:>13.3}x {:>14.1} {:>11.1}% {:>14.2}",
            tile,
            num_tiles,
            imbalance,
            comm / 1024.0,
            adjacency * 100.0,
            ordering_ms
        );
    }
    println!("\nfiner tiles => near-perfect load balance (imbalance -> 1.0) and finer");
    println!("communication granularity, at more level-1 curve overhead; coarse tiles");
    println!("cheapen preprocessing but skew rank loads — exactly the trade §3.4 states.");
}
