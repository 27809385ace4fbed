//! Fig 7: communication footprints and the sparse communication matrix
//! for 16 processes on a 256×256 reconstruction.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig7 [ranks]
//! ```

use memxct::dist::build_plans;
use xct_bench::{preprocess, Config, Kernel};
use xct_geometry::{Grid, ScanGeometry};

fn main() {
    let ranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let n = 256u32;
    let ops = preprocess(
        Grid::new(n),
        ScanGeometry::new(n, n),
        &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let plans = build_plans(&ops, ranks, false);

    println!("Fig 7: sparse communication matrix, {ranks} processes, {n}x{n} domains");
    println!("(entries: KB sent per forward projection, row = sender, col = receiver)\n");

    // Forward-projection communication: rank r sends its partial sinogram
    // values in q's range to q.
    let mut matrix = vec![vec![0u64; ranks]; ranks];
    for plan in &plans {
        for (q, range) in plan.dest_ranges.iter().enumerate() {
            if q != plan.rank {
                matrix[plan.rank][q] = (range.len() * 4) as u64;
            }
        }
    }

    print!("{:>5}", "");
    for d in 0..ranks {
        print!("{d:>7}");
    }
    println!();
    for (s, row) in matrix.iter().enumerate() {
        print!("{s:>5}");
        for &b in row {
            if b == 0 {
                print!("{:>7}", ".");
            } else {
                print!("{:>7.1}", b as f64 / 1024.0);
            }
        }
        println!();
    }

    let nonzero: usize = matrix.iter().flatten().filter(|&&b| b > 0).count();
    println!(
        "\n{nonzero} of {} off-diagonal pairs communicate ({}% sparse)",
        ranks * ranks - ranks,
        100 - 100 * nonzero / (ranks * ranks - ranks).max(1)
    );

    // Fig 7(d): pairwise traffic of process 7.
    if ranks > 7 {
        println!("\npairwise communication of process 7 (KB):");
        println!("{:>6} {:>10} {:>10}", "pair", "send", "recv");
        for (q, (&sent, row)) in matrix[7].iter().zip(&matrix).enumerate() {
            if q == 7 {
                continue;
            }
            let send = sent as f64 / 1024.0;
            let recv = row[7] as f64 / 1024.0;
            if send > 0.0 || recv > 0.0 {
                println!("{q:>6} {send:>10.2} {recv:>10.2}");
            }
        }
    }

    // Fig 7(e): total incoming/outgoing per process.
    println!("\ntotal communication per process (KB):");
    println!("{:>6} {:>10} {:>10}", "proc", "send", "recv");
    for (p, row) in matrix.iter().enumerate() {
        let send: u64 = row.iter().sum();
        let recv: u64 = matrix.iter().map(|r| r[p]).sum();
        println!(
            "{p:>6} {:>10.1} {:>10.1}",
            send as f64 / 1024.0,
            recv as f64 / 1024.0
        );
    }
    println!("\nthe backprojection matrix is the transpose of the forward one (§3.4.2).");
}
