//! Distributed reconstruction of the mouse-brain dataset (RDS2, scaled):
//! the headline workload of Fig 1, run across thread-ranks with the
//! `A = R·C·A_p` factorization, reporting the per-kernel breakdown and
//! communication matrix of §3.4 / Fig 7.
//!
//! ```text
//! cargo run --release --example brain_distributed [scale_divisor] [ranks]
//! ```

use memxct::prelude::*;
use xct_geometry::{simulate_sinogram, NoiseModel, RDS2};

fn main() {
    let mut args = std::env::args().skip(1);
    let div: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let ds = RDS2.scaled(div);
    println!(
        "RDS2 (mouse brain) scaled 1/{div}: sinogram {}x{}, tomogram {n}x{n}, {ranks} ranks",
        ds.projections,
        ds.channels,
        n = ds.channels
    );

    let grid = ds.grid();
    let scan = ds.scan();
    let truth = ds.phantom().rasterize(ds.channels);
    let sino = simulate_sinogram(
        &truth,
        &grid,
        &scan,
        NoiseModel::Poisson {
            incident: 1e5,
            scale: 0.02,
        },
        3,
    );

    let t = std::time::Instant::now();
    let rec = Reconstructor::new(grid, scan);
    println!(
        "preprocessing {:.2}s; matrix {:.2}M nnz",
        t.elapsed().as_secs_f64(),
        rec.operators().a.nnz() as f64 / 1e6
    );

    let t = std::time::Instant::now();
    let out = rec
        .run(
            &ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(30)).mode(
                ExecMode::Distributed {
                    ranks,
                    ft: FaultTolerance::disabled(),
                },
            ),
        )
        .expect("distributed reconstruction failed");
    let dist = out.dist.as_ref().expect("distributed runs report detail");
    println!(
        "30 distributed CG iterations in {:.2}s; relative L2 error {:.4}",
        t.elapsed().as_secs_f64(),
        rel_err(&out.images[0], &truth)
    );

    println!("\nper-rank kernel breakdown (accumulated seconds, Fig 11 style):");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "rank", "A_p", "C", "R", "total"
    );
    for (r, kb) in dist.breakdowns.iter().enumerate() {
        println!(
            "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            r,
            kb.ap_s,
            kb.c_s,
            kb.r_s,
            kb.total()
        );
    }

    println!("\ncommunication matrix (KiB sent, row=src col=dst; Fig 7c):");
    print!("{:>6}", "");
    for d in 0..ranks {
        print!("{d:>8}");
    }
    println!();
    for s in 0..ranks {
        print!("{s:>6}");
        for d in 0..ranks {
            print!("{:>8.1}", dist.ledger.bytes(s, d) as f64 / 1024.0);
        }
        println!();
    }
    println!(
        "\ntotal traffic {:.2} MiB over {} communicating pairs (of {} possible)",
        dist.ledger.total() as f64 / (1024.0 * 1024.0),
        dist.ledger.nonzero_pairs(),
        ranks * ranks - ranks,
    );

    println!("\nper-rank modeled volumes (for the machine model of Tables 5/7, Fig 11):");
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>8}",
        "rank", "regular MiB", "comm KiB", "reduce KiB", "peers"
    );
    for (r, v) in dist.volumes.iter().enumerate() {
        println!(
            "{:>6} {:>14.2} {:>14.1} {:>12.1} {:>8.0}",
            r,
            v.regular_bytes / (1024.0 * 1024.0),
            v.comm_bytes / 1024.0,
            v.reduce_bytes / 1024.0,
            v.comm_peers
        );
    }
}

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
