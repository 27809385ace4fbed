//! Fig 1: the headline result — a large mouse-brain slice reconstructed
//! with 30 CG iterations, "the largest iterative reconstruction achieved
//! in near-real time" (~10 s on 4096 KNL nodes for 11293²).
//!
//! This binary (a) *executes* the full pipeline on a scaled brain-like
//! phantom, distributed across thread-ranks, writing a viewable PGM; and
//! (b) *models* the full-size run on Theta from exact work volumes — the
//! reproduction of the 10-second claim.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig1 [scale_divisor] [ranks]
//! ```

use memxct::ReconstructorBuilder;
use xct_bench::{analytic_volumes, calibrate_comm, fmt_secs, simulate};
use xct_geometry::{io, RDS2};
use xct_runtime::{iteration_time, THETA};

fn main() {
    let mut args = std::env::args().skip(1);
    let div: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let ranks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    // (a) Executed: scaled RDS2, distributed CG, PGM output.
    let ds = RDS2.scaled(div);
    println!(
        "Fig 1 (executed at scale 1/{div}): {}x{} sinogram -> {n}x{n} brain slice, {ranks} ranks",
        ds.projections,
        ds.channels,
        n = ds.channels
    );
    let (truth, sino) = simulate(&ds, true);
    let t = std::time::Instant::now();
    let rec = ReconstructorBuilder::new(ds.grid(), ds.scan())
        .build()
        .expect("valid dataset geometry");
    let pre = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let out = rec
        .run(
            &memxct::ReconRequest::cg(memxct::ReconInput::Slice(sino), memxct::StopRule::Fixed(30))
                .mode(memxct::ExecMode::Distributed {
                    ranks,
                    ft: memxct::FaultTolerance::disabled(),
                }),
        )
        .expect("distributed reconstruction failed");
    let solve = t.elapsed().as_secs_f64();
    let err = rel_err(&out.images[0], &truth);
    println!(
        "preprocess {:.2}s, 30 CG iterations {:.2}s, relative L2 error {err:.4}",
        pre, solve
    );
    let path = std::path::Path::new("fig1_brain.pgm");
    let n = ds.channels as usize;
    match io::write_pgm(path, n, n, &out.images[0]) {
        Ok(()) => println!("wrote {} ({n}x{n})", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }

    // (b) Modeled at full scale: the 10-second claim.
    println!("\nFig 1 (modeled at full scale): RDS2 = 4501x11283 -> 11293^2 slice");
    let cal = calibrate_comm(&RDS2, (div * 4).max(32), 16);
    for nodes in [2048usize, 4096] {
        let v = analytic_volumes(&RDS2, nodes, &cal);
        match iteration_time(&THETA, &v, nodes) {
            Some(t) => println!(
                "  {nodes} KNL nodes: 30 CG iterations in {} (paper: ~10 s on 4096 nodes)",
                fmt_secs(30.0 * t.total())
            ),
            None => println!("  {nodes} nodes: does not fit"),
        }
    }
    println!(
        "  application memory footprint at full size: {:.1} TiB (paper: 10.2 TiB)",
        2.0 * RDS2.footprint().regular_forward as f64 / 1024f64.powi(4)
    );
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
