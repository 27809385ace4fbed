//! Fig 11: weak and strong scaling with the A_p / C / R kernel breakdown
//! (modeled from exact volumes + calibrated communication constants; see
//! DESIGN.md's substitution note).
//!
//! Weak scaling (a/b): the root dataset's dimensions double per step while
//! nodes grow 8× (compute per step grows 8×). Strong scaling (c/d): fixed
//! datasets, node counts swept. A_p should scale ~1/P (super-linearly
//! where working sets drop into fast memory); C follows O(√P) relative
//! growth.
//!
//! ```text
//! cargo run --release -p xct-bench --bin fig11 [scale_divisor]
//! ```

use memxct::{ReconstructorBuilder, StopRule};
use xct_bench::{analytic_volumes, calibrate_comm, scale_from_args, simulate};
use xct_geometry::{Dataset, SampleKind, ADS2, ADS3, RDS1, RDS2};
use xct_runtime::{iteration_time, MachineSpec, BLUE_WATERS, THETA};

fn grown(root: &Dataset, k: u32) -> Dataset {
    Dataset {
        name: root.name,
        projections: root.projections << k,
        channels: root.channels << k,
        sample: SampleKind::Artificial,
    }
}

fn print_series(title: &str, spec: &MachineSpec, points: &[(usize, Dataset)], cal_div: u32) {
    println!("{title}");
    println!(
        "{:>6} {:>14} {:>10} {:>10} {:>10} {:>10}",
        "nodes", "sinogram", "total s", "A_p s", "C s", "R s"
    );
    // One calibration per series: the communication constants are a
    // property of the decomposition shape, not the absolute size.
    let cal = calibrate_comm(&points[0].1, cal_div, 16);
    for (nodes, ds) in points {
        let v = analytic_volumes(ds, *nodes, &cal);
        match iteration_time(spec, &v, *nodes) {
            Some(t) => {
                let scale = 30.0; // full solve: 30 CG iterations
                println!(
                    "{:>6} {:>7}x{:<6} {:>10.3} {:>10.3} {:>10.4} {:>10.4}",
                    nodes,
                    ds.projections,
                    ds.channels,
                    scale * t.total(),
                    scale * t.ap,
                    scale * t.c,
                    scale * t.r
                );
            }
            None => println!(
                "{:>6} {:>7}x{:<6} {:>10}",
                nodes, ds.projections, ds.channels, "no fit"
            ),
        }
    }
    println!();
}

fn main() {
    let div = scale_from_args().max(8);

    println!("Fig 11: scaling with per-kernel breakdown (modeled, 30 CG iterations)\n");

    // (a) ADS3 weak scaling on Theta: 1500x1024 root, 1 -> 4096 nodes.
    let weak_theta: Vec<(usize, Dataset)> =
        (0..5).map(|k| (8usize.pow(k), grown(&ADS3, k))).collect();
    print_series(
        "(a) ADS3 weak scaling, Theta (paper: good scaling, C grows as O(sqrt P))",
        &THETA,
        &weak_theta,
        div,
    );

    // (b) ADS2 weak scaling on Blue Waters: 750x512 root.
    let weak_bw: Vec<(usize, Dataset)> = (0..5).map(|k| (8usize.pow(k), grown(&ADS2, k))).collect();
    print_series(
        "(b) ADS2 weak scaling, Blue Waters (paper: comm-bound from 512 nodes up)",
        &BLUE_WATERS,
        &weak_bw,
        div,
    );

    // (c) RDS2 strong scaling on Theta: 128 -> 4096 nodes.
    let strong_theta: Vec<(usize, Dataset)> = [128usize, 256, 512, 1024, 2048, 4096]
        .iter()
        .map(|&n| (n, RDS2))
        .collect();
    print_series(
        "(c) RDS2 strong scaling, Theta (paper: scales to 2048 nodes, ~10 s best)",
        &THETA,
        &strong_theta,
        div * 4,
    );

    // (d) RDS1 strong scaling on Blue Waters: 32 -> 4096 nodes.
    let strong_bw: Vec<(usize, Dataset)> = [32usize, 64, 128, 256, 512, 1024, 4096]
        .iter()
        .map(|&n| (n, RDS1))
        .collect();
    print_series(
        "(d) RDS1 strong scaling, Blue Waters (paper: scales to 128 nodes, then comm-bound)",
        &BLUE_WATERS,
        &strong_bw,
        div,
    );

    println!("reading the curves: A_p drops ~1/P (super-linear where the per-node working");
    println!("set falls into MCDRAM/HBM); C shrinks only as 1/sqrt(P) and eventually");
    println!("dominates — the crossover is the strong-scaling limit, as in the paper.");

    // (e) Measured reference: the same A_p / C / R split, actually executed
    // on this host. These numbers come from the operator layer's
    // `KernelBreakdown` — the one timing code path shared by the serial
    // `Reconstructor`, the distributed ranks, and fig9.
    let ds = ADS2.scaled_projections(div.max(8));
    let (_truth, sino) = simulate(&ds, true);
    let rec = ReconstructorBuilder::new(ds.grid(), ds.scan())
        .build()
        .expect("valid dataset geometry");
    let out = rec
        .run(
            &memxct::ReconRequest::cg(memxct::ReconInput::Slice(sino), StopRule::Fixed(30)).mode(
                memxct::ExecMode::Distributed {
                    ranks: 4,
                    ft: memxct::FaultTolerance::disabled(),
                },
            ),
        )
        .expect("distributed reconstruction failed");
    let dist = out.dist.as_ref().expect("distributed runs report detail");
    let n = dist.breakdowns.len() as f64;
    let (ap, c, r) = dist
        .breakdowns
        .iter()
        .fold((0.0, 0.0, 0.0), |(a, b, cc), kb| {
            (a + kb.ap_s, b + kb.c_s, cc + kb.r_s)
        });
    println!(
        "\n(e) measured reference ({}x{}, 4 thread-ranks, 30 CG iterations on this host):",
        ds.projections, ds.channels
    );
    println!(
        "    mean per-rank A_p {:.4} s, C {:.4} s, R {:.4} s (KernelBreakdown schema)",
        ap / n,
        c / n,
        r / n
    );
}
