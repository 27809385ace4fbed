//! SpMV roofline benchmark: vectorized kernels against a measured
//! bandwidth ceiling, across datasets, thread counts, and layouts.
//!
//! Emits `BENCH_spmv.json` (hand-rolled, schema below) so the repo keeps
//! a perf trajectory across PRs. Every production variant must be
//! bit-identical to its family's serial kernel — the determinism
//! contract of the lane-order kernels (`xct_sparse::lanes`).
//!
//! ```text
//! cargo run --release -p xct-bench --bin spmv-bench -- \
//!     [--dataset ads1,ads2,...] [--scale D[,D...]] [--reps N]
//! cargo run --release -p xct-bench --bin spmv-bench [scale_divisor] [reps]   # legacy: ADS1 only
//! ```
//!
//! JSON schema (one object, `schema_version` 2):
//! - `bench`: `"spmv"`, `generated_by`: binary name
//! - `reps`: timed repetitions per variant (median reported)
//! - `stream`: `{triad_gbs, gbs_by_threads, array_mb}` — a STREAM-style
//!   triad (`a = b + q·c` over three DRAM-sized arrays) measuring the
//!   sustainable bandwidth ceiling; `triad_gbs` is the best across the
//!   thread counts.
//! - `retired`: variants dropped from the schema and why (`scoped`: per-
//!   call thread spawns, strictly dominated by `pooled_*` in every
//!   committed measurement; `pooled_tiled`: the cache-blocked tiled-CSR
//!   layout, slower than `pooled_nnz` in 11 of its 12 committed cells —
//!   both kept only as prose in DESIGN.md).
//! - `datasets`: one block per swept dataset:
//!   - `matrix`: `{dataset, scale, nrows, ncols, nnz}`
//!   - `bit_identical`: every variant matched its family's serial kernel
//!     bitwise (CSR-lane and buffered are distinct deterministic
//!     orders; `serial` — the scalar Listing 2 chain — is the roofline
//!     baseline and is only checked to tolerance)
//!   - `results`: `{variant, threads, median_seconds, gflops,
//!     bytes_per_second, fraction_of_peak, speedup_vs_serial, imbalance}`
//!     with `variant` ∈ `serial | vector | pooled_equal | pooled_nnz |
//!     pooled_buf`. `bytes_per_second` is the variant's
//!     regular-data stream (8 B/nnz CSR, 6 B/nnz + 4 B/slot buffered)
//!     over the median time; `fraction_of_peak` is that rate over the
//!     triad ceiling, clamped to 1.0 (cache-resident matrices can stream
//!     faster than DRAM).
//!   - `spmm_results`: the batched sweep, batch ∈ 1/4/8/16/64, with
//!     `variant` ∈ `serial | pooled_nnz` (CSR) and `buffered |
//!     pooled_buf` (the production layout, serial and pooled):
//!     `{variant, threads, batch, median_seconds, gflops,
//!     bytes_per_second, fraction_of_peak, matrix_bytes_per_slice}` —
//!     the matrix is streamed once per call regardless of batch width, so
//!     `matrix_bytes_per_slice` falls as 1/batch. Every column of every
//!     row is checked bitwise against its layout's serial SpMV.

use std::fmt::Write as _;
use std::time::Instant;
use xct_bench::{bandwidth_gbs, gflops, simulate};
use xct_geometry::{Dataset, ADS1, ADS2, ADS3, ADS4};
use xct_runtime::{ExecPlan, WorkerPool};
use xct_sparse::{
    csr_plan, csr_plan_equal, spmm_into, spmm_pooled_into, spmv_into, spmv_pooled_into,
    spmv_scalar_into, BufferedCsr, CsrMatrix,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 5] = [1, 4, 8, 16, 64];
/// STREAM array length: 16 Mi f32 = 64 MB per array, 3 arrays — far past
/// any cache, so the triad measures DRAM, not LLC.
const STREAM_ELEMS: usize = 16 << 20;
/// Buffered-layout parameters: the preprocessing defaults (partitions of
/// 128 rows staged through a 2048-element / 8 KB buffer).
const BUF_PARTSIZE: usize = 128;
const BUF_BUFFSIZE: usize = 2048;

/// Why the `scoped` variant left the schema.
const RETIRED_SCOPED: &str =
    "per-call thread spawns; strictly dominated by pooled_* in every committed measurement";
/// Why `pooled_tiled` left it, with the last medians it recorded.
const RETIRED_TILED: &str = "cache-blocked tiled-CSR layout, deleted: slower than pooled_nnz in 11 of its 12 committed cells; last medians in ms at 1/2/4 threads (pooled_nnz in parentheses): ADS1 0.311/0.269/0.237 (0.277/0.229/0.239), ADS2 4.034/2.296/2.312 (2.155/1.556/1.482), ADS3 4.768/2.675/2.810 (2.911/1.878/1.783), ADS4 4.110/2.111/2.190 (2.483/1.370/1.328)";

/// Default sweep: every ADS dataset, scaled so the per-dataset nonzero
/// count stays laptop-tractable while the footprints still span
/// cache-resident (ADS1) to DRAM-streaming (ADS3/ADS4) regimes.
const DEFAULT_SWEEP: [(&str, u32); 4] = [("ads1", 4), ("ads2", 4), ("ads3", 8), ("ads4", 16)];

fn dataset_by_name(name: &str) -> Option<(&'static Dataset, u32)> {
    match name.to_ascii_lowercase().as_str() {
        "ads1" => Some((&ADS1, 4)),
        "ads2" => Some((&ADS2, 4)),
        "ads3" => Some((&ADS3, 8)),
        "ads4" => Some((&ADS4, 16)),
        _ => None,
    }
}

struct Args {
    sweep: Vec<(&'static Dataset, u32)>,
    reps: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: spmv-bench [--dataset ads1,ads2,...] [--scale D[,D...]] [--reps N]\n\
         \u{20}      spmv-bench [scale_divisor] [reps]    (legacy: ADS1 only)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Option<Vec<String>> = None;
    let mut scales: Option<Vec<u32>> = None;
    let mut reps = 33usize;
    let mut positional: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dataset" | "-d" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                names = Some(v.split(',').map(|s| s.to_string()).collect());
            }
            "--scale" | "-s" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                let list: Option<Vec<u32>> = v
                    .split(',')
                    .map(|s| s.parse().ok().filter(|&d| d > 0))
                    .collect();
                scales = Some(list.unwrap_or_else(|| usage()));
            }
            "--reps" | "-r" => {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage());
                reps = v.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| usage());
            }
            a => match a.parse::<u32>() {
                Ok(v) if v > 0 && positional.len() < 2 => positional.push(v),
                _ => usage(),
            },
        }
        i += 1;
    }
    if !positional.is_empty() {
        if names.is_some() || scales.is_some() {
            usage();
        }
        // Legacy single-dataset mode: `spmv-bench [scale] [reps]` on ADS1.
        if positional.len() == 2 {
            reps = positional[1] as usize;
        }
        return Args {
            sweep: vec![(&ADS1, positional[0])],
            reps,
        };
    }
    let sweep: Vec<(&'static Dataset, u32)> = match names {
        None => DEFAULT_SWEEP
            .iter()
            .map(|&(n, _)| dataset_by_name(n).expect("default dataset"))
            .collect(),
        Some(list) => list
            .iter()
            .map(|n| dataset_by_name(n).unwrap_or_else(|| usage()))
            .collect(),
    };
    let sweep = match scales {
        None => sweep,
        Some(s) if s.len() == 1 => sweep.into_iter().map(|(d, _)| (d, s[0])).collect(),
        Some(s) if s.len() == sweep.len() => sweep
            .into_iter()
            .zip(&s)
            .map(|((d, _), &sc)| (d, sc))
            .collect(),
        Some(_) => usage(),
    };
    Args { sweep, reps }
}

/// Best triad bandwidth (GB/s) over `reps` passes at one pool size.
/// STREAM convention: 12 bytes move per element (two reads, one write).
fn stream_triad_gbs(pool: &WorkerPool, threads: usize, a: &mut [f32], b: &[f32], c: &[f32]) -> f64 {
    let plan = ExecPlan::equal_rows(a.len(), threads);
    let q = 1.5f32;
    let mut best = f64::MAX;
    for _ in 0..8 {
        let t = Instant::now();
        pool.run(&plan, a, |_parts, range, out| {
            let bs = &b[range.start..range.end];
            let cs = &c[range.start..range.end];
            for ((o, &bb), &cc) in out.iter_mut().zip(bs).zip(cs) {
                *o = bb + q * cc;
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
    }
    12.0 * a.len() as f64 / best / 1e9
}

/// One measured execution strategy: its kernel plus collected samples.
/// All variants are timed **interleaved** (round-robin within each rep)
/// so slow drift — frequency scaling, background load — lands evenly on
/// every variant instead of biasing whichever block ran last.
struct Variant<'a> {
    name: &'static str,
    threads: usize,
    /// Regular-data bytes one call streams (the roofline numerator).
    bytes: u64,
    imbalance: f64,
    times: Vec<f64>,
    f: Box<dyn FnMut() + 'a>,
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct Row {
    variant: &'static str,
    threads: usize,
    seconds: f64,
    gflops: f64,
    bytes_per_second: f64,
    fraction_of_peak: f64,
    speedup: f64,
    imbalance: f64,
}

struct SpmmRow {
    variant: &'static str,
    threads: usize,
    batch: usize,
    seconds: f64,
    gflops: f64,
    bytes_per_second: f64,
    fraction_of_peak: f64,
    bytes_per_slice: f64,
}

struct DatasetBlock {
    name: &'static str,
    scale: u32,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    bit_identical: bool,
    rows: Vec<Row>,
    spmm_rows: Vec<SpmmRow>,
}

/// One SpMM kernel under test: fills the slice-major output slab from
/// the slice-major input slab.
type SpmmKernel<'a> = Box<dyn FnMut(&[f32], &mut [f32]) + 'a>;

/// One row of the SpMM sweep: the kernel, the regular bytes one call
/// streams, and the serial SpMV every output column must equal bitwise.
struct SpmmRun<'a> {
    name: &'static str,
    threads: usize,
    bytes: u64,
    kernel: SpmmKernel<'a>,
    column_ref: &'a dyn Fn(&[f32], &mut [f32]),
}

fn bits_match(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn frac(bytes_per_second: f64, peak_gbs: f64) -> f64 {
    (bytes_per_second / (peak_gbs * 1e9)).min(1.0)
}

fn run_dataset(
    ds: &Dataset,
    div: u32,
    reps: usize,
    pools: &[WorkerPool],
    peak_gbs: f64,
) -> DatasetBlock {
    let sds = ds.scaled(div);
    let ops = xct_bench::preprocess(
        sds.grid(),
        sds.scan(),
        &xct_bench::Config {
            kernel: xct_bench::Kernel::Serial,
            ..xct_bench::Config::default()
        },
    );
    let a: &CsrMatrix = &ops.a;
    let (_, sino) = simulate(&sds, false);
    // A realistic input: one backprojection of the simulated sinogram.
    let mut x = vec![0f32; a.ncols()];
    spmv_into(&ops.at, ops.order_sinogram(&sino).as_slice(), &mut x);
    let x: &[f32] = &x;

    let buf = BufferedCsr::from_csr(a, BUF_PARTSIZE, BUF_BUFFSIZE);

    println!(
        "\n=== {} (scale 1/{div}): {} rows x {} cols, {} nnz ===",
        sds.name,
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    println!(
        "{:<14} {:>8} {:>12} {:>8} {:>8} {:>6} {:>9} {:>10}",
        "variant", "threads", "median", "gflops", "GB/s", "peak", "speedup", "imbalance"
    );

    // Family references for the bit-identity round.
    let mut want_vec = vec![0f32; a.nrows()];
    spmv_into(a, x, &mut want_vec);
    let mut want_scalar = vec![0f32; a.nrows()];
    spmv_scalar_into(a, x, &mut want_scalar);
    let want_buf = buf.spmv(x);
    // The scalar baseline sums in a different order — same values to
    // tolerance, rarely the same bits.
    for (s, v) in want_scalar.iter().zip(&want_vec) {
        let scale = s.abs().max(v.abs()).max(1.0);
        assert!((s - v).abs() <= 1e-4 * scale, "scalar vs lane: {s} vs {v}");
    }

    // Pools and plans are built once outside the timed region — that is
    // the whole point of the execution layer.
    let mut variants: Vec<Variant> = Vec::new();
    variants.push(Variant {
        name: "serial",
        threads: 1,
        bytes: a.regular_bytes(),
        imbalance: 1.0,
        times: Vec::new(),
        f: {
            let mut y = vec![0f32; a.nrows()];
            Box::new(move || spmv_scalar_into(a, x, &mut y))
        },
    });
    variants.push(Variant {
        name: "vector",
        threads: 1,
        bytes: a.regular_bytes(),
        imbalance: 1.0,
        times: Vec::new(),
        f: {
            let mut y = vec![0f32; a.nrows()];
            Box::new(move || spmv_into(a, x, &mut y))
        },
    });
    for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
        let pool = &pools[i];
        for (name, plan) in [
            ("pooled_equal", csr_plan_equal(a, threads)),
            ("pooled_nnz", csr_plan(a, threads)),
        ] {
            let mut y = vec![0f32; a.nrows()];
            variants.push(Variant {
                name,
                threads,
                bytes: a.regular_bytes(),
                imbalance: plan.imbalance(),
                times: Vec::new(),
                f: Box::new(move || spmv_pooled_into(a, x, &mut y, &plan, pool)),
            });
        }
        // The u16 buffered kernel through the same pooled dispatch path:
        // staging + lane-split accumulation, persistent worker scratch.
        {
            let plan = buf.exec_plan(threads);
            let imbalance = plan.imbalance();
            let mut y = vec![0f32; a.nrows()];
            let b = &buf;
            variants.push(Variant {
                name: "pooled_buf",
                threads,
                bytes: buf.regular_bytes(),
                imbalance,
                times: Vec::new(),
                f: Box::new(move || b.spmv_pooled_into(x, &mut y, &plan, pool)),
            });
        }
    }

    // Interleaved measurement: warmup round, then `reps` rounds timing
    // every variant back to back.
    for v in &mut variants {
        (v.f)();
    }
    for _ in 0..reps {
        for v in &mut variants {
            let t = Instant::now();
            (v.f)();
            v.times.push(t.elapsed().as_secs_f64());
        }
    }

    let rows: Vec<Row> = variants
        .iter_mut()
        .map(|v| {
            let seconds = median(&mut v.times);
            let bps = bandwidth_gbs(v.bytes, seconds) * 1e9;
            Row {
                variant: v.name,
                threads: v.threads,
                seconds,
                gflops: gflops(a.nnz(), seconds),
                bytes_per_second: bps,
                fraction_of_peak: frac(bps, peak_gbs),
                speedup: 0.0, // filled below
                imbalance: v.imbalance,
            }
        })
        .collect();
    let serial_s = rows[0].seconds;
    let mut rows: Vec<Row> = rows
        .into_iter()
        .map(|mut r| {
            r.speedup = serial_s / r.seconds;
            r
        })
        .collect();
    rows.iter_mut().for_each(|r| {
        println!(
            "{:<14} {:>8} {:>9.1} us {:>8.2} {:>8.2} {:>5.0}% {:>8.2}x {:>10.3}",
            r.variant,
            r.threads,
            r.seconds * 1e6,
            r.gflops,
            r.bytes_per_second / 1e9,
            r.fraction_of_peak * 100.0,
            r.speedup,
            r.imbalance
        );
    });

    // Bit-identity: rerun each strategy once into a fresh buffer and
    // compare against its family's serial reference.
    let mut bit_identical = true;
    for (i, &threads) in THREAD_COUNTS.iter().enumerate() {
        let mut y = vec![0f32; a.nrows()];
        for plan in [csr_plan_equal(a, threads), csr_plan(a, threads)] {
            y.fill(0.0);
            spmv_pooled_into(a, x, &mut y, &plan, &pools[i]);
            bit_identical &= bits_match(&y, &want_vec);
        }
        y.fill(0.0);
        buf.spmv_pooled_into(x, &mut y, &buf.exec_plan(threads), &pools[i]);
        bit_identical &= bits_match(&y, &want_buf);
    }
    assert!(bit_identical, "a variant diverged from its serial kernel");
    println!("bit-identical within every kernel family: {bit_identical}");

    // Batched (SpMM) sweep: one call streams the matrix once for `batch`
    // distinct right-hand sides, so the matrix traffic charged to each
    // slice shrinks by 1/batch — the memory-centric payoff of batching.
    let spmm_threads = *THREAD_COUNTS.last().unwrap();
    let spmm_pool = pools.last().unwrap();
    let spmm_plan = csr_plan(a, spmm_threads);
    let buf_plan = buf.exec_plan(spmm_threads);
    let csr_ref = |xj: &[f32], yj: &mut [f32]| spmv_into(a, xj, yj);
    let buf_ref = |xj: &[f32], yj: &mut [f32]| buf.spmv_into(xj, yj);
    let mut spmm_rows: Vec<SpmmRow> = Vec::new();
    let mut spmm_identical = true;
    println!(
        "{:<14} {:>8} {:>6} {:>12} {:>8} {:>8} {:>12}",
        "spmm variant", "threads", "batch", "median", "gflops", "GB/s", "KB/slice"
    );
    for &k in &BATCHES {
        // Slice-major inputs, handed to the kernels slice-interleaved.
        let mut xs = Vec::with_capacity(a.ncols() * k);
        for j in 0..k {
            let scale = 1.0 + 0.01 * j as f32;
            xs.extend(x.iter().map(|&v| v * scale));
        }
        let mut xk = vec![0f32; xs.len()];
        xct_sparse::interleave(&xs, &mut xk, k);
        let mut yk = vec![0f32; a.nrows() * k];
        let mut ys = vec![0f32; yk.len()];
        let mut yj = vec![0f32; a.nrows()];
        let runs = [
            SpmmRun {
                name: "serial",
                threads: 1,
                bytes: a.regular_bytes(),
                kernel: Box::new(|xk, yk| spmm_into(a, xk, yk, k)),
                column_ref: &csr_ref,
            },
            SpmmRun {
                name: "pooled_nnz",
                threads: spmm_threads,
                bytes: a.regular_bytes(),
                kernel: Box::new(|xk, yk| spmm_pooled_into(a, xk, yk, k, &spmm_plan, spmm_pool)),
                column_ref: &csr_ref,
            },
            // The production layout: the slice-interleaved buffered
            // kernel, whose per-nonzero work is shared by a slice block.
            SpmmRun {
                name: "buffered",
                threads: 1,
                bytes: buf.regular_bytes(),
                kernel: Box::new(|xk, yk| buf.spmm_into(xk, yk, k)),
                column_ref: &buf_ref,
            },
            SpmmRun {
                name: "pooled_buf",
                threads: spmm_threads,
                bytes: buf.regular_bytes(),
                kernel: Box::new(|xk, yk| buf.spmm_pooled_into(xk, yk, k, &buf_plan, spmm_pool)),
                column_ref: &buf_ref,
            },
        ];
        for mut run in runs {
            (run.kernel)(&xk, &mut yk); // warmup
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                (run.kernel)(&xk, &mut yk);
                times.push(t.elapsed().as_secs_f64());
            }
            // Every column must be bit-identical to its own serial SpMV.
            xct_sparse::deinterleave(&yk, &mut ys, k);
            for j in 0..k {
                (run.column_ref)(&xs[j * a.ncols()..(j + 1) * a.ncols()], &mut yj);
                spmm_identical &= bits_match(&ys[j * a.nrows()..(j + 1) * a.nrows()], &yj);
            }
            let seconds = median(&mut times);
            let bps = bandwidth_gbs(run.bytes, seconds) * 1e9;
            println!(
                "{:<14} {:>8} {:>6} {:>9.1} us {:>8.2} {:>8.2} {:>12.1}",
                run.name,
                run.threads,
                k,
                seconds * 1e6,
                gflops(a.nnz() * k, seconds),
                bps / 1e9,
                run.bytes as f64 / k as f64 / 1e3
            );
            spmm_rows.push(SpmmRow {
                variant: run.name,
                threads: run.threads,
                batch: k,
                seconds,
                gflops: gflops(a.nnz() * k, seconds),
                bytes_per_second: bps,
                fraction_of_peak: frac(bps, peak_gbs),
                bytes_per_slice: run.bytes as f64 / k as f64,
            });
        }
    }
    assert!(
        spmm_identical,
        "an SpMM column diverged from its layout's serial SpMV"
    );

    DatasetBlock {
        name: sds.name,
        scale: div,
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        bit_identical: bit_identical && spmm_identical,
        rows,
        spmm_rows,
    }
}

fn main() {
    let args = parse_args();
    let pools: Vec<WorkerPool> = THREAD_COUNTS.iter().map(|&t| WorkerPool::new(t)).collect();

    // The roofline ceiling: best sustainable triad bandwidth.
    let mut sa = vec![0f32; STREAM_ELEMS];
    let sb: Vec<f32> = (0..STREAM_ELEMS).map(|i| (i % 17) as f32).collect();
    let sc: Vec<f32> = (0..STREAM_ELEMS).map(|i| (i % 13) as f32 * 0.5).collect();
    let gbs_by_threads: Vec<f64> = THREAD_COUNTS
        .iter()
        .zip(&pools)
        .map(|(&t, pool)| stream_triad_gbs(pool, t, &mut sa, &sb, &sc))
        .collect();
    drop(sa);
    let peak_gbs = gbs_by_threads.iter().copied().fold(0.0, f64::max);
    println!(
        "STREAM triad ceiling: {peak_gbs:.2} GB/s (by threads {THREAD_COUNTS:?}: {:?})",
        gbs_by_threads
            .iter()
            .map(|g| (g * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    let blocks: Vec<DatasetBlock> = args
        .sweep
        .iter()
        .map(|&(ds, div)| run_dataset(ds, div, args.reps, &pools, peak_gbs))
        .collect();

    // The regression gate: the vectorized pooled kernel must beat the
    // scalar serial baseline at 2 and 4 threads on every swept dataset.
    let mut won = true;
    for b in &blocks {
        for threads in [2usize, 4] {
            let r = b
                .rows
                .iter()
                .find(|r| r.variant == "pooled_nnz" && r.threads == threads)
                .expect("pooled_nnz measured");
            println!(
                "{} pooled_nnz vs serial at {threads} threads: {:.2}x",
                b.name, r.speedup
            );
            won &= r.speedup > 1.0;
        }
    }

    let json = render_json(args.reps, peak_gbs, &gbs_by_threads, &blocks);
    std::fs::write("BENCH_spmv.json", &json).expect("write BENCH_spmv.json");
    println!("wrote BENCH_spmv.json");
    assert!(
        won,
        "vectorized pooled_nnz did not beat the serial baseline at every thread count >= 2"
    );
}

fn render_json(
    reps: usize,
    peak_gbs: f64,
    gbs_by_threads: &[f64],
    blocks: &[DatasetBlock],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"spmv\",\n");
    s.push_str("  \"generated_by\": \"spmv-bench\",\n");
    s.push_str("  \"schema_version\": 2,\n");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(
        s,
        "  \"stream\": {{\"triad_gbs\": {:.4}, \"gbs_by_threads\": [{}], \"array_mb\": {}}},",
        peak_gbs,
        gbs_by_threads
            .iter()
            .map(|g| format!("{g:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        STREAM_ELEMS * 4 / (1 << 20)
    );
    let _ = writeln!(
        s,
        "  \"retired\": {{\"scoped\": \"{RETIRED_SCOPED}\", \"pooled_tiled\": \"{RETIRED_TILED}\"}},"
    );
    s.push_str("  \"datasets\": [\n");
    for (bi, b) in blocks.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(
            s,
            "      \"matrix\": {{\"dataset\": \"{}\", \"scale\": {}, \"nrows\": {}, \"ncols\": {}, \"nnz\": {}}},",
            b.name, b.scale, b.nrows, b.ncols, b.nnz
        );
        let _ = writeln!(s, "      \"bit_identical\": {},", b.bit_identical);
        s.push_str("      \"results\": [\n");
        for (i, r) in b.rows.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"variant\": \"{}\", \"threads\": {}, \"median_seconds\": {:.9}, \"gflops\": {:.4}, \"bytes_per_second\": {:.0}, \"fraction_of_peak\": {:.4}, \"speedup_vs_serial\": {:.4}, \"imbalance\": {:.4}}}",
                r.variant,
                r.threads,
                r.seconds,
                r.gflops,
                r.bytes_per_second,
                r.fraction_of_peak,
                r.speedup,
                r.imbalance
            );
            s.push_str(if i + 1 < b.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ],\n");
        s.push_str("      \"spmm_results\": [\n");
        for (i, r) in b.spmm_rows.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"variant\": \"{}\", \"threads\": {}, \"batch\": {}, \"median_seconds\": {:.9}, \"gflops\": {:.4}, \"bytes_per_second\": {:.0}, \"fraction_of_peak\": {:.4}, \"matrix_bytes_per_slice\": {:.1}}}",
                r.variant,
                r.threads,
                r.batch,
                r.seconds,
                r.gflops,
                r.bytes_per_second,
                r.fraction_of_peak,
                r.bytes_per_slice
            );
            s.push_str(if i + 1 < b.spmm_rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("      ]\n");
        s.push_str(if bi + 1 < blocks.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}
