//! Table 6: comparison with general-purpose SpMV libraries (MKL on KNL,
//! cuSPARSE on GPU) for ADS2.
//!
//! Substitution: a deliberately *generic* parallel CSR SpMV (static equal
//! row chunks, 32-bit indices, no application-specific tuning) plays the
//! role of the vendor library; a matrix-level-padded ELL plays cuSPARSE's
//! ELL. MemXCT's variants then stack its application-specific choices:
//! pseudo-Hilbert ordering → multi-stage buffering. Every row runs on the
//! one worker pool over the same lane kernel, so the "library" row and
//! the "MemXCT baseline" row are the same static schedule on the same
//! row-major matrix — the library allocates its output per call, the
//! baseline reuses one — and the paper's 1.42× between them (MKL's
//! overheads vs a hand-written loop) has no analog here by construction.
//!
//! ```text
//! cargo run --release -p xct-bench --bin table6 [scale_divisor]
//! ```

use memxct::{preprocess, Config, DomainOrdering, Kernel};
use xct_bench::{
    gflops, partition_padded_slots, scale_from_args, spmv_library, time_buffered_spmv,
    time_csr_spmv, time_median,
};
use xct_geometry::ADS2;
use xct_runtime::WorkerPool;
use xct_sparse::BufferedCsr;

fn main() {
    let div = scale_from_args();
    let ds = ADS2.scaled_projections(div);
    println!(
        "Table 6: comparison with a generic SpMV library for {} (projections/{div}: {}x{})\n",
        ds.name, ds.projections, ds.channels
    );

    // Library baseline + MemXCT baseline run on the row-major matrix
    // (no ordering assumption); the optimized variants use Hilbert.
    let rm = preprocess(
        ds.grid(),
        ds.scan(),
        &Config {
            ordering: DomainOrdering::RowMajor,
            kernel: Kernel::Serial,
            ..Config::default()
        },
    );
    let hl = preprocess(ds.grid(), ds.scan(), &Config::default());

    let x_rm: Vec<f32> = (0..rm.a.ncols()).map(|i| (i % 17) as f32 * 0.1).collect();
    let x_hl: Vec<f32> = (0..hl.a.ncols()).map(|i| (i % 17) as f32 * 0.1).collect();
    let reps = 5;
    let nnz = rm.a.nnz();

    let pool = WorkerPool::from_env();
    let t_lib = time_median(
        || std::hint::black_box(spmv_library(&rm.a, &x_rm, &pool)).truncate(0),
        reps,
    );
    let t_base = time_csr_spmv(&rm.a, &x_rm, &pool, reps);
    let t_hil = time_csr_spmv(&hl.a, &x_hl, &pool, reps);
    let buf = BufferedCsr::from_csr(&hl.a, 128, 2048);
    let t_buf = time_buffered_spmv(&buf, &x_hl, &pool, reps);

    println!(
        "{:<26} {:>10} {:>10} {:>9} {:>20}",
        "variant", "time", "GFLOPS", "speedup", "paper speedup (KNL)"
    );
    let rows = [
        ("library SpMV (MKL analog)", t_lib, "1x"),
        ("MemXCT baseline", t_base, "1.42x"),
        ("+ pseudo-Hilbert ordering", t_hil, "4.99x"),
        ("+ multi-stage buffering", t_buf, "6.55x"),
    ];
    for (name, t, paper) in rows {
        println!(
            "{:<26} {:>8.1}ms {:>10.2} {:>8.2}x {:>20}",
            name,
            t * 1e3,
            gflops(nnz, t),
            t_lib / t,
            paper
        );
    }
    println!("\nGPU column (cuSPARSE ELL vs partition-padded ELL): the padding economics —");
    let partition_padded = partition_padded_slots(&hl.a, 128);
    let max_row = (0..hl.a.nrows())
        .map(|i| hl.a.rowptr()[i + 1] - hl.a.rowptr()[i])
        .max()
        .unwrap_or(0);
    let matrix_padded = hl.a.nrows() * max_row;
    println!(
        "  matrix-level padding (cuSPARSE style): {:>12} slots ({:.2}x nnz)",
        matrix_padded,
        matrix_padded as f64 / nnz as f64
    );
    println!(
        "  partition-level padding (MemXCT):      {:>12} slots ({:.2}x nnz)",
        partition_padded,
        partition_padded as f64 / nnz as f64
    );
}
