//! Criterion benchmarks of the SpMV kernel variants (the measured side of
//! Fig 9 / Table 6): baseline CSR, ELL, and the multi-stage buffered
//! kernel, on row-major vs Hilbert-ordered matrices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memxct::{preprocess, Config, DomainOrdering};
use xct_geometry::ADS1;
use xct_runtime::WorkerPool;
use xct_sparse::{csr_plan_equal, spmv_pooled_into, BufferedCsr, EllMatrix};

fn bench_spmv(c: &mut Criterion) {
    let ds = ADS1.scaled(2); // 180x128: small enough for quick criterion runs
    let rm = preprocess(
        ds.grid(),
        ds.scan(),
        &Config {
            ordering: DomainOrdering::RowMajor,
            build_buffered: false,
            ..Config::default()
        },
    );
    let hl = preprocess(
        ds.grid(),
        ds.scan(),
        &Config {
            build_buffered: false,
            ..Config::default()
        },
    );
    let x: Vec<f32> = (0..rm.a.ncols()).map(|i| (i % 13) as f32 * 0.3).collect();
    let nnz = rm.a.nnz() as u64;

    // Every variant runs on the one threaded path: the worker pool.
    let pool = WorkerPool::from_env();
    let threads = pool.num_threads();
    let mut y = vec![0f32; rm.a.nrows()];

    let mut g = c.benchmark_group("forward_spmv");
    g.throughput(Throughput::Elements(nnz));
    for (order, a) in [("row-major", &rm.a), ("hilbert", &hl.a)] {
        let plan = csr_plan_equal(a, threads);
        g.bench_function(BenchmarkId::new("csr", order), |b| {
            b.iter(|| spmv_pooled_into(a, &x, &mut y, &plan, &pool))
        });
    }
    let ell = EllMatrix::from_csr(&hl.a, 128);
    let plan = ell.exec_plan(threads);
    g.bench_function(BenchmarkId::new("ell", "hilbert"), |b| {
        b.iter(|| ell.spmv_pooled_into(&x, &mut y, &plan, &pool))
    });
    let buf = BufferedCsr::from_csr(&hl.a, 128, 2048);
    let plan = buf.exec_plan(threads);
    g.bench_function(BenchmarkId::new("buffered", "hilbert"), |b| {
        b.iter(|| buf.spmv_pooled_into(&x, &mut y, &plan, &pool))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_spmv
}
criterion_main!(benches);
