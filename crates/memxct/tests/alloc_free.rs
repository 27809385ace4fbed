//! Proof of the allocation-free hot path: after one warmup solve, a
//! steady-state CG solve on the pooled operator — and on the serial one,
//! which is a one-worker pool — performs **zero heap allocations**,
//! counted by a wrapping global allocator across *all* threads. Since
//! `std::thread::spawn` must allocate (the closure box, the JoinHandle
//! packet, the thread stack bookkeeping), zero allocations also proves
//! **zero thread spawns**: only the workers parked at pool construction
//! ever run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use memxct::{
    preprocess, run_engine_batched_in, CgRule, Config, Constraint, Kernel, KernelOperator,
    PooledPlans, ProjectionOperator, SolverWorkspace, StopRule,
};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_obs::Metrics;
use xct_runtime::WorkerPool;

/// Counts every allocation on every thread; frees are not counted (a
/// steady-state loop that frees without allocating would still shrink,
/// never grow).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `ALLOCATIONS` is process-wide and the test harness runs tests on
/// parallel threads, so each test holds this lock for its whole body —
/// otherwise one test's set-up lands inside the other's measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its verdict is its own.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_cg_solve_allocates_nothing_and_spawns_nothing() {
    let _serial = serialised();
    let n = 24u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(36, n);
    let img = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);

    let threads = 2;
    let pool = WorkerPool::new(threads);
    let plans = PooledPlans::new_batched(&ops, Kernel::Buffered, threads, 1);
    let op = KernelOperator::pooled(&ops, Kernel::Buffered, &plans, &pool);
    let metrics = Metrics::noop();
    let stop = StopRule::Fixed(6);
    let mut ws = SolverWorkspace::for_operator(&op);

    // Warmup: sizes the workspace buffers, grows each worker's persistent
    // scratch to the buffered kernel's footprint, and reserves the record
    // list's capacity.
    memxct::run_engine_in(
        &op,
        &y,
        &mut CgRule::new(),
        Constraint::None,
        stop,
        &metrics,
        &mut ws,
    );
    let warm_records = ws.records().len();
    assert!(warm_records > 0, "warmup must actually iterate");

    // Steady state: a whole fresh solve — same workspace, fresh rule —
    // must not touch the allocator from any thread.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    memxct::run_engine_in(
        &op,
        &y,
        &mut CgRule::new(),
        Constraint::None,
        stop,
        &metrics,
        &mut ws,
    );
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(ws.records().len(), warm_records, "same trajectory");
    assert_eq!(
        delta, 0,
        "steady-state CG solve performed {delta} heap allocation(s)"
    );
}

#[test]
fn steady_state_batched_cg_solve_allocates_nothing() {
    batched_cg_solve_allocates_nothing(Some(2), 4);
}

/// Batch 8 runs the buffered kernel's widest slice block, the one that
/// sizes the workers' scratch.
#[test]
fn steady_state_batch8_cg_solve_allocates_nothing() {
    batched_cg_solve_allocates_nothing(Some(2), 8);
}

/// The serial operator stages through its one-worker pool's persistent
/// scratch, so it allocates nothing either, at width 1 and at the widest
/// slice block.
#[test]
fn steady_state_serial_cg_solve_allocates_nothing() {
    for batch in [1, 8] {
        batched_cg_solve_allocates_nothing(None, batch);
    }
}

/// A CG solve of `batch` slices on a pool of `threads`, or on the serial
/// operator (`None`).
fn batched_cg_solve_allocates_nothing(threads: Option<usize>, batch: usize) {
    let _serial = serialised();
    let n = 24u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(36, n);
    let img = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
    let ops = preprocess(grid, scan, &Config::default());
    let y1 = ops.order_sinogram(&sino);
    let mut y = Vec::with_capacity(batch * y1.len());
    for j in 0..batch {
        // Distinct slices: scaled copies of the measured sinogram.
        y.extend(y1.iter().map(|&v| v * (1.0 + 0.05 * j as f32)));
    }

    let pool = WorkerPool::new(threads.unwrap_or(1));
    let plans = PooledPlans::new_batched(&ops, Kernel::Buffered, pool.num_threads(), batch);
    let op = match threads {
        Some(_) => KernelOperator::pooled(&ops, Kernel::Buffered, &plans, &pool),
        None => KernelOperator::new(&ops, Kernel::Buffered),
    };
    let metrics = Metrics::noop();
    let stop = StopRule::Fixed(6);
    let mut ws = SolverWorkspace::new_batched(op.nrows(), op.ncols(), batch);

    // Warmup sizes the batched slabs, the per-slice record lists, and the
    // workers' SpMM scratch.
    run_engine_batched_in(
        &op,
        &y,
        &mut CgRule::new(),
        Constraint::None,
        stop,
        &metrics,
        &mut ws,
    );
    let warm: Vec<usize> = ws.slice_records().iter().map(Vec::len).collect();
    assert!(warm.iter().all(|&l| l > 0), "warmup must iterate");

    // Steady state: a fresh batched solve in the warmed workspace must
    // not touch the allocator from any thread.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    run_engine_batched_in(
        &op,
        &y,
        &mut CgRule::new(),
        Constraint::None,
        stop,
        &metrics,
        &mut ws,
    );
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let again: Vec<usize> = ws.slice_records().iter().map(Vec::len).collect();
    assert_eq!(again, warm, "same trajectory");
    assert_eq!(
        delta, 0,
        "steady-state CG solve of {batch} on {threads:?} threads performed {delta} heap \
         allocation(s)"
    );
}
