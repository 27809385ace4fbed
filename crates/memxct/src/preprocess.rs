//! The MemXCT preprocessing pipeline (§3.5): ordering, ray tracing into
//! CSR, scan transposition, and kernel-layout construction.
//!
//! Preprocessing runs once; its cost is amortized over all iterations and
//! all slices (Table 4/5). All matrix manipulations preserve data
//! locality (§3.5.1).

use std::time::Instant;
use xct_geometry::{trace_ray, trace_ray_joseph, Grid, Ray, ScanGeometry, Sinogram};
use xct_hilbert::{Ordering2D, TwoLevelOrdering};
use xct_obs::Metrics;
use xct_runtime::{ExecPlan, WorkerPool};
use xct_sparse::{BufferIndex, BufferedCsr, CsrMatrix, EllMatrix};

use crate::errors::BuildError;

/// Which ordering to apply to the 2D domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainOrdering {
    /// Naive row-major layout (the "baseline" of Fig 9).
    RowMajor,
    /// Column-major layout.
    ColumnMajor,
    /// Single-level Hilbert curve over the padded power-of-two square.
    HilbertSquare,
    /// Generalized Hilbert curve directly on the rectangle (continuous,
    /// but no tile structure for process decomposition).
    Gilbert,
    /// MemXCT's two-level pseudo-Hilbert ordering; `None` tile size uses
    /// the built-in heuristic.
    TwoLevelHilbert(Option<u32>),
    /// Morton order (for the partition-connectivity comparisons).
    Morton,
}

/// Which ray-discretization model builds the projection matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Projector {
    /// Siddon's exact intersection lengths (the paper's model, §2.3).
    Siddon,
    /// Joseph's linear interpolation (TomoPy's default projector).
    Joseph,
}

/// Preprocessing configuration: how a plan is ordered, traced and
/// partitioned, and the one kernel it runs. Equal configurations build
/// equal plans, which is what `xct-serve` keys its plan cache on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Ordering applied to both domains.
    pub ordering: DomainOrdering,
    /// Ray-discretization model.
    pub projector: Projector,
    /// Row-partition size (the paper tunes 128 on KNL, 512–1024 on GPU).
    pub partsize: usize,
    /// Input-buffer capacity in f32 elements (the paper tunes 2K f32 =
    /// 8 KB on KNL, 12K–24K f32 = 48–96 KB on GPU). The default, 8K f32 =
    /// 32 KB, fits one slice's stage in a 48 KB L1 and holds the widest
    /// partition footprint of every benchmark plan (and ADS1) in one
    /// stage, so both buffered layouts share their CSR's values.
    pub buffsize: usize,
    /// The SpMV kernel the plan runs. Preprocessing builds the CSR pair
    /// and this kernel's layouts only: the buffered pair for
    /// [`Kernel::Buffered`] (the default), the ELL pair for
    /// [`Kernel::Ell`], nothing more for [`Kernel::Serial`].
    pub kernel: Kernel,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ordering: DomainOrdering::TwoLevelHilbert(None),
            projector: Projector::Siddon,
            partsize: 128,
            buffsize: 8192,
            kernel: Kernel::Buffered,
        }
    }
}

/// Which SpMV kernel executes the projections: a plan's
/// [`Config::kernel`], which also decides which layouts it builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Plain CSR (Listing 2; the reference every other layout is pinned
    /// to).
    Serial,
    /// Column-major ELL with partition-level padding (GPU analog).
    Ell,
    /// Multi-stage input-buffered kernel (Listing 3).
    Buffered,
}

/// Wall-clock cost of each preprocessing step (§3.5's four steps).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PreprocessTimings {
    /// (1) Hilbert ordering and domain decomposition.
    pub ordering_s: f64,
    /// (2) Ray tracing, building the forward matrix.
    pub tracing_s: f64,
    /// (3) Scan-based sparse transposition.
    pub transpose_s: f64,
    /// (4) Row partitioning and buffer construction.
    pub buffers_s: f64,
}

impl PreprocessTimings {
    /// Total preprocessing time.
    pub fn total(&self) -> f64 {
        self.ordering_s + self.tracing_s + self.transpose_s + self.buffers_s
    }
}

/// The memoized operators produced by preprocessing.
pub struct Operators {
    /// Tomogram grid.
    pub grid: Grid,
    /// Scan geometry.
    pub scan: ScanGeometry,
    /// Forward-projection matrix: sinogram-ordered rows × tomogram-ordered
    /// columns.
    pub a: CsrMatrix,
    /// Backprojection matrix (scan transpose of `a`).
    pub at: CsrMatrix,
    /// Buffered layout of `a` (a [`Kernel::Buffered`] plan's).
    pub a_buf: Option<BufferedCsr>,
    /// Buffered layout of `at` (a [`Kernel::Buffered`] plan's).
    pub at_buf: Option<BufferedCsr>,
    /// ELL layout of `a` (a [`Kernel::Ell`] plan's).
    pub a_ell: Option<EllMatrix>,
    /// ELL layout of `at` (a [`Kernel::Ell`] plan's).
    pub at_ell: Option<EllMatrix>,
    /// Tomogram-domain ordering (N × N).
    pub tomo_ord: Ordering2D,
    /// Sinogram-domain ordering (channels × projections).
    pub sino_ord: Ordering2D,
    /// Tomogram tile layout (two-level orderings only) for process-level
    /// decomposition.
    pub tomo_tiles: Option<xct_hilbert::TileLayout>,
    /// Sinogram tile layout.
    pub sino_tiles: Option<xct_hilbert::TileLayout>,
    /// Partition size used for parallel kernels.
    pub partsize: usize,
    /// Step timings.
    pub timings: PreprocessTimings,
}

impl Operators {
    /// Permute a row-major sinogram into ordered coordinates.
    pub fn order_sinogram(&self, sino: &Sinogram) -> Vec<f32> {
        // The sinogram domain is channels (x) × projections (y); flat
        // row-major sinogram data is projection-major, matching
        // `y * width + x` with width = channels.
        self.sino_ord.gather(sino.data())
    }

    /// Permute an ordered tomogram back to a row-major image.
    pub fn unorder_tomogram(&self, ordered: &[f32]) -> Vec<f32> {
        self.tomo_ord.scatter(ordered)
    }

    /// Permute a row-major image into ordered tomogram coordinates.
    pub fn order_tomogram(&self, row_major: &[f32]) -> Vec<f32> {
        self.tomo_ord.gather(row_major)
    }

    /// Permute an ordered sinogram vector back to row-major layout.
    pub fn unorder_sinogram(&self, ordered: &[f32]) -> Vec<f32> {
        self.sino_ord.scatter(ordered)
    }
}

fn build_ordering(
    ordering: DomainOrdering,
    width: u32,
    height: u32,
) -> (Ordering2D, Option<xct_hilbert::TileLayout>) {
    match ordering {
        DomainOrdering::RowMajor => (Ordering2D::row_major(width, height), None),
        DomainOrdering::ColumnMajor => (Ordering2D::column_major(width, height), None),
        DomainOrdering::HilbertSquare => (Ordering2D::hilbert_square(width, height), None),
        DomainOrdering::Gilbert => (Ordering2D::gilbert(width, height), None),
        DomainOrdering::Morton => (Ordering2D::morton(width, height), None),
        DomainOrdering::TwoLevelHilbert(tile) => {
            let tile = tile.unwrap_or_else(|| xct_hilbert::default_tile_size(width, height));
            let two = TwoLevelOrdering::new(width, height, tile);
            let layout = two.layout().clone();
            (two.into_ordering(), Some(layout))
        }
    }
}

impl Config {
    /// Check the sizes this configuration would feed into the kernel
    /// builders, returning the first violation instead of panicking
    /// downstream.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.partsize == 0 {
            return Err(BuildError::ZeroPartitionSize);
        }
        let max = <u16 as BufferIndex>::MAX_BUFFER;
        if self.buffsize == 0 || (self.kernel == Kernel::Buffered && self.buffsize > max) {
            return Err(BuildError::InvalidBufferSize {
                buffsize: self.buffsize,
                max,
            });
        }
        Ok(())
    }
}

/// Run the full preprocessing pipeline.
///
/// # Panics
/// Panics on an invalid [`Config`] (zero partition size, out-of-range
/// buffer size); use [`try_preprocess`] to get a [`BuildError`] instead.
pub fn preprocess(grid: Grid, scan: ScanGeometry, config: &Config) -> Operators {
    match try_preprocess(grid, scan, config) {
        Ok(ops) => ops,
        // lint: allow(no-panic) documented panicking shim over try_preprocess
        Err(e) => panic!("invalid preprocessing config: {e}"),
    }
}

/// Fallible [`preprocess`]: validates the configuration up front and
/// returns a [`BuildError`] instead of panicking.
pub fn try_preprocess(
    grid: Grid,
    scan: ScanGeometry,
    config: &Config,
) -> Result<Operators, BuildError> {
    try_preprocess_with_metrics(grid, scan, config, &Metrics::noop())
}

/// `(sin θ, cos θ)` of the projections a tracing pass met last, one
/// entry per projection modulo the table. Consecutive ranks walk a
/// Hilbert tile (≈ √M projections tall), so a pass evaluates `sin_cos`
/// about once per tile row instead of once per ray. The table is on the
/// stack: a heap table of one entry per projection — 2.9 KB at M = 180 —
/// moved glibc's trim point and cost `cold_plans` more page faults than
/// the hoist saves (EXPERIMENTS.md C4, "Cold path, round 2").
struct AngleMemo([(u32, (f64, f64)); AngleMemo::SLOTS]);

impl AngleMemo {
    const SLOTS: usize = 64;

    fn new() -> Self {
        AngleMemo([(u32::MAX, (0.0, 0.0)); Self::SLOTS])
    }

    /// `scan.angle(projection).sin_cos()`, evaluated or remembered.
    #[inline]
    fn sin_cos(&mut self, scan: &ScanGeometry, projection: u32) -> (f64, f64) {
        let slot = &mut self.0[projection as usize % Self::SLOTS];
        if slot.0 != projection {
            *slot = (projection, scan.angle(projection).sin_cos());
        }
        slot.1
    }
}

/// The ray stored at sinogram rank `rank`: [`ScanGeometry::ray`]'s, bit
/// for bit — the same expressions over the same `sin_cos`.
#[inline]
fn ray_at(scan: &ScanGeometry, sino_ord: &Ordering2D, angles: &mut AngleMemo, rank: usize) -> Ray {
    // in-range: ray count is bounded by the u32 scan geometry
    let (chan, proj) = sino_ord.cell(rank as u32);
    let (sin_t, cos_t) = angles.sin_cos(scan, proj);
    let s = scan.channel_offset(chan);
    Ray {
        origin: (s * cos_t, s * sin_t),
        dir: (-sin_t, cos_t),
    }
}

/// Trace `ray`, calling `emit(pixel, length)` per crossed pixel in
/// traversal order.
#[inline]
fn trace<F: FnMut(u32, f32)>(grid: &Grid, projector: Projector, ray: &Ray, emit: F) {
    match projector {
        Projector::Siddon => trace_ray(grid, ray, emit),
        Projector::Joseph => trace_ray_joseph(grid, ray, emit),
    }
}

/// Trace every ray into the forward matrix, directly in ordered
/// coordinates: row `r` of `A` is the sinogram entry stored at rank `r`,
/// its columns are tomogram ranks. Rays are independent, so the matrix is
/// the same bit for bit for every size of `pool`.
///
/// Two passes, so no per-ray vector is ever grown or copied: the first
/// only counts each ray's crossings (giving `rowptr`), the second traces
/// again straight into the final arrays, one disjoint slice per block of
/// rays, blocks dealt to workers by nonzero count.
fn trace_csr(
    grid: &Grid,
    scan: &ScanGeometry,
    sino_ord: &Ordering2D,
    tomo_ord: &Ordering2D,
    projector: Projector,
    pool: &WorkerPool,
) -> CsrMatrix {
    let num_rays = scan.num_rays();
    let workers = pool.num_threads();
    // A traced pixel index is `j * n + i`, the position `rank_of` is
    // indexed by: no division back into `(i, j)` per crossing.
    let rank_of = tomo_ord.rank_of();
    let mut rowptr = vec![0usize; num_rays + 1];
    let by_rays = ExecPlan::equal_rows(num_rays, workers);
    pool.run(&by_rays, &mut rowptr[1..], |_, rays, counts| {
        let angles = &mut AngleMemo::new();
        for (rank, n) in rays.zip(counts) {
            let ray = ray_at(scan, sino_ord, angles, rank);
            trace(grid, projector, &ray, |_, _| *n += 1);
        }
    });
    for r in 0..num_rays {
        rowptr[r + 1] += rowptr[r];
    }
    let nnz = rowptr[num_rays];
    let (mut colind, mut values) = (vec![0u32; nnz], vec![0f32; nnz]);
    const RAY_BLOCK: usize = 256;
    let (mut blocks, mut block_ptr) = (Vec::new(), vec![0usize]);
    let (mut cols_rest, mut vals_rest) = (&mut colind[..], &mut values[..]);
    for lo in (0..num_rays).step_by(RAY_BLOCK) {
        let hi = num_rays.min(lo + RAY_BLOCK);
        let (cols, c) = cols_rest.split_at_mut(rowptr[hi] - rowptr[lo]);
        let (vals, v) = vals_rest.split_at_mut(cols.len());
        (cols_rest, vals_rest) = (c, v);
        blocks.push((lo..hi, cols, vals));
        block_ptr.push(rowptr[hi]);
    }
    let by_nnz = ExecPlan::nnz_balanced(&block_ptr, workers);
    pool.run(&by_nnz, &mut blocks, |_, _, blocks| {
        let angles = &mut AngleMemo::new();
        for (rays, cols, vals) in blocks {
            let mut k = 0;
            for rank in rays.clone() {
                let ray = ray_at(scan, sino_ord, angles, rank);
                trace(grid, projector, &ray, |pixel, len| {
                    cols[k] = rank_of[pixel as usize];
                    vals[k] = len;
                    k += 1;
                });
            }
        }
    });
    CsrMatrix::from_raw(num_rays, grid.num_pixels(), rowptr, colind, values)
}

/// [`try_preprocess`] with observability: each pipeline phase records its
/// wall-clock into the timers `preprocess/ordering`, `preprocess/tracing`,
/// `preprocess/transpose`, and `preprocess/buffers` (plus a `preprocess`
/// total), and the memoized matrix shape lands in the counters
/// `preprocess/rows`, `preprocess/cols`, and `preprocess/nnz`.
pub fn try_preprocess_with_metrics(
    grid: Grid,
    scan: ScanGeometry,
    config: &Config,
    metrics: &Metrics,
) -> Result<Operators, BuildError> {
    config.validate()?;
    let _total = metrics.span("preprocess");
    let mut timings = PreprocessTimings::default();

    // (1) Orderings for both domains.
    let t = Instant::now();
    let (tomo_ord, tomo_tiles) = build_ordering(config.ordering, grid.n(), grid.n());
    let (sino_ord, sino_tiles) =
        build_ordering(config.ordering, scan.num_channels(), scan.num_projections());
    timings.ordering_s = t.elapsed().as_secs_f64();
    metrics.timer_observe("preprocess/ordering", timings.ordering_s);

    // (2) Ray tracing into CSR. The build pool is transient and unmetered:
    // sized from the environment like every other pool, it lives for this
    // one phase, so a plan build holds no parked threads afterwards and
    // `--metrics` reports `pool/*` for the solve pool only.
    let t = Instant::now();
    let pool = WorkerPool::from_env();
    let a = trace_csr(&grid, &scan, &sino_ord, &tomo_ord, config.projector, &pool);
    drop(pool);
    timings.tracing_s = t.elapsed().as_secs_f64();
    metrics.timer_observe("preprocess/tracing", timings.tracing_s);
    metrics.counter_add("preprocess/rows", a.nrows() as u64);
    metrics.counter_add("preprocess/cols", a.ncols() as u64);
    metrics.counter_add("preprocess/nnz", a.nnz() as u64);

    // (3) Locality-preserving transpose for backprojection.
    let t = Instant::now();
    let at = a.transpose_scan();
    timings.transpose_s = t.elapsed().as_secs_f64();
    metrics.timer_observe("preprocess/transpose", timings.transpose_s);

    // (4) Partitioning and buffer construction.
    let t = Instant::now();
    let buffer = |m: &CsrMatrix| BufferedCsr::from_csr(m, config.partsize, config.buffsize);
    let ell = |m: &CsrMatrix| EllMatrix::from_csr(m, config.partsize);
    let [a_buf, at_buf] = [&a, &at].map(|m| (config.kernel == Kernel::Buffered).then(|| buffer(m)));
    let [a_ell, at_ell] = [&a, &at].map(|m| (config.kernel == Kernel::Ell).then(|| ell(m)));
    timings.buffers_s = t.elapsed().as_secs_f64();
    metrics.timer_observe("preprocess/buffers", timings.buffers_s);

    Ok(Operators {
        grid,
        scan,
        a,
        at,
        a_buf,
        at_buf,
        a_ell,
        at_ell,
        tomo_ord,
        sino_ord,
        tomo_tiles,
        sino_tiles,
        partsize: config.partsize,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::{disk, simulate_sinogram, NoiseModel};

    fn ops(n: u32, m: u32, config: &Config) -> Operators {
        preprocess(Grid::new(n), ScanGeometry::new(m, n), config)
    }

    #[test]
    fn matrix_shapes() {
        let o = ops(16, 12, &Config::default());
        assert_eq!(o.a.nrows(), 12 * 16);
        assert_eq!(o.a.ncols(), 16 * 16);
        assert_eq!(o.at.nrows(), 16 * 16);
        assert_eq!(o.at.ncols(), 12 * 16);
        assert_eq!(o.a.nnz(), o.at.nnz());
        assert!(o.a.nnz() > 0);
    }

    #[test]
    fn traced_matrix_is_the_same_for_every_pool_size() {
        // 18 × 24 = 432 rays make two ray blocks, so three and seven
        // workers outnumber them. Aᵀ and both buffered layouts are
        // functions of the three arrays compared here. Column-major ranks
        // step through all 70 projections per channel: more than
        // `AngleMemo` holds, so its entries are evicted and re-evaluated.
        let grid = Grid::new(24);
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (ordering, m, projector) in [
            (DomainOrdering::TwoLevelHilbert(None), 18, Projector::Siddon),
            (DomainOrdering::TwoLevelHilbert(None), 18, Projector::Joseph),
            (DomainOrdering::ColumnMajor, 70, Projector::Siddon),
        ] {
            let scan = ScanGeometry::new(m, 24);
            let (tomo_ord, _) = build_ordering(ordering, 24, 24);
            let (sino_ord, _) = build_ordering(ordering, 24, m);
            // The oracle: rows traced one at a time, appended in order,
            // each ray from `ScanGeometry::ray` and each column from the
            // pixel's coordinates — neither of `trace_csr`'s shortcuts.
            let rows: Vec<Vec<(u32, f32)>> = (0..scan.num_rays())
                .map(|rank| {
                    let (chan, proj) = sino_ord.cell(rank as u32);
                    let mut row = Vec::new();
                    trace(&grid, projector, &scan.ray(proj, chan), |pixel, len| {
                        let (i, j) = grid.pixel_coords(pixel);
                        row.push((tomo_ord.rank(i, j), len));
                    });
                    row
                })
                .collect();
            let want = CsrMatrix::from_rows(grid.num_pixels(), &rows);
            assert!(want.nnz() > 0);
            for workers in [1, 2, 3, 7] {
                let pool = WorkerPool::new(workers);
                let got = trace_csr(&grid, &scan, &sino_ord, &tomo_ord, projector, &pool);
                let same = got == want && bits(&got) == bits(&want);
                assert!(
                    same,
                    "{ordering:?} {projector:?} traced on {workers} workers differs"
                );
            }
        }
    }

    #[test]
    fn forward_matches_direct_simulation() {
        // A·x in ordered coordinates must equal the on-the-fly simulated
        // sinogram after permutation, for every ordering choice.
        let n = 24u32;
        let m = 18u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.7, 1.0).rasterize(n);
        let direct = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        for ordering in [
            DomainOrdering::RowMajor,
            DomainOrdering::Morton,
            DomainOrdering::TwoLevelHilbert(Some(4)),
        ] {
            for kernel in [Kernel::Serial, Kernel::Ell, Kernel::Buffered] {
                let config = Config {
                    ordering,
                    kernel,
                    ..Config::default()
                };
                let o = preprocess(grid, scan, &config);
                let y = o.forward(kernel, &o.order_tomogram(&img));
                let y_rm = o.unorder_sinogram(&y);
                for (got, want) in y_rm.iter().zip(direct.data()) {
                    assert!(
                        (got - want).abs() < 1e-3,
                        "{ordering:?} {kernel:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn back_is_adjoint_of_forward() {
        let o = ops(16, 12, &Config::default());
        let x: Vec<f32> = (0..o.a.ncols())
            .map(|i| ((i * 7) % 5) as f32 - 2.0)
            .collect();
        let y: Vec<f32> = (0..o.a.nrows())
            .map(|i| ((i * 3) % 7) as f32 - 3.0)
            .collect();
        let ax = o.forward(Kernel::Serial, &x);
        let aty = o.back(Kernel::Serial, &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| a as f64 * b as f64).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-4);
    }

    #[test]
    fn order_unorder_roundtrip() {
        let o = ops(13, 9, &Config::default());
        let img: Vec<f32> = (0..13 * 13).map(|i| i as f32).collect();
        assert_eq!(o.unorder_tomogram(&o.order_tomogram(&img)), img);
        let sino: Vec<f32> = (0..9 * 13).map(|i| i as f32 * 0.5).collect();
        let s = Sinogram::new(ScanGeometry::new(9, 13), sino.clone());
        assert_eq!(o.unorder_sinogram(&o.order_sinogram(&s)), sino);
    }

    #[test]
    fn tile_layouts_present_only_for_two_level() {
        let two = ops(16, 8, &Config::default());
        assert!(two.tomo_tiles.is_some());
        assert!(two.sino_tiles.is_some());
        let rm = ops(
            16,
            8,
            &Config {
                ordering: DomainOrdering::RowMajor,
                ..Config::default()
            },
        );
        assert!(rm.tomo_tiles.is_none());
    }

    #[test]
    fn joseph_projector_reconstructs_comparably() {
        use crate::solvers::StopRule;
        use xct_geometry::{disk, simulate_sinogram, NoiseModel};
        let n = 32u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(48, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(
            grid,
            scan,
            &Config {
                projector: crate::preprocess::Projector::Joseph,
                ..Config::default()
            },
        );
        let y = ops.order_sinogram(&sino);
        let (x, _) = crate::cg(&ops, Kernel::Buffered, &y, StopRule::Fixed(25));
        let rec = ops.unorder_tomogram(&x);
        let err = crate::rel_err(&rec, &img);
        // Joseph reconstructs against Siddon-simulated data: model
        // mismatch keeps this above the matched case but still solid.
        assert!(err < 0.2, "joseph error {err}");
    }

    #[test]
    fn timings_are_recorded() {
        let o = ops(32, 24, &Config::default());
        assert!(o.timings.tracing_s > 0.0);
        assert!(o.timings.total() >= o.timings.tracing_s);
    }

    /// Whether each of the plan's buffered layouts (`A`'s, `Aᵀ`'s) holds
    /// its CSR's value array rather than a copy.
    fn shared_values(o: &Operators) -> (bool, bool) {
        let (a_buf, at_buf) = (o.a_buf.as_ref().unwrap(), o.at_buf.as_ref().unwrap());
        (
            a_buf.entry_val().as_ptr() == o.a.values().as_ptr(),
            at_buf.entry_val().as_ptr() == o.at.values().as_ptr(),
        )
    }

    fn max_stages(b: &BufferedCsr) -> usize {
        (0..b.num_partitions())
            .map(|p| b.stages_of_partition(p))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn layouts_share_their_csr_values_until_a_partition_splits() {
        // Aᵀ's rows ascend, A's (in ray-traversal order) do not; at the
        // default buffer every partition is one stage, where stage-major
        // runs are A's entries in A's order too.
        let o = ops(32, 24, &Config::default());
        let (a_buf, at_buf) = (o.a_buf.as_ref().unwrap(), o.at_buf.as_ref().unwrap());
        assert!(at_buf.row_major_runs() && !a_buf.row_major_runs());
        assert_eq!(max_stages(a_buf), 1);
        assert_eq!(shared_values(&o), (true, true));
        // A buffer that splits A's partitions: A's layout holds a copy.
        let split = ops(
            32,
            24,
            &Config {
                buffsize: 64,
                ..Config::default()
            },
        );
        assert!(max_stages(split.a_buf.as_ref().unwrap()) > 1);
        assert_eq!(shared_values(&split), (false, true));
    }

    #[test]
    fn default_buffer_holds_every_partition_of_a_benchmark_plan_in_one_stage() {
        // 150×96 (`cold_plans`' second plan) split 2048-slot buffers into
        // two stages; the default buffer holds each partition in one.
        let o = ops(96, 150, &Config::default());
        let (a_buf, at_buf) = (o.a_buf.as_ref().unwrap(), o.at_buf.as_ref().unwrap());
        assert!(max_stages(&BufferedCsr::from_csr(&o.a, 128, 2048)) > 1);
        assert_eq!((max_stages(a_buf), max_stages(at_buf)), (1, 1));
        assert_eq!(shared_values(&o), (true, true));
    }

    #[test]
    fn try_preprocess_rejects_bad_configs() {
        let grid = Grid::new(8);
        let scan = ScanGeometry::new(6, 8);
        let bad_part = Config {
            partsize: 0,
            ..Config::default()
        };
        assert_eq!(
            try_preprocess(grid, scan, &bad_part).err(),
            Some(BuildError::ZeroPartitionSize)
        );
        let bad_buf = Config {
            buffsize: 0,
            ..Config::default()
        };
        assert!(matches!(
            try_preprocess(grid, scan, &bad_buf).err(),
            Some(BuildError::InvalidBufferSize { buffsize: 0, .. })
        ));
        let too_big = Config {
            buffsize: 70_000,
            ..Config::default()
        };
        assert!(matches!(
            try_preprocess(grid, scan, &too_big).err(),
            Some(BuildError::InvalidBufferSize {
                buffsize: 70_000,
                max: 65536,
            })
        ));
        // Oversized buffers are fine on a plan that builds no buffered
        // layout (nothing u16-addressed gets built).
        let skipped = Config {
            buffsize: 70_000,
            kernel: Kernel::Serial,
            ..Config::default()
        };
        assert!(try_preprocess(grid, scan, &skipped).is_ok());
    }

    #[test]
    #[should_panic(expected = "partition size")]
    fn panicking_shim_reports_the_build_error() {
        preprocess(
            Grid::new(8),
            ScanGeometry::new(6, 8),
            &Config {
                partsize: 0,
                ..Config::default()
            },
        );
    }

    #[test]
    fn instrumented_preprocess_records_phases() {
        let m = Metrics::collecting();
        let o = try_preprocess_with_metrics(
            Grid::new(16),
            ScanGeometry::new(12, 16),
            &Config::default(),
            &m,
        )
        .unwrap();
        let snap = m.snapshot();
        for phase in [
            "preprocess",
            "preprocess/ordering",
            "preprocess/tracing",
            "preprocess/transpose",
            "preprocess/buffers",
        ] {
            assert!(snap.timers.contains_key(phase), "missing {phase}");
        }
        assert_eq!(snap.counters["preprocess/nnz"], o.a.nnz() as u64);
        assert_eq!(snap.counters["preprocess/rows"], o.a.nrows() as u64);
        assert_eq!(snap.counters["preprocess/cols"], o.a.ncols() as u64);
        // The phase timers match the timings struct (same measurements).
        assert_eq!(
            snap.timers["preprocess/tracing"].total_s,
            o.timings.tracing_s
        );
    }

    #[test]
    fn hilbert_ordering_reduces_column_span() {
        // The mean per-row column span (a locality proxy) must shrink
        // with Hilbert ordering compared to row-major.
        fn mean_span(o: &Operators) -> f64 {
            let mut total = 0f64;
            let mut rows = 0usize;
            for i in 0..o.a.nrows() {
                let cols: Vec<u32> = o.a.row(i).map(|(c, _)| c).collect();
                if cols.len() > 1 {
                    let min = *cols.iter().min().unwrap() as f64;
                    let max = *cols.iter().max().unwrap() as f64;
                    total += max - min;
                    rows += 1;
                }
            }
            total / rows as f64
        }
        let rm = ops(
            32,
            24,
            &Config {
                ordering: DomainOrdering::RowMajor,
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        let hil = ops(
            32,
            24,
            &Config {
                kernel: Kernel::Serial,
                ..Config::default()
            },
        );
        // Row-major: a diagonal ray spans nearly the whole domain.
        // Hilbert: rays cross tiles, span shrinks substantially on average.
        assert!(
            mean_span(&hil) < mean_span(&rm),
            "hilbert {} vs row-major {}",
            mean_span(&hil),
            mean_span(&rm)
        );
    }
}
