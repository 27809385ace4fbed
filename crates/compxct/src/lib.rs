//! CompXCT: the compute-centric baseline (paper §2.3–2.4, Listing 1).
//!
//! This is the strategy of Trace/TomoPy that MemXCT is measured against in
//! Table 4: ray-tracing information (`indices`, `lengths`) is recomputed
//! *on the fly in every iteration* instead of being memoized. Forward
//! projection parallelizes naturally over rays (gathers); backprojection
//! scatters into the tomogram, so the baseline replicates the tomogram per
//! thread and reduces afterwards — the very duplication overhead §3.4.3
//! analyzes (`O(N² log P)`).
//!
//! Both projections run on one persistent [`WorkerPool`] sized from the
//! environment (`RAYON_NUM_THREADS` — the variable's name is historical —
//! else all cores): what the baseline pays per iteration is tracing and
//! duplication, not thread spawns.
//!
//! The solver is SIRT (as in Trace): simultaneous iterative reconstruction
//! with row/column-sum normalization.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use xct_geometry::{trace_ray, Grid, ScanGeometry, Sinogram};
use xct_runtime::{ExecPlan, WorkerPool};

/// Compute-centric reconstructor.
pub struct CompXct {
    grid: Grid,
    scan: ScanGeometry,
    /// SIRT row normalization 1/Σ_j a_ij (zero rows get weight 0).
    row_weight: Vec<f32>,
    /// SIRT column normalization 1/Σ_i a_ij.
    col_weight: Vec<f32>,
    pool: WorkerPool,
    /// Projections dealt to the pool's workers in equal contiguous runs:
    /// one partition per projection, covering that projection's rays.
    by_projection: ExecPlan,
    /// One tomogram replica per worker.
    by_replica: ExecPlan,
}

impl std::fmt::Debug for CompXct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompXct")
            .field("grid", &self.grid)
            .field("scan", &self.scan)
            .field("workers", &self.pool.num_threads())
            .finish_non_exhaustive()
    }
}

/// Convergence/timing record of one SIRT iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iter: usize,
    /// Residual norm `‖y − A·x‖₂` at the *start* of the iteration.
    pub residual_norm: f64,
    /// Solution norm `‖x‖₂` at the start of the iteration.
    pub solution_norm: f64,
    /// Wall-clock seconds spent in the iteration.
    pub seconds: f64,
}

impl CompXct {
    /// Set up the reconstructor. The SIRT normalization weights need one
    /// extra tracing pass; the per-iteration projections re-trace every
    /// ray (the compute-centric cost this baseline exists to exhibit).
    pub fn new(grid: Grid, scan: ScanGeometry) -> Self {
        Self::with_pool(grid, scan, WorkerPool::from_env())
    }

    fn with_pool(grid: Grid, scan: ScanGeometry, pool: WorkerPool) -> Self {
        let mut row_weight = vec![0f32; scan.num_rays()];
        let mut col_weight = vec![0f32; grid.num_pixels()];
        for p in 0..scan.num_projections() {
            for c in 0..scan.num_channels() {
                let idx = scan.ray_index(p, c) as usize;
                let ray = scan.ray(p, c);
                let mut row_sum = 0f32;
                trace_ray(&grid, &ray, |pixel, len| {
                    row_sum += len;
                    col_weight[pixel as usize] += len;
                });
                row_weight[idx] = row_sum;
            }
        }
        for w in row_weight.iter_mut().chain(col_weight.iter_mut()) {
            *w = if *w > 0.0 { 1.0 / *w } else { 0.0 };
        }
        let n_ch = scan.num_channels() as usize;
        let ray_bounds: Vec<usize> = (0..=scan.num_projections() as usize)
            .map(|p| p * n_ch)
            .collect();
        let workers = pool.num_threads();
        CompXct {
            grid,
            scan,
            row_weight,
            col_weight,
            by_projection: ExecPlan::balanced_blocks(
                &ray_bounds,
                &vec![1; ray_bounds.len() - 1],
                workers,
            ),
            by_replica: ExecPlan::equal_rows(workers, workers),
            pool,
        }
    }

    /// The tomogram grid.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The scan geometry.
    pub fn scan(&self) -> ScanGeometry {
        self.scan
    }

    /// Forward projection `y = A·x`, tracing every ray on the fly.
    /// Rays only *gather* from the tomogram, so plain data parallelism
    /// over sinogram rows is race-free.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.grid.num_pixels());
        let n_ch = self.scan.num_channels() as usize;
        let mut y = vec![0f32; self.scan.num_rays()];
        self.pool
            .run(&self.by_projection, &mut y, |projections, _, rows| {
                for (p, row) in projections.zip(rows.chunks_mut(n_ch)) {
                    for (c, out) in row.iter_mut().enumerate() {
                        // in-range: projection/channel indices are bounded by the u32 scan dims
                        let ray = self.scan.ray(p as u32, c as u32);
                        let mut acc = 0f32;
                        trace_ray(&self.grid, &ray, |pixel, len| {
                            acc += x[pixel as usize] * len;
                        });
                        *out = acc;
                    }
                }
            });
        y
    }

    /// Backprojection `x = Aᵀ·r`, tracing every ray on the fly.
    /// Rays *scatter* into the tomogram: each worker accumulates its run
    /// of projections into its own replica, and the replicas are then
    /// summed in worker order — the compute-centric answer to the race
    /// condition (§2.4 "duplicating the pixel domain across threads ...
    /// and then performing a reduction"). Deterministic for a fixed
    /// worker count; one worker is the plain serial scatter.
    pub fn backproject(&self, r: &[f32]) -> Vec<f32> {
        assert_eq!(r.len(), self.scan.num_rays());
        let n_ch = self.scan.num_channels() as usize;
        let mut replicas = vec![vec![0f32; self.grid.num_pixels()]; self.pool.num_threads()];
        self.pool
            .run(&self.by_replica, &mut replicas, |_, worker, replica| {
                let replica = &mut replica[0];
                for p in self.by_projection.worker_parts(worker.start) {
                    for c in 0..n_ch {
                        let v = r[p * n_ch + c];
                        if v != 0.0 {
                            // in-range: projection/channel indices are bounded by the u32 scan dims
                            let ray = self.scan.ray(p as u32, c as u32);
                            trace_ray(&self.grid, &ray, |pixel, len| {
                                replica[pixel as usize] += v * len;
                            });
                        }
                    }
                }
            });
        let mut replicas = replicas.into_iter();
        let mut x = replicas.next().expect("a pool has at least one worker");
        for replica in replicas {
            for (xi, ri) in x.iter_mut().zip(replica) {
                *xi += ri;
            }
        }
        x
    }

    /// One SIRT update in place: `x += C·Aᵀ·R·(y − A·x)` with `R`/`C` the
    /// inverse row/column sums. Returns the residual norm before the
    /// update.
    pub fn sirt_step(&self, y: &[f32], x: &mut [f32]) -> f64 {
        let mut residual = self.forward(x);
        for (r, &m) in residual.iter_mut().zip(y) {
            *r = m - *r;
        }
        let norm = l2(&residual);
        for (r, &w) in residual.iter_mut().zip(&self.row_weight) {
            *r *= w;
        }
        let update = self.backproject(&residual);
        for ((xi, u), &w) in x.iter_mut().zip(update).zip(&self.col_weight) {
            *xi += u * w;
        }
        norm
    }

    /// Run `iters` SIRT iterations from a zero initial image.
    pub fn sirt(&self, sino: &Sinogram, iters: usize) -> (Vec<f32>, Vec<IterationStats>) {
        let y = sino.data();
        let mut x = vec![0f32; self.grid.num_pixels()];
        let mut stats = Vec::with_capacity(iters);
        for iter in 0..iters {
            let start = std::time::Instant::now();
            let solution_norm = l2(&x);
            let residual_norm = self.sirt_step(y, &mut x);
            stats.push(IterationStats {
                iter,
                residual_norm,
                solution_norm,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        (x, stats)
    }
}

fn l2(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_geometry::{disk, simulate_sinogram, NoiseModel};

    fn small_setup() -> (Grid, ScanGeometry, Sinogram, Vec<f32>) {
        let n = 32u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(48, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        (grid, scan, sino, img)
    }

    #[test]
    fn forward_matches_simulated_sinogram() {
        let (grid, scan, sino, img) = small_setup();
        let cx = CompXct::new(grid, scan);
        let y = cx.forward(&img);
        for (a, b) in y.iter().zip(sino.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn backproject_is_adjoint_of_forward() {
        let (grid, scan, _, img) = small_setup();
        let cx = CompXct::new(grid, scan);
        let y = cx.forward(&img);
        // <A x, A x> == <x, A^T A x>
        let aty = cx.backproject(&y);
        let lhs: f64 = y.iter().map(|&v| v as f64 * v as f64).sum();
        let rhs: f64 = img
            .iter()
            .zip(&aty)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (lhs - rhs).abs() / lhs.max(1.0) < 1e-4,
            "adjoint mismatch {lhs} vs {rhs}"
        );
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_is_bit_identical_across_worker_counts() {
        let (grid, scan, _, img) = small_setup();
        let want = CompXct::with_pool(grid, scan, WorkerPool::new(1)).forward(&img);
        for workers in [2, 3, 64] {
            let cx = CompXct::with_pool(grid, scan, WorkerPool::new(workers));
            assert_eq!(bits(&cx.forward(&img)), bits(&want), "{workers} workers");
        }
    }

    #[test]
    fn backproject_is_the_serial_scatter_at_one_worker_and_deterministic_beyond() {
        let (grid, scan, sino, _) = small_setup();
        let r = sino.data();
        // The plainly written scatter: one tomogram, rays in index order.
        let mut serial = vec![0f32; grid.num_pixels()];
        for p in 0..scan.num_projections() {
            for c in 0..scan.num_channels() {
                let v = r[scan.ray_index(p, c) as usize];
                trace_ray(&grid, &scan.ray(p, c), |pixel, len| {
                    serial[pixel as usize] += v * len;
                });
            }
        }
        let one = CompXct::with_pool(grid, scan, WorkerPool::new(1)).backproject(r);
        assert_eq!(bits(&one), bits(&serial));
        // Replicas regroup the per-pixel sums: same bits call after call,
        // and the serial value up to f32 rounding.
        let scale = serial.iter().fold(0f32, |m, v| m.max(v.abs()));
        for workers in [2, 3] {
            let cx = CompXct::with_pool(grid, scan, WorkerPool::new(workers));
            let got = cx.backproject(r);
            assert_eq!(bits(&got), bits(&cx.backproject(r)), "{workers} workers");
            for (g, w) in got.iter().zip(&serial) {
                assert!(
                    (g - w).abs() <= 1e-4 * scale,
                    "{workers} workers: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn sirt_reduces_residual_monotonically_at_first() {
        let (grid, scan, sino, _) = small_setup();
        let cx = CompXct::new(grid, scan);
        let (_, stats) = cx.sirt(&sino, 8);
        assert_eq!(stats.len(), 8);
        for w in stats.windows(2) {
            assert!(
                w[1].residual_norm < w[0].residual_norm,
                "residual must shrink: {} -> {}",
                w[0].residual_norm,
                w[1].residual_norm
            );
        }
    }

    #[test]
    fn sirt_recovers_disk_roughly() {
        let (grid, scan, sino, img) = small_setup();
        let cx = CompXct::new(grid, scan);
        let (x, _) = cx.sirt(&sino, 40);
        // Relative L2 error after 40 iterations should be modest.
        let num: f64 = x
            .iter()
            .zip(&img)
            .map(|(&a, &b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let den: f64 = img.iter().map(|&b| (b as f64).powi(2)).sum::<f64>().sqrt();
        assert!(num / den < 0.35, "relative error {}", num / den);
    }

    #[test]
    fn zero_measurements_give_zero_image() {
        let (grid, scan, _, _) = small_setup();
        let cx = CompXct::new(grid, scan);
        let sino = Sinogram::zeros(scan);
        let (x, _) = cx.sirt(&sino, 3);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn weights_are_finite_and_nonnegative() {
        let (grid, scan, _, _) = small_setup();
        let cx = CompXct::new(grid, scan);
        assert!(cx.row_weight.iter().all(|w| w.is_finite() && *w >= 0.0));
        assert!(cx.col_weight.iter().all(|w| w.is_finite() && *w >= 0.0));
    }
}
