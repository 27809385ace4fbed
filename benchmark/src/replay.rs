//! The program's operations re-enacted through the library crates'
//! public functions, one span per call into a layer.
//!
//! `Reconstructor::build` and `Reconstructor::run` are single calls, so
//! from outside they are one span each. To see the layers underneath,
//! the traced pass performs the same steps itself — the steps of
//! `memxct::try_preprocess_with_metrics` and of `Reconstructor::run` —
//! and checks that the image it gets is bit-identical to the program's.
//! Where the re-enactment and the program disagree in *time*, the ledger
//! coverage says so.

use memxct::{
    CgRule, Constraint, Kernel, Operators, PreprocessTimings, ProjectionOperator, SolverWorkspace,
    StopRule,
};
use xct_geometry::{trace_ray, Sinogram};
use xct_hilbert::{Ordering2D, TileLayout, TwoLevelOrdering};
use xct_obs::Metrics;
use xct_sparse::{BufferedCsr, CsrMatrix};

use crate::inputs::Geo;
use crate::stats::Samples;
use crate::trace::Tracer;

/// The paper's solver setting: 30 CG iterations.
pub const CG_ITERS: usize = 30;
pub const STOP: StopRule = StopRule::Fixed(CG_ITERS);

/// `memxct::Config::default()`'s partition and buffer sizes, which every
/// benchmarked plan uses.
fn config() -> memxct::Config {
    memxct::Config::default()
}

/// Per-step seconds of [`build_operators`] calls, one sample per call.
#[derive(Default)]
pub struct BuildSteps {
    pub order: Samples,
    pub trace_rows: Samples,
    pub csr_build: Samples,
    pub transpose: Samples,
    pub buffer_build: Samples,
}

fn two_level(width: u32, height: u32) -> (Ordering2D, TileLayout) {
    let two = TwoLevelOrdering::with_default_tile(width, height);
    let layout = two.layout().clone();
    (two.into_ordering(), layout)
}

/// Preprocessing, step by step as `try_preprocess_with_metrics` does it
/// with the default configuration: order both domains, trace every ray
/// into ordered rows, assemble CSR, scan-transpose, build the buffered
/// layouts. Tracing runs on the calling thread.
pub fn build_operators(geo: Geo, tracer: &Tracer, steps: &mut BuildSteps) -> Operators {
    let (grid, scan) = (geo.grid(), geo.scan());
    let cfg = config();

    let ((tomo_ord, tomo_tiles), (sino_ord, sino_tiles)) = steps.order.time(|| {
        let _s = tracer.span("hilbert.order");
        (
            two_level(grid.n(), grid.n()),
            two_level(scan.num_channels(), scan.num_projections()),
        )
    });

    let rows: Vec<Vec<(u32, f32)>> = steps.trace_rows.time(|| {
        let _s = tracer.span("geometry.trace_rows");
        (0..scan.num_rays() as u32)
            .map(|rank| {
                let (chan, proj) = sino_ord.cell(rank);
                let ray = scan.ray(proj, chan);
                let mut row = Vec::new();
                trace_ray(&grid, &ray, |pixel, len| {
                    let (i, j) = grid.pixel_coords(pixel);
                    row.push((tomo_ord.rank(i, j), len));
                });
                row
            })
            .collect()
    });

    let a = steps.csr_build.time(|| {
        let _s = tracer.span("sparse.csr_build");
        CsrMatrix::from_rows(grid.num_pixels(), &rows)
    });
    drop(rows);

    let at = steps.transpose.time(|| {
        let _s = tracer.span("sparse.transpose");
        a.transpose_scan()
    });

    let (a_buf, at_buf) = steps.buffer_build.time(|| {
        let _s = tracer.span("sparse.buffer_build");
        (
            BufferedCsr::from_csr(&a, cfg.partsize, cfg.buffsize),
            BufferedCsr::from_csr(&at, cfg.partsize, cfg.buffsize),
        )
    });

    Operators {
        grid,
        scan,
        a,
        at,
        a_buf: Some(a_buf),
        at_buf: Some(at_buf),
        a_ell: None,
        at_ell: None,
        tomo_ord,
        sino_ord,
        tomo_tiles: Some(tomo_tiles),
        sino_tiles: Some(sino_tiles),
        partsize: cfg.partsize,
        timings: PreprocessTimings::default(),
    }
}

/// A projection operator that records one span per kernel call and
/// counts the calls. Everything else is delegated untouched.
pub struct Traced<'a> {
    inner: &'a dyn ProjectionOperator,
    tracer: &'a Tracer,
    pub forward_calls: std::cell::Cell<usize>,
    pub back_calls: std::cell::Cell<usize>,
}

impl<'a> Traced<'a> {
    pub fn new(inner: &'a dyn ProjectionOperator, tracer: &'a Tracer) -> Self {
        Traced {
            inner,
            tracer,
            forward_calls: Default::default(),
            back_calls: Default::default(),
        }
    }
}

impl ProjectionOperator for Traced<'_> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        let _s = self.tracer.span("sparse.spmv_fwd");
        self.forward_calls.set(self.forward_calls.get() + 1);
        self.inner.forward_into(x, y);
    }
    fn back_into(&self, y: &[f32], x: &mut [f32]) {
        let _s = self.tracer.span("sparse.spmv_back");
        self.back_calls.set(self.back_calls.get() + 1);
        self.inner.back_into(y, x);
    }
    fn forward_batch_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        let _s = self.tracer.span("sparse.spmm_fwd");
        self.forward_calls.set(self.forward_calls.get() + 1);
        self.inner.forward_batch_into(x, y, batch);
    }
    fn back_batch_into(&self, y: &[f32], x: &mut [f32], batch: usize) {
        let _s = self.tracer.span("sparse.spmm_back");
        self.back_calls.set(self.back_calls.get() + 1);
        self.inner.back_batch_into(y, x, batch);
    }
    fn local_dot_batch(&self, a: &[f32], b: &[f32], out: &mut [f64]) {
        let _s = self.tracer.span("sparse.dot");
        self.inner.local_dot_batch(a, b, out);
    }
    fn reduce_dot(&self, local: f64) -> f64 {
        self.inner.reduce_dot(local)
    }
    fn local_dot(&self, a: &[f32], b: &[f32]) -> f64 {
        let _s = self.tracer.span("sparse.dot");
        self.inner.local_dot(a, b)
    }
    fn breakdown(&self) -> Option<memxct::KernelBreakdown> {
        self.inner.breakdown()
    }
    fn fault(&self) -> Option<xct_runtime::CommError> {
        self.inner.fault()
    }
}

/// `Reconstructor::run` for CG on `sinos` (one slice, or a batch solved
/// together), step by step: order the sinograms, run the engine on `op`
/// inside `ws`, un-order the tomograms. `ws` must have been created with
/// `sinos.len()` as its batch width.
pub fn solve(
    ops: &Operators,
    op: &dyn ProjectionOperator,
    sinos: &[Sinogram],
    metrics: &Metrics,
    ws: &mut SolverWorkspace,
    tracer: &Tracer,
) -> Vec<Vec<f32>> {
    let y: Vec<f32> = {
        let _s = tracer.span("memxct.order_sinogram");
        let mut y = Vec::with_capacity(sinos.len() * ops.a.nrows());
        for sino in sinos {
            y.extend_from_slice(&ops.order_sinogram(sino));
        }
        y
    };
    {
        let _s = tracer.span("memxct.run_engine");
        let traced = Traced::new(op, tracer);
        memxct::run_engine_in(
            &traced,
            &y,
            &mut CgRule::new(),
            Constraint::None,
            STOP,
            metrics,
            ws,
        );
    }
    let _s = tracer.span("memxct.unorder_tomogram");
    ws.x()
        .chunks_exact(ops.a.ncols())
        .map(|slice| ops.unorder_tomogram(slice))
        .collect()
}

/// The kernel a default-configured reconstructor applies.
pub const KERNEL: Kernel = Kernel::Buffered;
