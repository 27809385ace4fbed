//! Solver checkpoint/resume: serialize a mid-solve engine state into the
//! versioned, checksummed [`Snapshot`] container of `xct-runtime`, and
//! validate + restore it for a **bit-identical** continuation.
//!
//! A snapshot captures everything iteration `k+1` reads from iteration
//! `k`: the carried vectors (`x`, `resid`, `dir`), the rule's carried
//! scalars (CG's `γ`; SIRT's weights are a pure function of the operator
//! and are recomputed on resume), the early-termination reference
//! `prev_res`, and the committed [`IterationRecord`]s. The layout is the
//! same for serial and distributed solves — the distributed driver
//! gathers per-rank blocks into the global ordered domain before saving —
//! so a snapshot taken at one rank count can seed a solve at another
//! (the graceful-degradation path).
//!
//! **Batched solves** extend the layout rather than fork it: the carried
//! vectors become slice-major slabs (`batch × ncols` / `batch × nrows`),
//! `prev_res` becomes a per-slice vector, and three sections are added —
//! the batch width, the per-slice activity flags, and the per-slice
//! record counts (the record arrays are the per-slice lists
//! concatenated). A batch-1 snapshot written by the current code carries
//! all of these; snapshots from the pre-batch format (no batch section,
//! scalar `prev_res`) still decode as batch 1.
//!
//! Snapshots are validated before use through [`xct_check::CheckpointCheck`]:
//! plan-hash match ([`Invariant::CheckpointHash`]), batch-width match
//! ([`Invariant::CheckpointBatch`]), vector lengths
//! ([`Invariant::CheckpointShape`]), and iteration consistency
//! ([`Invariant::CheckpointMonotone`]).
//!
//! [`Invariant::CheckpointHash`]: xct_check::Invariant
//! [`Invariant::CheckpointBatch`]: xct_check::Invariant
//! [`Invariant::CheckpointShape`]: xct_check::Invariant
//! [`Invariant::CheckpointMonotone`]: xct_check::Invariant

use crate::errors::BuildError;
use crate::preprocess::Operators;
use crate::solvers::IterationRecord;
use xct_check::{Check, CheckpointCheck, Report};
use xct_runtime::{fnv1a64, CheckpointError, CheckpointSink, Snapshot};

/// Section name of the iterate `x` (tomogram domain).
pub const SECTION_X: &str = "solve/x";
/// Section name of the residual `r` (sinogram domain).
pub const SECTION_RESID: &str = "solve/resid";
/// Section name of the search direction `p` (tomogram domain).
pub const SECTION_DIR: &str = "solve/dir";
/// Section name of the early-termination reference residual.
pub const SECTION_PREV_RES: &str = "solve/prev_res";
/// Section name of the update rule's carried scalars (CG's `γ`).
pub const SECTION_RULE: &str = "solve/rule_scalars";
/// Section name of the per-iteration residual norms.
pub const SECTION_REC_RESIDUAL: &str = "records/residual";
/// Section name of the per-iteration solution norms.
pub const SECTION_REC_SOLUTION: &str = "records/solution";
/// Section name of the per-iteration wall-clock seconds.
pub const SECTION_REC_SECONDS: &str = "records/seconds";
/// Section name of the batch width (one `u64`); absent in pre-batch
/// snapshots, which are read as batch 1.
pub const SECTION_BATCH: &str = "solve/batch";
/// Section name of the per-slice activity flags (`u64` 0/1 per slice).
pub const SECTION_ACTIVE: &str = "solve/active";
/// Section name of the per-slice record counts; the `records/*` arrays
/// are the per-slice lists concatenated in slice order.
pub const SECTION_REC_COUNTS: &str = "records/counts";

/// Deterministic fingerprint of the preprocessed plan a snapshot belongs
/// to. Any geometry or configuration change that alters the projection
/// matrix's shape, population, or partitioning changes the fingerprint,
/// so a stale snapshot is rejected at [`Invariant::CheckpointHash`]
/// validation instead of silently resuming into the wrong plan.
///
/// [`Invariant::CheckpointHash`]: xct_check::Invariant
pub fn plan_fingerprint(ops: &Operators) -> u64 {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&(ops.a.nrows() as u64).to_le_bytes());
    bytes[8..16].copy_from_slice(&(ops.a.ncols() as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&(ops.a.nnz() as u64).to_le_bytes());
    bytes[24..].copy_from_slice(&(ops.partsize as u64).to_le_bytes());
    fnv1a64(&bytes)
}

/// A mid-solve state: the one exchange type between a workspace + rule
/// and a snapshot. [`SolverWorkspace::capture`] produces it at an
/// iteration boundary, [`encode_state`] / [`load_state`] carry it through
/// a sink, and [`SolverWorkspace::restore`] puts it back — a distributed
/// rank captures and restores its blocks of the same global state.
///
/// [`SolverWorkspace::capture`]: crate::SolverWorkspace
/// [`SolverWorkspace::restore`]: crate::SolverWorkspace
pub(crate) struct SolveState {
    /// The iteration the resumed loop starts at (iterations `0..iteration`
    /// are committed in `slice_records`).
    pub(crate) iteration: usize,
    /// Batch width the solve was running at (1 for pre-batch snapshots).
    pub(crate) batch: usize,
    /// Per-slice `prev_res` as of the last committed iteration.
    pub(crate) prev_res: Vec<f64>,
    /// Ordered iterate slab (`batch × ncols`, slice-major).
    pub(crate) x: Vec<f32>,
    /// Ordered residual slab.
    pub(crate) resid: Vec<f32>,
    /// Ordered search-direction slab.
    pub(crate) dir: Vec<f32>,
    /// Per-slice activity flags.
    pub(crate) active: Vec<bool>,
    /// Committed per-slice per-iteration records.
    pub(crate) slice_records: Vec<Vec<IterationRecord>>,
    /// The update rule's carried scalars.
    pub(crate) scalars: Vec<f64>,
}

/// Build the snapshot of a solve paused before `st.iteration`, over the
/// *global* ordered domain (the distributed executor gathers its ranks'
/// blocks first). The carried slabs are slice-major; the per-slice record
/// lists are concatenated into the `records/*` arrays with their lengths
/// in [`SECTION_REC_COUNTS`].
pub(crate) fn encode_state(plan_hash: u64, st: &SolveState) -> Snapshot {
    let mut snap = Snapshot::new(plan_hash, st.iteration as u64);
    snap.push_u64s(SECTION_BATCH, &[st.batch as u64]);
    snap.push_f32s(SECTION_X, &st.x);
    snap.push_f32s(SECTION_RESID, &st.resid);
    snap.push_f32s(SECTION_DIR, &st.dir);
    snap.push_f64s(SECTION_PREV_RES, &st.prev_res);
    let flags: Vec<u64> = st.active.iter().map(|&a| a as u64).collect();
    snap.push_u64s(SECTION_ACTIVE, &flags);
    snap.push_f64s(SECTION_RULE, &st.scalars);
    let counts: Vec<u64> = st.slice_records.iter().map(|r| r.len() as u64).collect();
    snap.push_u64s(SECTION_REC_COUNTS, &counts);
    let all = st.slice_records.iter().flatten();
    let residuals: Vec<f64> = all.clone().map(|r| r.residual_norm).collect();
    let solutions: Vec<f64> = all.clone().map(|r| r.solution_norm).collect();
    let seconds: Vec<f64> = all.map(|r| r.seconds).collect();
    snap.push_f64s(SECTION_REC_RESIDUAL, &residuals);
    snap.push_f64s(SECTION_REC_SOLUTION, &solutions);
    snap.push_f64s(SECTION_REC_SECONDS, &seconds);
    snap
}

/// Validate a decoded snapshot against the plan it will resume into:
/// plan-hash match, batch width against the resuming configuration,
/// vector lengths against the operator's dimensions scaled by the batch
/// width, iteration counter within the stop rule's cap and consistent
/// with the record sections. Returns the (possibly empty) violation
/// report.
///
/// A pre-batch snapshot (no [`SECTION_BATCH`]) is treated as batch 1 and
/// skips the batch-only section checks, so old checkpoints remain
/// resumable.
pub fn validate_snapshot(
    snap: &Snapshot,
    expected_plan_hash: u64,
    max_iters: usize,
    nrows: usize,
    ncols: usize,
    expected_batch: usize,
) -> Report {
    let found = |name: &str| snap.f32s(name).ok().map(<[f32]>::len);
    let found64 = |name: &str| snap.f64s(name).ok().map(<[f64]>::len);
    let found_u64 = |name: &str| snap.u64s(name).ok().map(<[u64]>::len);
    let iteration = snap.iteration();
    let batched = snap.has(SECTION_BATCH);
    let found_batch = snap
        .u64s(SECTION_BATCH)
        .ok()
        .and_then(|v| v.first().copied())
        .unwrap_or(1);
    let counts: Option<Vec<u64>> = snap.u64s(SECTION_REC_COUNTS).ok().map(<[u64]>::to_vec);
    // At checkpoint time every still-active slice has one record per
    // committed iteration, so the longest per-slice list must equal the
    // iteration counter (retired slices may be shorter). Pre-batch
    // snapshots have a single implicit slice: the array length itself.
    let records_len = match &counts {
        Some(c) => c.iter().copied().max().unwrap_or(0),
        None => found64(SECTION_REC_RESIDUAL).unwrap_or(0) as u64,
    };
    // The concatenated record arrays carry sum(counts) entries; saturate
    // rather than truncate if a corrupt header claims more iterations
    // than usize holds.
    let rec_expect = match &counts {
        Some(c) => usize::try_from(c.iter().sum::<u64>()).unwrap_or(usize::MAX),
        None => usize::try_from(iteration).unwrap_or(usize::MAX),
    };
    let b = expected_batch.max(1);
    let mut check = CheckpointCheck::new(
        "solve checkpoint",
        expected_plan_hash,
        snap.plan_hash(),
        max_iters as u64,
        iteration,
        records_len,
    )
    .batch(b as u64, found_batch)
    .section(SECTION_X, ncols * b, found(SECTION_X))
    .section(SECTION_RESID, nrows * b, found(SECTION_RESID))
    .section(SECTION_DIR, ncols * b, found(SECTION_DIR))
    .section(
        SECTION_REC_RESIDUAL,
        rec_expect,
        found64(SECTION_REC_RESIDUAL),
    )
    .section(
        SECTION_REC_SOLUTION,
        rec_expect,
        found64(SECTION_REC_SOLUTION),
    )
    .section(
        SECTION_REC_SECONDS,
        rec_expect,
        found64(SECTION_REC_SECONDS),
    );
    if batched {
        check = check
            .section(SECTION_PREV_RES, b, found64(SECTION_PREV_RES))
            .section(SECTION_ACTIVE, b, found_u64(SECTION_ACTIVE))
            .section(SECTION_REC_COUNTS, b, found_u64(SECTION_REC_COUNTS));
    }
    let mut report = Report::new();
    check.run(&mut report);
    report
}

/// Decode a validated snapshot into a [`SolveState`]. Pre-batch
/// snapshots (no batch section, scalar `prev_res`) decode as batch 1
/// with every slice active.
pub(crate) fn decode_state(snap: &Snapshot) -> Result<SolveState, CheckpointError> {
    // in-range: validate_snapshot bounded iteration by the stop rule's cap
    let iteration = snap.iteration() as usize;
    let batch = snap
        .u64s(SECTION_BATCH)
        .ok()
        .and_then(|v| v.first().copied())
        .unwrap_or(1) as usize;
    let residuals = snap.f64s(SECTION_REC_RESIDUAL)?;
    let solutions = snap.f64s(SECTION_REC_SOLUTION)?;
    let seconds = snap.f64s(SECTION_REC_SECONDS)?;
    let counts: Vec<usize> = match snap.u64s(SECTION_REC_COUNTS) {
        Ok(c) => c.iter().map(|&v| v as usize).collect(),
        Err(_) => vec![residuals.len()],
    };
    let mut slice_records = Vec::with_capacity(counts.len());
    let mut off = 0usize;
    for &count in &counts {
        // in-range: validate_snapshot pinned the record arrays to
        // sum(counts) entries
        let recs = (0..count)
            .map(|i| IterationRecord {
                iter: i,
                residual_norm: residuals[off + i],
                solution_norm: solutions[off + i],
                seconds: seconds[off + i],
            })
            .collect();
        off += count;
        slice_records.push(recs);
    }
    let prev_res: Vec<f64> = match snap.f64s(SECTION_PREV_RES) {
        Ok(v) => v.to_vec(),
        // Pre-batch snapshots stored prev_res as a scalar section.
        Err(_) => vec![snap.f64_scalar(SECTION_PREV_RES)?],
    };
    let active: Vec<bool> = match snap.u64s(SECTION_ACTIVE) {
        Ok(v) => v.iter().map(|&f| f != 0).collect(),
        Err(_) => vec![true; batch],
    };
    Ok(SolveState {
        iteration,
        batch,
        prev_res,
        x: snap.f32s(SECTION_X)?.to_vec(),
        resid: snap.f32s(SECTION_RESID)?.to_vec(),
        dir: snap.f32s(SECTION_DIR)?.to_vec(),
        active,
        slice_records,
        scalars: snap.f64s(SECTION_RULE)?.to_vec(),
    })
}

/// Load and fully validate a snapshot from `sink`'s slot `slot`.
///
/// Returns `Ok(None)` when the slot holds no snapshot (a resume request
/// before any checkpoint was written starts from scratch), a typed
/// [`BuildError::Checkpoint`] for container-level corruption (bad magic,
/// checksum mismatch, truncation), and [`BuildError::PlanCheck`] when the
/// container is intact but inconsistent with the plan being resumed.
pub(crate) fn load_state(
    sink: &dyn CheckpointSink,
    slot: usize,
    expected_plan_hash: u64,
    max_iters: usize,
    nrows: usize,
    ncols: usize,
    expected_batch: usize,
) -> Result<Option<SolveState>, BuildError> {
    let Some(bytes) = sink.load(slot).map_err(BuildError::Checkpoint)? else {
        return Ok(None);
    };
    let snap = Snapshot::decode(&bytes).map_err(BuildError::Checkpoint)?;
    let report = validate_snapshot(
        &snap,
        expected_plan_hash,
        max_iters,
        nrows,
        ncols,
        expected_batch,
    );
    if !report.is_ok() {
        return Err(BuildError::PlanCheck(report));
    }
    let state = decode_state(&snap).map_err(BuildError::Checkpoint)?;
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_check::Invariant;
    use xct_runtime::MemoryCheckpointSink;

    fn records(n: usize) -> Vec<IterationRecord> {
        (0..n)
            .map(|iter| IterationRecord {
                iter,
                residual_norm: 10.0 / (iter + 1) as f64,
                solution_norm: iter as f64,
                seconds: 0.25,
            })
            .collect()
    }

    /// A `k`-slice state of a 3 × 2 plan paused before `iteration`:
    /// constant slabs, every slice active, no rule scalars.
    fn state(iteration: usize, slice_records: Vec<Vec<IterationRecord>>) -> SolveState {
        let k = slice_records.len();
        SolveState {
            iteration,
            batch: k,
            prev_res: vec![1.0; k],
            x: vec![1.0; 2 * k],
            resid: vec![2.0; 3 * k],
            dir: vec![3.0; 2 * k],
            active: vec![true; k],
            slice_records,
            scalars: Vec::new(),
        }
    }

    /// A batch-1 snapshot of a 3 × 2 plan with `nrecs` records.
    fn one_slice(plan_hash: u64, next_iter: usize, nrecs: usize) -> Snapshot {
        encode_state(plan_hash, &state(next_iter, vec![records(nrecs)]))
    }

    #[test]
    fn encode_decode_round_trips_the_state() {
        let recs = [records(3)];
        let snap = encode_state(
            0xFEED,
            &SolveState {
                prev_res: vec![10.0 / 3.0],
                x: vec![1.0, 2.0],
                resid: vec![3.0, 4.0, 5.0],
                dir: vec![6.0, 7.0],
                scalars: vec![0.125],
                ..state(3, recs.to_vec())
            },
        );
        assert!(validate_snapshot(&snap, 0xFEED, 10, 3, 2, 1).is_ok());
        let st = decode_state(&snap).unwrap();
        assert_eq!(st.iteration, 3);
        assert_eq!(st.batch, 1);
        assert_eq!(st.prev_res, vec![10.0 / 3.0]);
        assert_eq!(st.x, vec![1.0, 2.0]);
        assert_eq!(st.resid, vec![3.0, 4.0, 5.0]);
        assert_eq!(st.dir, vec![6.0, 7.0]);
        assert_eq!(st.active, vec![true]);
        assert_eq!(st.scalars, vec![0.125]);
        assert_eq!(st.slice_records, recs);
    }

    #[test]
    fn batched_encode_decode_round_trips_per_slice_state() {
        // Slice 0 ran 3 iterations, slice 1 retired after 2.
        let slice_records = vec![records(3), records(2)];
        let snap = encode_state(
            0xFEED,
            &SolveState {
                prev_res: vec![0.5, 0.25],
                active: vec![true, false],
                scalars: vec![0.125, 0.5],
                ..state(3, slice_records.clone())
            },
        );
        let r = validate_snapshot(&snap, 0xFEED, 10, 3, 2, 2);
        assert!(r.is_ok(), "{r}");
        let st = decode_state(&snap).unwrap();
        assert_eq!(st.batch, 2);
        assert_eq!(st.prev_res, vec![0.5, 0.25]);
        assert_eq!(st.active, vec![true, false]);
        assert_eq!(st.slice_records, slice_records);
        assert_eq!(st.scalars, vec![0.125, 0.5]);
    }

    #[test]
    fn validation_pinpoints_each_mismatch() {
        let snap = one_slice(0xFEED, 3, 3);
        // Wrong plan hash.
        let r = validate_snapshot(&snap, 0xBEEF, 10, 3, 2, 1);
        assert!(r.has(Invariant::CheckpointHash), "{r}");
        // Wrong vector lengths (snapshot from a different geometry).
        let r = validate_snapshot(&snap, 0xFEED, 10, 4, 5, 1);
        assert!(r.has(Invariant::CheckpointShape), "{r}");
        // Iteration past the run's cap.
        let r = validate_snapshot(&snap, 0xFEED, 2, 3, 2, 1);
        assert!(r.has(Invariant::CheckpointMonotone), "{r}");
    }

    #[test]
    fn batch_width_mismatch_is_a_typed_violation() {
        let snap = encode_state(7, &state(1, vec![records(1), records(1)]));
        // Resuming a batch-2 snapshot at batch 4: the batch invariant
        // fires as the root cause, not a cascade of shape violations.
        let r = validate_snapshot(&snap, 7, 10, 3, 2, 4);
        assert!(r.has(Invariant::CheckpointBatch), "{r}");
        assert!(!r.has(Invariant::CheckpointShape), "root cause only: {r}");
        // The matching width validates cleanly.
        assert!(validate_snapshot(&snap, 7, 10, 3, 2, 2).is_ok());
    }

    #[test]
    fn records_disagreeing_with_iteration_are_rejected() {
        let snap = one_slice(1, 5, 3);
        let r = validate_snapshot(&snap, 1, 10, 3, 2, 1);
        assert!(r.has(Invariant::CheckpointMonotone), "{r}");
    }

    #[test]
    fn load_state_surfaces_typed_errors() {
        let sink = MemoryCheckpointSink::new();
        // Empty slot: clean None.
        assert!(load_state(&sink, 0, 1, 10, 3, 2, 1).unwrap().is_none());
        // Garbage bytes: container-level checkpoint error.
        sink.save(0, b"not a snapshot").unwrap();
        assert!(matches!(
            load_state(&sink, 0, 1, 10, 3, 2, 1),
            Err(BuildError::Checkpoint(_))
        ));
        // Intact container, mismatched plan: invariant report.
        let snap = one_slice(2, 1, 1);
        sink.save(0, &snap.encode()).unwrap();
        match load_state(&sink, 0, 1, 10, 3, 2, 1) {
            Err(BuildError::PlanCheck(r)) => assert!(r.has(Invariant::CheckpointHash)),
            other => panic!("expected PlanCheck, got {:?}", other.map(|_| ())),
        }
        // Mismatched batch width: typed CheckpointBatch violation.
        match load_state(&sink, 0, 2, 10, 3, 2, 4) {
            Err(BuildError::PlanCheck(r)) => assert!(r.has(Invariant::CheckpointBatch), "{r}"),
            other => panic!("expected PlanCheck, got {:?}", other.map(|_| ())),
        }
        // Matching plan loads.
        let st = load_state(&sink, 0, 2, 10, 3, 2, 1).unwrap().unwrap();
        assert_eq!(st.iteration, 1);
    }

    #[test]
    fn fingerprint_tracks_plan_shape() {
        use crate::preprocess::{preprocess, Config};
        use xct_geometry::{Grid, ScanGeometry};
        let a = preprocess(Grid::new(16), ScanGeometry::new(12, 16), &Config::default());
        let b = preprocess(Grid::new(16), ScanGeometry::new(12, 16), &Config::default());
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b), "deterministic");
        let c = preprocess(Grid::new(24), ScanGeometry::new(12, 24), &Config::default());
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&c));
    }
}
