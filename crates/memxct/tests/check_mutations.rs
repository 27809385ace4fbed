//! Mutation tests on *real* preprocessed plans: corrupt one field of a
//! genuinely traced operator set (not a hand-built specimen) and assert
//! the plan-level sweep pinpoints the corrupted invariant class — plus the
//! golden guarantee that enabling validation changes no bits.

use memxct::prelude::*;
use memxct::{dist_checker, Invariant};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_sparse::{CsrMatrix, EllMatrix};

fn setup(n: u32, m: u32) -> (Grid, ScanGeometry, Operators) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let ops = preprocess(grid, scan, &Config::default());
    (grid, scan, ops)
}

#[test]
fn validated_build_is_bit_identical_to_unvalidated() {
    let n = 24u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(36, n);
    let truth = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);

    let plain = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let validated = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(8));
    let (a, b) = (plain.run(&req).unwrap(), validated.run(&req).unwrap());
    assert_eq!(a.images, b.images, "validation must not perturb the solve");
    for (ra, rb) in a.slice_records[0].iter().zip(&b.slice_records[0]) {
        assert_eq!(ra.residual_norm.to_bits(), rb.residual_norm.to_bits());
        assert_eq!(ra.solution_norm.to_bits(), rb.solution_norm.to_bits());
    }
    // And the post-build sweep agrees the plan is clean.
    assert!(validated.validate_plan().is_ok());
}

#[test]
fn nan_in_traced_matrix_is_pinpointed() {
    let (_, _, mut ops) = setup(16, 12);
    let mut values = ops.a.values().to_vec();
    values[7] = f32::NAN;
    ops.a = CsrMatrix::from_raw_unchecked(
        ops.a.nrows(),
        ops.a.ncols(),
        ops.a.rowptr().to_vec(),
        ops.a.colind().to_vec(),
        values,
    );
    let report = validate_plan(&ops);
    assert!(report.has(Invariant::ValueFinite), "{report}");
    // The corruption surfaces in every structure derived from A (the
    // transpose pair and the buffered layout disagree with it now), but
    // never as a false structural violation of At itself.
    assert!(!report.has(Invariant::RowPtrShape), "{report}");
    assert!(!report.has(Invariant::PermutationBijection), "{report}");
}

#[test]
fn stale_transpose_is_pinpointed() {
    let (_, _, mut ops) = setup(16, 12);
    // Rebuild At from a truncated A: the pair no longer matches.
    let mut values = ops.at.values().to_vec();
    values[0] += 0.25;
    ops.at = CsrMatrix::from_raw_unchecked(
        ops.at.nrows(),
        ops.at.ncols(),
        ops.at.rowptr().to_vec(),
        ops.at.colind().to_vec(),
        values,
    );
    let report = validate_plan(&ops);
    assert!(report.has(Invariant::TransposeEntries), "{report}");
    // At itself is still a well-formed CSR matrix.
    assert!(!report.has(Invariant::RowPtrMonotone), "{report}");
    assert!(!report.has(Invariant::ColumnBounds), "{report}");
    // The buffered layout of At was built from the old values and now
    // disagrees entry-wise.
    assert!(report.has(Invariant::BufferedEntries), "{report}");
}

#[test]
fn corrupted_rank_plan_schedule_is_pinpointed() {
    let (_, _, ops) = setup(16, 12);
    let mut plans = memxct::dist::build_plans(&ops, 3, false);
    // Rank 1 silently drops the last row it owes rank 0.
    let dropped = plans[1].rows_from[0].pop();
    assert!(
        dropped.is_some(),
        "pair 1<-0 must interact in this geometry"
    );
    let report = dist_checker(&ops, &plans).run();
    assert!(report.has(Invariant::ScheduleSymmetry), "{report}");
    // The domain partitions themselves are untouched.
    assert!(!report.has(Invariant::PartitionCoverage), "{report}");
}

#[test]
fn overlapping_rank_partitions_are_pinpointed() {
    let (_, _, ops) = setup(16, 12);
    let mut plans = memxct::dist::build_plans(&ops, 3, false);
    plans[1].tomo_range.start -= 1; // steal one cell from rank 0
    let report = dist_checker(&ops, &plans).run();
    assert!(report.has(Invariant::PartitionCoverage), "{report}");
}

#[test]
fn clean_plans_validate_across_configurations() {
    for (n, m) in [(16u32, 12u32), (24, 18)] {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        for ordering in [DomainOrdering::RowMajor, DomainOrdering::HilbertSquare] {
            let config = Config {
                ordering,
                ..Config::default()
            };
            let mut ops = preprocess(grid, scan, &config);
            ops.a_ell = Some(EllMatrix::from_csr(&ops.a, ops.partsize));
            ops.at_ell = Some(EllMatrix::from_csr(&ops.at, ops.partsize));
            let report = validate_plan(&ops);
            assert!(report.is_ok(), "{n}x{m} {ordering:?}: {report}");
        }
    }
}
