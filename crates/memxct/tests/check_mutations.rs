//! Mutation tests on *real* preprocessed plans: corrupt one field of a
//! genuinely traced operator set (not a hand-built specimen) and assert
//! the plan-level sweep pinpoints the corrupted invariant class — plus the
//! golden guarantee that enabling validation changes no bits.

use memxct::prelude::*;
use memxct::{dist_checker, Invariant};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_sparse::CsrMatrix;

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
            let ops = preprocess(grid, scan, &config);
            let report = validate_plan(&ops);
            assert!(report.is_ok(), "{n}x{m} {ordering:?}: {report}");
        }
    }
}

/// A plan whose partitions split into stages: a 64-slot buffer against
/// 128-row partitions of a 24×36 geometry. `A`'s traced rows do not
/// ascend, so its layout is stage-major; `Aᵀ`'s is row-major.
fn multi_stage_plan() -> Operators {
    let config = Config {
        buffsize: 64,
        ..Config::default()
    };
    let ops = preprocess(Grid::new(24), ScanGeometry::new(36, 24), &config);
    for b in [&ops.a_buf, &ops.at_buf] {
        let b = b.as_ref().expect("a buffered plan");
        let most = (0..b.num_partitions()).map(|p| b.stages_of_partition(p));
        assert!(most.max() > Some(1), "some partition must split");
    }
    assert!(!ops.a_buf.as_ref().unwrap().row_major_runs());
    assert!(ops.at_buf.as_ref().unwrap().row_major_runs());
    ops
}

#[test]
fn multi_stage_plan_validates_and_pinpoints_corruptions() {
    let ops = multi_stage_plan();
    let report = validate_plan(&ops);
    assert!(report.is_ok(), "{report}");

    // A column repeated inside one unsorted row of A.
    let mut dup = multi_stage_plan();
    let rowptr = dup.a.rowptr().to_vec();
    let mut colind = dup.a.colind().to_vec();
    let row = (0..dup.a.nrows())
        .find(|&i| {
            let cols = &colind[rowptr[i]..rowptr[i + 1]];
            cols.len() >= 3 && cols.windows(2).any(|w| w[0] > w[1])
        })
        .expect("an unsorted row of at least 3 entries");
    colind[rowptr[row] + 2] = colind[rowptr[row]];
    dup.a = CsrMatrix::from_raw_unchecked(
        dup.a.nrows(),
        dup.a.ncols(),
        rowptr,
        colind,
        dup.a.values().to_vec(),
    );
    let report = validate_plan(&dup);
    assert!(report.has(Invariant::DuplicateColumn), "{report}");
    assert!(!report.has(Invariant::RowPtrMonotone), "{report}");

    // One mantissa bit of one stored weight of each layout.
    for at in [false, true] {
        let mut ops = multi_stage_plan();
        let slot = if at { &mut ops.at_buf } else { &mut ops.a_buf };
        let b = slot.take().unwrap();
        let mut val = b.entry_val().to_vec();
        let mid = val.len() / 2;
        val[mid] = f32::from_bits(val[mid].to_bits() ^ 1);
        *slot = Some(xct_sparse::BufferedCsrImpl::from_raw_parts_unchecked(
            b.nrows(),
            b.ncols(),
            b.partsize(),
            b.buffsize(),
            b.nnz(),
            b.partdispl().to_vec(),
            b.stagedispl().to_vec(),
            b.stage_map().to_vec(),
            b.entry_displ().to_vec(),
            b.row_major_runs(),
            b.entry_ind().to_vec(),
            val,
        ));
        let report = validate_plan(&ops);
        assert!(report.has(Invariant::BufferedEntries), "At {at}: {report}");
        assert_eq!(report.len(), 1, "At {at}: {report}");
    }

    // One entry of a stage ≥ 1 run of A's layout, in a row that visits a
    // later stage before an earlier one: a flipped value bit, then a
    // local index moved to the next slot of the same footprint.
    let b = ops.a_buf.as_ref().unwrap();
    let (partdispl, stagedispl, map) = (b.partdispl(), b.stagedispl(), b.stage_map());
    let stage_of = |p: usize, c: u32| {
        let stages = partdispl[p] as usize..partdispl[p + 1] as usize;
        stages
            .clone()
            .find(|&s| map[stagedispl[s]..stagedispl[s + 1]].contains(&c))
            .unwrap()
    };
    let (k, s) = (0..b.nrows())
        .find_map(|row| {
            let p = row / b.partsize();
            let stages: Vec<usize> = ops.a.row(row).map(|(c, _)| stage_of(p, c)).collect();
            let run = b.run(partdispl[p] as usize + 1, row);
            (!stages.is_sorted() && !run.is_empty())
                .then_some((run.start, partdispl[p] as usize + 1))
        })
        .expect("a row of A out of stage order, with a stage-1 run");
    let footprint = stagedispl[s + 1] - stagedispl[s];
    for moved_index in [false, true] {
        let mut ops = multi_stage_plan();
        let b = ops.a_buf.take().unwrap();
        let (mut ind, mut val) = (b.entry_ind().to_vec(), b.entry_val().to_vec());
        if moved_index {
            ind[k] = ((ind[k] as usize + 1) % footprint) as u16;
        } else {
            val[k] = f32::from_bits(val[k].to_bits() ^ 1);
        }
        ops.a_buf = Some(xct_sparse::BufferedCsrImpl::from_raw_parts_unchecked(
            b.nrows(),
            b.ncols(),
            b.partsize(),
            b.buffsize(),
            b.nnz(),
            b.partdispl().to_vec(),
            b.stagedispl().to_vec(),
            b.stage_map().to_vec(),
            b.entry_displ().to_vec(),
            b.row_major_runs(),
            ind,
            val,
        ));
        let lines: Vec<String> = validate_plan(&ops)
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(
            lines,
            [
                "CheckViolation[BufferedEntries] buffered(A) at row 16: layout reproduces 24 \
                 entries, source row has 24 (same count, different content) \
                 (fix: rebuild with BufferedCsrImpl::try_from_csr)"
            ],
            "moved index {moved_index}"
        );
    }
}
