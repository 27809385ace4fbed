//! Mutation-style property tests: every invariant class must be
//! *pinpointable*. Each mutation takes a valid memoized structure, corrupts
//! exactly one field through the `*_unchecked` constructors, and asserts the
//! checker for that structure reports exactly the corrupted invariant class
//! — no more, no less. A final test proves the table covers every class in
//! [`Invariant::ALL`].

use xct_check::{
    BufferedCheck, Check, CheckpointCheck, CsrCheck, ExecPlanCheck, Invariant, LedgerCheck,
    LockOrderCheck, PartitionCheck, PermutationCheck, Report, ScheduleCheck, TransposeCheck,
};
use xct_sparse::{BufferedCsr, BufferedCsrImpl, CsrMatrix};

/// Per-rank × per-peer row-index tables of a communication schedule.
type RowTables = Vec<Vec<Vec<u32>>>;

/// The shared specimen: 5x6, 9 nnz, with an empty row and an unsorted row
/// (row 4 stores column 2 before column 1 — ray-traversal order).
fn specimen() -> CsrMatrix {
    CsrMatrix::from_rows(
        6,
        &[
            vec![(0, 1.0), (3, 2.0), (5, 1.5)],
            vec![(1, -1.0)],
            vec![],
            vec![(0, 0.5), (2, 0.5), (4, 0.5)],
            vec![(2, 3.0), (1, 1.0)],
        ],
    )
}

fn run(check: impl Check) -> Report {
    let mut report = Report::new();
    check.run(&mut report);
    report
}

/// Rebuild the specimen CSR with one array swapped out.
fn csr_with(mutate: impl FnOnce(&mut Vec<usize>, &mut Vec<u32>, &mut Vec<f32>)) -> CsrMatrix {
    let a = specimen();
    let (mut rowptr, mut colind, mut values) = (
        a.rowptr().to_vec(),
        a.colind().to_vec(),
        a.values().to_vec(),
    );
    mutate(&mut rowptr, &mut colind, &mut values);
    CsrMatrix::from_raw_unchecked(a.nrows(), a.ncols(), rowptr, colind, values)
}

/// All eleven raw fields of the specimen's buffered layout
/// (partsize 2, buffsize 4: three partitions, one stage each).
struct BufParts {
    nrows: usize,
    ncols: usize,
    partsize: usize,
    buffsize: usize,
    nnz: usize,
    partdispl: Vec<u32>,
    stagedispl: Vec<usize>,
    map: Vec<u32>,
    displ: Vec<usize>,
    row_major: bool,
    ind: Vec<u16>,
    val: Vec<f32>,
}

fn buf_parts() -> (CsrMatrix, BufParts) {
    let a = specimen();
    let b = BufferedCsr::from_csr(&a, 2, 4);
    let parts = BufParts {
        nrows: b.nrows(),
        ncols: b.ncols(),
        partsize: b.partsize(),
        buffsize: b.buffsize(),
        nnz: b.nnz(),
        partdispl: b.partdispl().to_vec(),
        stagedispl: b.stagedispl().to_vec(),
        map: b.stage_map().to_vec(),
        displ: b.entry_displ().to_vec(),
        row_major: b.row_major_runs(),
        ind: b.entry_ind().to_vec(),
        val: b.entry_val().to_vec(),
    };
    (a, parts)
}

fn buffered_report(mutate: impl FnOnce(&mut BufParts)) -> Report {
    let (a, mut p) = buf_parts();
    mutate(&mut p);
    let b: BufferedCsr = BufferedCsrImpl::from_raw_parts_unchecked(
        p.nrows,
        p.ncols,
        p.partsize,
        p.buffsize,
        p.nnz,
        p.partdispl,
        p.stagedispl,
        p.map,
        p.displ,
        p.row_major,
        p.ind,
        p.val,
    );
    run(BufferedCheck::new("buffered(A)", &b).with_source(&a))
}

/// Consistent 2-rank schedule tables over a 6-row sinogram.
fn schedule_tables() -> (Vec<std::ops::Range<usize>>, RowTables, RowTables) {
    let owners = vec![0..3, 3..6];
    let sends = vec![vec![vec![], vec![0, 2]], vec![vec![4], vec![]]];
    let recvs = vec![vec![vec![], vec![4]], vec![vec![0, 2], vec![]]];
    (owners, sends, recvs)
}

// ---------------------------------------------------------------------------
// One mutation per invariant class.
// ---------------------------------------------------------------------------

fn m_rowptr_shape() -> Report {
    // Drop the last rowptr entry: len != nrows + 1.
    let a = csr_with(|rowptr, _, _| {
        rowptr.pop();
    });
    run(CsrCheck::new("csr(A)", &a))
}

fn m_rowptr_monotone() -> Report {
    // rowptr [0,3,4,4,7,9] -> [0,3,5,4,7,9]: one interior descent.
    let a = csr_with(|rowptr, _, _| rowptr[2] = 5);
    run(CsrCheck::new("csr(A)", &a))
}

fn m_column_bounds() -> Report {
    // Row 0's second column (3) escapes the 0..6 domain.
    let a = csr_with(|_, colind, _| colind[1] = 6);
    run(CsrCheck::new("csr(A)", &a))
}

fn m_column_sorted() -> Report {
    // The scan transpose guarantees sorted rows; un-sort one.
    let at = specimen().transpose_scan();
    let mut colind = at.colind().to_vec();
    colind.swap(0, 1);
    let at = CsrMatrix::from_raw_unchecked(
        at.nrows(),
        at.ncols(),
        at.rowptr().to_vec(),
        colind,
        at.values().to_vec(),
    );
    run(CsrCheck::new("csr(At)", &at).require_sorted_columns())
}

fn m_duplicate_column() -> Report {
    // Row 0 stores column 0 twice.
    let a = csr_with(|_, colind, _| colind[1] = 0);
    run(CsrCheck::new("csr(A)", &a))
}

fn m_value_finite() -> Report {
    let a = csr_with(|_, _, values| values[0] = f32::NAN);
    run(CsrCheck::new("csr(A)", &a))
}

fn m_transpose_shape() -> Report {
    // Append a phantom empty transposed row: At gains a row A never had.
    let a = specimen();
    let at = a.transpose_scan();
    let mut rowptr = at.rowptr().to_vec();
    rowptr.push(*rowptr.last().unwrap());
    let at = CsrMatrix::from_raw_unchecked(
        at.nrows() + 1,
        at.ncols(),
        rowptr,
        at.colind().to_vec(),
        at.values().to_vec(),
    );
    run(TransposeCheck::new("pair(A,At)", &a, &at))
}

fn m_transpose_entries() -> Report {
    // Perturb one transposed value: still finite, but no longer the scan
    // transpose of A.
    let a = specimen();
    let at = a.transpose_scan();
    let mut values = at.values().to_vec();
    values[0] += 1.0;
    let at = CsrMatrix::from_raw_unchecked(
        at.nrows(),
        at.ncols(),
        at.rowptr().to_vec(),
        at.colind().to_vec(),
        values,
    );
    run(TransposeCheck::new("pair(A,At)", &a, &at))
}

fn m_permutation_bijection() -> Report {
    // Swap two ranks without updating the inverse table.
    let mut rank_of: Vec<u32> = (0..8).collect();
    let pos_of: Vec<u32> = (0..8).collect();
    rank_of.swap(1, 2);
    run(PermutationCheck::new("ordering", &rank_of, &pos_of))
}

fn m_buffered_shape() -> Report {
    // Truncate the stage map: stagedispl no longer covers it.
    buffered_report(|p| {
        p.map.pop();
    })
}

fn m_partition_displ() -> Report {
    // partdispl [0,1,2,3] -> [0,3,2,3]: stage ranges go non-monotone.
    buffered_report(|p| p.partdispl[1] = 3)
}

fn m_stage_footprint() -> Report {
    // A buffer capacity the u16 index width cannot address (§3.3.5).
    buffered_report(|p| p.buffsize = u16::MAX as usize + 2)
}

fn m_stage_map_sorted() -> Report {
    // Partition 0's footprint [0,1,3,5] -> [1,0,3,5].
    buffered_report(|p| p.map.swap(0, 1))
}

fn m_stage_map_bounds() -> Report {
    // Last footprint slot of partition 0 (column 5) escapes 0..6 while
    // staying ascending.
    buffered_report(|p| p.map[3] = 6)
}

fn m_buffer_local_bounds() -> Report {
    // A buffer-local index far outside its stage's 4-column footprint —
    // the silent-truncation class BufferIndex::try_from_usize guards.
    buffered_report(|p| p.ind[0] = 200)
}

fn m_buffered_entries() -> Report {
    // Structurally sound, numerically wrong: one stored value drifts.
    buffered_report(|p| p.val[0] += 1.0)
}

fn m_partition_coverage() -> Report {
    // Rank 1 starts at 4, leaving cell 3 unowned.
    run(PartitionCheck::new("partition", 6, vec![0..3, 4..6]))
}

fn m_schedule_symmetry() -> Report {
    // Rank 1 expects one row from rank 0 but rank 0 plans to send two.
    let (owners, sends, mut recvs) = schedule_tables();
    recvs[1][0].pop();
    run(ScheduleCheck::new("schedule", owners, sends, recvs))
}

fn m_schedule_rows() -> Report {
    // Counts agree, rows do not: rank 1 expects row 1 instead of row 2.
    let (owners, sends, mut recvs) = schedule_tables();
    recvs[1][0][1] = 1;
    run(ScheduleCheck::new("schedule", owners, sends, recvs))
}

fn m_ledger_reconciliation() -> Report {
    // A nonzero diagonal: self-sends must be local copies, never recorded.
    let observed = vec![8, 124, 84, 0];
    let predicted = vec![0, 100, 60, 0];
    run(LedgerCheck::new("ledger", 2, observed, predicted, 8))
}

/// A valid 2-worker execution plan over 6 rows: four partitions of
/// weight 5 each, two per worker (balance bound 20/2 + 5 + 1 = 16).
fn exec_plan_arrays() -> (usize, Vec<usize>, Vec<u64>, Vec<usize>, u64) {
    (6, vec![0, 1, 2, 4, 6], vec![5, 5, 5, 5], vec![0, 2, 4], 5)
}

fn m_exec_plan_shape() -> Report {
    // Truncate the worker assignment: its last run no longer reaches the
    // final partition (bounds still tile, so coverage stays clean).
    let (rows, bounds, weights, _, max_unit) = exec_plan_arrays();
    run(ExecPlanCheck::new(
        "exec(forward)",
        rows,
        bounds,
        weights,
        vec![0, 2],
        max_unit,
    ))
}

fn m_exec_plan_balance() -> Report {
    // Pile every partition onto worker 0: 20 > the greedy bound 16.
    let (rows, bounds, weights, _, max_unit) = exec_plan_arrays();
    run(ExecPlanCheck::new(
        "exec(forward)",
        rows,
        bounds,
        weights,
        vec![0, 4, 4],
        max_unit,
    ))
}

/// A consistent checkpoint header for a 12-voxel, 8-row solve saved at
/// iteration 3 of a 10-iteration run, resumed under plan hash 0xAB.
fn checkpoint_check(
    snapshot_plan_hash: u64,
    snapshot_iteration: u64,
    records_len: u64,
    x_len: usize,
) -> CheckpointCheck {
    CheckpointCheck::new(
        "checkpoint",
        0xAB,
        snapshot_plan_hash,
        10,
        snapshot_iteration,
        records_len,
    )
    .section("x", 12, Some(x_len))
    .section("resid", 8, Some(8))
}

fn m_checkpoint_hash() -> Report {
    // Snapshot taken under a different plan hash.
    run(checkpoint_check(0xCD, 3, 3, 12))
}

fn m_checkpoint_shape() -> Report {
    // The stored image vector shrank: it no longer fits the workspace.
    run(checkpoint_check(0xAB, 3, 3, 11))
}

fn m_checkpoint_monotone() -> Report {
    // Iteration counter claims 3 but only 2 records were written.
    run(checkpoint_check(0xAB, 3, 2, 12))
}

fn m_checkpoint_batch() -> Report {
    // Snapshot written at batch width 2, resumed by a width-4 config;
    // sections are otherwise consistent, so the width mismatch is the
    // only root cause (section shapes are skipped, not re-reported).
    run(checkpoint_check(0xAB, 3, 3, 12).batch(4, 2))
}

/// The lock-order graph the model-checked crates actually record,
/// acyclic by construction (dispatch is taken under the pool state's
/// critical sections, never the other way around).
fn lock_edges() -> Vec<(String, String)> {
    [
        ("pool/dispatch", "pool/state"),
        ("serve/job/state", "serve/cache/state"),
        ("comm/barrier", "comm/failure"),
    ]
    .iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect()
}

fn m_lock_order_acyclic() -> Report {
    // One inverted acquisition turns the ordered graph into an ABBA pair.
    let mut edges = lock_edges();
    edges.push(("pool/state".to_string(), "pool/dispatch".to_string()));
    run(LockOrderCheck::new("lockdep", edges))
}

/// The full table: (name, the invariant the mutation must pinpoint, the
/// mutation itself).
type Mutation = (&'static str, Invariant, fn() -> Report);
static MUTATIONS: &[Mutation] = &[
    ("rowptr truncated", Invariant::RowPtrShape, m_rowptr_shape),
    (
        "rowptr descends",
        Invariant::RowPtrMonotone,
        m_rowptr_monotone,
    ),
    (
        "column escapes domain",
        Invariant::ColumnBounds,
        m_column_bounds,
    ),
    (
        "sorted row un-sorted",
        Invariant::ColumnSorted,
        m_column_sorted,
    ),
    (
        "column stored twice",
        Invariant::DuplicateColumn,
        m_duplicate_column,
    ),
    ("value goes NaN", Invariant::ValueFinite, m_value_finite),
    (
        "transpose gains a row",
        Invariant::TransposeShape,
        m_transpose_shape,
    ),
    (
        "transpose value drifts",
        Invariant::TransposeEntries,
        m_transpose_entries,
    ),
    (
        "rank table un-inverted",
        Invariant::PermutationBijection,
        m_permutation_bijection,
    ),
    (
        "stage map truncated",
        Invariant::BufferedShape,
        m_buffered_shape,
    ),
    (
        "partdispl descends",
        Invariant::PartitionDispl,
        m_partition_displ,
    ),
    (
        "buffer exceeds u16 reach",
        Invariant::StageFootprint,
        m_stage_footprint,
    ),
    (
        "footprint un-sorted",
        Invariant::StageMapSorted,
        m_stage_map_sorted,
    ),
    (
        "footprint escapes domain",
        Invariant::StageMapBounds,
        m_stage_map_bounds,
    ),
    (
        "local index oversizes stage",
        Invariant::BufferLocalBounds,
        m_buffer_local_bounds,
    ),
    (
        "buffered value drifts",
        Invariant::BufferedEntries,
        m_buffered_entries,
    ),
    (
        "partition gap",
        Invariant::PartitionCoverage,
        m_partition_coverage,
    ),
    (
        "recv count short",
        Invariant::ScheduleSymmetry,
        m_schedule_symmetry,
    ),
    (
        "recv rows disagree",
        Invariant::ScheduleRows,
        m_schedule_rows,
    ),
    (
        "diagonal self-bytes",
        Invariant::LedgerReconciliation,
        m_ledger_reconciliation,
    ),
    (
        "worker assignment truncated",
        Invariant::ExecPlanShape,
        m_exec_plan_shape,
    ),
    (
        "all partitions on one worker",
        Invariant::ExecPlanBalance,
        m_exec_plan_balance,
    ),
    (
        "snapshot from another plan",
        Invariant::CheckpointHash,
        m_checkpoint_hash,
    ),
    (
        "stored vector shrank",
        Invariant::CheckpointShape,
        m_checkpoint_shape,
    ),
    (
        "iteration outruns records",
        Invariant::CheckpointMonotone,
        m_checkpoint_monotone,
    ),
    (
        "batch width disagrees",
        Invariant::CheckpointBatch,
        m_checkpoint_batch,
    ),
    (
        "lock acquisition inverted",
        Invariant::LockOrderAcyclic,
        m_lock_order_acyclic,
    ),
];

#[test]
fn each_mutation_pinpoints_exactly_its_invariant() {
    for (name, expect, mutation) in MUTATIONS {
        let report = mutation();
        assert_eq!(
            report.invariant_classes(),
            vec![*expect],
            "mutation `{name}` must pinpoint {expect}; got:\n{report}"
        );
    }
}

#[test]
fn mutations_cover_every_invariant_class() {
    let covered: Vec<Invariant> = MUTATIONS.iter().map(|(_, inv, _)| *inv).collect();
    for inv in Invariant::ALL {
        assert!(
            covered.contains(inv),
            "invariant class {inv} has no mutation exercising it"
        );
    }
    assert_eq!(covered.len(), Invariant::ALL.len(), "duplicate mutations");
}

#[test]
fn unmutated_specimens_are_clean() {
    let a = specimen();
    let at = a.transpose_scan();
    let buf = BufferedCsr::from_csr(&a, 2, 4);
    let (owners, sends, recvs) = schedule_tables();
    let mut report = Report::new();
    CsrCheck::new("csr(A)", &a).run(&mut report);
    CsrCheck::new("csr(At)", &at)
        .require_sorted_columns()
        .run(&mut report);
    TransposeCheck::new("pair(A,At)", &a, &at).run(&mut report);
    BufferedCheck::new("buffered(A)", &buf)
        .with_source(&a)
        .run(&mut report);
    PartitionCheck::new("partition", 6, owners.clone()).run(&mut report);
    ScheduleCheck::new("schedule", owners, sends, recvs).run(&mut report);
    LedgerCheck::new("ledger", 2, vec![0, 124, 84, 0], vec![0, 100, 60, 0], 8).run(&mut report);
    let (rows, bounds, weights, assign, max_unit) = exec_plan_arrays();
    ExecPlanCheck::new("exec(forward)", rows, bounds, weights, assign, max_unit).run(&mut report);
    checkpoint_check(0xAB, 3, 3, 12)
        .batch(4, 4)
        .run(&mut report);
    LockOrderCheck::new("lockdep", lock_edges()).run(&mut report);
    assert!(report.is_ok(), "{report}");
}
