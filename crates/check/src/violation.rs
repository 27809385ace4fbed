//! Typed check violations and the report they accumulate into.
//!
//! MemXCT memoizes every structure a solver touches; a malformed structure
//! therefore corrupts *every* iteration. Violations are data, not panics:
//! the caller decides whether to print them, abort a build
//! (`ReconstructorBuilder::validate_plan`), or exit nonzero (`memxct-cli
//! check`).

use std::fmt;

/// The invariant class a violation belongs to. Mutation tests corrupt one
/// field of a valid plan and assert the checker reports *exactly* this
/// class, so each class must be narrow enough to pinpoint a corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Invariant {
    /// CSR arrays have inconsistent lengths / endpoints.
    RowPtrShape,
    /// `rowptr` is not monotonically non-decreasing.
    RowPtrMonotone,
    /// A column index is out of `0..ncols`.
    ColumnBounds,
    /// Columns within a row are not strictly ascending (only enforced on
    /// structures that guarantee sortedness — MemXCT's projection rows
    /// keep ray-traversal order and are exempt).
    ColumnSorted,
    /// A row stores the same column twice.
    DuplicateColumn,
    /// A stored value is NaN or infinite.
    ValueFinite,
    /// Transpose-pair shapes do not line up (`At` must be `ncols × nrows`
    /// of `A` with the same nnz).
    TransposeShape,
    /// `At` is not the order-preserving scan transpose of `A`.
    TransposeEntries,
    /// An ordering's `rank_of`/`pos_of` tables are not inverse bijections.
    PermutationBijection,
    /// Buffered layout disagrees with its CSR source's shape, or its
    /// array lengths are internally inconsistent.
    BufferedShape,
    /// Per-partition stage ranges (`partdispl`) are malformed.
    PartitionDispl,
    /// A stage's buffer footprint exceeds the buffer capacity, or the
    /// capacity exceeds what the index width can address (§3.3.5).
    StageFootprint,
    /// A stage map is not strictly ascending within its partition
    /// footprint (ascending rank order *is* Hilbert traversal order).
    StageMapSorted,
    /// A stage map gathers a column outside the input domain.
    StageMapBounds,
    /// A buffer-local index points outside its stage's occupied footprint
    /// — the silent-truncation bug class `BufferIndex::try_from_usize`
    /// guards against.
    BufferLocalBounds,
    /// The buffered layout does not reproduce the source rows' entries.
    BufferedEntries,
    /// Partition ranges do not cover the domain contiguously and
    /// disjointly.
    PartitionCoverage,
    /// Alltoallv send/recv counts do not match pairwise.
    ScheduleSymmetry,
    /// A schedule's row lists disagree in content, order, or ownership.
    ScheduleRows,
    /// Observed communication bytes do not reconcile with the schedule's
    /// predicted data-plane traffic.
    LedgerReconciliation,
    /// An execution plan's structural arrays are malformed: bounds/assign
    /// endpoints, monotonicity, or length relations are broken.
    ExecPlanShape,
    /// A worker's assigned weight exceeds the greedy prefix split's
    /// guaranteed bound (`total/workers + max_unit + 1`) — the static
    /// partitioning failed to balance the load.
    ExecPlanBalance,
    /// A checkpoint's plan hash does not match the plan being resumed —
    /// the snapshot was taken under different geometry/partitioning.
    CheckpointHash,
    /// A checkpoint section is missing or its vector length disagrees
    /// with the workspace it must restore into.
    CheckpointShape,
    /// A checkpoint's iteration counter is inconsistent: past the run's
    /// iteration cap, or disagreeing with the recorded-iteration count.
    CheckpointMonotone,
    /// A checkpoint's batch width disagrees with the configuration
    /// resuming from it — per-slice sections cannot be mapped onto the
    /// workspace.
    CheckpointBatch,
    /// The lock-acquisition-order graph recorded by the `xct-model` sync
    /// facade contains a cycle — an ABBA deadlock is reachable even if no
    /// observed run ever deadlocked.
    LockOrderAcyclic,
}

impl Invariant {
    /// Every invariant class, in declaration order. The mutation-test
    /// suite iterates this to prove each class has a corruption that
    /// triggers it and nothing else.
    pub const ALL: &'static [Invariant] = &[
        Invariant::RowPtrShape,
        Invariant::RowPtrMonotone,
        Invariant::ColumnBounds,
        Invariant::ColumnSorted,
        Invariant::DuplicateColumn,
        Invariant::ValueFinite,
        Invariant::TransposeShape,
        Invariant::TransposeEntries,
        Invariant::PermutationBijection,
        Invariant::BufferedShape,
        Invariant::PartitionDispl,
        Invariant::StageFootprint,
        Invariant::StageMapSorted,
        Invariant::StageMapBounds,
        Invariant::BufferLocalBounds,
        Invariant::BufferedEntries,
        Invariant::PartitionCoverage,
        Invariant::ScheduleSymmetry,
        Invariant::ScheduleRows,
        Invariant::LedgerReconciliation,
        Invariant::ExecPlanShape,
        Invariant::ExecPlanBalance,
        Invariant::CheckpointHash,
        Invariant::CheckpointShape,
        Invariant::CheckpointMonotone,
        Invariant::CheckpointBatch,
        Invariant::LockOrderAcyclic,
    ];
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The debug name doubles as the stable display name; CI greps for
        // `CheckViolation[...]` lines.
        write!(f, "{self:?}")
    }
}

/// One violated invariant: which structure, which invariant, where, and
/// what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckViolation {
    /// The memoized structure the violation was found in (e.g. `csr(A)`).
    pub structure: String,
    /// The invariant class.
    pub invariant: Invariant,
    /// Where inside the structure (row / stage / rank pair ...).
    pub location: String,
    /// What was observed.
    pub detail: String,
    /// Suggested fix.
    pub fix: String,
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CheckViolation[{}] {} at {}: {} (fix: {})",
            self.invariant, self.structure, self.location, self.detail, self.fix
        )
    }
}

/// Accumulated violations from one or more checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    violations: Vec<CheckViolation>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Record a violation.
    pub fn push(&mut self, v: CheckViolation) {
        self.violations.push(v);
    }

    /// Convenience constructor-and-push.
    pub fn violation(
        &mut self,
        structure: &str,
        invariant: Invariant,
        location: impl Into<String>,
        detail: impl Into<String>,
        fix: impl Into<String>,
    ) {
        self.push(CheckViolation {
            structure: structure.to_string(),
            invariant,
            location: location.into(),
            detail: detail.into(),
            fix: fix.into(),
        });
    }

    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True when the report is empty (alias of [`Report::is_ok`]).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when some violation belongs to the given invariant class.
    pub fn has(&self, invariant: Invariant) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }

    /// All violations, in discovery order.
    pub fn violations(&self) -> &[CheckViolation] {
        &self.violations
    }

    /// The distinct invariant classes violated, in discovery order.
    pub fn invariant_classes(&self) -> Vec<Invariant> {
        let mut out: Vec<Invariant> = Vec::new();
        for v in &self.violations {
            if !out.contains(&v.invariant) {
                out.push(v.invariant);
            }
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "all invariants hold");
        }
        writeln!(f, "{} invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_grep_token() {
        let mut r = Report::new();
        r.violation(
            "csr(A)",
            Invariant::RowPtrMonotone,
            "row 3",
            "rowptr[3]=7 > rowptr[4]=5",
            "rebuild the matrix with CsrMatrix::from_raw",
        );
        let s = r.to_string();
        assert!(s.contains("CheckViolation[RowPtrMonotone]"), "{s}");
        assert!(s.contains("csr(A) at row 3"), "{s}");
        assert!(r.has(Invariant::RowPtrMonotone));
        assert!(!r.has(Invariant::ColumnBounds));
        assert_eq!(r.invariant_classes(), vec![Invariant::RowPtrMonotone]);
    }

    #[test]
    fn every_invariant_class_is_listed_once_under_its_own_name() {
        let names: std::collections::HashSet<String> =
            Invariant::ALL.iter().map(|i| i.to_string()).collect();
        assert_eq!(
            names.len(),
            Invariant::ALL.len(),
            "duplicate in Invariant::ALL"
        );
        assert!(names.contains("LockOrderAcyclic"), "{names:?}");
        assert!(names.iter().all(|n| !n.starts_with("Ell")), "{names:?}");
    }

    #[test]
    fn empty_report_is_ok() {
        let r = Report::new();
        assert!(r.is_ok());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_string(), "all invariants hold");
    }
}
