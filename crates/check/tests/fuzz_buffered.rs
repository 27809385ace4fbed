//! `BufferedCheck` against the kernel (ROADMAP 4c).
//!
//! Since PR 16 a corrupted buffer-local index no longer panics in the
//! kernel, it reads another staging slot: the checker is the only line of
//! defence. The property: build a layout from a random CSR matrix, change
//! exactly one element of one of its six arrays through
//! `from_raw_parts_unchecked`, and then either `BufferedCheck::with_source`
//! reports a violation, or the corrupted layout's `spmv` equals the clean
//! one's bit for bit. Never a silent wrong answer, never a checker panic
//! (a panic anywhere fails the case).
//!
//! No counter-example is known: in 60 000 sampled cases a width, every
//! corruption that changed an element was *caught* — none reached the
//! product comparison. The proptest shim does not shrink, so one that
//! turns up is cut down by hand and added as a `#[test]` that calls
//! [`caught_or_harmless`] on it, next to the exhaustive sweep below.

use proptest::prelude::*;
use xct_check::{BufferedCheck, Check, Report};
use xct_sparse::{BufferIndex, BufferedCsrImpl, CsrMatrix};

/// The six arrays of a layout, as `from_raw_parts_unchecked` takes them.
struct Arrays<I> {
    partdispl: Vec<u32>,
    stagedispl: Vec<usize>,
    map: Vec<u32>,
    displ: Vec<usize>,
    ind: Vec<I>,
    val: Vec<f32>,
}

/// One element to overwrite: `array` picks among the six, `at` the element
/// (modulo the array's length), `how` and `raw` the new value.
#[derive(Clone, Copy, Debug)]
struct Corruption {
    array: u8,
    at: usize,
    how: u8,
    raw: u64,
}

/// `old` moved by one either way, to an edge, or to `raw` — small (the
/// neighbourhood where a wrong value still looks plausible) or whole.
fn moved(old: u64, how: u8, raw: u64, max: u64) -> u64 {
    match how % 6 {
        0 => old.wrapping_add(1) & max,
        1 => old.wrapping_sub(1) & max,
        2 => 0,
        3 => max,
        4 => raw % 40,
        _ => raw & max,
    }
}

/// Overwrite `array[at % len]` with `new(old)`; false when the array is
/// empty or the element keeps its value (`key` compares).
fn overwrite<T: Copy>(
    array: &mut [T],
    at: usize,
    key: impl Fn(T) -> u64,
    new: impl FnOnce(T) -> T,
) -> bool {
    let len = array.len();
    let Some(slot) = array.get_mut(at % len.max(1)) else {
        return false;
    };
    let old = *slot;
    *slot = new(old);
    key(*slot) != key(old)
}

impl<I: BufferIndex> Arrays<I> {
    fn of(b: &BufferedCsrImpl<I>) -> Self {
        Arrays {
            partdispl: b.partdispl().to_vec(),
            stagedispl: b.stagedispl().to_vec(),
            map: b.stage_map().to_vec(),
            displ: b.entry_displ().to_vec(),
            ind: b.entry_ind().to_vec(),
            val: b.entry_val().to_vec(),
        }
    }

    /// Overwrite the element `c` names; false when nothing changed.
    fn corrupt(&mut self, c: Corruption) -> bool {
        let Corruption { at, how, raw, .. } = c;
        let u32s = |old: u32| moved(old as u64, how, raw, u32::MAX as u64) as u32;
        let usizes = |old: usize| moved(old as u64, how, raw, u64::MAX) as usize;
        match c.array % 6 {
            0 => overwrite(&mut self.partdispl, at, |v| v as u64, u32s),
            1 => overwrite(&mut self.stagedispl, at, |v| v as u64, usizes),
            2 => overwrite(&mut self.map, at, |v| v as u64, u32s),
            3 => overwrite(&mut self.displ, at, |v| v as u64, usizes),
            4 => overwrite(
                &mut self.ind,
                at,
                |v| v.to_usize() as u64,
                |old| {
                    let max = (I::MAX_BUFFER - 1).min(u32::MAX as usize) as u64;
                    I::from_usize(moved(old.to_usize() as u64, how, raw, max) as usize)
                },
            ),
            _ => {
                let other = self.val.get(raw as usize % self.val.len().max(1));
                let other = other.copied().unwrap_or(0.0);
                overwrite(
                    &mut self.val,
                    at,
                    |v| v.to_bits() as u64,
                    |old| match how % 6 {
                        0 => -old,
                        1 => f32::from_bits(old.to_bits().wrapping_add(1)),
                        2 => 0.0,
                        3 => f32::NAN,
                        4 => f32::INFINITY,
                        _ => other,
                    },
                )
            }
        }
    }

    fn assemble(self, like: &BufferedCsrImpl<I>) -> BufferedCsrImpl<I> {
        BufferedCsrImpl::from_raw_parts_unchecked(
            like.nrows(),
            like.ncols(),
            like.partsize(),
            like.buffsize(),
            like.nnz(),
            self.partdispl,
            self.stagedispl,
            self.map,
            self.displ,
            like.row_major_runs(),
            self.ind,
            self.val,
        )
    }
}

/// The property, on one matrix, one layout shape and one corruption.
fn caught_or_harmless<I: BufferIndex>(
    a: &CsrMatrix,
    partsize: usize,
    buffsize: usize,
    c: Corruption,
) {
    let clean = BufferedCsrImpl::<I>::try_from_csr(a, partsize, buffsize).expect("valid sizes");
    let mut report = Report::new();
    BufferedCheck::new("clean", &clean)
        .with_source(a)
        .run(&mut report);
    assert!(report.is_ok(), "the builder's own layout fails: {report:?}");

    let mut arrays = Arrays::of(&clean);
    if !arrays.corrupt(c) {
        return;
    }
    let corrupt = arrays.assemble(&clean);
    let mut report = Report::new();
    BufferedCheck::new("corrupt", &corrupt)
        .with_source(a)
        .run(&mut report);
    if !report.is_ok() {
        return;
    }
    let x: Vec<f32> = (0..a.ncols()).map(|i| 1.0 + 0.37 * i as f32).collect();
    let bits = |y: Vec<f32>| y.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(corrupt.spmv(&x)),
        bits(clean.spmv(&x)),
        "{c:?} passes the check and changes the product \
         ({}x{} partsize {partsize} buffsize {buffsize})",
        a.nrows(),
        a.ncols(),
    );
}

/// Rows of `(column, value)` folded onto `ncols` columns. Columns may
/// repeat within a row and values may be zero: both are legal sources.
fn matrix(rows: &[Vec<(u32, i32)>], ncols: u32) -> CsrMatrix {
    let rows: Vec<Vec<(u32, f32)>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|&(c, v)| (c % ncols, v as f32 * 0.5))
                .collect()
        })
        .collect();
    CsrMatrix::from_rows(ncols as usize, &rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_corrupted_element_is_caught_or_harmless(
        rows in prop::collection::vec(prop::collection::vec((0u32..32, -3i32..4), 0..9), 1..20),
        ncols in 1u32..32,
        partsize in 1usize..9,
        buffsize in 1usize..9,
        array in any::<u8>(),
        at in any::<usize>(),
        how in any::<u8>(),
        raw in any::<u64>(),
    ) {
        let a = matrix(&rows, ncols);
        let c = Corruption { array, at, how, raw };
        caught_or_harmless::<u16>(&a, partsize, buffsize, c);
        caught_or_harmless::<u32>(&a, partsize, buffsize, c);
    }
}

/// Every element of every array of one small layout, moved each way.
#[test]
fn exhaustive_on_a_small_layout() {
    let a = matrix(
        &[
            vec![(0, 2), (3, 1), (5, -1), (1, 3)],
            vec![],
            vec![(4, 1), (4, 2), (2, 0)],
            vec![(5, 1), (0, -2)],
            vec![(1, 1)],
        ],
        6,
    );
    for (partsize, buffsize) in [(1, 1), (2, 2), (2, 3), (3, 2), (8, 8)] {
        for array in 0..6 {
            for at in 0..24 {
                for how in 0..6 {
                    for raw in [0, 1, 2, 5, 7, 39, u64::MAX] {
                        let c = Corruption {
                            array,
                            at,
                            how,
                            raw,
                        };
                        caught_or_harmless::<u16>(&a, partsize, buffsize, c);
                        caught_or_harmless::<u32>(&a, partsize, buffsize, c);
                    }
                }
            }
        }
    }
}
