//! Plan storage that outlives the plan: one process-wide, bounded spare
//! of the large arrays a plan build fills.
//!
//! A plan build writes its column indices, values and buffer-local
//! indices once, into arrays of a few megabytes each. Fresh, those arrays
//! cost the kernel a zero-filled page per 4 KiB on first touch — more
//! than the build's own work at the benchmark sizes. Whether the
//! allocator hands a rebuild the pages the last plan gave back instead
//! depends on its self-adjusting trim thresholds. So a dropped
//! [`CsrMatrix`](crate::CsrMatrix) or buffered layout gives its large
//! arrays here ([`give`]), and the next build draws them ([`draw`]):
//! the smallest retained buffer whose capacity fits, cleared, for the
//! caller to fill in place. The arrays a build fills are the same bits
//! either way; only the pages under them are recycled.
//!
//! The bound: at most one plan build's worth of buffers of each element
//! type — two `u32` index arrays, three `f32` value arrays, two `u16` buffer
//! index arrays, the most one plan build draws (`A`'s and `Aᵀ`'s
//! indices and values, and the values of a layout whose partitions
//! split). Past that, the oldest buffer goes first. Before a draw that
//! nothing fits allocates fresh, every buffer of its type is freed —
//! they are all too small — so retained bytes never sit beside fresh
//! ones of the same type. Arrays under [`MIN_LEN`] entries are never
//! kept: their first touch is cheap and the allocator reuses them anyway.
//! The bound is in entries, not bytes, because a plan's large arrays are
//! all about `nnz` long: a plan's `u16` indices are kept exactly when
//! its `u32` indices and `f32` values are.

use std::any::Any;
use std::sync::{Mutex, PoisonError};

/// Fewest entries of an array the spare keeps: 1 MiB of `u32` or `f32`.
pub(crate) const MIN_LEN: usize = 1 << 18;

/// Retained buffers of one element type, newest last, at most `keep`.
struct Shelf<T> {
    kept: Vec<Vec<T>>,
    keep: usize,
}

impl<T> Shelf<T> {
    const fn new(keep: usize) -> Self {
        Shelf {
            kept: Vec::new(),
            keep,
        }
    }

    /// Keep `v`; past the bound, free the oldest.
    fn put(&mut self, v: Vec<T>) {
        self.kept.push(v);
        if self.kept.len() > self.keep {
            self.kept.remove(0);
        }
    }

    /// The smallest buffer holding `len` elements (the newest of equals),
    /// cleared; `None`, after freeing every buffer, when none is large
    /// enough.
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        let fits = self
            .kept
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len);
        let best = fits.rev().min_by_key(|(_, v)| v.capacity()).map(|(i, _)| i);
        if best.is_none() {
            self.kept.clear();
        }
        best.map(|i| {
            let mut v = self.kept.remove(i);
            v.clear();
            v
        })
    }

    /// Bytes of capacity this shelf holds.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.kept
            .iter()
            .map(|v| v.capacity() * size_of::<T>())
            .sum()
    }
}

/// The spare's shelves: the element types plan arrays come in, each
/// bounded by what one plan build draws of it.
struct Shelves {
    u32s: Shelf<u32>,
    f32s: Shelf<f32>,
    u16s: Shelf<u16>,
}

impl Shelves {
    const fn new() -> Self {
        Shelves {
            u32s: Shelf::new(2),
            f32s: Shelf::new(3),
            u16s: Shelf::new(2),
        }
    }

    /// `T`'s shelf, if `T` has one.
    fn shelf<T: 'static>(&mut self) -> Option<&mut Shelf<T>> {
        let Shelves { u32s, f32s, u16s } = self;
        let shelves: [&mut dyn Any; 3] = [u32s, f32s, u16s];
        shelves.into_iter().find_map(|s| s.downcast_mut())
    }
}

static SPARE: Mutex<Shelves> = Mutex::new(Shelves::new());

/// A retained buffer with room for `len` elements, cleared, if one fits;
/// `None` — with every buffer of `T` freed when it is large enough to be
/// kept — when the caller allocates.
fn retained<T: 'static>(len: usize) -> Option<Vec<T>> {
    if len < MIN_LEN {
        return None;
    }
    // A poisoned lock only means a panic elsewhere while it was held; the
    // shelves are whole vectors at every point, so use them as they are.
    let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
    spare.shelf::<T>()?.take(len)
}

/// An empty vector with room for `len` elements: a retained buffer when
/// one fits, else a fresh allocation.
pub(crate) fn draw<T: 'static>(len: usize) -> Vec<T> {
    retained(len).unwrap_or_else(|| Vec::with_capacity(len))
}

/// `len` copies of `T::default()`, an array the caller scatters into: a
/// retained buffer zeroed when one fits, else fresh memory the allocator
/// hands out zeroed (`vec!` of zeroes), which no pass writes twice.
pub(crate) fn draw_zeroed<T: Copy + Default + 'static>(len: usize) -> Vec<T> {
    match retained(len) {
        Some(mut v) => {
            v.resize(len, T::default());
            v
        }
        None => vec![T::default(); len],
    }
}

/// Hand `v`'s buffer to the spare (or free it, when it is small or of a
/// type the spare does not keep).
pub(crate) fn give<T: 'static>(v: Vec<T>) {
    if v.capacity() < MIN_LEN {
        return;
    }
    let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(shelf) = spare.shelf::<T>() {
        shelf.put(v);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{BufferedCsr, CsrMatrix};
    use std::sync::MutexGuard;

    const BIG: usize = MIN_LEN;

    /// Held by every test of this crate that draws or gives arrays of
    /// [`MIN_LEN`] entries or more, so that one test at a time reads what
    /// the spare holds.
    pub(crate) static EXCLUSIVE: Mutex<()> = Mutex::new(());

    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes of capacity the spare holds.
    fn retained_bytes() -> usize {
        let spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
        spare.u32s.bytes() + spare.f32s.bytes() + spare.u16s.bytes()
    }

    #[test]
    fn a_shelf_draws_the_smallest_fit_and_frees_what_is_too_small() {
        let mut shelf = Shelf::<u32>::new(3);
        for cap in [3 * BIG, BIG, 2 * BIG] {
            shelf.put(Vec::with_capacity(cap));
        }
        assert_eq!(shelf.take(BIG + 1).unwrap().capacity(), 2 * BIG);
        assert_eq!(shelf.kept.len(), 2);
        // Nothing holds 4·BIG: both retained buffers go before the caller
        // allocates.
        assert!(shelf.take(4 * BIG).is_none());
        assert!(shelf.kept.is_empty());
    }

    #[test]
    fn a_full_shelf_frees_its_oldest() {
        let mut shelf = Shelf::<f32>::new(2);
        for cap in [2 * BIG, BIG, 3 * BIG] {
            shelf.put(Vec::with_capacity(cap));
        }
        let caps: Vec<usize> = shelf.kept.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [BIG, 3 * BIG]);
        assert_eq!(shelf.bytes(), 4 * BIG * 4);
    }

    #[test]
    fn a_drawn_buffer_is_cleared() {
        let mut shelf = Shelf::<u16>::new(2);
        shelf.put(vec![7; BIG]);
        let v = shelf.take(BIG / 2).unwrap();
        assert_eq!((v.len(), v.capacity()), (0, BIG));
    }

    #[test]
    fn small_arrays_pass_the_spare_by() {
        let _one_at_a_time = exclusive();
        let before = retained_bytes();
        give(vec![0u32; MIN_LEN - 1]);
        give(vec![0u64; MIN_LEN]);
        assert_eq!(
            retained_bytes(),
            before,
            "too small, or a type it does not keep"
        );
        assert_eq!(draw::<f32>(MIN_LEN - 1).capacity(), MIN_LEN - 1);
    }

    /// A plan's large arrays: `A` of `nrows` rows of `per_row` entries
    /// over 4 096 columns, its rows not ascending; `Aᵀ`; and both buffered
    /// layouts at a buffer a partition of `A` splits across, so that `A`'s
    /// layout owns its values. Every type's shelf is drawn to its bound.
    struct Plan {
        a: CsrMatrix,
        _rest: (CsrMatrix, BufferedCsr, BufferedCsr),
    }

    impl Plan {
        fn build(nrows: usize, per_row: usize) -> Self {
            let rowptr = (0..=nrows).map(|i| i * per_row).collect();
            let a = CsrMatrix::from_rowptr(nrows, 4096, rowptr, |_, cols, vals| {
                for (k, (c, v)) in cols.iter_mut().zip(vals).enumerate() {
                    let (i, j) = (k / per_row, k % per_row);
                    *c = ((i * 37 + j * 13) % 4096) as u32;
                    *v = k as f32;
                }
            });
            let at = a.transpose_scan();
            let (a_buf, at_buf) = (
                BufferedCsr::from_csr(&a, 128, 1024),
                BufferedCsr::from_csr(&at, 128, 1024),
            );
            assert!(!a_buf.row_major_runs() && at_buf.row_major_runs());
            Plan {
                a,
                _rest: (at, a_buf, at_buf),
            }
        }

        /// Bytes of the arrays the spare takes, as long as they were
        /// drawn fresh: indices and values of `A` and `Aᵀ`, `A`'s layout's
        /// values, both layouts' indices, pads included.
        fn large_bytes(&self) -> usize {
            let (nnz, padded) = (self.a.nnz(), self.a.nnz() + crate::buffered::TAIL);
            2 * (4 * nnz + 4 * padded) + 4 * padded + 2 * 2 * padded
        }
    }

    #[test]
    fn the_spare_never_holds_more_than_one_plans_large_arrays() {
        let _one_at_a_time = exclusive();
        *SPARE.lock().unwrap() = Shelves::new();
        // A plan drawn fresh, a larger one, then a smaller one that fits
        // in the larger one's buffers.
        let mut largest = 0;
        for (nrows, per_row) in [(1024, 300), (1536, 300), (1024, 260)] {
            let plan = Plan::build(nrows, per_row);
            assert_eq!(
                retained_bytes(),
                0,
                "each buffer drawn, or freed before a fresh one"
            );
            largest = largest.max(plan.large_bytes());
            drop(plan);
            let kept = retained_bytes();
            assert!(
                0 < kept && kept <= largest,
                "{kept} retained, {largest} a plan"
            );
        }
    }
}
