//! Cache hints for latency-bound build passes.

/// Ask the CPU to start loading the cache line of `slice[i]` (into every
/// cache level), so a later access to it does not stall. A hint only: it
/// changes no value, and an out-of-range `i` (an empty slice included)
/// hints nothing. A no-op off x86_64.
///
/// A scatter whose destinations are known a few dozen steps ahead (the
/// scan transpose, whose next destinations are `cursor[colind[k + d]]`)
/// calls this once per step to overlap its store misses.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = slice.get(i) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that never faults and writes no
        // memory, whatever the address; this one is also a live element.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_and_empty_slices_are_no_ops() {
        let empty: [f32; 0] = [];
        prefetch(&empty, 0);
        prefetch(&empty, usize::MAX);
        let v = vec![1u32, 2, 3];
        for i in [0, 2, 3, 64, usize::MAX] {
            prefetch(&v, i);
        }
        assert_eq!(v, [1, 2, 3]);
    }
}
