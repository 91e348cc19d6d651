//! Per-thread, 64-byte-aligned, reusable scratch arenas.
//!
//! The GEMM panel loops and the projector's chunk partials need short-lived
//! scratch buffers on every worker. Allocating a fresh `Vec` per panel closure (the
//! old pattern) churns the allocator from every pool worker on every panel;
//! this module keeps one cache-aligned byte arena per thread and hands out
//! typed sub-slices from it, so a panel claim costs zero allocations after
//! the first dispatch warms the arena up.
//!
//! Alignment is fixed at [`ALIGN`] = 64 bytes — one cache line, and wide
//! enough for any AVX-512 load — and every requested slice *starts* on a
//! 64-byte boundary, so `std::arch` aligned loads on the packed panels are
//! always legal.
//!
//! Arenas are thread-local and handed out as a stack: a nested
//! [`with_scratch`] call (e.g. a blocked GEMM invoked from inside another
//! arena user on the same worker) gets its own arena rather than aliasing
//! its caller's slices.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;

/// Alignment (bytes) of every arena and every slice handed out of it.
pub const ALIGN: usize = 64;

/// Marker for plain-old-data scalar types the arena may hand out.
///
/// # Safety
///
/// Implementors guarantee that **any** bit pattern is a valid value of
/// `Self` (so reusing bytes previously written through a different `Pod`
/// type is defined behavior) and that `Self` has no drop glue. The arena
/// zero-fills fresh allocations but recycles old bytes verbatim, so
/// callers must treat scratch contents as unspecified until written.
pub unsafe trait Pod: Copy + Send + 'static {}

// SAFETY: every bit pattern is a valid IEEE-754 float (NaNs included).
unsafe impl Pod for f32 {}
// SAFETY: every bit pattern is a valid IEEE-754 float (NaNs included).
unsafe impl Pod for f64 {}
// SAFETY: every bit pattern is a valid unsigned integer.
unsafe impl Pod for u8 {}
// SAFETY: every bit pattern is a valid unsigned integer.
unsafe impl Pod for u32 {}
// SAFETY: every bit pattern is a valid unsigned integer.
unsafe impl Pod for u64 {}
// SAFETY: every bit pattern is a valid unsigned integer.
unsafe impl Pod for usize {}

/// One owned, 64-byte-aligned, zero-initialized byte buffer.
struct RawArena {
    ptr: *mut u8,
    cap: usize,
}

impl RawArena {
    fn new() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            cap: 0,
        }
    }

    /// Grow (never shrink) to at least `bytes` capacity. Fresh memory is
    /// zeroed so handed-out `Pod` slices never expose foreign heap bytes.
    fn ensure(&mut self, bytes: usize) {
        if bytes <= self.cap {
            return;
        }
        let new_cap = bytes.next_power_of_two().max(4096);
        // AUDIT: waiver(layout error and allocation failure are fatal by design; scratch has no fallible path)
        let layout = Layout::from_size_align(new_cap, ALIGN).expect("arena layout");
        // SAFETY: (align=64, bounds=layout covers exactly new_cap zeroed bytes) non-zero size >= 4096.
        let new_ptr = unsafe { alloc_zeroed(layout) };
        assert!(!new_ptr.is_null(), "arena allocation failed"); // AUDIT: waiver(OOM is fatal by design)
        if !self.ptr.is_null() {
            // AUDIT: waiver(cap/ALIGN made a valid layout when allocated; round-trip cannot fail)
            let old_layout = Layout::from_size_align(self.cap, ALIGN).expect("arena layout");
            // SAFETY: `self.ptr` was allocated with exactly `old_layout`.
            unsafe { dealloc(self.ptr, old_layout) };
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }
}

impl Drop for RawArena {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            let layout = Layout::from_size_align(self.cap, ALIGN).expect("arena layout");
            // SAFETY: `self.ptr` was allocated with exactly this layout.
            unsafe { dealloc(self.ptr, layout) };
        }
    }
}

// SAFETY: RawArena owns its allocation exclusively; moving it across the
// thread boundary at thread teardown is sound.
unsafe impl Send for RawArena {}

thread_local! {
    /// Stack of idle arenas for this thread (popped on entry to
    /// [`with_scratch`], pushed back on exit, so nesting is safe).
    static ARENAS: RefCell<Vec<RawArena>> = const { RefCell::new(Vec::new()) };
}

/// Round `len` elements of `T` up so the *next* slice starts 64-byte aligned.
fn padded_len<T>(len: usize) -> usize {
    let per = ALIGN / std::mem::size_of::<T>();
    len.next_multiple_of(per.max(1))
}

/// Borrow `N` disjoint, 64-byte-aligned scratch slices of a `Pod` element
/// type for the duration of `f`, recycling a per-thread arena.
///
/// Slice `i` has exactly `lens[i]` elements. Contents are **unspecified**
/// (zero on first use, stale scratch afterwards) — write before reading.
/// Nested calls are fine: each depth gets a distinct arena.
// AUDIT: no_panic
pub fn with_scratch<T: Pod, const N: usize, R>(
    lens: [usize; N],
    f: impl FnOnce([&mut [T]; N]) -> R,
) -> R {
    let size = std::mem::size_of::<T>();
    // AUDIT: waiver(entry guard; a non-dividing element size must fail loudly before any pointer math)
    assert!(
        size > 0 && ALIGN.is_multiple_of(size),
        "arena element size must divide {ALIGN}"
    );
    let total_elems: usize = lens.iter().map(|&l| padded_len::<T>(l)).sum();
    let mut arena = ARENAS
        .with(|stack| stack.borrow_mut().pop())
        .unwrap_or_else(RawArena::new);
    // At least one byte: an all-empty request on a fresh arena must still
    // build its (empty) slices from a non-null, aligned pointer.
    arena.ensure((total_elems * size).max(1));
    let mut slices: [&mut [T]; N] = std::array::from_fn(|_| &mut [][..]); // AUDIT: waiver(full-range slice of an empty array literal)
    let mut offset = 0usize; // in elements
    for (slot, &len) in slices.iter_mut().zip(lens.iter()) {
        // SAFETY: (align=64, bounds=offset + len stays within the total_elems ensured on the live
        // arena allocation, aliasing=strictly increasing element offsets keep the N slices pairwise
        // disjoint) every offset accumulates padded lengths — a multiple of ALIGN/size — so each
        // slice pointer is ALIGN-aligned, and `T: Pod` makes recycled (or zeroed) bytes valid.
        *slot = unsafe { std::slice::from_raw_parts_mut((arena.ptr as *mut T).add(offset), len) };
        offset += padded_len::<T>(len);
    }
    let result = f(slices);
    ARENAS.with(|stack| stack.borrow_mut().push(arena));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_aligned_disjoint_and_sized() {
        with_scratch::<f64, 3, ()>([5, 64, 1], |[a, b, c]| {
            assert_eq!(a.len(), 5);
            assert_eq!(b.len(), 64);
            assert_eq!(c.len(), 1);
            for s in [&*a, &*b, &*c] {
                assert_eq!(s.as_ptr() as usize % ALIGN, 0);
            }
            a.fill(1.0);
            b.fill(2.0);
            c.fill(3.0);
            assert!(a.iter().all(|&x| x == 1.0));
            assert!(b.iter().all(|&x| x == 2.0));
        });
    }

    #[test]
    fn empty_requests_on_a_fresh_thread_get_empty_slices() {
        // A thread of its own: its arena stack has never been used.
        std::thread::spawn(|| {
            with_scratch::<f64, 2, ()>([0, 0], |[a, b]| {
                assert!(a.is_empty() && b.is_empty());
                assert_eq!(a.as_ptr() as usize % ALIGN, 0);
            });
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_calls_get_distinct_arenas() {
        with_scratch::<f64, 1, ()>([16], |[outer]| {
            outer.fill(7.0);
            let outer_ptr = outer.as_ptr();
            with_scratch::<f64, 1, ()>([16], |[inner]| {
                assert_ne!(outer_ptr, inner.as_ptr());
                inner.fill(9.0);
            });
            assert!(outer.iter().all(|&x| x == 7.0));
        });
    }

    #[test]
    fn arena_is_recycled_across_calls() {
        let first = with_scratch::<f64, 1, usize>([32], |[s]| s.as_ptr() as usize);
        let second = with_scratch::<f64, 1, usize>([32], |[s]| s.as_ptr() as usize);
        assert_eq!(first, second, "same-thread scratch should be reused");
    }

    #[test]
    fn growth_preserves_soundness() {
        with_scratch::<u8, 1, ()>([10], |[s]| s.fill(0xAB));
        with_scratch::<u8, 1, ()>([1 << 20], |[s]| {
            s[0] = 1;
            s[(1 << 20) - 1] = 2;
            assert_eq!(s[0], 1);
        });
    }

    #[test]
    fn zero_length_slices_are_fine() {
        with_scratch::<f64, 2, ()>([0, 8], |[empty, full]| {
            assert!(empty.is_empty());
            assert_eq!(full.len(), 8);
        });
    }
}
