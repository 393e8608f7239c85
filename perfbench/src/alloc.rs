//! Live-heap accounting: a counting global allocator.
//!
//! Every allocation, reallocation and free adjusts one process-wide
//! live-byte counter and a high-water mark. The benchmark reads them
//! around the calls it measures: the live delta around a build is the
//! resident storage, the high-water mark above the resident state
//! during a query is that query's transient heap. Inputs and oracle
//! data are allocated before the first reading and dropped after the
//! last, so they never fall inside a measured interval.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Delegates to [`System`] and counts live bytes.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Plain load first: the read-modify-write only runs on a new peak.
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its pointer and layout to `System`
// unchanged, so the caller's `GlobalAlloc` obligations carry over; the
// counters are side bookkeeping that never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: layout forwarded verbatim.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: layout forwarded verbatim.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pointer and layout forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: all arguments forwarded verbatim.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes currently allocated by the whole process.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live size and returns
/// that size: the base of the interval whose growth [`peak`] measures.
pub fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The highest live size since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes as megabytes (10^6 bytes), signed so that a release shows as
/// a negative delta instead of wrapping.
pub fn mb(bytes: isize) -> f64 {
    bytes as f64 / 1e6
}

/// `after - before` as a signed byte count.
pub fn delta(before: usize, after: usize) -> isize {
    after as isize - before as isize
}
