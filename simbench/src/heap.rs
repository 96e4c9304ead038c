//! Live-heap accounting for `peak_heap_mb`.
//!
//! [`PeakAlloc`] wraps the harness's [`CountingAlloc`] (so per-job
//! allocation counts stay exactly what `repro` reports) and keeps a
//! process-wide count of live heap bytes and their high-water mark.
//! Unlike the resident set, which on small workloads moves by megabytes
//! with where the allocator happens to place things, live bytes depend
//! only on what the program allocates.

use dbshare_harness::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counting allocator that also tracks live and peak heap bytes.
/// Install with `#[global_allocator] static A: PeakAlloc = PeakAlloc;`.
pub struct PeakAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, itself a sound wrapper of the system allocator, and
// returns its result unchanged; the byte counters are plain atomics that
// never touch the memory handed out.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

/// Heap bytes live now (zero unless [`PeakAlloc`] is installed).
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark at the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}
