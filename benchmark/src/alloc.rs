//! A counting wrapper around the system allocator.
//!
//! Installed as the `#[global_allocator]` of the harness binary only, so
//! the program under test is measured through the allocator it would
//! normally use plus a handful of relaxed atomic adds per call. Counters
//! are statistics that publish no other data, hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The allocator type; all state is in module statics.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    let size = size as u64;
    BYTES.fetch_add(size, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // Forwarded (rather than defaulted to alloc + memset) so zeroed
        // vectors keep the system allocator's calloc fast path.
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, i.e.
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller guarantees `ptr`/`layout` match and `new_size`
        // is valid for the alignment; forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Cumulative requested bytes and allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc` each count once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub bytes: u64,
    pub calls: u64,
}

impl AllocCount {
    /// The process totals so far.
    pub fn now() -> AllocCount {
        AllocCount {
            bytes: BYTES.load(Relaxed),
            calls: CALLS.load(Relaxed),
        }
    }

    /// What was requested since `earlier`.
    pub fn since(earlier: AllocCount) -> AllocCount {
        let now = AllocCount::now();
        AllocCount {
            bytes: now.bytes - earlier.bytes,
            calls: now.calls - earlier.calls,
        }
    }
}

/// High-water mark of live heap bytes since process start.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}
