//! The bytes one Stage-1 sweep of a fleet zone allocates, counted: a gate
//! on work, not on seconds, so it reads the same on a machine of any
//! speed.
//!
//! The zone is `FleetParams::small`'s — 152 nodes, one CRAC — at seed 1,
//! and the sweep is `solve_stage1`: one `RoomLp::build` of the
//! 154-row room LP, then its warm-chained candidate solves. Most of what
//! it allocates is the model, ~46k terms held once in the problem's
//! arena (12 bytes an entry) and once in the form's column store (12
//! more). Measured: 2,762,742 bytes in release (3,183,782 in debug)
//! before the arena, when every term was also in a per-row `Vec` (16
//! bytes) and in the form's row store (12); 1,984,240 (2,030,752) with
//! it. A second dense copy of the terms (~0.55 MB) or the per-row lists
//! back (~0.74 MB) breaks the bound. A debug build allocates a little
//! more (the certificate every solve is checked against), hence its own
//! bound. A counting global allocator is installed, which is why this
//! test has a file (a process) to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use thermaware::core::stage1::{solve_stage1, Stage1Options};
use thermaware::datacenter::ScenarioParams;

/// About 1.25 times what the sweep allocates (see the module docs).
const SWEEP_BYTES: u64 = if cfg!(debug_assertions) { 2_550_000 } else { 2_490_000 };

static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts the bytes every allocation asks for; frees are not netted out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: caller guarantees `ptr`/`layout` match and `new_size`
        // is valid for the alignment; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_zone_sweep_allocates_its_model_once() {
    let dc = ScenarioParams {
        n_nodes: 152,
        n_crac: 1,
        ..ScenarioParams::small_test()
    }
    .build(1)
    .expect("the fleet's zone parameters build");
    let options = Stage1Options::default();
    let before = BYTES.load(Relaxed);
    let plan = solve_stage1(&dc, &options).expect("the zone is plannable");
    let bytes = BYTES.load(Relaxed) - before;
    drop(plan);
    assert!(
        bytes < SWEEP_BYTES,
        "one Stage-1 sweep of the zone allocated {bytes} bytes, the gate is {SWEEP_BYTES}"
    );
}
