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
//! it; 1,937,569 (1,984,081) once variable names shared one string and
//! each node's cores were written in place. A second dense copy of the terms (~0.55 MB) or the per-row lists
//! back (~0.74 MB) breaks the bound. A debug build allocates a little
//! more (the certificate every solve is checked against), hence its own
//! bound.
//!
//! A second sweep through the same `SweepStorage` builds its room LP in
//! the storage the first left: the problem's arena, the form's column
//! store and the simplex workspace allocate nothing. What it does
//! allocate is its ten candidates' own — each solve's result and working
//! vectors, the thermal coefficients and the exact re-check's steady
//! state, ~29.5 kB a candidate — and the plan. Measured: 337,952 bytes
//! against the first sweep's 1,937,569 in release (384,464 against
//! 1,984,081 in debug). Losing the reuse of any one of the three stores
//! costs 0.36 MB or more and breaks the bound of a quarter.
//!
//! A counting global allocator is installed, which is why these tests
//! have a file (a process) to themselves; they take turns with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};
use thermaware::core::stage1::{solve_stage1, solve_stage1_in, Stage1Options, SweepStorage};
use thermaware::datacenter::{DataCenter, ScenarioParams};

/// About 1.25 times what the sweep allocates (see the module docs).
const SWEEP_BYTES: u64 = if cfg!(debug_assertions) { 2_550_000 } else { 2_490_000 };

static BYTES: AtomicU64 = AtomicU64::new(0);

/// Held by each test while it counts: the tests of this file share the
/// counter.
static COUNTING: Mutex<()> = Mutex::new(());

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

/// A fleet zone: 152 nodes, one CRAC, seed 1.
fn zone() -> DataCenter {
    ScenarioParams {
        n_nodes: 152,
        n_crac: 1,
        ..ScenarioParams::small_test()
    }
    .build(1)
    .expect("the fleet's zone parameters build")
}

#[test]
fn a_zone_sweep_allocates_its_model_once() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = zone();
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

/// Two sweeps of the zone through one [`SweepStorage`], as a replan's
/// worker runs one zone after another: the second builds its room LP in
/// the storage the first left, so it allocates under a quarter of what
/// the first did. Both plans are the plan, bit for bit.
#[test]
fn a_second_sweep_builds_in_the_first_ones_storage() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = zone();
    let options = Stage1Options::default();
    let mut storage = SweepStorage::default();
    let mut sweep = || {
        let before = BYTES.load(Relaxed);
        let plan = solve_stage1_in(&dc, dc.budget.p_const_kw, &options, &mut storage);
        (BYTES.load(Relaxed) - before, plan.expect("the zone is plannable"))
    };
    let (first, plan) = sweep();
    let (second, again) = sweep();
    assert_eq!(plan, again, "the same plan from used storage");
    assert!(
        second * 4 < first,
        "the second sweep allocated {second} bytes, the first {first}: a quarter is the gate"
    );
}
