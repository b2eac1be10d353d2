//! What the program's hot set-ups allocate, in bytes and in calls,
//! counted: a gate on work, not on seconds, so it reads the same on a
//! machine of any speed. Two are gated: one Stage-1 sweep of a fleet
//! zone, and one batch simulation of the second step.
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
//! each node's cores were written in place; 1,710,963 (1,757,475) once
//! a candidate allocated nothing after the first; 1,698,883 (1,745,395)
//! once every node's variables were laid out in one buffer instead of
//! two vectors per node; 1,698,803 (1,745,315) once the segment slopes
//! were computed once per sweep instead of twice. A second dense copy of
//! the terms (~0.55 MB) or the per-row lists back (~0.74 MB) breaks the
//! bound. A debug build allocates a little more (the certificate every
//! solve is checked against), hence its own bound.
//!
//! A second sweep through the same `SweepStorage` builds its room LP and
//! works its candidates in the storage the first left: the problem's
//! arena, the form's column store, the simplex workspace and solution,
//! the thermal coefficients, the node powers and the re-check's steady
//! state allocate nothing, and neither does the variables' layout (one
//! buffer of every node's variables, kept in the storage). What it does
//! allocate is its own set-up — the ARR curves and their slopes, the
//! rows' ids — and the plan. Measured: 53,412 bytes in 67 allocations
//! against the first sweep's 1,698,803 in release (99,924 in 94 against
//! 1,745,315 in debug); 53,492 in 70 (100,004 in 97) when the sweep and
//! its segment variables each computed the slopes; 72,868 bytes in 526
//! allocations (119,380 in 553) before that, when the layout and the
//! segment variables were two vectors per node; 337,952 (384,464) bytes
//! before that, when each of its ten candidates allocated ~29.5 kB of
//! its own. Losing the reuse of the problem's arena, the form's column
//! store or the simplex workspace costs 0.36 MB or more and breaks the
//! bound of a tenth; a vector per node again breaks the bound on the
//! count.
//!
//! Nor does a second sweep allocate more the more candidates it solves:
//! over the zone's 10–25 °C outlet range the default grid solves ten
//! candidates, a 15 °C coarse-only grid four, and a second sweep of each
//! allocated 53,412 and 53,348 bytes in release (the 64 are the longer
//! grid axes). A buffer a candidate stops reusing costs at least one
//! vector per node (1.2 kB) a candidate and breaks the bound; in debug
//! each solve's certificate allocates its working vectors (~5.2 kB a
//! candidate here), which the debug bound allows.
//!
//! The batch simulation is `simulate` of a 10-s Poisson stream (seed 1,
//! 38,133 arrivals, 30,449 admitted) on the seed-1 Fig. 6 room, 150
//! nodes and 4,800 cores, planned over a coarse outlet grid. It
//! allocates the plan's per-core tables (~1.5 MB for 8 task types), an
//! in-flight list sized once from the arrivals (56 bytes an arrival) and
//! one buffer for the latency summaries (8 bytes an admitted task), and
//! `EpochSim::finish` of the same stream allocates only that buffer.
//! Measured: 3,899,768 bytes in 227 calls, the summary 243,592 bytes, in
//! release and in debug alike; 4,514,360 bytes in 236 calls before the
//! windowed rule's rate table was held as its shape under every other
//! policy (614 kB: 16 bytes a type and core). That table built again
//! under the paper's policy, an in-flight list left to grow by doubling
//! (~3.7 MB of copies) or a summary that sorts (a scratch buffer as long
//! as the samples per sort) breaks its bound.
//!
//! A counting global allocator is installed, which is why these tests
//! have a file (a process) to themselves; they take turns with it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use thermaware::core::stage1::{
    solve_stage1, solve_stage1_in, Stage1Options, Stage1Solution, SweepStorage,
};
use thermaware::datacenter::{CracSearchOptions, DataCenter, ScenarioParams};
use thermaware::core::Solver;
use thermaware::obs::{self, MemoryRecorder};
use thermaware::scheduler::{simulate, EpochSim};
use thermaware::workload::ArrivalTrace;

/// About 1.25 times what the sweep allocates (see the module docs).
const SWEEP_BYTES: u64 = if cfg!(debug_assertions) { 2_200_000 } else { 2_140_000 };

/// What a second sweep may allocate beyond a second sweep of fewer
/// candidates: the longer grid axes, and in debug each further
/// candidate's certificate (see the module docs).
const AXES_BYTES: u64 = 256;
const CERTIFICATE_BYTES: u64 = if cfg!(debug_assertions) { 6_000 } else { 0 };

/// About 1.25 times the allocations a second sweep makes (see the
/// module docs); one per node would be 152 more.
const SECOND_SWEEP_CALLS: u64 = if cfg!(debug_assertions) { 118 } else { 84 };

/// About 1.15 times what a batch simulation allocates, and in how many
/// calls, and what its summary alone allocates (see the module docs);
/// release and debug builds read the same.
const BATCH_BYTES: u64 = 4_485_000;
const BATCH_CALLS: u64 = 261;
const SUMMARY_BYTES: u64 = 280_200;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// What a sweep allocated: bytes asked for, and calls to `alloc`,
/// `alloc_zeroed` and `realloc`.
struct Allocated {
    bytes: u64,
    calls: u64,
}

/// Held by each test while it counts: the tests of this file share the
/// counter.
static COUNTING: Mutex<()> = Mutex::new(());

/// Counts the bytes every allocation asks for, and the calls; frees are
/// not netted out.
struct Counting;

// A global allocator is an unsafe trait: the one `unsafe` of the
// workspace outside `thermaware_linalg::kernel`.
#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
        CALLS.fetch_add(1, Relaxed);
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
/// worker runs one zone after another: the second builds its room LP and
/// solves its candidates in the storage the first left, so it allocates
/// under a tenth of what the first did. Both plans are the plan, bit for
/// bit.
#[test]
fn a_second_sweep_builds_in_the_first_ones_storage() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = zone();
    let (first, second, plan, again) = two_sweeps(&dc, &Stage1Options::default());
    assert_eq!(plan, again, "the same plan from used storage");
    let (first, second) = (first.bytes, second.bytes);
    assert!(
        second * 10 < first,
        "the second sweep allocated {second} bytes, the first {first}: a tenth is the gate"
    );
}

/// A second sweep allocates a few dozen times, whatever the number of
/// nodes: no vector per node (see the module docs).
#[test]
fn a_second_sweep_allocates_no_vector_per_node() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = zone();
    let (_, second, ..) = two_sweeps(&dc, &Stage1Options::default());
    assert!(
        second.calls < SECOND_SWEEP_CALLS,
        "the second sweep allocated {} times, the gate is {SECOND_SWEEP_CALLS} ({} nodes)",
        second.calls,
        dc.n_nodes()
    );
}

/// A second sweep of the default grid's ten candidates allocates what a
/// second sweep of a 15 °C coarse-only grid's four does, plus the longer
/// axes (and in debug the further candidates' certificates): a candidate
/// allocates nothing.
#[test]
fn a_second_sweeps_bytes_do_not_grow_with_its_candidates() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = zone();
    let coarse_only = Stage1Options {
        search: CracSearchOptions { coarse_step_c: 15.0, refine_radius: 0 },
        ..Stage1Options::default()
    };
    let (many, few) = (candidates(&dc, &Stage1Options::default()), candidates(&dc, &coarse_only));
    assert_eq!((many, few), (10, 4), "the grids' candidates, the winner's re-solve included");
    let (_, more, ..) = two_sweeps(&dc, &Stage1Options::default());
    let (_, fewer, ..) = two_sweeps(&dc, &coarse_only);
    let (more, fewer) = (more.bytes, fewer.bytes);
    let bound = fewer + AXES_BYTES + (many - few) * CERTIFICATE_BYTES;
    assert!(
        more <= bound,
        "a second sweep of {many} candidates allocated {more} bytes, of {few} {fewer}: the gate is {bound}"
    );
}

/// `simulate` of a 10-s stream on a planned Fig. 6 room allocates its
/// plan's tables, an in-flight list sized once from the arrivals and one
/// summary buffer, and `EpochSim::finish` of the same stream only that
/// buffer (see the module docs).
#[test]
fn a_batch_simulation_allocates_for_its_arrivals_once() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let dc = ScenarioParams {
        n_nodes: 150,
        n_crac: 3,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(1)
    .expect("the paper's scenario builds");
    let search = CracSearchOptions { coarse_step_c: 7.5, refine_radius: 0 };
    let plan = Solver::new(&dc).crac_grid(search).solve().expect("the room is plannable");
    let trace = ArrivalTrace::generate(&dc.workload, 10.0, &mut StdRng::seed_from_u64(1));
    let counted = |run: &mut dyn FnMut()| {
        let (bytes, calls) = (BYTES.load(Relaxed), CALLS.load(Relaxed));
        run();
        Allocated { bytes: BYTES.load(Relaxed) - bytes, calls: CALLS.load(Relaxed) - calls }
    };
    let batch = counted(&mut || drop(simulate(&dc, &plan.pstates, &plan.stage3, &trace)));
    let mut sim = EpochSim::new(&dc, &plan.pstates, &plan.stage3);
    for a in &trace.arrivals {
        sim.dispatch(a.task_type, a.time, a.deadline);
    }
    let mut sim = Some(sim);
    let summary = counted(&mut || {
        let sim = sim.take().expect("finished once");
        drop(sim.finish(&dc, trace.horizon_s));
    });
    let arrivals = trace.arrivals.len();
    assert!(
        batch.bytes < BATCH_BYTES && batch.calls < BATCH_CALLS,
        "simulate of {arrivals} arrivals allocated {} bytes in {} calls, the gate is {BATCH_BYTES} in {BATCH_CALLS}",
        batch.bytes,
        batch.calls
    );
    assert!(
        summary.bytes < SUMMARY_BYTES,
        "finish allocated {} bytes, the gate is {SUMMARY_BYTES}",
        summary.bytes
    );
}

/// What each of two sweeps through one [`SweepStorage`] allocated, and
/// their plans.
fn two_sweeps(
    dc: &DataCenter,
    options: &Stage1Options,
) -> (Allocated, Allocated, Stage1Solution, Stage1Solution) {
    let mut storage = SweepStorage::default();
    let mut sweep = || {
        let (bytes, calls) = (BYTES.load(Relaxed), CALLS.load(Relaxed));
        let plan = solve_stage1_in(dc, dc.budget.p_const_kw, options, &mut storage);
        let allocated = Allocated { bytes: BYTES.load(Relaxed) - bytes, calls: CALLS.load(Relaxed) - calls };
        (allocated, plan.expect("the zone is plannable"))
    };
    let (first, plan) = sweep();
    let (second, again) = sweep();
    (first, second, plan, again)
}

/// The candidates a sweep solves, the winner's re-solve included, off
/// the LP engine's counter (an uncounted run: the recorder allocates).
fn candidates(dc: &DataCenter, options: &Stage1Options) -> u64 {
    let recorder = Arc::new(MemoryRecorder::new());
    let _installed = obs::install(recorder.clone());
    solve_stage1(dc, options).expect("the zone is plannable");
    recorder.snapshot().counter("lp.solves")
}
