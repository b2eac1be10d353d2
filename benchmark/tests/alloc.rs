//! The counting allocator, alone in its test binary and in one test
//! function: any other thread allocating while a delta is taken would
//! show up in it.

use thermaware_benchmark::alloc::{AllocCount, CountingAlloc};
use thermaware_benchmark::harness::{run, Clock};
use thermaware_benchmark::room_plan::{RoomPlan, Size};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TOY: Size = Size {
    nodes: 10,
    cracs: 1,
    det_ops: 2,
};

#[test]
fn counts_are_exact_and_repeat() {
    // An empty operation requests nothing.
    let ((), empty) = Clock::default().time(|| ());
    assert_eq!(empty.alloc, AllocCount::default());

    // A known allocation is counted to the byte, and freed memory leaves
    // the live count (so the peak does not creep).
    let before = AllocCount::now();
    let v: Vec<u8> = Vec::with_capacity(4096);
    let grown = AllocCount::since(before);
    assert_eq!(
        grown,
        AllocCount {
            bytes: 4096,
            calls: 1
        }
    );
    drop(v);

    // Single-threaded planning allocates the same on every run of a seed.
    let metric = |traced, name| {
        run::<RoomPlan>(&TOY, 7, 0.0, traced)
            .metric(name)
            .expect("reported")
    };
    for (traced, name) in [(false, "alloc_mb_per_op"), (true, "bench.allocs_per_op")] {
        let first = metric(traced, name);
        assert!(first > 0.0);
        assert_eq!(first, metric(traced, name), "{name} repeats");
    }
}
