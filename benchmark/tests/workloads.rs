//! Every workload driven through the real measuring loop at toy sizes,
//! so the harness cannot rot between the (long) full-size runs, plus the
//! cross-checks against numbers the repo already pins.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use thermaware::obs::MemoryRecorder;
use thermaware_benchmark::alloc::CountingAlloc;
use thermaware_benchmark::harness::{run, Clock, Report, Workload, OP_SPAN};
use thermaware_benchmark::selftime::self_times;
use thermaware_benchmark::{declared, dispatch_stream, fleet_replan, room_plan, service_surge};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The recorder is process-global: tests that install one take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const ROOM: room_plan::Size = room_plan::Size {
    nodes: 10,
    cracs: 1,
    det_ops: 2,
};
const FLEET: fleet_replan::Size = fleet_replan::Size {
    zones: 2,
    nodes_per_zone: 10,
    det_ops: 2,
};
const STREAM: dispatch_stream::Size = dispatch_stream::Size {
    nodes: 10,
    cracs: 1,
    horizon_s: 1.0,
    det_ops: 2,
};
/// Four 16-epoch periods, each on a room of its own (two in a traced run,
/// which pairs operations over a quarter of the prefix): surge at 4, the
/// scripted failures open the breaker at 6, the crash after epoch 12
/// replays up to there.
const SERVICE: service_surge::Size = service_surge::Size {
    nodes: 10,
    cracs: 1,
    period: 16,
    surge_at: 4,
    surge_len: 3,
    crash_at: 12,
    det_ops: 64,
};

/// Both kinds of run at a toy size: nothing fails, every end-to-end
/// metric is a positive number, and the spans inside the timed sections
/// account for the time of the traced operations. Returns the per-layer
/// metric names the workload reported.
fn drive<W: Workload>(size: &W::Size) -> BTreeSet<&'static str> {
    let _turn = serial();
    let plain = run::<W>(size, 1, 0.0, false);
    assert_eq!(plain.failed, 0);
    let want: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    let got: Vec<&str> = plain.metrics.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        got, want,
        "end-to-end metrics as BENCHMARK.json declares them"
    );
    for (name, value) in &plain.metrics {
        assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
    }

    let traced = run::<W>(size, 1, 0.0, true);
    assert_eq!(traced.failed, 0);
    assert_self_times_cover_the_ops(&traced);
    for (name, value) in &traced.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    traced.metrics.iter().map(|(n, _)| *n).collect()
}

fn assert_self_times_cover_the_ops(report: &Report) {
    let inside: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.path.starts_with(OP_SPAN))
        .cloned()
        .collect();
    let st = self_times(&inside);
    let op_us = st[OP_SPAN].total_us as f64;
    let self_us: u64 = st.values().map(|s| s.self_us).sum();
    assert!(op_us > 0.0);
    assert!(
        (self_us as f64 - op_us).abs() <= 0.05 * op_us,
        "self times {self_us} µs vs traced op time {op_us} µs"
    );
}

#[test]
fn every_workload_runs_and_together_they_report_every_declared_layer_metric() {
    let mut reported = drive::<room_plan::RoomPlan>(&ROOM);
    reported.extend(drive::<fleet_replan::FleetReplan>(&FLEET));
    reported.extend(drive::<dispatch_stream::DispatchStream>(&STREAM));
    reported.extend(drive::<service_surge::ServiceSurge>(&SERVICE));
    let declared: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    let declared: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
    assert_eq!(
        reported, declared,
        "reported layer metrics vs BENCHMARK.json"
    );
}

#[test]
fn dispatch_runs_no_lp() {
    let _turn = serial();
    let report = run::<dispatch_stream::DispatchStream>(&STREAM, 2, 0.0, true);
    let value = |name: &str| report.metric(name).expect("reported");
    assert_eq!(value("lp.solves"), 0.0);
    assert!(value("scheduler.sim.arrivals") > 0.0);
}

#[test]
fn service_surge_trips_the_breaker_sheds_and_resumes() {
    let _turn = serial();
    let report = run::<service_surge::ServiceSurge>(&SERVICE, 3, 0.0, true);
    assert_eq!(report.failed, 0, "every resume was byte-identical");
    let value = |name: &str| report.metric(name).expect("reported");
    assert!(value("service.engine.breaker_opens") > 0.0);
    assert!(value("service.engine.shed_tasks") > 0.0);
    assert!(value("service.store.resume_ms") > 0.0);
    assert!(
        value("runtime.persist.fsyncs_per_epoch") >= 1.0,
        "every Begin is fsynced"
    );
}

/// `results/BENCH_lp.json` pins the Stage-1 sweep of the seed-1 Fig. 6
/// room at 190 warm solves, 2,154 pivots, 34 infeasible. The traced
/// operation must see exactly that inside its `core.stage1` span.
#[test]
fn traced_room_plan_reproduces_the_pinned_stage1_sweep() {
    let _turn = serial();
    let mut w = room_plan::RoomPlan::of_room(room_plan::room(150, 3, 1));
    let mut clock = Clock::default();
    let plain = w.op(0, &mut clock);
    clock.set_recorder(Some(Arc::new(MemoryRecorder::new())));
    let traced = w.op(0, &mut clock);
    assert!(
        !plain.failed && !traced.failed,
        "sound plans, bit-identical halves"
    );
    assert_eq!(
        (
            w.stage1_lp.solves,
            w.stage1_lp.pivots,
            w.stage1_lp.infeasible
        ),
        (190, 2154, 34)
    );
}
