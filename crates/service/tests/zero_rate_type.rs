//! A task type the plan gives no rate on any core: its Stage-3 rate is 0
//! everywhere because nothing of it is expected (arrival rate 0), yet
//! clients send it. Every such task is dropped, never a panic; its row of
//! the scheduler's `count` table never changes, so it is printed at the
//! first commit and spliced at every later one; and a kill at any of the
//! chosen epochs resumes to the commit CRCs the live run journaled.
//!
//! A `MemoryRecorder` is installed process-wide to read `sched.bytes_kept`
//! per commit, which is why this test has a file (a process) to itself.

use std::sync::Arc;
use thermaware_core::Solver;
use thermaware_datacenter::ScenarioParams;
use thermaware_obs::{self as obs, MemoryRecorder};
use thermaware_service::engine::{ReplanVerdict, ServiceConfig, ServiceEngine};
use thermaware_service::proto::Batch;
use thermaware_service::store::{resume_service, state_json_crc, ServiceStore, StoreConfig};

const EPOCHS: usize = 24;
/// Epochs after whose commit the process dies and resumes.
const KILLS: [usize; 3] = [5, 12, 19];

#[test]
fn a_type_with_no_rate_is_dropped_and_its_row_printed_once() {
    let mut dc = ScenarioParams::small_test().build(4).expect("scenario");
    let zero = dc.n_task_types() - 1;
    dc.workload.task_types[zero].arrival_rate = 0.0;
    let plan = Solver::new(&dc).solve().expect("plan");
    assert!(
        !(0..dc.n_cores()).any(|k| plan.stage3.tc(zero, k) > 0.0),
        "type {zero} has a rate somewhere"
    );
    let others = zero; // types 0..zero carry the planned load

    let dir = std::env::temp_dir().join(format!("thermaware-zero-rate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig {
        durable: false,
        // Only the epoch-0 snapshot: the last resume replays every epoch
        // and checks each commit CRC the live run journaled.
        snapshot_interval: EPOCHS * 2,
        ..StoreConfig::new(&dir)
    };
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let mut store = ServiceStore::create(cfg.clone(), &engine).expect("create");

    let recorder = Arc::new(MemoryRecorder::new());
    let _installed = obs::install(recorder.clone());
    let mut crcs = Vec::new();
    for epoch in 0..EPOCHS {
        // Every third epoch brings the zero-rate type alone, the others a
        // mix of it and the planned types.
        let alone = epoch % 3 == 1;
        let mut tasks = vec![(zero, 3 + epoch % 4)];
        if !alone {
            tasks.extend((0..others).map(|i| (i, 2 + (epoch + i) % 3)));
        }
        let batches = vec![Batch { id: 1 + epoch as u64, tasks }];
        let verdict = ReplanVerdict::NotAttempted;
        store.append_begin(epoch, &batches, &verdict).expect("begin");
        let report = engine.step(&batches, &verdict);
        let outcome = &report.batches[0];
        assert!(outcome.dropped >= 3 + epoch % 4, "epoch {epoch}");
        if alone {
            assert_eq!((outcome.admitted, outcome.dropped), (0, 3 + epoch % 4), "epoch {epoch}");
        }

        let kept_before = recorder.snapshot().counter("sched.bytes_kept");
        let (_, crc) = state_json_crc(engine.state()).expect("encode");
        let kept = recorder.snapshot().counter("sched.bytes_kept") - kept_before;
        if epoch == 0 {
            assert!(kept > 0, "the first commit prints every block");
        } else if alone {
            // Nothing was assigned: no block of any per-core row (the
            // zero-rate type's `count` row included) is printed again.
            // After a resume too: the replay's encodes printed them.
            assert_eq!(kept, 0, "epoch {epoch}: kept text printed again");
        }
        store.append_commit(epoch, crc).expect("commit");
        crcs.push(crc);

        if KILLS.contains(&epoch) {
            drop(store);
            let (resumed, info) = resume_service(&dir).expect("resume");
            assert_eq!(info.replayed_epochs, epoch + 1);
            assert_eq!(state_json_crc(resumed.state()).expect("encode").1, crc, "epoch {epoch}");
            engine = resumed;
            store = ServiceStore::reopen(cfg.clone()).expect("reopen");
        }
    }
    store.sync().expect("sync");
    drop(store);

    let (resumed, info) = resume_service(&dir).expect("every journaled commit CRC replays");
    assert_eq!(info.replayed_epochs, EPOCHS);
    assert_eq!(state_json_crc(resumed.state()).expect("encode").1, crcs[EPOCHS - 1]);
    let _ = std::fs::remove_dir_all(&dir);
}
