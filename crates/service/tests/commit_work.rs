//! The bytes a commit prints, counted: a gate on work, not on seconds, so
//! it reads the same on a machine of any speed.
//!
//! A commit encodes and checksums the whole `ServiceState`. What it may
//! take as already-encoded text is what an earlier commit printed and
//! nothing changed since: the scheduler's plan tables, the blocks of its
//! per-core rows no task touched and the in-flight tasks admitted before
//! the last commit. Printed bytes are those the writer printed
//! (`persist.bytes_encoded`) plus those printed into kept text for the
//! first time during this commit (`sched.bytes_kept`), which the writer
//! then takes as a splice.
//!
//! A `MemoryRecorder` is installed process-wide, which is why this test
//! has a file (a process) to itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use thermaware_core::Solver;
use thermaware_datacenter::{CracSearchOptions, ScenarioParams};
use thermaware_obs::{self as obs, MemoryRecorder};
use thermaware_service::engine::{ReplanVerdict, ServiceConfig, ServiceEngine};
use thermaware_service::proto::Batch;
use thermaware_service::store::state_json_crc;

/// About halfway between the 64.4 kB a commit prints here when the
/// scheduler's per-core rows (`count`, `busy_until`, `busy_time`,
/// `alive`) print only the blocks of cores written since the last commit
/// and the 108.0 kB it printed when every commit printed those rows
/// whole. What is left is mostly the blocks of cores that took a task,
/// the tasks admitted since the last commit and the counters.
const PRINTED_KB_PER_COMMIT: f64 = 86.2;

/// Epochs run, and the first one counted: the first commits print the
/// plan tables and fill the in-flight list.
const EPOCHS: usize = 64;
const COUNTED_FROM: usize = 8;

/// A seeded 40-node, 2-CRAC room of the paper's scenario under 0.7× its
/// planned demand, three times that from epoch 24 to 44, committed after
/// every epoch.
#[test]
fn a_commit_prints_what_changed_since_the_last() {
    let dc = ScenarioParams {
        n_nodes: 40,
        n_crac: 2,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(1)
    .expect("scenario");
    let plan = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 7.5,
            refine_radius: 0,
        })
        .solve()
        .expect("plan");
    let mut engine = ServiceEngine::new(dc, ServiceConfig::default(), &plan.pstates, &plan.stage3);
    let mut rng = StdRng::seed_from_u64(7);

    let recorder = Arc::new(MemoryRecorder::new());
    let _installed = obs::install(recorder.clone());
    let (mut printed, mut total) = (0u64, 0u64);
    for epoch in 0..EPOCHS {
        let level = if (24..44).contains(&epoch) { 2.1 } else { 0.7 };
        let epoch_s = engine.config().epoch_s;
        let tasks = engine
            .dc()
            .workload
            .task_types
            .iter()
            .enumerate()
            .map(|(i, t)| (i, (t.arrival_rate * level * epoch_s + rng.gen_range(0.0..1.0)) as usize))
            .filter(|&(_, n)| n > 0)
            .collect();
        engine.step(&[Batch { id: epoch as u64 + 1, tasks }], &ReplanVerdict::NotAttempted);

        let before = recorder.snapshot();
        let (json, _) = state_json_crc(engine.state()).expect("encode");
        let after = recorder.snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        if epoch >= COUNTED_FROM {
            printed += delta("persist.bytes_encoded") + delta("sched.bytes_kept");
            total += json.len() as u64;
        }
    }
    let commits = (EPOCHS - COUNTED_FROM) as f64;
    let printed_kb = printed as f64 / 1024.0 / commits;
    assert!(
        printed_kb < PRINTED_KB_PER_COMMIT,
        "persist.bytes_encoded + sched.bytes_kept: {printed_kb:.1} kB printed per commit of {:.1} kB, \
         the gate is {PRINTED_KB_PER_COMMIT}",
        total as f64 / 1024.0 / commits
    );
}
