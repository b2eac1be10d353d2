//! The scheduler's per-core tables (`count`, `busy_until`, `busy_time`,
//! `alive`) keep the encoded text of each block of cores from the encode
//! that prints it until a write touches the block. Debug builds print
//! every kept block again at every splice; this suite holds the same in
//! release: whatever mix of dispatches, settles, kills, replans, clones
//! and round trips came before, `json_crc` of the simulation is a fresh
//! print of the same values held in plain `Vec`s, and that text's
//! checksum.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;
use thermaware_core::stage3::Stage3Solution;
use thermaware_core::Solver;
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::persist::{crc32, json_crc};
use thermaware_scheduler::EpochSim;
use thermaware_workload::{ArrivalTrace, TaskArrival};

/// An `EpochSim` with its scheduler's per-core tables as plain vectors
/// and everything else as a tree: fields in the order the simulation
/// writes them.
#[derive(Serialize, Deserialize)]
struct PlainSim {
    scheduler: PlainScheduler,
    per_type: Value,
    admitted: Value,
}

#[derive(Serialize, Deserialize)]
struct PlainScheduler {
    policy: Value,
    tc: Value,
    candidates: Value,
    runnable: Value,
    count: Vec<Vec<u64>>,
    ewma_rate: Value,
    busy_until: Vec<f64>,
    service: Value,
    busy_time: Vec<f64>,
    alive: Vec<bool>,
    plan_start: f64,
}

/// A room, two plans for it (the second for half the demand) and a
/// stream long enough for every case.
struct Room {
    dc: DataCenter,
    plans: [(Vec<usize>, Stage3Solution); 2],
    arrivals: Vec<TaskArrival>,
}

fn room() -> &'static Room {
    static ROOM: OnceLock<Room> = OnceLock::new();
    ROOM.get_or_init(|| {
        let dc = ScenarioParams::small_test().build(3).expect("scenario");
        let first = Solver::new(&dc).solve().expect("plan");
        let mut quiet = dc.clone();
        for t in &mut quiet.workload.task_types {
            t.arrival_rate *= 0.5;
        }
        let second = Solver::new(&quiet).solve().expect("plan");
        let arrivals = ArrivalTrace::generate(&dc.workload, 4.0, &mut StdRng::seed_from_u64(3)).arrivals;
        Room { plans: [(first.pstates, first.stage3), (second.pstates, second.stage3)], dc, arrivals }
    })
}

/// `json_crc` of the simulation, alone and as a member with neighbours
/// on both sides, against the same values printed from plain vectors.
/// The tree route splices nothing, so the plain copy holds the values,
/// not the kept text.
fn check(sim: &EpochSim) -> Result<(String, u32), TestCaseError> {
    let (json, crc) = json_crc(sim).expect("encode");
    let tree = serde_json::to_string(&sim.to_value()).expect("encode");
    let plain: PlainSim = serde_json::from_str(&tree).expect("the tables read as plain vectors");
    let fresh = serde_json::to_string(&plain).expect("encode");
    prop_assert!(json == fresh, "kept and fresh bytes differ");
    prop_assert_eq!(crc, crc32(fresh.as_bytes()));
    let (framed, framed_crc) = json_crc(&(1.5, sim, "tail")).expect("encode");
    prop_assert_eq!(&framed, &format!("[1.5,{fresh},\"tail\"]"));
    prop_assert_eq!(framed_crc, crc32(framed.as_bytes()));
    Ok((json, crc))
}

/// One step of a run. `arg` picks how many, which or how far.
fn step(sims: &mut Vec<EpochSim>, next: &mut usize, op: u8, arg: u64) -> Result<(), TestCaseError> {
    let Room { dc, plans, arrivals } = room();
    let now = arrivals[(*next).min(arrivals.len() - 1)].time;
    let sim = sims.last_mut().expect("one simulation at least");
    match op {
        // A handful of arrivals, with realized service factors or not:
        // each assignment writes one core of `count`, `busy_until` and
        // `busy_time`.
        0..=2 => {
            for a in arrivals.iter().skip(*next).take(1 + arg as usize % 40) {
                let deadline = a.time + dc.workload.task_types[a.task_type].deadline_slack;
                let factor = (op == 2).then(|| 0.5 + (arg % 16) as f64 / 8.0);
                sim.dispatch_with_factor(a.task_type, a.time, deadline, factor);
                *next += 1;
            }
        }
        3 => {
            sim.settle(dc, now - (arg % 1000) as f64 / 1000.0);
        }
        // A node dies, writing `alive`; now and then with a core index
        // past the room's, which names no core.
        4 => {
            let mut cores: Vec<usize> = dc.cores_of_node(arg as usize % dc.n_nodes()).collect();
            if arg.is_multiple_of(3) {
                cores.push(dc.n_cores() + arg as usize % 100);
            }
            sim.kill_cores(&cores, now);
        }
        // A replan resets `count`.
        5 => {
            let (pstates, stage3) = &plans[arg as usize % 2];
            sim.replan(dc, pstates, stage3, now);
        }
        // A clone takes the kept text along; the run goes on with either.
        6 => {
            let copy = sim.clone();
            prop_assert_eq!(check(&copy)?, check(sim)?);
            sims.push(copy);
            if arg.is_multiple_of(2) {
                let n = sims.len();
                sims.swap(n - 2, n - 1);
            }
        }
        // From disk: nothing kept is read, and the bytes are the same.
        7 => {
            let (json, _) = check(sim)?;
            let read: EpochSim = serde_json::from_str(&json).expect("decode");
            prop_assert!(read == *sim);
            prop_assert_eq!(check(&read)?.0, json);
            *sim = read;
        }
        _ => {
            check(sim)?;
        }
    }
    Ok(())
}

proptest! {
    // Debug builds re-print every kept block at every splice on top of
    // these checks, so they run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 64 }))]

    /// Random interleavings of everything that writes a per-core table,
    /// encoded at random points and at the end; every simulation a clone
    /// left behind is encoded again after the others moved on.
    #[test]
    fn json_crc_of_the_per_core_tables_is_a_fresh_print_after_any_steps(
        ops in prop::collection::vec((0u8..10, 0u64..1_000_000), 1..80usize),
    ) {
        let Room { dc, plans, .. } = room();
        let mut sims = vec![EpochSim::new(dc, &plans[0].0, &plans[0].1)];
        let mut next = 0;
        for (op, arg) in ops {
            step(&mut sims, &mut next, op, arg)?;
        }
        for sim in &sims {
            check(sim)?;
        }
    }
}

/// The room has more cores than one block holds, so the tables are cut
/// into several blocks and a dispatch leaves some of them clean.
#[test]
fn the_room_spans_several_blocks() {
    assert!(room().dc.n_cores() > 64, "{} cores", room().dc.n_cores());
}
