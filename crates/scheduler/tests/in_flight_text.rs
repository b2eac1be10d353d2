//! The in-flight list keeps each task's encoded text, in one run of all
//! of them, from the first encode that prints it until `settle` drops
//! the task or `kill_cores` marks it lost. Debug builds print every kept
//! text again at every splice; this suite holds the same in release:
//! whatever mix of dispatches, settles, kills, replans, clones and round
//! trips came before, `json_crc` and `json_crc_only` of the simulation
//! are the plain encode of its tree (which splices nothing) and that
//! text's checksum, and the list reaches the sink as one splice at most.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Sink};
use serde_json::Writer;
use std::sync::OnceLock;
use thermaware_core::stage3::Stage3Solution;
use thermaware_core::Solver;
use thermaware_datacenter::{DataCenter, ScenarioParams};
use thermaware_runtime::persist::{crc32, crc32_combine, json_crc, json_crc_only};
use thermaware_scheduler::EpochSim;
use thermaware_workload::{ArrivalTrace, TaskArrival};

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
        let dc = ScenarioParams::small_test().build(5).expect("scenario");
        let first = Solver::new(&dc).solve().expect("plan");
        let mut quiet = dc.clone();
        for t in &mut quiet.workload.task_types {
            t.arrival_rate *= 0.5;
        }
        let second = Solver::new(&quiet).solve().expect("plan");
        let arrivals = ArrivalTrace::generate(&dc.workload, 4.0, &mut StdRng::seed_from_u64(5)).arrivals;
        Room { plans: [(first.pstates, first.stage3), (second.pstates, second.stage3)], dc, arrivals }
    })
}

/// A compact writer that counts the splices it takes inside the
/// in-flight list: an array that is the value of an `admitted` key.
#[derive(Default)]
struct InFlightSplices {
    out: Option<Writer>,
    /// For every open container, whether it is the in-flight list.
    open: Vec<bool>,
    /// The last key written, until its value comes.
    key: Option<String>,
    in_flight: usize,
}

impl InFlightSplices {
    fn out(&mut self) -> &mut Writer {
        self.key = None;
        self.out.get_or_insert_with(Writer::compact)
    }

    fn open(&mut self) {
        let in_flight = self.key.as_deref() == Some("admitted");
        self.open.push(in_flight);
    }
}

impl Sink for InFlightSplices {
    fn null(&mut self) {
        self.out().null();
    }

    fn bool(&mut self, b: bool) {
        self.out().bool(b);
    }

    fn number(&mut self, x: f64) {
        self.out().number(x);
    }

    fn string(&mut self, s: &str) {
        self.out().string(s);
    }

    fn begin_array(&mut self) {
        self.open();
        self.out().begin_array();
    }

    fn end_array(&mut self) {
        self.open.pop();
        self.out().end_array();
    }

    fn begin_object(&mut self) {
        self.open();
        self.out().begin_object();
    }

    fn key(&mut self, key: &str) {
        self.out().key(key);
        self.key = Some(key.to_string());
    }

    fn end_object(&mut self) {
        self.open.pop();
        self.out().end_object();
    }

    fn splice(&mut self, text: &str, crc: u32) -> bool {
        self.in_flight += usize::from(self.open.last() == Some(&true));
        self.out().splice(text, crc)
    }
}

/// `json_crc` against the un-spliced encode, alone and as a member with
/// neighbours on both sides, and `json_crc_only` (the daemon's commit
/// route) against the same CRC. The kept route runs first, so it is the
/// one that prints the tasks admitted since the last encode. A sink that
/// takes splices gets a non-empty in-flight list as one splice, whatever
/// its length, and an empty one as none: a list spliced task by task
/// fails here by name.
fn check<T: Serialize>(x: &T) -> Result<(String, u32), TestCaseError> {
    let (json, crc) = json_crc(x).expect("encode");
    let plain = serde_json::to_string(&x.to_value()).expect("encode");
    prop_assert!(json == plain, "spliced and plain bytes differ");
    prop_assert_eq!(crc, crc32(plain.as_bytes()));
    prop_assert_eq!(json_crc_only(x), crc);
    let mut counted = InFlightSplices::default();
    x.serialize(&mut counted);
    let splices = usize::from(!plain.contains(r#""admitted":[]"#));
    prop_assert!(counted.in_flight == splices, "{} splices of the in-flight list in one encode", counted.in_flight);
    prop_assert!(counted.out.map(Writer::finish).as_deref() == Some(plain.as_str()), "counted bytes differ");
    let (framed, framed_crc) = json_crc(&(1.5, x, "tail")).expect("encode");
    prop_assert_eq!(framed.clone(), format!("[1.5,{plain},\"tail\"]"));
    prop_assert_eq!(framed_crc, crc32(framed.as_bytes()));
    Ok((json, crc))
}

/// One step of a run. `arg` picks how many, which or how far.
fn step(sims: &mut Vec<EpochSim>, next: &mut usize, op: u8, arg: u64) -> Result<(), TestCaseError> {
    let Room { dc, plans, arrivals } = room();
    let now = arrivals[(*next).min(arrivals.len() - 1)].time;
    let sim = sims.last_mut().expect("one simulation at least");
    match op {
        // A handful of arrivals, with realized service factors or not.
        0..=2 => {
            for a in arrivals.iter().skip(*next).take(1 + arg as usize % 40) {
                let deadline = a.time + dc.workload.task_types[a.task_type].deadline_slack;
                let factor = (op == 2).then(|| 0.5 + (arg % 16) as f64 / 8.0);
                sim.dispatch_with_factor(a.task_type, a.time, deadline, factor);
                *next += 1;
            }
        }
        // Settle up to some point of the last second.
        3 => {
            sim.settle(dc, now - (arg % 1000) as f64 / 1000.0);
        }
        // A node dies: its cores' unfinished tasks are lost.
        4 => {
            let cores: Vec<usize> = dc.cores_of_node(arg as usize % dc.n_nodes()).collect();
            sim.kill_cores(&cores, now);
        }
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
    // Debug builds re-print every kept text at every splice on top of
    // these checks, so they run fewer cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 64 }))]

    /// Random interleavings of everything that touches the in-flight
    /// list, encoded at random points and at the end; every simulation a
    /// clone left behind is encoded again after the others moved on.
    #[test]
    fn json_crc_of_a_simulation_is_the_plain_encode_after_any_steps(
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

/// Settles at rising times, each right after an encode kept every task's
/// text, down to an empty list: every settle drops tasks from the middle
/// of the kept text.
#[test]
fn settling_compacts_the_kept_text() {
    let Room { dc, plans, arrivals } = room();
    let mut sim = EpochSim::new(dc, &plans[0].0, &plans[0].1);
    for a in &arrivals[..400] {
        sim.dispatch(a.task_type, a.time, a.time + dc.workload.task_types[a.task_type].deadline_slack);
    }
    let (first, last) = (arrivals[0].time, arrivals[399].time);
    let cuts = (0..=16).map(|k| first + (last - first) * k as f64 / 16.0);
    for at in cuts.chain([f64::INFINITY]) {
        check(&sim).expect("kept text");
        sim.settle(dc, at);
        check(&sim).expect("compacted text");
    }
    assert_eq!(sim.in_flight(), 0);
}

/// The join of a kept text into a running checksum, for every length a
/// task's text can have and the lengths around the shift table's bound:
/// the CRC of the two texts written one after the other.
#[test]
fn a_join_is_the_crc_of_the_concatenation_at_every_short_length() {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    let mut byte = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as u8
    };
    for len in 0..=1100 {
        let a: Vec<u8> = (0..len % 97).map(|_| byte()).collect();
        let b: Vec<u8> = (0..len).map(|_| byte()).collect();
        let whole = [a.as_slice(), b.as_slice()].concat();
        assert_eq!(crc32_combine(crc32(&a), crc32(&b), len), crc32(&whole), "length {len}");
    }
}
