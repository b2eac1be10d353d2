//! `dispatch_stream`: the paper's second step. One operation is
//! `simulate(&dc, &pstates, &stage3, &trace)`: ATC/TC dispatch of a fresh
//! 10-s Poisson arrival stream (≈38k tasks) onto a planned 150-node,
//! 4,800-core room.
//!
//! `scheduler.dispatch` is the whole operation and no LP runs, which
//! makes this the bypass workload for every solver optimisation and the
//! one place where `pick_atc_tc`'s scan over candidate cores dominates.
//!
//! Time per arrival differs by ±30 % between planned rooms (it follows
//! how many cores the plan gives each task type), so every operation
//! gets a room of its own, built and planned from the seed outside the
//! timed section, and a stream of its own. The median over the ~30 rooms
//! a run saw with 20-s streams still moved by 13–18 % between seeds (the
//! per-room times are spread wide and not bell-shaped); 10-s streams and
//! a cheaper plan make it ~70 rooms.

use crate::harness::{Clock, OpResult, TraceData, Workload};
use crate::room_plan::{lp_layer, room};
use crate::stats::{mean, sub_seed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use thermaware::prelude::*;

#[derive(Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub cracs: usize,
    pub horizon_s: f64,
    pub det_ops: usize,
}

pub const FULL: Size = Size {
    nodes: 150,
    cracs: 3,
    horizon_s: 10.0,
    det_ops: 40,
};

/// Stream seeds start here in a run's sub-seed sequence, clear of the
/// room seeds.
const STREAM_SEEDS: u64 = 1 << 32;

pub struct DispatchStream {
    seed: u64,
    size: Size,
    /// The operation number `room` and `plan` were made for.
    input: usize,
    room: DataCenter,
    plan: ThreeStageSolution,
    room_build_ms: Vec<f64>,
    /// Reward the first half of a traced pair collected on its input; the
    /// other half must collect the same.
    twin: Option<(usize, f64)>,
    gen_ms: Vec<f64>,
    sched_build_ms: Vec<f64>,
    /// Seconds and arrivals of all untraced operations.
    untraced_secs: f64,
    untraced_arrivals: usize,
}

/// Room number `input` of the run and its plan, with the room's build
/// time in ms.
fn planned_room(seed: u64, size: &Size, input: usize) -> (DataCenter, ThreeStageSolution, f64) {
    let t = Instant::now();
    let dc = room(size.nodes, size.cracs, sub_seed(seed, input as u64));
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    // The plan is an input here, so the CRAC search is one pass over the
    // 10 / 17.5 / 25 °C grid (27 candidates instead of ~190): a tenth of
    // the full search's time, and since the optimum sits at 17–18 °C the
    // plans earn within 2 % of the full search's.
    let plan = Solver::new(&dc)
        .crac_grid(CracSearchOptions {
            coarse_step_c: 7.5,
            refine_radius: 0,
            ..CracSearchOptions::default()
        })
        .solve()
        .expect("the paper's rooms are plannable");
    (dc, plan, build_ms)
}

impl Workload for DispatchStream {
    type Size = Size;

    fn det_ops(size: &Size) -> usize {
        size.det_ops
    }

    fn setup(seed: u64, size: &Size, input: usize) -> DispatchStream {
        let (room, plan, build_ms) = planned_room(seed, size, input);
        DispatchStream {
            seed,
            size: *size,
            input,
            room,
            plan,
            room_build_ms: vec![build_ms],
            twin: None,
            gen_ms: Vec::new(),
            sched_build_ms: Vec::new(),
            untraced_secs: 0.0,
            untraced_arrivals: 0,
        }
    }

    fn op(&mut self, input: usize, clock: &mut Clock) -> OpResult {
        if self.input != input {
            let (room, plan, build_ms) = planned_room(self.seed, &self.size, input);
            (self.room, self.plan, self.input) = (room, plan, input);
            self.room_build_ms.push(build_ms);
        }
        let (dc, plan) = (&self.room, &self.plan);
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, STREAM_SEEDS + input as u64));
        let stream = ArrivalTrace::generate(&dc.workload, self.size.horizon_s, &mut rng);
        self.gen_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let trace = clock.recorder();
        let counted_before = trace.as_ref().map(|rec| rec.snapshot());
        let (result, op) = clock.time(|| simulate(dc, &plan.pstates, &plan.stage3, &stream));

        // Every arrival is accounted for, no more tasks completed than
        // were admitted, and nothing admitted missed its deadline.
        let arrivals = stream.arrivals.len();
        let sum = |f: fn(&thermaware::scheduler::TypeStats) -> usize| -> usize {
            result.per_type.iter().map(f).sum()
        };
        let mut failed = sum(|t| t.arrived) != arrivals
            || sum(|t| t.completed) + sum(|t| t.dropped) > arrivals
            || sum(|t| t.late) + sum(|t| t.lost) != 0;
        if let (Some(rec), Some(before)) = (trace, counted_before) {
            // The scheduler's own counters see each decision: admitted
            // plus dropped is every arrival.
            let after = rec.snapshot();
            let count = |name: &str| (after.counter(name) - before.counter(name)) as usize;
            failed |= count("sched.arrived") != arrivals
                || count("sched.admitted") + count("sched.dropped") != arrivals;
            let t = Instant::now();
            std::hint::black_box(EpochSim::new(dc, &plan.pstates, &plan.stage3));
            self.sched_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        } else {
            self.untraced_secs += op.secs;
            self.untraced_arrivals += arrivals;
        }
        match self.twin.take() {
            Some((i, first)) if i == input => failed |= first != result.reward_collected,
            _ => self.twin = Some((input, result.reward_collected)),
        }
        OpResult {
            op,
            work: arrivals as f64,
            failed,
            reward: result.reward_rate,
            offered: dc.workload.max_reward_rate(),
            ..OpResult::default()
        }
    }

    fn layers(&self, trace: &TraceData) -> Vec<(&'static str, f64)> {
        let arrived = trace.counter_per_op("sched.arrived");
        // `lp.*` from the trace too: this workload must read zero solves.
        let mut m = lp_layer(trace);
        m.extend([
            ("datacenter.scenario.build_ms", mean(&self.room_build_ms)),
            ("scheduler.sim.arrivals", arrived),
            // From the untraced halves: the traced ones pay a recorder
            // visit per arrival.
            (
                "scheduler.sim.ns_per_arrival",
                self.untraced_secs * 1e9 / self.untraced_arrivals as f64,
            ),
            (
                "scheduler.dispatch.admitted_frac",
                trace.counter_per_op("sched.admitted") / arrived,
            ),
            (
                "scheduler.dispatch.deadline_misses",
                trace.counter_per_op("sched.deadline_misses"),
            ),
            ("scheduler.dispatch.build_ms", mean(&self.sched_build_ms)),
            ("workload.trace.gen_ms", mean(&self.gen_ms)),
        ]);
        m
    }
}
