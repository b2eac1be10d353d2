//! `fleet_replan`: one `FleetSolver::replan` of a 24-zone, 3,648-node
//! fleet on a two-thread pool.
//!
//! The `lp` and `core` layers again, used differently from `room_plan`:
//! many short 1-CRAC zone sweeps on cloned zones, in parallel, under the
//! budget-bisection master. The only multi-threaded workload, so a kernel
//! gain that costs parallel efficiency shows here.
//!
//! Zone solve times have a long tail (median 45 ms, mean 60 ms), so even
//! 24 zones leave replans differing by ±20 % from fleet to fleet; every
//! operation therefore replans a fleet of its own, built from the seed
//! outside the timed section. The replan is the fleet's first: its
//! Stage-3 bases are cold, which costs under 0.1 % of a replan.

use crate::harness::{Clock, OpResult, TraceData, Workload};
use crate::room_plan::lp_layer;
use crate::stats::{mean, median, sub_seed};
use std::sync::Arc;
use std::time::Instant;
use thermaware::prelude::*;
use thermaware::shard::{solve_monolithic, solve_zone, split_budget, PoolConfig};

#[derive(Clone, Copy)]
pub struct Size {
    pub zones: usize,
    pub nodes_per_zone: usize,
    pub det_ops: usize,
}

pub const FULL: Size = Size {
    zones: 24,
    nodes_per_zone: 152,
    det_ops: 8,
};

pub struct FleetReplan {
    seed: u64,
    size: Size,
    cfg: FleetConfig,
    threads: usize,
    /// The operation number `fleet` and `solver` were built for.
    input: usize,
    fleet: Arc<Fleet>,
    solver: FleetSolver,
    build_ms: Vec<f64>,
    oracle_asked: bool,
    split_ms: Vec<f64>,
    zone_ms: Vec<f64>,
    serial_ms: Vec<f64>,
}

fn build(
    seed: u64,
    size: &Size,
    input: usize,
    cfg: &FleetConfig,
) -> (Arc<Fleet>, FleetSolver, f64) {
    let t = Instant::now();
    let params = FleetParams::small(
        size.zones,
        size.nodes_per_zone,
        sub_seed(seed, input as u64),
    );
    let fleet = Arc::new(
        Fleet::build(&params, cfg.psi_percent).expect("the small-pod fleet builds for every seed"),
    );
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let solver = FleetSolver::new(Arc::clone(&fleet), cfg.clone());
    (fleet, solver, build_ms)
}

fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

impl FleetReplan {
    /// The work of one replan done on this thread alone: the master's
    /// split, then every zone solve in turn. Returns the summed zone
    /// rewards, which the pooled plan must match.
    fn time_serial_work(&mut self) -> f64 {
        let t = Instant::now();
        let split = split_budget(self.fleet.budget_kw, &self.fleet.profiles);
        self.split_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (mut serial_ms, mut reward) = (0.0, 0.0);
        for (z, dc) in self.fleet.zones.iter().enumerate() {
            let t = Instant::now();
            let solved = solve_zone(
                dc,
                z,
                split.budgets[z],
                self.cfg.psi_percent,
                &self.cfg.objective,
                None,
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            self.zone_ms.push(ms);
            serial_ms += ms;
            reward += solved.map_or(f64::NAN, |(plan, _)| plan.reward);
        }
        self.serial_ms.push(serial_ms);
        reward
    }
}

impl Workload for FleetReplan {
    type Size = Size;

    fn det_ops(size: &Size) -> usize {
        size.det_ops
    }

    fn setup(seed: u64, size: &Size, input: usize) -> FleetReplan {
        // At most two workers: the load comes from one process and the
        // box this is calibrated on has two cores. No deadline, no
        // hedging, so no attempt is ever abandoned or duplicated.
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let cfg = FleetConfig {
            pool: PoolConfig {
                threads,
                deadline: None,
                hedge_after: None,
                ..PoolConfig::default()
            },
            ..FleetConfig::default()
        };
        let (fleet, solver, build_ms) = build(seed, size, input, &cfg);
        FleetReplan {
            seed,
            size: *size,
            cfg,
            threads,
            input,
            fleet,
            solver,
            build_ms: vec![build_ms],
            oracle_asked: false,
            split_ms: Vec::new(),
            zone_ms: Vec::new(),
            serial_ms: Vec::new(),
        }
    }

    fn op(&mut self, input: usize, clock: &mut Clock) -> OpResult {
        if self.input != input {
            let (fleet, solver, build_ms) = build(self.seed, &self.size, input, &self.cfg);
            (self.fleet, self.solver, self.input) = (fleet, solver, input);
            self.build_ms.push(build_ms);
        }
        let (plan, op) = clock.time(|| self.solver.replan(None));

        // The sequential oracle costs 2.5 replans, so it is asked once, on
        // the warm-up fleet; traced operations solve every zone in turn
        // anyway and compare against that.
        let mut failed = plan.verify(&self.fleet).is_err() || plan.degraded != 0;
        if clock.recorder().is_some() {
            failed |= !agree(plan.reward, self.time_serial_work());
        } else if !std::mem::replace(&mut self.oracle_asked, true) {
            let oracle = solve_monolithic(&self.fleet, self.cfg.psi_percent, &self.cfg.objective);
            failed |= !oracle.is_ok_and(|mono| agree(plan.reward, mono.reward));
        }
        OpResult {
            op,
            work: self.fleet.n_nodes() as f64,
            failed,
            reward: plan.reward,
            offered: self
                .fleet
                .zones
                .iter()
                .map(|dc| dc.workload.max_reward_rate())
                .sum(),
            ..OpResult::default()
        }
    }

    fn layers(&self, trace: &TraceData) -> Vec<(&'static str, f64)> {
        let serial_ms = mean(&self.serial_ms);
        let replan_ms = trace.span_ms_per_op("shard.replan");
        let mut m = lp_layer(trace);
        m.extend([
            // Stage-1 spans of all workers, summed: serial, not wall, time.
            ("core.stage1.ms", trace.span_ms_per_op("stage1")),
            (
                "datacenter.crac_search.candidates",
                trace.counter_per_op("crac.candidates"),
            ),
            (
                "datacenter.crac_search.pruned",
                trace.counter_per_op("crac.pruned"),
            ),
            ("shard.fleet.build_ms", mean(&self.build_ms)),
            ("shard.master.split_ms", median(&self.split_ms)),
            (
                "shard.master.bisection_iters",
                trace.counter_per_op("shard.bisection_iters"),
            ),
            ("shard.solver.zone_solve_ms", median(&self.zone_ms)),
            ("shard.solver.serial_work_ms", serial_ms),
            ("shard.pool.threads", self.threads as f64),
            (
                "shard.pool.parallel_eff",
                serial_ms / (self.threads as f64 * replan_ms),
            ),
            (
                "shard.solver.zone_retries",
                trace.counter_per_op("shard.zone_retries"),
            ),
            (
                "shard.solver.degraded_zones",
                trace.counter_per_op("shard.degraded_zones"),
            ),
        ]);
        m
    }
}
