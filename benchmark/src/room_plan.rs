//! `room_plan`: the paper's first step at Fig. 6 scale.
//!
//! One operation is `Solver::new(&dc).solve()` on a 150-node, 3-CRAC
//! room: a warm-chained sweep of ~190 Stage-1 LPs over the CRAC outlet
//! grid, Stage-2 rounding, and one Stage-3 LP. `lp`, `core` and
//! `datacenter` do all the work; `scheduler`, `service` and `shard` none.
//!
//! Plan time differs by ±25 % from room to room, so every operation plans
//! a room of its own, drawn from the seed, not one room again and again:
//! the median over twenty rooms moves far less between seeds than any one
//! room does.

use crate::harness::{Clock, OpResult, TraceData, Workload};
use crate::stats::{mean, sub_seed};
use std::time::Instant;
use thermaware::core::stage1::{solve_stage1, Stage1Options};
use thermaware::core::stage2::assign_pstates;
use thermaware::core::stage3::solve_stage3_warm;
use thermaware::core::{ArrCurve, ThreeStageOptions};
use thermaware::obs::{self, MemoryRecorder, MetricsSnapshot};
use thermaware::prelude::*;

#[derive(Clone, Copy)]
pub struct Size {
    pub nodes: usize,
    pub cracs: usize,
    pub det_ops: usize,
}

pub const FULL: Size = Size {
    nodes: 150,
    cracs: 3,
    det_ops: 12,
};

/// The Fig. 6 scenario (static share 0.2, V_prop 0.3) with the CRAC flow
/// margin the repo's own 150-node benches use.
pub fn room(nodes: usize, cracs: usize, seed: u64) -> DataCenter {
    ScenarioParams {
        n_nodes: nodes,
        n_crac: cracs,
        crac_flow_margin: 1.5,
        ..ScenarioParams::paper(0.2, 0.3)
    }
    .build(seed)
    .expect("the paper's scenario parameters build for every seed")
}

/// Room number `input` of a run, and how long it took to build, ms.
fn build_room(seed: u64, size: &Size, input: usize) -> (DataCenter, f64) {
    let t = Instant::now();
    let dc = room(size.nodes, size.cracs, sub_seed(seed, input as u64));
    (dc, t.elapsed().as_secs_f64() * 1e3)
}

/// LP work between two recorder snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpWork {
    pub solves: u64,
    pub pivots: u64,
    pub infeasible: u64,
    pub busy_us: f64,
}

impl LpWork {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> LpWork {
        let busy = |s: &MetricsSnapshot| s.histogram("lp.solve_us").map_or(0.0, |h| h.sum);
        LpWork {
            solves: after.counter("lp.solves") - before.counter("lp.solves"),
            pivots: after.counter("lp.pivots") - before.counter("lp.pivots"),
            infeasible: after.counter("lp.infeasible") - before.counter("lp.infeasible"),
            busy_us: busy(after) - busy(before),
        }
    }

    fn add(&mut self, other: LpWork) {
        self.solves += other.solves;
        self.pivots += other.pivots;
        self.infeasible += other.infeasible;
        self.busy_us += other.busy_us;
    }
}

pub struct RoomPlan {
    seed: u64,
    size: Size,
    /// The operation number `room` was built for.
    input: usize,
    room: DataCenter,
    build_ms: Vec<f64>,
    /// The plan the first half of a traced pair made of its input; the
    /// other half must reproduce it bit for bit.
    twin: Option<(usize, ThreeStageSolution)>,
    /// LP work inside the `core.stage1` spans of all traced operations.
    pub stage1_lp: LpWork,
    total_power_us: Vec<f64>,
    coefficients_us: Vec<f64>,
}

/// Outputs a plan must satisfy whoever produced it: the exact power and
/// thermal models accept it, and Stage-2 rounding never put a node above
/// the power Stage 1 gave it.
fn plan_is_sound(dc: &DataCenter, plan: &ThreeStageSolution) -> bool {
    let report = verify_assignment(dc, plan.crac_out_c(), &plan.pstates, Some(&plan.stage3));
    let rounding_ok = (0..dc.n_nodes()).all(|node| {
        let table = &dc.node_type(node).core.pstates;
        let used: f64 = dc
            .cores_of_node(node)
            .map(|k| table.power_kw(plan.pstates[k]))
            .sum();
        used <= plan.stage1.node_core_power_kw[node] + 1e-9
    });
    report.is_feasible() && rounding_ok
}

/// `Solver::solve` taken apart into the public calls it is made of, each
/// under a harness span. Also returns the LP work inside `core.stage1`.
fn solve_in_stages(
    dc: &DataCenter,
    rec: &MemoryRecorder,
) -> Result<(ThreeStageSolution, LpWork), SolveError> {
    let options = ThreeStageOptions::default();
    {
        // Stage 1 builds these itself; built once more here so the hull
        // construction has a time of its own.
        let _s = obs::span("core.arr.build");
        for (j, node_type) in dc.node_types.iter().enumerate() {
            std::hint::black_box(ArrCurve::build(
                &dc.workload,
                &node_type.core.pstates,
                j,
                options.psi_percent,
            ));
        }
    }
    let before = rec.snapshot();
    let stage1 = {
        let _s = obs::span("core.stage1");
        solve_stage1(dc, &Stage1Options::default())?
    };
    let stage1_lp = LpWork::between(&before, &rec.snapshot());
    let pstates = {
        let _s = obs::span("core.stage2");
        assign_pstates(dc, &stage1)
    };
    let (stage3, stage3_basis) = {
        let _s = obs::span("core.stage3");
        solve_stage3_warm(dc, &pstates, None)?
    };
    {
        let _s = obs::span("core.verify");
        std::hint::black_box(verify_assignment(
            dc,
            &stage1.crac_out_c,
            &pstates,
            Some(&stage3),
        ));
    }
    let plan = ThreeStageSolution {
        psi_percent: options.psi_percent,
        stage1,
        pstates,
        stage3,
        stage3_basis,
    };
    Ok((plan, stage1_lp))
}

/// Per-call time, µs, of the two model evaluations every CRAC candidate
/// pays for (`total_power_kw`, `coefficients`), measured on their own:
/// the sweep is too hot for spans.
fn time_model_calls(dc: &DataCenter, plan: &ThreeStageSolution) -> (f64, f64) {
    const CALLS: u32 = 32;
    let powers = dc.node_powers_from_pstates(&plan.pstates);
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(dc.total_power_kw(plan.crac_out_c(), &powers));
    }
    let total_power_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS);
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(dc.thermal.coefficients(plan.crac_out_c()));
    }
    (
        total_power_us,
        t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS),
    )
}

impl RoomPlan {
    /// The workload pinned to one given room as input 0 (the tests check a
    /// known room against numbers the repo already pins).
    pub fn of_room(room: DataCenter) -> RoomPlan {
        RoomPlan {
            seed: 0,
            size: Size {
                nodes: room.n_nodes(),
                cracs: room.n_crac(),
                det_ops: 1,
            },
            input: 0,
            room,
            build_ms: Vec::new(),
            twin: None,
            stage1_lp: LpWork::default(),
            total_power_us: Vec::new(),
            coefficients_us: Vec::new(),
        }
    }
}

impl Workload for RoomPlan {
    type Size = Size;

    fn det_ops(size: &Size) -> usize {
        size.det_ops
    }

    fn setup(seed: u64, size: &Size, input: usize) -> RoomPlan {
        let (first, build_ms) = build_room(seed, size, input);
        RoomPlan {
            seed,
            size: *size,
            input,
            build_ms: vec![build_ms],
            ..RoomPlan::of_room(first)
        }
    }

    fn op(&mut self, input: usize, clock: &mut Clock) -> OpResult {
        if self.input != input {
            let (room, build_ms) = build_room(self.seed, &self.size, input);
            (self.room, self.input) = (room, input);
            self.build_ms.push(build_ms);
        }
        let dc = &self.room;
        let trace = clock.recorder();
        let (solved, op) = clock.time(|| match &trace {
            None => Solver::new(dc)
                .solve()
                .map(|plan| (plan, LpWork::default())),
            Some(rec) => solve_in_stages(dc, rec),
        });
        let mut result = OpResult {
            op,
            work: dc.n_nodes() as f64,
            offered: dc.workload.max_reward_rate(),
            ..OpResult::default()
        };
        let Ok((plan, stage1_lp)) = solved else {
            result.failed = true;
            return result;
        };
        self.stage1_lp.add(stage1_lp);
        result.reward = plan.reward_rate();
        result.failed = !plan_is_sound(dc, &plan);
        if trace.is_some() {
            let (total_power_us, coefficients_us) = time_model_calls(dc, &plan);
            self.total_power_us.push(total_power_us);
            self.coefficients_us.push(coefficients_us);
        }
        match self.twin.take() {
            Some((i, first)) if i == input => result.failed |= first != plan,
            _ => self.twin = Some((input, plan)),
        }
        result
    }

    fn layers(&self, trace: &TraceData) -> Vec<(&'static str, f64)> {
        let ops = trace.ops as f64;
        let mut m = lp_layer(trace);
        m.extend([
            ("core.arr.build_ms", trace.span_ms_per_op("core.arr.build")),
            ("core.stage1.ms", trace.span_ms_per_op("core.stage1")),
            (
                "core.stage1.self_ms",
                trace.span_ms_per_op("core.stage1") - self.stage1_lp.busy_us / 1e3 / ops,
            ),
            ("core.stage2.ms", trace.span_ms_per_op("core.stage2")),
            ("core.stage3.ms", trace.span_ms_per_op("core.stage3")),
            ("core.verify.ms", trace.span_ms_per_op("core.verify")),
            (
                "datacenter.crac_search.candidates",
                trace.counter_per_op("crac.candidates"),
            ),
            (
                "datacenter.crac_search.pruned",
                trace.counter_per_op("crac.pruned"),
            ),
            ("datacenter.scenario.build_ms", mean(&self.build_ms)),
            ("datacenter.total_power_us", mean(&self.total_power_us)),
            ("thermal.model.coefficients_us", mean(&self.coefficients_us)),
        ]);
        m
    }
}

/// The `lp.*` metrics, per traced operation, from the counters the LP
/// engine emits once per solve.
pub fn lp_layer(trace: &TraceData) -> Vec<(&'static str, f64)> {
    let solves = trace.counter_per_op("lp.solves");
    let pivots = trace.counter_per_op("lp.pivots");
    let (_, busy_us) = trace.hist("lp.solve_us");
    let busy_us = busy_us / trace.ops as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("lp.solves", solves),
        ("lp.pivots", pivots),
        ("lp.busy_ms", busy_us / 1e3),
        ("lp.us_per_solve", per(busy_us, solves)),
        ("lp.us_per_pivot", per(busy_us, pivots)),
        (
            "lp.infeasible_frac",
            per(trace.counter_per_op("lp.infeasible"), solves),
        ),
        (
            "lp.warm_hit_frac",
            per(trace.counter_per_op("lp.warm_starts"), solves),
        ),
        (
            "lp.refactorizations",
            trace.counter_per_op("lp.refactorizations"),
        ),
        (
            "lp.dense_fallbacks",
            trace.counter_per_op("lp.dense_fallbacks"),
        ),
    ]
}
