//! LP warm-start benchmark: pivot counts with and without basis reuse on
//! the Figure-6 scenario, snapshotted to `results/BENCH_lp.json`.
//!
//! Two measurements, matching the two call sites that dominate LP work:
//!
//! 1. **Stage-1 CRAC grid sweep** — the coarse-to-fine outlet search
//!    solves one LP per grid point. Warm: each point resumes from the
//!    previous point's optimal basis. Cold: `Stage1Options.warm_start`
//!    off, every point solved from scratch.
//! 2. **Stage-3 replans** — a deterministic fault ladder (node deaths
//!    interleaved with throttle steps, the floor's rungs) re-solves
//!    the rate LP after each event. Warm: each replan inherits the
//!    pre-fault basis via [`solve_stage3_warm`]. Cold: fresh solves.
//!
//! All recorded metrics are scale-free (pivot counts, solve counts, hit
//! rates) and the solver is deterministic pure-f64 arithmetic, so the
//! snapshot is stable across machines and CI can gate on it. The
//! drift gate itself lives in `thermaware-analyze bench` — this experiment
//! only measures and writes the fresh snapshot:
//!
//! ```sh
//! cargo run --release -p thermaware-bench -- lp_bench     # write results/current/BENCH_lp.json
//! cargo run -p thermaware-analyze -- bench --check          # gate vs committed baselines
//! cargo run -p thermaware-analyze -- bench --bless          # promote current -> baseline
//! ```

use std::sync::Arc;
use super::{ctx, set3, write_json};
use thermaware_core::stage1::{solve_stage1, Stage1Options};
use thermaware_core::stage3::{solve_stage3, solve_stage3_warm};
use thermaware_core::Solver;
use thermaware_datacenter::{Args, ScenarioParams};
use thermaware_obs::MemoryRecorder;

pub(super) const USAGE: &str = "lp_bench [--nodes N] [--cracs N] [--seed S] [--faults N] [--out PATH]";

/// The acceptance floor: warm starts must cut total pivots by at least
/// this factor on the Figure-6 scenario. This is an absolute property
/// of the algorithm, so it stays here; relative drift vs the committed
/// baseline is judged by `thermaware-analyze bench --check`.
const MIN_SPEEDUP: f64 = 5.0;

/// Counter values of one measured phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    pivots: u64,
    solves: u64,
    warm_starts: u64,
    dual_reentries: u64,
    refactorizations: u64,
    infeasible: u64,
}

impl Counts {
    fn from_recorder(rec: &MemoryRecorder) -> Counts {
        let snap = rec.snapshot();
        let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        Counts {
            pivots: get("lp.pivots"),
            solves: get("lp.solves"),
            warm_starts: get("lp.warm_starts"),
            dual_reentries: get("lp.dual_reentries"),
            refactorizations: get("lp.refactorizations"),
            infeasible: get("lp.infeasible"),
        }
    }
}

/// Where the recorded solves' time went: the revised engine's per-solve
/// phase timers (`lp.phase.*_us`) against `lp.solve_us`. Wall-clock, so
/// printed only — nothing here lands in the snapshot.
fn print_phase_split(label: &str, rec: &MemoryRecorder) {
    let snap = rec.snapshot();
    let sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum);
    let total = sum("lp.solve_us");
    let pivots = snap.counter("lp.pivots").max(1);
    println!(
        "{label}: {:.1} ms in the LP, {:.1} us / pivot; of which",
        total / 1e3,
        total / pivots as f64
    );
    let mut rest = total;
    for phase in ["factorize", "ftran", "btran", "pivot_row", "pricing", "compute_xb"] {
        let us = sum(&format!("lp.phase.{phase}_us"));
        rest -= us;
        println!("  {phase:<12} {:>9.1} ms  {:>5.1} %", us / 1e3, 100.0 * us / total.max(1e-9));
    }
    println!("  {:<12} {:>9.1} ms  {:>5.1} %", "other", rest / 1e3, 100.0 * rest / total.max(1e-9));
}

fn pair_json(label: &str, cold: Counts, warm: Counts) -> serde_json::Value {
    let speedup = cold.pivots as f64 / (warm.pivots as f64).max(1.0);
    let hit_rate = warm.warm_starts as f64 / (warm.solves as f64).max(1.0);
    println!(
        "{label}: cold {} pivots / {} solves, warm {} pivots / {} solves \
         ({:.1}x fewer pivots, {:.0}% warm-start hits, {} dual re-entries, {} infeasible)",
        cold.pivots,
        cold.solves,
        warm.pivots,
        warm.solves,
        speedup,
        100.0 * hit_rate,
        warm.dual_reentries,
        warm.infeasible,
    );
    serde_json::json!({
        "cold_pivots": cold.pivots as f64,
        "cold_solves": cold.solves as f64,
        "warm_pivots": warm.pivots as f64,
        "warm_solves": warm.solves as f64,
        "warm_starts": warm.warm_starts as f64,
        "dual_reentries": warm.dual_reentries as f64,
        "refactorizations": warm.refactorizations as f64,
        "infeasible": warm.infeasible as f64,
        "pivot_speedup": speedup,
        "warm_hit_rate": hit_rate,
    })
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1);
    let n_faults = args.get_usize("faults", 8);
    let out_path = args.get_str("out", "results/current/BENCH_lp.json");

    // The Figure-6 third simulation set (static 20%, Vprop 0.3), paper
    // scale: 150 nodes, 3 CRAC units.
    let room = ScenarioParams {
        crac_flow_margin: 1.5,
        ..set3(150, 3)
    };
    let dc = args.data_center(room, seed)?;
    let (n_nodes, n_crac) = (dc.n_nodes(), dc.n_crac());
    println!("## LP warm-start benchmark — {n_nodes} nodes, {n_crac} CRACs, seed {seed}");

    // -- Part 1: Stage-1 CRAC outlet sweep ---------------------------------
    let run_sweep = |warm_start: bool| -> Result<(Counts, f64), String> {
        let label = if warm_start { "stage1 sweep, warm" } else { "stage1 sweep, cold" };
        let rec = Arc::new(MemoryRecorder::new());
        let sol = {
            let _guard = thermaware_obs::install(rec.clone());
            let options = Stage1Options {
                warm_start,
                ..Stage1Options::default()
            };
            ctx(solve_stage1(&dc, &options), label)?
        };
        print_phase_split(label, &rec);
        Ok((Counts::from_recorder(&rec), sol.objective))
    };
    let (sweep_cold, obj_cold) = run_sweep(false)?;
    let (sweep_warm, obj_warm) = run_sweep(true)?;
    assert!(
        (obj_warm - obj_cold).abs() <= 1e-9 * (1.0 + obj_cold.abs()),
        "warm sweep changed the Stage-1 objective: {obj_warm} vs {obj_cold}"
    );

    // -- Part 2: Stage-3 replans under a fault ladder ----------------------
    // One plan, then a deterministic ladder of world changes: odd events
    // kill a node (its cores drop to the off state — capacity leaves the
    // LP), even events throttle a block of nodes one P-state deeper (group
    // counts shift). Both chains replay the identical P-state sequence.
    let plan = ctx(Solver::new(&dc).solve(), "three-stage plan")?;
    let mut ps = plan.pstates.clone();
    let mut snapshots: Vec<Vec<usize>> = Vec::with_capacity(n_faults);
    for event in 0..n_faults {
        if event % 2 == 0 {
            // Kill nodes in increasing index order so surviving groups
            // keep their discovery order.
            let node = (event / 2) * (dc.n_nodes() / (n_faults / 2 + 1)).max(1);
            let off = dc.node_type(node).core.pstates.off_index();
            for k in dc.cores_of_node(node) {
                ps[k] = off;
            }
        } else {
            let lo = (event * dc.n_nodes() / n_faults).min(dc.n_nodes() - 1);
            let hi = ((event + 2) * dc.n_nodes() / n_faults).min(dc.n_nodes());
            for node in lo..hi {
                let off = dc.node_type(node).core.pstates.off_index();
                for k in dc.cores_of_node(node) {
                    if ps[k] < off {
                        ps[k] = (ps[k] + 1).min(off - 1);
                    }
                }
            }
        }
        snapshots.push(ps.clone());
    }

    let rec_cold = Arc::new(MemoryRecorder::new());
    let rewards_cold: Vec<f64> = {
        let _guard = thermaware_obs::install(rec_cold.clone());
        let replans = snapshots.iter().map(|ps| solve_stage3(&dc, ps).map(|s3| s3.reward_rate));
        ctx(replans.collect(), "cold replan")?
    };
    let replan_cold = Counts::from_recorder(&rec_cold);

    let rec_warm = Arc::new(MemoryRecorder::new());
    let rewards_warm: Vec<f64> = {
        let _guard = thermaware_obs::install(rec_warm.clone());
        let mut basis = plan.stage3_basis.clone();
        let replans = snapshots.iter().map(|ps| {
            let (s3, next) = solve_stage3_warm(&dc, ps, basis.as_ref())?;
            basis = next;
            Ok::<_, thermaware_core::SolveError>(s3.reward_rate)
        });
        ctx(replans.collect(), "warm replan")?
    };
    let replan_warm = Counts::from_recorder(&rec_warm);

    for (k, (w, c)) in rewards_warm.iter().zip(&rewards_cold).enumerate() {
        assert!(
            (w - c).abs() <= 1e-9 * (1.0 + c.abs()),
            "warm replan {k} changed the reward rate: {w} vs {c}"
        );
    }

    // -- Snapshot, bless, or check -----------------------------------------
    let sweep = pair_json("stage1 sweep ", sweep_cold, sweep_warm);
    let replan = pair_json("stage3 replan", replan_cold, replan_warm);
    let total_cold = sweep_cold.pivots + replan_cold.pivots;
    let total_warm = sweep_warm.pivots + replan_warm.pivots;
    let total_speedup = total_cold as f64 / (total_warm as f64).max(1.0);
    println!(
        "total: {total_cold} cold pivots vs {total_warm} warm pivots ({total_speedup:.1}x, floor {MIN_SPEEDUP}x)"
    );
    let doc = serde_json::json!({
        "experiment": "lp",
        "config": {
            "n_nodes": n_nodes,
            "n_crac": n_crac,
            "seed": seed,
            "faults": n_faults,
        },
        "stage1_sweep": sweep,
        "stage3_replans": replan,
        "total": {
            "cold_pivots": total_cold as f64,
            "warm_pivots": total_warm as f64,
            "pivot_speedup": total_speedup,
        },
    });

    if total_speedup < MIN_SPEEDUP {
        return Err(format!(
            "FAIL: warm starts cut pivots only {total_speedup:.2}x (acceptance floor {MIN_SPEEDUP}x)"
        ));
    }

    write_json(&out_path, &doc)?;
    println!("snapshot written to {out_path}");
    Ok(())
}
