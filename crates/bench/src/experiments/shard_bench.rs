//! Sharded fleet-solve benchmark: decomposition overhead, fault-drill
//! determinism, and pooled speedup on a 10k-node fleet, snapshotted to
//! `results/BENCH_shard.json`.
//!
//! Three measurements:
//!
//! 1. **Agreement** — the pooled sharded replan must match the
//!    sequential monolithic oracle's total reward (the decomposition is
//!    an accelerator, never an answer-changer).
//! 2. **Deterministic fault drill** — a seeded [`ChaosScript`] over a
//!    few epochs with no deadlines: every counter (zone solves, panics,
//!    retries, degraded zones, recovery epochs, bisection iterations)
//!    is a pure function of the script, so the snapshot is stable
//!    across machines and `thermaware-analyze bench --check` gates it
//!    at ±15% drift against the committed baseline.
//! 3. **Speedup** — ratio of minimum wall times, monolithic over
//!    pooled. Wall time is machine-dependent, so this is *not*
//!    drift-gated; instead it has a machine-relative acceptance floor of
//!    `0.7 × min(threads_used, capacity)`, where `threads_used =
//!    min(cores, 8)` and `capacity` is how much `threads_used` threads of
//!    a fixed spin kernel out-run one (ratio of minimums) — i.e. ≥ 0.7×
//!    the scaling the box gives right now, on up to eight cores. The
//!    monolithic solve, the pooled one and the spin kernel take turns
//!    repetition by repetition, so outside load meets all three alike: a
//!    quiet box reads a capacity of ~`threads_used` and keeps the floor
//!    at `0.7 × threads_used`, and a loaded one lowers it by what the
//!    load takes from every thread.
//!
//! ```sh
//! cargo run --release -p thermaware-bench -- shard_bench    # write results/current/BENCH_shard.json
//! cargo run -p thermaware-analyze -- bench --check           # gate vs committed baselines
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{ctx, write_json};
use thermaware_core::ObjectiveWeights;
use thermaware_datacenter::Args;
use thermaware_obs::MemoryRecorder;
use thermaware_shard::chaos::ChaosScript;
use thermaware_shard::fleet::{Fleet, FleetParams};
use thermaware_shard::pool::PoolConfig;
use thermaware_shard::solver::{solve_monolithic, FleetConfig, FleetSolver};

pub(super) const USAGE: &str = "shard_bench [--zones N] [--nodes N] [--seed S] [--chaos-epochs N] \
                     [--reps N] [--out PATH]";

/// Machine-relative speedup floor: the pooled solve must reach this
/// fraction of the scaling the spin kernel reaches over `threads_used`
/// cores. An absolute property, so it stays here; relative drift of the
/// deterministic counters is judged by `thermaware-analyze bench --check`.
const LINEAR_FRACTION: f64 = 0.7;

/// Rounds of the spin kernel per capacity measurement: tens of
/// milliseconds of one core, so that starting a thread is noise beside it.
const SPIN_ROUNDS: u64 = 40_000_000;

/// `rounds` dependent xorshift steps: work that touches no memory, so
/// threads running it share nothing but the cores.
fn spin(rounds: u64) -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Wall time of [`SPIN_ROUNDS`] spin rounds split across `threads`.
fn spin_split(threads: usize) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| spin(SPIN_ROUNDS / threads as u64));
        }
    });
    t0.elapsed()
}

fn cfg(threads: usize) -> FleetConfig {
    FleetConfig {
        pool: PoolConfig {
            threads,
            deadline: None,
            retries: 1,
            backoff: Duration::from_millis(1),
            hedge_after: None,
        },
        ..FleetConfig::default()
    }
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    let n_zones = args.get_usize("zones", 66);
    let nodes_per_zone = args.get_usize("nodes", 152);
    let seed = args.get_u64("seed", 1);
    let chaos_epochs = args.get_usize("chaos-epochs", 3) as u64;
    let reps = args.get_usize("reps", 3).max(1);
    let out_path = args.get_str("out", "results/current/BENCH_shard.json");

    let threads_used = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);

    let fleet = Arc::new(ctx(
        Fleet::build(&FleetParams::small(n_zones, nodes_per_zone, seed), 50.0),
        "fleet",
    )?);
    println!(
        "## shard bench — {n_zones} zones x {nodes_per_zone} nodes = {} nodes, \
         seed {seed}, {threads_used} threads",
        fleet.n_nodes()
    );

    // -- Part 1: agreement + speedup (ratio of minimums) -------------------
    // One repetition of each side and of the capacity probe in turn.
    let mut mono_best = Duration::MAX;
    let mut mono_reward = 0.0;
    let mut pooled_best = Duration::MAX;
    let mut pooled_reward = 0.0;
    let mut pooled_degraded = usize::MAX;
    let mut bisection_iters = 0u32;
    let (mut one_spin_best, mut split_spin_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mono = ctx(
            solve_monolithic(&fleet, 50.0, &ObjectiveWeights::reward_only()),
            "monolithic solve",
        )?;
        mono_best = mono_best.min(t0.elapsed());
        mono_reward = mono.reward;

        one_spin_best = one_spin_best.min(spin_split(1));
        split_spin_best = split_spin_best.min(spin_split(threads_used));

        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg(threads_used));
        let t0 = Instant::now();
        let plan = solver.replan(None);
        pooled_best = pooled_best.min(t0.elapsed());
        pooled_reward = plan.reward;
        pooled_degraded = plan.degraded;
        bisection_iters = plan.bisection_iters;
    }
    let rel_gap = (pooled_reward - mono_reward).abs() / (1.0 + mono_reward.abs());
    assert!(
        rel_gap <= 1e-9,
        "pooled reward {pooled_reward} disagrees with monolithic {mono_reward}"
    );
    assert_eq!(pooled_degraded, 0, "healthy fleet must not degrade");
    let speedup = mono_best.as_secs_f64() / pooled_best.as_secs_f64().max(1e-9);
    let capacity = one_spin_best.as_secs_f64() / split_spin_best.as_secs_f64().max(1e-9);
    let floor = LINEAR_FRACTION * capacity.min(threads_used as f64);
    println!(
        "speedup: mono {:.3}s vs pooled {:.3}s = {speedup:.2}x \
         (floor {floor:.2}x = {LINEAR_FRACTION} x min({threads_used} threads, capacity {capacity:.2}x))",
        mono_best.as_secs_f64(),
        pooled_best.as_secs_f64(),
    );

    // -- Part 2: deterministic fault drill ---------------------------------
    // Seeded chaos for `chaos_epochs` epochs, then clean replans until the
    // fleet reconverges. With no deadlines every counter below is a pure
    // function of (seed, script), independent of machine speed.
    let rec = Arc::new(MemoryRecorder::new());
    let (drill_degraded, recovery_epochs) = {
        let _guard = thermaware_obs::install(rec.clone());
        let script = ChaosScript::seeded(seed, chaos_epochs, n_zones, 2, 0.3, 1);
        let mut solver = FleetSolver::new(Arc::clone(&fleet), cfg(threads_used));
        let mut total_degraded = 0usize;
        for _ in 0..chaos_epochs {
            let plan = solver.replan(Some(&script));
            plan.verify(&fleet).expect("invariants under chaos");
            total_degraded += plan.degraded;
        }
        let mut recovery = 0usize;
        loop {
            recovery += 1;
            let plan = solver.replan(None);
            plan.verify(&fleet).expect("invariants during recovery");
            if plan.degraded == 0 {
                break;
            }
            assert!(recovery < 16, "fleet failed to reconverge");
        }
        (total_degraded, recovery)
    };
    let snap = rec.snapshot();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    println!(
        "drill: {} zone solves, {} panics, {} retries, {} degraded zone-epochs, \
         recovered in {recovery_epochs} epoch(s)",
        counter("shard.zone_solves"),
        counter("shard.zone_panics"),
        counter("shard.zone_retries"),
        drill_degraded,
    );

    // -- Snapshot, bless, or check -----------------------------------------
    let doc = serde_json::json!({
        "experiment": "shard",
        "config": {
            "zones": n_zones,
            "nodes_per_zone": nodes_per_zone,
            "total_nodes": fleet.n_nodes(),
            "seed": seed,
            "chaos_epochs": chaos_epochs,
        },
        // Scale-free and machine-independent: drift-gated at ±15%.
        "deterministic": {
            "zone_solves": counter("shard.zone_solves") as f64,
            "zone_panics": counter("shard.zone_panics") as f64,
            "zone_retries": counter("shard.zone_retries") as f64,
            "degraded_zone_epochs": drill_degraded as f64,
            "recovery_epochs": recovery_epochs as f64,
            "bisection_iters": f64::from(bisection_iters),
            "agreement_rel_gap": rel_gap,
        },
        // Machine-dependent: floor-checked, never drift-gated.
        "speedup": {
            "threads_used": threads_used as f64,
            "mono_s": mono_best.as_secs_f64(),
            "pooled_s": pooled_best.as_secs_f64(),
            "ratio_of_minimums": speedup,
            "capacity": capacity,
            "linear_floor": floor,
        },
    });

    if speedup < floor {
        return Err(format!(
            "FAIL: pooled speedup {speedup:.2}x below the {floor:.2}x floor \
             ({LINEAR_FRACTION} x min({threads_used} threads, capacity {capacity:.2}x))"
        ));
    }

    write_json(&out_path, &doc)?;
    println!("snapshot written to {out_path}");
    Ok(())
}
