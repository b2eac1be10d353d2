//! Figures 3, 4, and 5 — the worked RR/ARR example of Section V.B.2.
//!
//! * Fig. 3: `RR_{i,j}` for a 4-P-state core (powers 0.15/0.10/0.05/0 kW,
//!   speeds 1.2/0.9/0.5/0, reward 1) with no deadline pressure.
//! * Fig. 4: the same with `m_i = 1.5`, which makes P-state 2 unable to
//!   meet any deadline — its reward rate collapses to 0.
//! * Fig. 5: the aggregate curve with the "bad" P-state ignored (the
//!   upper concave envelope).
//!
//! Each curve is printed as `power_kW  reward_rate` breakpoint rows plus
//! a dense sample so it can be piped straight into a plotting tool.

use thermaware_datacenter::Args;
use thermaware_core::{reward_rate_curve, ArrCurve, PiecewiseLinear};
use thermaware_power::PStateTable;
use thermaware_workload::{EcsMatrix, TaskType, Workload};

fn example(deadline_slack: f64) -> (Workload, PStateTable) {
    let ecs = EcsMatrix::from_blocks(vec![vec![vec![1.2, 0.9, 0.5, 0.0]]]);
    let workload = Workload {
        task_types: vec![TaskType {
            index: 0,
            arrival_rate: 1.0,
            reward: 1.0,
            deadline_slack,
        }],
        ecs,
    };
    let pstates = PStateTable::new(
        vec![0.15, 0.10, 0.05],
        vec![2500.0, 2000.0, 1500.0],
        vec![1.3, 1.2, 1.1],
    );
    (workload, pstates)
}

fn print_curve(title: &str, curve: &PiecewiseLinear) {
    println!("## {title}");
    println!("{:<12} {:<12}", "power_kW", "reward_rate");
    for &(x, y) in curve.points() {
        println!("{x:<12.4} {y:<12.4}");
    }
    print!("samples:");
    let xmax = curve.x_max();
    for s in 0..=20 {
        let x = xmax * s as f64 / 20.0;
        print!(" {:.3}", curve.eval(x));
    }
    println!("\n");
}

pub(super) const USAGE: &str = "fig3_4_5   (takes no flags)";

pub(super) fn run(_args: &Args) -> Result<(), String> {
    println!("# Figures 3-5 — reward-rate curves of the Section-V.B.2 example\n");

    let (w3, p3) = example(100.0);
    let fig3 = reward_rate_curve(&w3, &p3, 0, 0);
    print_curve(
        "Figure 3: RR with all P-states deadline-feasible (expect (0,0) (0.05,0.5) (0.10,0.9) (0.15,1.2))",
        &fig3,
    );

    let (w4, p4) = example(1.5);
    let fig4 = reward_rate_curve(&w4, &p4, 0, 0);
    print_curve(
        "Figure 4: RR with m = 1.5 (P-state 2 misses every deadline; expect (0.05, 0))",
        &fig4,
    );

    let arr = ArrCurve::build(&w4, &p4, 0, 100.0);
    print_curve(
        "Figure 5: ARR with the bad P-state ignored (concave envelope; expect (0,0) (0.10,0.9) (0.15,1.2))",
        &arr.curve,
    );
    println!(
        "raw (pre-envelope) aggregate kept {} breakpoints; envelope kept {}",
        arr.raw.points().len(),
        arr.curve.points().len()
    );
    Ok(())
}
