//! Table II — EC/RC ranges per node label, and the achieved coefficients
//! of a generated cross-interference instance checked against them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use super::ctx;
use thermaware_datacenter::Args;
use thermaware_thermal::{interference, Label, Layout};

pub(super) const USAGE: &str = "table2 [--nodes N] [--cracs N] [--seed S]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let n_nodes = args.get_usize("nodes", 150);
    let n_crac = args.get_usize("cracs", 3);
    let seed = args.get_u64("seed", 1);

    println!("# Table II — EC and RC ranges per compute-node label\n");
    println!("{:<8} {:>14} {:>14}", "label", "EC range", "RC range");
    for label in Label::ALL {
        let (e0, e1) = label.ec_range();
        let (r0, r1) = label.rc_range();
        println!(
            "{:<8} {:>14} {:>14}",
            format!("{label:?}"),
            format!("{:.0}%-{:.0}%", e0 * 100.0, e1 * 100.0),
            format!("{:.0}%-{:.0}%", r0 * 100.0, r1 * 100.0)
        );
    }

    println!(
        "\n# Achieved coefficients of a generated instance ({n_nodes} nodes, {n_crac} CRACs, seed {seed}):"
    );
    let layout = Layout::hot_cold_aisle(n_crac, n_nodes);
    let flows = interference::uniform_flows(&layout, 0.07, None);
    let mut rng = StdRng::seed_from_u64(seed);
    let ci = ctx(interference::generate_ipf(&layout, &flows, &mut rng), "generation")?;
    println!(
        "{:<8} {:>20} {:>20} {:>8}",
        "label", "achieved EC range", "achieved RC range", "nodes"
    );
    for label in Label::ALL {
        let members: Vec<usize> = (0..n_nodes)
            .filter(|&i| layout.nodes[i].label == label)
            .collect();
        if members.is_empty() {
            continue;
        }
        let ecs: Vec<f64> = members.iter().map(|&i| ci.exit_coefficient(i)).collect();
        let rcs: Vec<f64> = members
            .iter()
            .map(|&i| ci.recirculation_coefficient(i, &flows))
            .collect();
        let span = |v: &[f64]| {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            format!("{:6.1}%-{:<6.1}%", lo * 100.0, hi * 100.0)
        };
        println!(
            "{:<8} {:>20} {:>20} {:>8}",
            format!("{label:?}"),
            span(&ecs),
            span(&rcs),
            members.len()
        );
    }
    match ci.validate(&layout, &flows) {
        Ok(()) => println!("\nall Appendix-B constraints satisfied"),
        Err(e) => println!("\nVALIDATION FAILED: {e}"),
    }
    Ok(())
}
