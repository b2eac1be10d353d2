//! The Eq.-8 CoP curve of the HP Utility Data Center, tabulated over the
//! searchable outlet range — the nonlinearity that makes Eq. 7 an MINLP.

use thermaware_datacenter::Args;
use thermaware_thermal::cop::cop;

pub(super) const USAGE: &str = "cop_curve   (takes no flags)";

pub(super) fn run(_args: &Args) -> Result<(), String> {
    println!("# CoP(tau) = 0.0068 tau^2 + 0.0008 tau + 0.458   (Eq. 8)\n");
    println!("{:<10} {:<10} {:<14}", "tau_C", "CoP", "kW_per_kW_heat");
    for t in 0..=40 {
        let tau = t as f64;
        let c = cop(tau);
        println!("{:<10.1} {:<10.4} {:<14.4}", tau, c, 1.0 / c);
    }
    println!("\n# Warmer supply air is cheaper to produce; the Stage-1 outlet search");
    println!("# trades this against redline headroom at the node inlets.");
    Ok(())
}
