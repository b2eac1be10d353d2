//! Table I — parameters of the two node types, plus the per-P-state core
//! powers the Appendix-A CMOS model derives from them at the paper's two
//! static-power shares.

use thermaware_datacenter::Args;
use thermaware_power::NodeType;

pub(super) const USAGE: &str = "table1 [--share F]   (extra static share to tabulate, default both paper values)";

fn print_table(share: f64) {
    let types = NodeType::paper_node_types(share);
    println!("## Static power share {:.0}% of P-state-0 core power", share * 100.0);
    println!(
        "{:<34} {:>14} {:>14}",
        "parameter", &types[0].name[..14.min(types[0].name.len())], "NEC Express580"
    );
    let row = |name: &str, f: &dyn Fn(&NodeType) -> String| {
        println!("{:<34} {:>14} {:>14}", name, f(&types[0]), f(&types[1]));
    };
    row("base power (kW)", &|t| format!("{:.3}", t.base_power_kw));
    row("number of cores", &|t| t.cores_per_node.to_string());
    row("number of P-states (active)", &|t| {
        t.core.pstates.n_active().to_string()
    });
    row("P-state 0 power (kW)", &|t| {
        format!("{:.5}", t.core.pstates.power_kw(0))
    });
    row("air flow rate (m^3/s)", &|t| format!("{:.4}", t.air_flow_m3s));
    for k in 0..4 {
        row(&format!("P{k} clock (MHz)"), &|t| {
            format!("{:.0}", t.core.pstates.freq_mhz(k))
        });
    }
    println!("derived per-P-state core power (kW), Eq. 23:");
    for k in 0..4 {
        row(&format!("  pi(j, {k})"), &|t| {
            format!("{:.5}", t.core.pstates.power_kw(k))
        });
    }
    println!(
        "{:<34} {:>14} {:>14}",
        "  pi(j, off)", "0.00000", "0.00000"
    );
    // The perf/W ladder that decides whether intermediate P-states win.
    println!("clock-per-watt relative to P0 (the paper's key ratio):");
    for k in 0..4 {
        row(&format!("  (f_k/pi_k)/(f_0/pi_0), k={k}"), &|t| {
            let p = &t.core.pstates;
            let r0 = p.freq_mhz(0) / p.power_kw(0);
            format!("{:.3}", (p.freq_mhz(k) / p.power_kw(k)) / r0)
        });
    }
    println!();
}

pub(super) fn run(args: &Args) -> Result<(), String> {
    println!("# Table I — parameters of the two node types used in simulations\n");
    let share = args.get_f64("share", f64::NAN);
    if share.is_nan() {
        print_table(0.30);
        print_table(0.20);
    } else {
        print_table(share);
    }
    Ok(())
}
