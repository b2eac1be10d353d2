//! Figure 1 — the hot-aisle/cold-aisle floor plan, rendered as ASCII,
//! with the label distribution of each rack column.

use thermaware_datacenter::Args;
use thermaware_thermal::Layout;

pub(super) const USAGE: &str = "layout [--nodes N] [--cracs N]";

pub(super) fn run(args: &Args) -> Result<(), String> {
    let n_nodes = args.get_usize("nodes", 150);
    let n_crac = args.get_usize("cracs", 3);
    let layout = Layout::hot_cold_aisle(n_crac, n_nodes);

    println!("# Figure 1 — hot-aisle/cold-aisle layout: {n_nodes} nodes, {n_crac} CRACs\n");
    // CRAC wall.
    print!("   ");
    for c in 0..n_crac {
        print!("[ CRAC{c} ]  ");
    }
    println!("\n");
    // Columns with aisle markings: cold | col col | hot | col col | cold...
    print!("cold ");
    for aisle in 0..n_crac {
        print!("| R{} R{} | hot{} ", 2 * aisle, 2 * aisle + 1, aisle);
    }
    println!("| ... cold\n");

    for col in 0..2 * n_crac {
        let members: Vec<usize> = (0..n_nodes)
            .filter(|&i| layout.nodes[i].rack_col == col)
            .collect();
        let racks = members
            .iter()
            .map(|&i| layout.nodes[i].rack_index)
            .max()
            .map_or(0, |m| m + 1);
        let mut labels: Vec<(char, usize)> = Vec::new();
        for lab in ['A', 'B', 'C', 'D', 'E'] {
            let count = members
                .iter()
                .filter(|&&i| format!("{:?}", layout.nodes[i].label).starts_with(lab))
                .count();
            if count > 0 {
                labels.push((lab, count));
            }
        }
        println!(
            "rack column {col}: {} nodes in {} rack(s), hot aisle {}, labels {:?}",
            members.len(),
            racks,
            col / 2,
            labels
        );
    }
    Ok(())
}
