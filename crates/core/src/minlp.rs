//! Exact solution of the first-step MINLP (Eq. 7) by exhaustive
//! enumeration — tractable only for tiny instances, where it bounds the
//! three-stage heuristic's optimality gap.
//!
//! The integer decisions are enumerated directly: per-node *multisets* of
//! P-states (cores within a node are interchangeable, so ordered
//! assignments would only repeat work) crossed with a discretized CRAC
//! outlet grid. For every combination that passes the exact power and
//! thermal checks, the remaining continuous problem in `TC` is the
//! Stage-3 LP, solved exactly. The best feasible combination is the
//! global optimum of Eq. 7 up to the outlet grid's granularity.

use crate::stage3::{solve_stage3, Stage3Solution};
use thermaware_datacenter::DataCenter;
use thermaware_thermal::CracUnit;

/// CRAC outlet grid step, °C.
const CRAC_STEP_C: f64 = 1.0;

/// Safety cap on the (P-state multiset, outlet combination) pairs the
/// enumeration may try: the solver refuses rather than run forever.
const MAX_COMBINATIONS: u64 = 2_000_000;

/// The exact optimum found.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Optimal reward rate.
    pub reward_rate: f64,
    /// Optimal per-core P-states (global core order).
    pub pstates: Vec<usize>,
    /// Optimal CRAC outlets, °C.
    pub crac_out_c: Vec<f64>,
    /// The Stage-3 rates at the optimum.
    pub stage3: Stage3Solution,
    /// Number of (P-state multiset, outlet) combinations evaluated.
    pub combinations_checked: u64,
}

/// Enumerate all non-decreasing sequences of length `len` over
/// `0..alphabet` (multisets), invoking `f` on each.
fn for_each_multiset(alphabet: usize, len: usize, f: &mut impl FnMut(&[usize]) -> bool) -> bool {
    let mut seq = vec![0usize; len];
    loop {
        if !f(&seq) {
            return false;
        }
        // Next non-decreasing sequence.
        let mut i = len;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if seq[i] + 1 < alphabet {
                let v = seq[i] + 1;
                for s in seq.iter_mut().skip(i) {
                    *s = v;
                }
                break;
            }
        }
    }
}

/// Count the multisets of `len` items over `alphabet` symbols (the
/// P-state multisets of one node that the enumeration tries):
/// `C(alphabet + len - 1, len)`, saturating at `u64::MAX`.
///
/// Computed by the incremental recurrence `c_{k} = c_{k-1}·(a-1+k)/k`;
/// every intermediate value is itself a binomial coefficient, so nothing
/// overflows before the saturation check (a naive `n!/(k!(n-k)!)` would
/// overflow even `u128` at the 32-cores-per-node scale of Table I).
pub fn multiset_count(alphabet: usize, len: usize) -> u64 {
    let mut c: u128 = 1;
    for i in 0..len {
        c = c * (alphabet as u128 + i as u128) / (i as u128 + 1);
        if c > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    c as u64
}

/// One CRAC's outlet grid: `min_outlet_c` upward in 1 °C steps, then
/// `max_outlet_c`.
fn outlet_axis(crac: &CracUnit) -> impl Iterator<Item = f64> {
    let hi = crac.max_outlet_c;
    std::iter::successors(Some(crac.min_outlet_c), |t| Some(t + CRAC_STEP_C))
        .take_while(move |&t| t < hi - 1e-9)
        .chain(std::iter::once(hi))
}

/// Solve Eq. 7 exactly.
///
/// Errors when the P-state combinations times the outlet combinations
/// exceed 2,000,000 (checked before anything is built), or
/// when no feasible combination exists.
pub fn solve_exact(dc: &DataCenter) -> Result<ExactSolution, String> {
    // Size check: every assignment may try every outlet combination.
    let assignments = (0..dc.n_nodes()).fold(1u64, |n, j| {
        let nt = dc.node_type(j);
        n.saturating_mul(multiset_count(nt.core.pstates.n_total(), nt.cores_per_node))
    });
    // An axis longer than the cap is over it whatever the rest.
    let outlets = dc.cracs.iter().fold(1u64, |n, c| {
        n.saturating_mul(outlet_axis(c).take(MAX_COMBINATIONS as usize + 1).count() as u64)
    });
    if assignments.saturating_mul(outlets) > MAX_COMBINATIONS {
        return Err(format!(
            "exact enumeration needs {assignments} P-state combinations x {outlets} outlet \
             combinations (cap {MAX_COMBINATIONS})"
        ));
    }

    // Outlet grid.
    let mut outlet_combos: Vec<Vec<f64>> = vec![vec![]];
    for crac in &dc.cracs {
        let axis: Vec<f64> = outlet_axis(crac).collect();
        let mut next = Vec::with_capacity(outlet_combos.len() * axis.len());
        for combo in &outlet_combos {
            for &t in &axis {
                let mut c = combo.clone();
                c.push(t);
                next.push(c);
            }
        }
        outlet_combos = next;
    }

    // Enumerate P-state multisets node by node (odometer over nodes, each
    // holding a multiset enumerator state — realized as a recursive
    // product materialization since instances are tiny by construction).
    let mut per_node: Vec<Vec<Vec<usize>>> = Vec::with_capacity(dc.n_nodes());
    for j in 0..dc.n_nodes() {
        let nt = dc.node_type(j);
        let mut sets = Vec::new();
        for_each_multiset(nt.core.pstates.n_total(), nt.cores_per_node, &mut |s| {
            sets.push(s.to_vec());
            true
        });
        per_node.push(sets);
    }

    let mut best: Option<ExactSolution> = None;
    let mut checked: u64 = 0;
    let mut idx = vec![0usize; dc.n_nodes()];
    let mut pstates = vec![0usize; dc.n_cores()];
    'outer: loop {
        // Materialize the current assignment.
        for (j, &i) in idx.iter().enumerate() {
            let set = &per_node[j][i];
            for (offset, k) in dc.cores_of_node(j).enumerate() {
                pstates[k] = set[offset];
            }
        }
        let node_powers = dc.node_powers_from_pstates(&pstates);
        // Try every outlet combo; keep the assignment if any is feasible.
        let mut feasible_outlet: Option<&Vec<f64>> = None;
        for combo in &outlet_combos {
            let (it, cooling, state) = dc.total_power_kw(combo, &node_powers);
            if it + cooling <= dc.budget.p_const_kw + 1e-9 && dc.redlines_ok(&state) {
                feasible_outlet = Some(combo);
                break;
            }
        }
        checked += 1;
        if let Some(outlets) = feasible_outlet {
            // The reward does not depend on the outlets (only feasibility
            // does), so one feasible combo suffices.
            let s3 = solve_stage3(dc, &pstates).map_err(|e| e.to_string())?;
            if best
                .as_ref()
                .is_none_or(|b| s3.reward_rate > b.reward_rate)
            {
                best = Some(ExactSolution {
                    reward_rate: s3.reward_rate,
                    pstates: pstates.clone(),
                    crac_out_c: outlets.clone(),
                    stage3: s3,
                    combinations_checked: 0,
                });
            }
        }
        // Odometer over nodes.
        let mut d = 0;
        loop {
            if d == dc.n_nodes() {
                break 'outer;
            }
            idx[d] += 1;
            if idx[d] < per_node[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }

    match best {
        Some(mut b) => {
            b.combinations_checked = checked;
            Ok(b)
        }
        None => Err("no feasible P-state/outlet combination".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_enumeration_counts() {
        assert_eq!(multiset_count(3, 2), 6);
        assert_eq!(multiset_count(5, 2), 15);
        let mut n = 0;
        for_each_multiset(3, 2, &mut |s| {
            assert!(s.windows(2).all(|w| w[0] <= w[1]));
            n += 1;
            true
        });
        assert_eq!(n, 6);
    }

    #[test]
    fn multiset_enumeration_is_exhaustive_and_sorted() {
        let mut seen = Vec::new();
        for_each_multiset(4, 3, &mut |s| {
            seen.push(s.to_vec());
            true
        });
        assert_eq!(seen.len() as u64, multiset_count(4, 3));
        let mut dedup = seen.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "duplicates in enumeration");
    }
}
