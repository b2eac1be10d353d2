//! The per-solve phase timers (`lp.phase.*_us`).
//!
//! A `MemoryRecorder` is installed process-wide, which is why this test
//! has a file (a process) to itself.

use std::sync::Arc;
use thermaware_lp::{Problem, RowOp, Sense};
use thermaware_obs::{self as obs, MemoryRecorder};

const PHASES: [&str; 6] = [
    "lp.phase.factorize_us",
    "lp.phase.ftran_us",
    "lp.phase.btran_us",
    "lp.phase.pivot_row_us",
    "lp.phase.pricing_us",
    "lp.phase.compute_xb_us",
];

/// A transportation-style LP big enough to pivot a few dozen times.
fn problem(budget: f64) -> Problem {
    let (sources, sinks) = (12, 9);
    let mut p = Problem::new(Sense::Maximize);
    let mut by_source = vec![Vec::new(); sources];
    let mut by_sink = vec![Vec::new(); sinks];
    for s in 0..sources {
        for t in 0..sinks {
            let gain = 1.0 + ((s * 7 + t * 13) % 11) as f64 / 4.0;
            let v = p.add_var(&format!("x{s}_{t}"), 0.0, 6.0, gain);
            by_source[s].push((v, 1.0));
            by_sink[t].push((v, 1.0 + (s % 3) as f64 / 2.0));
        }
    }
    for (s, terms) in by_source.iter().enumerate() {
        p.add_row(&format!("supply{s}"), terms, RowOp::Le, 10.0 + s as f64);
    }
    for (t, terms) in by_sink.iter().enumerate() {
        p.add_row(&format!("demand{t}"), terms, RowOp::Le, budget + t as f64);
    }
    p
}

#[test]
fn phases_are_recorded_per_solve_and_sum_to_no_more_than_the_solve() {
    // Without a recorder nothing is recorded and nothing is timed.
    let mut cold = problem(14.0).solve_warm(None).expect("feasible");
    let basis = cold.take_basis();

    let recorder = Arc::new(MemoryRecorder::new());
    {
        let _installed = obs::install(recorder.clone());
        problem(14.0).solve_warm(None).expect("feasible");
        // A tightened right-hand side re-enters through the dual simplex.
        problem(9.0).solve_warm(basis.as_ref()).expect("feasible");
    }
    let seen = recorder.snapshot();
    assert_eq!(seen.counter("lp.solves"), 2);
    assert_eq!(seen.counter("lp.dual_reentries"), 1, "the warm solve took the dual path");
    let solve = seen.histogram("lp.solve_us").expect("lp.solve_us");
    let mut phase_sum = 0.0;
    for name in PHASES {
        let h = seen.histogram(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(h.count, 2, "{name}: one observation per solve");
        assert!(h.sum >= 0.0, "{name}");
        phase_sum += h.sum;
    }
    assert!(phase_sum > 0.0, "a solve that pivots spends time in its phases");
    assert!(
        phase_sum <= solve.sum,
        "phases ({phase_sum} us) are disjoint parts of the solves ({} us)",
        solve.sum
    );
    // Both solves pivot, so both pay for pricing and for the basis.
    for name in ["lp.phase.factorize_us", "lp.phase.btran_us", "lp.phase.compute_xb_us"] {
        assert!(seen.histogram(name).is_some_and(|h| h.min > 0.0), "{name} is zero on a solve");
    }
    assert!(seen.histogram("lp.phase.pivot_row_us").is_some_and(|h| h.max > 0.0));
}
