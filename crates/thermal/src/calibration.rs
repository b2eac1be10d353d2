//! Sensor-based estimation of the heat-flow matrix (paper Section IV:
//! *"The values in matrix A can be estimated using sensor measurements
//! \[29\]"*).
//!
//! A production deployment cannot read `A` off a blueprint — it probes
//! the room: run the floor at several power/outlet operating points,
//! record every inlet and outlet temperature, and fit
//! `Tin ≈ A · Tout` row by row. Because each inlet mixes *all* outlets
//! linearly, each row of `A` is an ordinary least-squares problem; with
//! at least as many (sufficiently diverse) operating points as units and
//! low sensor noise, the recovery is exact.
//!
//! This module provides the estimator plus a probe-plan helper that
//! generates diverse operating points, so the pipeline
//! *simulate sensors → estimate A → rebuild a [`ThermalModel`]* can be
//! tested end to end — closing the loop the paper delegates to \[29\].

use crate::model::ThermalModel;
use thermaware_linalg::{Lu, Matrix};

/// One probe observation: every unit's inlet and outlet temperature.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Inlet temperatures `[CRACs | nodes]`, °C.
    pub t_in: Vec<f64>,
    /// Outlet temperatures `[CRACs | nodes]`, °C.
    pub t_out: Vec<f64>,
}

/// Estimate the mixing matrix `A` from observations.
///
/// Solves the row-wise least-squares `min ‖X aᵢ − yᵢ‖²` with `X` the
/// stacked outlet vectors and `yᵢ` the inlet-`i` readings, via the normal
/// equations (the per-row system is `n_units × n_units`, well within the
/// dense solver's comfort zone). A tiny Tikhonov term keeps the normal
/// matrix invertible when probes are almost collinear.
///
/// Errors when fewer observations than units are supplied (the system
/// would be underdetermined no matter how diverse the probes are).
pub fn estimate_a_matrix(observations: &[Observation]) -> Result<Matrix, String> {
    let s = observations.len();
    if s == 0 {
        return Err("no observations".to_owned());
    }
    let n = observations[0].t_out.len();
    if s < n {
        return Err(format!("need at least {n} observations, got {s}"));
    }
    for (i, o) in observations.iter().enumerate() {
        if o.t_in.len() != n || o.t_out.len() != n {
            return Err(format!("observation {i} has inconsistent dimensions"));
        }
    }

    // Normal matrix G = X^T X (+ ridge) and per-row right-hand sides.
    let mut g = Matrix::zeros(n, n);
    for o in observations {
        for j in 0..n {
            for k in 0..n {
                g[(j, k)] += o.t_out[j] * o.t_out[k];
            }
        }
    }
    let ridge = 1e-12 * g.max_abs().max(1.0);
    for j in 0..n {
        g[(j, j)] += ridge;
    }
    let lu = Lu::factor(g).map_err(|e| format!("normal matrix singular: {e}"))?;

    let mut a = Matrix::zeros(n, n);
    let mut rhs = vec![0.0; n];
    for i in 0..n {
        for v in rhs.iter_mut() {
            *v = 0.0;
        }
        for o in observations {
            for (j, r) in rhs.iter_mut().enumerate() {
                *r += o.t_out[j] * o.t_in[i];
            }
        }
        let row = lu.solve(&rhs).map_err(|e| format!("row {i}: {e}"))?;
        for (j, &v) in row.iter().enumerate() {
            a[(i, j)] = v;
        }
    }
    Ok(a)
}

/// Generate a diverse probe plan against a ground-truth model: vary which
/// nodes draw power and what the CRAC outlets blow, record the resulting
/// steady states, and optionally corrupt the readings with deterministic
/// pseudo-noise of amplitude `noise_c` (°C).
pub fn probe(
    model: &ThermalModel,
    n_observations: usize,
    max_node_power_kw: f64,
    noise_c: f64,
) -> Vec<Observation> {
    let nc = model.n_crac();
    let nn = model.n_nodes();
    (0..n_observations)
        .map(|s| {
            // Structured diversity: each probe powers a different subset
            // pattern and spreads the outlets.
            let powers: Vec<f64> = (0..nn)
                .map(|j| {
                    let on = (j + s) % 3 != 0;
                    let scale = 0.3 + 0.7 * (((j * 7 + s * 13) % 10) as f64 / 10.0);
                    if on {
                        max_node_power_kw * scale
                    } else {
                        0.1 * max_node_power_kw
                    }
                })
                .collect();
            let outlets: Vec<f64> = (0..nc)
                .map(|c| 12.0 + ((s + c * 3) % 10) as f64)
                .collect();
            let state = model.steady_state(&outlets, &powers);
            // Deterministic "sensor noise": a cheap hash-driven dither so
            // tests stay reproducible without threading an RNG through.
            let dither = |u: usize| -> f64 {
                if noise_c == 0.0 { // lint: allow(float-eq): noise_c is a literal-set parameter, never computed
                    return 0.0;
                }
                let h = (u.wrapping_mul(2654435761) ^ s.wrapping_mul(40503)) % 1000;
                noise_c * (h as f64 / 500.0 - 1.0)
            };
            Observation {
                t_in: state.t_in.iter().enumerate().map(|(u, &t)| t + dither(u)).collect(),
                t_out: state
                    .t_out
                    .iter()
                    .enumerate()
                    .map(|(u, &t)| t + dither(u + 7777))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{generate_ipf, uniform_flows};
    use crate::layout::Layout;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ground_truth() -> (Layout, Vec<f64>, ThermalModel) {
        let layout = Layout::hot_cold_aisle(2, 20);
        let flows = uniform_flows(&layout, 0.07, None);
        let mut rng = StdRng::seed_from_u64(21);
        let ci = generate_ipf(&layout, &flows, &mut rng).unwrap();
        let model = ThermalModel::new(&layout, &flows, &ci, 25.0, 40.0).unwrap();
        (layout, flows, model)
    }

    #[test]
    fn noiseless_probes_recover_a_exactly() {
        let (_, _, model) = ground_truth();
        let obs = probe(&model, 40, 0.8, 0.0);
        let a_hat = estimate_a_matrix(&obs).expect("estimation");
        let err = a_hat.sub(model.a_matrix()).unwrap().max_abs();
        assert!(err < 1e-5, "recovery error {err}");
    }

    #[test]
    fn recovered_rows_sum_to_one() {
        let (_, _, model) = ground_truth();
        let obs = probe(&model, 40, 0.8, 0.0);
        let a_hat = estimate_a_matrix(&obs).unwrap();
        for i in 0..a_hat.rows() {
            let s: f64 = a_hat.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn noisy_probes_recover_a_approximately() {
        let (_, _, model) = ground_truth();
        // 0.05 °C sensor noise, plenty of probes.
        let obs = probe(&model, 120, 0.8, 0.05);
        let a_hat = estimate_a_matrix(&obs).expect("estimation");
        let err = a_hat.sub(model.a_matrix()).unwrap().max_abs();
        assert!(err < 0.08, "noisy recovery error {err}");
        // Predictions from the estimated matrix stay close: compare the
        // implied inlets on a held-out operating point.
        let held_out = model.steady_state(&[15.0, 19.0], &[0.55; 20]);
        let predicted = a_hat.mat_vec(&held_out.t_out);
        for (p, t) in predicted.iter().zip(&held_out.t_in) {
            assert!((p - t).abs() < 0.3, "predicted {p} vs true {t}");
        }
    }

    #[test]
    fn too_few_observations_error() {
        let (_, _, model) = ground_truth();
        let obs = probe(&model, 5, 0.8, 0.0);
        assert!(estimate_a_matrix(&obs).is_err());
        assert!(estimate_a_matrix(&[]).is_err());
    }
}
