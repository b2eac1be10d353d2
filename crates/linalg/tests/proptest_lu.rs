//! Property-based tests for the LU factorization and matrix ops.

use proptest::prelude::*;
use thermaware_linalg::{vec_ops, Lu, Matrix};

/// Maximum absolute difference between two equal-length slices.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Maximum absolute entry of a matrix.
fn max_abs(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0_f64, |w, v| w.max(v.abs()))
}

/// The `rows × cols` matrix of a row-major buffer.
fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| data[i * cols + j])
}

/// A right-hand side with the entries a simplex vector has: exact zeros
/// of both signs between the values (`kind` 0–1: `+0.0`, 2: `-0.0`).
fn rhs(kinds: &[u8], values: &[f64]) -> Vec<f64> {
    kinds
        .iter()
        .zip(values)
        .map(|(&kind, &v)| match kind {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => v,
        })
        .collect()
}

/// The indices at which `b` holds anything but `+0.0`: what a transposed
/// solve of the compressed factors is told of its right-hand side.
fn not_plus_zero(b: &[f64]) -> Vec<u32> {
    (0..b.len() as u32).filter(|&i| b[i as usize].to_bits() != 0).collect()
}

/// Both solves of the compressed factors against the dense ones, bit
/// for bit. `None` when the matrix is singular.
fn compressed_equals_dense(a: Matrix, b: &[f64]) -> Option<Result<(), String>> {
    let dense = Lu::factor(a).ok()?;
    let mut compressed = dense.clone().compress();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let (mut x, mut y) = (b.to_vec(), b.to_vec());
    dense.solve_in_place(&mut x).unwrap();
    compressed.solve_in_place(&mut y).unwrap();
    if bits(&x) != bits(&y) {
        return Some(Err(format!("solve: dense {x:?} vs compressed {y:?}")));
    }
    let (mut x, mut y) = (b.to_vec(), b.to_vec());
    dense.solve_transposed_in_place(&mut x).unwrap();
    compressed.solve_transposed_in_place(&mut y, &not_plus_zero(b)).unwrap();
    if bits(&x) != bits(&y) {
        return Some(Err(format!("solve_transposed: dense {x:?} vs compressed {y:?}")));
    }
    Some(Ok(()))
}

/// Factors that hold `-0.0` entries in both triangles: a multiplier
/// `+0.0 / negative pivot` in `L`, an entry of `A` carried into `U`.
/// `compress` leaves them out like any zero — the row lists it builds in
/// its one pass and the column lists it lays out from those — and the
/// solves must not show it, whatever zeros the right-hand side holds.
#[test]
fn compressed_solves_equal_dense_solves_with_negative_zero_factors() {
    let a = Matrix::from_rows(&[
        &[-2.0, -0.0, 1.0, -0.0],
        &[0.0, -4.0, -0.0, 2.0],
        &[1.0, 0.0, -3.0, -0.0],
        &[0.0, 2.0, 0.0, -5.0],
    ]);
    // (`lu::tests::negative_zero_factors_are_packed_as_such` holds that
    // the packed factors of this matrix have both.)
    for kinds in [[3, 3, 3, 3], [2, 3, 0, 3], [3, 2, 2, 0], [0, 0, 3, 2], [2, 2, 2, 2]] {
        let outcome = compressed_equals_dense(a.clone(), &rhs(&kinds, &[1.5, -2.0, 0.25, 3.0]));
        assert_eq!(outcome, Some(Ok(())), "kinds {kinds:?}");
    }
}

// All strategies below generate diagonally dominant matrices (`D + R` with
// a dominant diagonal `D` and small noise `R`): diagonal dominance keeps the
// condition number bounded so residual assertions can use tight tolerances.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_roundtrip_random_rhs(
        (n, entries, b) in (2usize..10).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(-1.0_f64..1.0, n * n),
            prop::collection::vec(-50.0_f64..50.0, n),
        ))
    ) {
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = if i == j { n as f64 + 2.0 } else { 0.0 };
            base + entries[i * n + j]
        });
        let lu = Lu::factor(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = a.mat_vec(&x);
        prop_assert!(max_abs_diff(&r, &b) < 1e-8,
            "residual too large: {:?}", max_abs_diff(&r, &b));
    }

    #[test]
    fn inverse_product_is_identity(
        (n, entries) in (2usize..8).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(-1.0_f64..1.0, n * n),
        ))
    ) {
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = if i == j { n as f64 + 2.0 } else { 0.0 };
            base + entries[i * n + j]
        });
        let inv = Lu::factor(a.clone()).unwrap().inverse().unwrap();
        let prod = a.mat_mul(&inv).unwrap();
        let err = max_abs(&prod.sub(&Matrix::identity(n)).unwrap());
        prop_assert!(err < 1e-8, "err = {err}");
    }

    #[test]
    fn matmul_associative_with_vector(
        (m, k, entries_a, entries_b, x) in (1usize..6, 1usize..6).prop_flat_map(|(m, k)| (
            Just(m),
            Just(k),
            prop::collection::vec(-5.0_f64..5.0, m * k),
            prop::collection::vec(-5.0_f64..5.0, k * k),
            prop::collection::vec(-5.0_f64..5.0, k),
        ))
    ) {
        // (A B) x == A (B x)
        let a = from_row_major(m, k, &entries_a);
        let b = from_row_major(k, k, &entries_b);
        let lhs = a.mat_mul(&b).unwrap().mat_vec(&x);
        let rhs = a.mat_vec(&b.mat_vec(&x));
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn dot_is_symmetric_and_bilinear(
        (_n, a, b) in (1usize..20).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(-10.0_f64..10.0, n),
            prop::collection::vec(-10.0_f64..10.0, n),
        ))
    ) {
        let d1 = vec_ops::dot(&a, &b);
        let d2 = vec_ops::dot(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-10);
        // Scaling one side scales the dot product.
        let mut a2 = a.clone();
        vec_ops::scale(2.0, &mut a2);
        let d3 = vec_ops::dot(&a2, &b);
        prop_assert!((d3 - 2.0 * d1).abs() < 1e-9);
    }

    /// The shape of a simplex basis: signed unit columns in scrambled
    /// order (slacks and surpluses, so the elimination has to swap rows
    /// and half the pivots are `-1`) with `k` dense columns among them.
    /// The compressed factors' solves must be the dense factors' solves
    /// to the bit, signed zeros included.
    #[test]
    fn compressed_solves_equal_dense_solves_on_basis_shaped_matrices(
        (n, order, negative, dense_at, dense_vals, kinds, values) in (8usize..65, 0usize..13)
            .prop_flat_map(|(n, k)| (
                Just(n),
                prop::collection::vec(0.0_f64..1.0, n),
                prop::collection::vec(any::<bool>(), n),
                prop::collection::vec(0usize..n, k),
                prop::collection::vec((-3.0_f64..3.0, 0u8..4), k * n),
                prop::collection::vec(0u8..6, n),
                prop::collection::vec(-5.0_f64..5.0, n),
            ))
    ) {
        // Column r is the unit vector of row perm[r], signed.
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
        let mut a = Matrix::zeros(n, n);
        for (r, &i) in perm.iter().enumerate() {
            a[(i, r)] = if negative[r] { -1.0 } else { 1.0 };
        }
        for (c, &r) in dense_at.iter().enumerate() {
            for i in 0..n {
                // A quarter of a dense column's entries are exact zeros.
                let (v, zero) = dense_vals[c * n + i];
                a[(i, r)] = if zero == 0 { 0.0 } else { v };
            }
        }
        match compressed_equals_dense(a, &rhs(&kinds, &values)) {
            Some(outcome) => prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err()),
            None => prop_assume!(false),
        }
    }

    #[test]
    fn compressed_solves_equal_dense_solves_on_dense_matrices(
        (n, entries, kinds, values) in (2usize..24).prop_flat_map(|n| (
            Just(n),
            prop::collection::vec(-4.0_f64..4.0, n * n),
            prop::collection::vec(0u8..6, n),
            prop::collection::vec(-5.0_f64..5.0, n),
        ))
    ) {
        let a = from_row_major(n, n, &entries);
        match compressed_equals_dense(a, &rhs(&kinds, &values)) {
            Some(outcome) => prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err()),
            None => prop_assume!(false),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The right-hand sides BTRAN hands the transposed solve: 0–3
    /// entries — values, `±1`, `-0.0` — in a vector of `+0.0`s (`rho =
    /// e_r`, a few nonzero costs), against basis-shaped matrices up to
    /// and past a Fig. 6 basis (n 1–160). Half the units are `-1`, so
    /// half the pivots are negative and a row the solve does not reach
    /// ends at `-0.0`; the dense columns hold `-0.0`s, and so do the
    /// factors. The list of indices the solve is given is in no order and
    /// now and then repeats one or names a `+0.0`.
    #[test]
    fn hypersparse_transposed_solves_equal_dense_solves(
        (n, order, negative, dense_at, dense_vals, entries, extra) in (1usize..161, 0usize..10)
            .prop_flat_map(|(n, k)| (
                Just(n),
                prop::collection::vec(0.0_f64..1.0, n),
                prop::collection::vec(any::<bool>(), n),
                prop::collection::vec(0usize..n, k),
                prop::collection::vec((-3.0_f64..3.0, 0u8..6), k * n),
                prop::collection::vec((0usize..n, 0u8..4, -5.0_f64..5.0), 0..4),
                prop::collection::vec(0usize..n, 0..3),
            ))
    ) {
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_by(|&a, &b| order[a].total_cmp(&order[b]));
        let mut a = Matrix::zeros(n, n);
        for (r, &i) in perm.iter().enumerate() {
            a[(i, r)] = if negative[r] { -1.0 } else { 1.0 };
        }
        for (c, &r) in dense_at.iter().enumerate() {
            for i in 0..n {
                a[(i, r)] = match dense_vals[c * n + i] {
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    (v, _) => v,
                };
            }
        }
        let dense = Lu::factor(a);
        prop_assume!(dense.is_ok());
        let dense = dense.unwrap();
        let mut b = vec![0.0; n];
        for &(i, kind, v) in &entries {
            b[i] = match kind {
                0 => -0.0,
                1 => 1.0,
                2 => -1.0,
                _ => v,
            };
        }
        let nz: Vec<u32> = entries.iter().map(|e| e.0).chain(extra).map(|i| i as u32).collect();
        let mut compressed = dense.clone().compress();
        let (mut x, mut y) = (b.clone(), b.clone());
        dense.solve_transposed_in_place(&mut x).unwrap();
        compressed.solve_transposed_in_place(&mut y, &nz).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&y), bits(&x), "b {:?}, listed {:?}", b, nz);
        // The same factors solve again from a clean slate.
        let mut again = b.clone();
        compressed.solve_transposed_in_place(&mut again, &nz).unwrap();
        prop_assert_eq!(bits(&again), bits(&x));
    }
}
