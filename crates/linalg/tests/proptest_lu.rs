//! Property-based tests for the LU factorization and matrix ops.

use proptest::prelude::*;
use thermaware_linalg::{vec_ops, Lu, Matrix};

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
        prop_assert!(vec_ops::max_abs_diff(&r, &b) < 1e-8,
            "residual too large: {:?}", vec_ops::max_abs_diff(&r, &b));
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
        let err = prod.sub(&Matrix::identity(n)).unwrap().max_abs();
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
        let a = Matrix::from_vec(m, k, entries_a);
        let b = Matrix::from_vec(k, k, entries_b);
        let lhs = a.mat_mul(&b).unwrap().mat_vec(&x);
        let rhs = a.mat_vec(&b.mat_vec(&x));
        prop_assert!(vec_ops::max_abs_diff(&lhs, &rhs) < 1e-9);
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
}
