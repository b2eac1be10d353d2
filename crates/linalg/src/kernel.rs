//! `y += a·x` and `y −= a·x` over slices, at the CPU's vector width.
//!
//! Each kernel is one plain loop — one IEEE multiply, then one add or
//! subtract, per element, elements independent of each other — compiled
//! twice: as the crate is built (generic x86-64: two doubles an
//! instruction) and again under `#[target_feature(enable = "avx2")]`
//! (four). A call takes the AVX2 copy when the CPU has AVX2, which std
//! detects once and caches, and the plain copy otherwise (and on every
//! other architecture). Both copies evaluate the same expression on the
//! same operands, and Rust contracts no multiply and add into a fused
//! multiply-add (AVX2 does not even bring FMA with it), so each element
//! gets the same bits on either path: only how many are done per
//! instruction differs (DESIGN §10 "One wide kernel, the same bits").
//!
//! This module is the workspace's one `unsafe` outside its tests and the
//! only place a CPU-feature branch is allowed on the replay path; the
//! analyzer's `determinism` rule flags `is_x86_feature_detected!`
//! anywhere else.
#![allow(unsafe_code)]

/// `y[i] += a * x[i]` for every `i`, in place.
///
/// # Panics
///
/// In debug builds, when the lengths differ; in release the shorter
/// length wins.
#[inline]
pub fn add_scaled(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "add_scaled length mismatch");
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this has AVX2, checked just above; the
        // function is safe in every other respect.
        return unsafe { avx2::add_scaled(y, a, x) };
    }
    plain::add_scaled(y, a, x);
}

/// `y[i] -= a * x[i]` for every `i`, in place.
///
/// # Panics
///
/// In debug builds, when the lengths differ; in release the shorter
/// length wins.
#[inline]
pub fn sub_scaled(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "sub_scaled length mismatch");
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this has AVX2, checked just above; the
        // function is safe in every other respect.
        return unsafe { avx2::sub_scaled(y, a, x) };
    }
    plain::sub_scaled(y, a, x);
}

/// The loops, compiled for the target the crate is built for.
pub(crate) mod plain {
    /// `y[i] += a * x[i]`.
    #[inline(always)]
    pub(crate) fn add_scaled(y: &mut [f64], a: f64, x: &[f64]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y += a * x;
        }
    }

    /// `y[i] -= a * x[i]`.
    #[inline(always)]
    pub(crate) fn sub_scaled(y: &mut [f64], a: f64, x: &[f64]) {
        for (y, &x) in y.iter_mut().zip(x) {
            *y -= a * x;
        }
    }
}

/// The same loops, compiled with AVX2 enabled.
///
/// # Safety
///
/// Code built without AVX2 calls these in an `unsafe` block: the CPU it
/// runs on must have AVX2, or the call is undefined behaviour (an
/// illegal instruction, at best).
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    /// [`super::plain::add_scaled`] with AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) fn add_scaled(y: &mut [f64], a: f64, x: &[f64]) {
        super::plain::add_scaled(y, a, x);
    }

    /// [`super::plain::sub_scaled`] with AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) fn sub_scaled(y: &mut [f64], a: f64, x: &[f64]) {
        super::plain::sub_scaled(y, a, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `y[i] op a·x[i]` written out element by element: the oracle.
    fn each(y: &[f64], a: f64, x: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
        y.iter().zip(x).map(|(&y, &x)| op(y, a * x)).collect()
    }

    /// The same bits, or NaN on both sides: Rust leaves the sign and
    /// payload of a NaN result unspecified, so two compilations of one
    /// expression may disagree there and nowhere else.
    fn same(got: &[f64], want: &[f64]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    /// Zeros of both signs, infinities, NaN, subnormals, values whose
    /// products overflow or underflow, and ordinary values.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::sample::select(vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE / 3.0,
                -f64::MIN_POSITIVE * 0.75,
                1e308,
                -1e-200,
            ]),
            -4.0..4.0,
            -1e-300..1e-300,
            -1e300..1e300,
        ]
    }

    #[test]
    fn add_scaled_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        add_scaled(&mut y, 2.0, &x);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        // A zero multiplier leaves finite `y` as it was.
        add_scaled(&mut y, 0.0, &x);
        assert_eq!(y, [12.0, 24.0, 36.0]);
        sub_scaled(&mut y, 2.0, &x);
        assert_eq!(y, [10.0, 20.0, 30.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every length 0–67 — each tail of a 2-, 4- and 8-wide loop —
        /// at every offset pair of subslices into the two buffers: the
        /// dispatched kernels (AVX2 where the CPU has it) and the plain
        /// loops (what a CPU without it runs) give the oracle's bits.
        #[test]
        fn dispatched_and_plain_kernels_equal_the_element_loop(
            a in value(),
            xs in prop::collection::vec(value(), 75),
            ys in prop::collection::vec(value(), 75),
            x_at in 0usize..8,
            y_at in 0usize..8,
        ) {
            type Kernel = fn(&mut [f64], f64, &[f64]);
            type Op = fn(f64, f64) -> f64;
            let kernels: [(&str, Kernel, Kernel, Op); 2] = [
                ("add_scaled", add_scaled, plain::add_scaled, |y, p| y + p),
                ("sub_scaled", sub_scaled, plain::sub_scaled, |y, p| y - p),
            ];
            for n in 0..68 {
                let x = &xs[x_at..x_at + n];
                let y = &ys[y_at..y_at + n];
                for (name, dispatched, plain, op) in kernels {
                    let want = each(y, a, x, op);
                    for (path, kernel) in [("dispatched", dispatched), ("plain", plain)] {
                        let mut got = ys.clone();
                        kernel(&mut got[y_at..y_at + n], a, x);
                        prop_assert!(
                            same(&got[y_at..y_at + n], &want),
                            "{path} {name}, n {n}, a {a:?}: {:?} vs {want:?}",
                            &got[y_at..y_at + n]
                        );
                        // Nothing outside the window moved, not even a NaN's bits.
                        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        prop_assert_eq!(bits(&got[..y_at]), bits(&ys[..y_at]));
                        prop_assert_eq!(bits(&got[y_at + n..]), bits(&ys[y_at + n..]));
                    }
                }
            }
        }
    }
}
