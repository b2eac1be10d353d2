//! Small slice-based vector helpers used throughout the workspace.
//!
//! These are free functions on `&[f64]` rather than a wrapper type: the
//! callers (simplex tableau rows, thermal state vectors) already own their
//! storage and only need the arithmetic.

/// Dot product of two equal-length slices.
///
/// Panics (in debug builds) if the lengths differ; in release the shorter
/// length wins, which is never what a caller wants, so keep lengths equal.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    // Chunked accumulation: four independent partial sums let the compiler
    // vectorize without `-ffast-math`-style reassociation concerns.
    let mut acc = [0.0_f64; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Scale a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
#[cfg(test)]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm (maximum absolute entry), 0 for an empty slice.
#[inline]
#[cfg(test)]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Maximum absolute difference between two equal-length slices.
#[inline]
#[cfg(test)]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Sum of a slice.
#[inline]
#[cfg(test)]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_all_tail_lengths() {
        // Exercise every remainder class of the 4-wide unrolled loop.
        for n in 0..10 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let expected: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot(&a, &b), expected, "n = {n}");
        }
    }

    #[test]
    fn norms_and_sums() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(sum(&x), -1.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_finds_worst_entry() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 2.0];
        assert_eq!(max_abs_diff(&a, &b), 1.0);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }
}
