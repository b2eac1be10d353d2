//! Dense linear-algebra substrate for the `thermaware` workspace.
//!
//! The thermal steady-state solve (`Tin = A·Tout` fixed point, paper Eq. 5)
//! and the LP simplex both need small-to-medium dense real matrices. This
//! crate provides exactly that: a row-major [`Matrix`] of `f64`, an LU
//! factorization with partial pivoting ([`Lu`]), and a handful of vector
//! helpers. Everything is allocation-conscious in the hot paths (no per-call
//! temporaries beyond the factor itself) per the workspace performance
//! guidelines.
//!
//! The matrices here are at most a few hundred rows (the number of CRAC
//! units plus compute nodes), so a straightforward dense `O(n^3)`
//! factorization is the right tool. The one concession to sparsity is
//! [`CompressedLu`]: the simplex's basis is a handful of dense columns in
//! an identity, so it solves against lists of the dense factors' nonzeros
//! — the same sums in the same order, bit for bit the dense solves — and
//! the elimination spends no walk on a column that is a single entry:
//! the same factors, bit for bit, as if it had.
//!
//! The simplex's `y += a·x` / `y −= a·x` slice loops go through
//! [`kernel`], which runs them at the CPU's vector width (AVX2 when the
//! CPU has it, found at run time) with each element's bits what the
//! plain loop gives: the one module of the workspace with `unsafe` in it.
//!
//! # Example
//!
//! ```
//! use thermaware_linalg::{Matrix, Lu};
//!
//! // Solve a 2x2 system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(a.clone()).expect("non-singular");
//! let x = lu.solve(&[1.0, 2.0]).expect("solve");
//! let r = a.mat_vec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

pub mod approx;
mod error;
pub mod kernel;
mod lu;
mod matrix;
pub mod vec_ops;

pub use error::LinalgError;
pub use lu::CompressedLu;
pub use lu::Lu;
pub use matrix::Matrix;
