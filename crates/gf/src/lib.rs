//! Finite-field arithmetic over GF(2^8) and dense matrices over that field.
//!
//! This crate is the arithmetic substrate for the Reed–Solomon codes used by
//! the Sprout functional-caching system. It provides:
//!
//! * [`Gf256`] — a byte-sized field element with addition, multiplication,
//!   inversion and exponentiation implemented via log/exp tables over the
//!   standard polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11D, the same
//!   polynomial used by Jerasure and most storage systems).
//! * [`Matrix`] — a dense matrix over GF(2^8) with multiplication,
//!   Gaussian elimination, inversion, rank computation and sub-matrix
//!   extraction.
//! * [`builders`] — Vandermonde and Cauchy matrix constructors plus a helper
//!   that converts an arbitrary MDS generator into systematic form.
//!
//! # Example
//!
//! ```
//! use sprout_gf::{Gf256, Matrix};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! assert_eq!((a * b) / b, a);
//!
//! let m = sprout_gf::builders::vandermonde(3, 3);
//! let inv = m.inverted().expect("vandermonde over distinct points is invertible");
//! assert!(m.mul(&inv).is_identity());
//! ```

// `deny`, not `forbid`: the explicit-SIMD kernels in [`simd`] need
// intrinsics, and that module alone carries a scoped `#[allow(unsafe_code)]`
// with per-block safety comments. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod field;
pub mod kernel;
pub mod matrix;
pub mod simd;

pub use field::Gf256;
pub use kernel::{Kernel, MulTable};
pub use matrix::{Matrix, MatrixError};
pub use simd::{simd_level, SimdLevel};
