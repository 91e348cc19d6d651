//! # dcmesh-math
//!
//! Numerical kernels underpinning the DC-MESH reproduction:
//!
//! * [`Real`] — a float abstraction (`f32`/`f64`) so every physics kernel can
//!   be instantiated in single or double precision, reproducing the SP/DP
//!   comparison of Table II of the paper.
//! * [`Complex`] — a minimal complex-number type (the paper propagates
//!   complex-valued Kohn–Sham wavefunctions).
//! * [`gemm`] — a from-scratch blocked, pool-parallel complex GEMM standing
//!   in for AOCL-BLAS / cuBLAS in the "BLASification" of paper §III-D: the
//!   tests' oracle and the benchmark's GEMM probe (the nonlocal correction
//!   itself is real x complex, on the real block kernels of [`simd`]).
//! * [`hermite`] — quintic Hermite tables of the radial functions the force
//!   field and the pseudopotentials evaluate per pair.
//! * [`tridiag`] — tridiagonal operators and the even/odd 2×2 block splitting
//!   at the heart of the space-splitting kinetic propagator (ref. \[28\]).
//! * [`linalg`] — vector kernels, Gram–Schmidt, Cholesky, a real symmetric
//!   eigensolver (Householder, then implicit QL) for Rayleigh–Ritz subspace
//!   diagonalization, and the complex Hermitian Jacobi the tests hold it to.
//! * [`simd`] — 512- and 256-bit lane kernels with runtime dispatch (`DCMESH_SIMD`):
//!   pointwise and line kernels on interleaved complex lanes, and the real
//!   block kernels of the set-up solve and the nonlocal projector.
//! * [`phys`] — Hartree atomic-unit constants and conversions.

pub mod complex;
pub mod gemm;
pub mod hermite;
pub mod linalg;
pub mod phys;
pub mod real;
pub mod simd;
pub mod tridiag;

pub use complex::{as_reals, as_reals_mut, from_reals, from_reals_mut, Complex};
pub use gemm::{Matrix, Op};
pub use hermite::HermiteTable;
pub use real::Real;

/// Convenience alias: complex number over `f64`.
pub type C64 = Complex<f64>;
/// Convenience alias: complex number over `f32`.
pub type C32 = Complex<f32>;
