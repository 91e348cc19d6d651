//! Tridiagonal operators and the even/odd 2x2 block splitting.
//!
//! The space-splitting method (paper ref. \[28\], Nakano–Vashishta–Kalia 1994)
//! writes the one-dimensional kinetic Hamiltonian `T_d` — a tridiagonal
//! matrix from the 3-point Laplacian — as `T_d = A_even + A_odd`, where each
//! `A` is block-diagonal with 2x2 blocks coupling neighbouring mesh points.
//! `exp(-i dt A)` is then *exactly* unitary and applied pairwise:
//!
//! ```text
//! exp(-i dt (a I + b sigma_x)) = e^{-i dt a} [cos(dt b) I - i sin(dt b) sigma_x]
//! ```
//!
//! This module provides the 2x2 exact exponential, a general tridiagonal
//! multiply (the loop shape of paper Algorithms 1–5), and a Thomas solver
//! used by implicit reference propagators in tests.

use crate::complex::Complex;
use crate::real::Real;

/// The 2x2 unitary `exp(-i theta (a I + b sigma_x))`, returned as
/// `(diag, offdiag)` so that the pair update is
/// `(u, v) <- (diag*u + off*v, off*u + diag*v)`.
#[inline(always)]
pub fn exp_2x2_symmetric<R: Real>(theta: R, a: R, b: R) -> (Complex<R>, Complex<R>) {
    let phase = Complex::cis(-theta * a);
    let c = (theta * b).cos();
    let s = (theta * b).sin();
    // cos(theta b) I - i sin(theta b) sigma_x
    (phase.scale(c), phase.mul_neg_i().scale(s))
}

/// Real symmetric tridiagonal operator with constant off-diagonal coupling,
/// as produced by the finite-difference kinetic energy `-1/(2m) d^2/dx^2`.
#[derive(Clone, Debug)]
pub struct KineticTridiag<R> {
    /// Diagonal value `1/(m dx^2)` at every interior point.
    pub diag: R,
    /// Off-diagonal value `-1/(2 m dx^2)`.
    pub offdiag: R,
    /// Number of mesh points along this direction.
    pub n: usize,
}

impl<R: Real> KineticTridiag<R> {
    /// Kinetic operator for mass `m` and spacing `dx` on `n` points
    /// (Dirichlet boundaries: wavefunction vanishes outside the domain,
    /// matching the hard-wall DC domain peripheries).
    pub fn new(n: usize, mass: R, dx: R) -> Self {
        let inv = R::ONE / (mass * dx * dx);
        Self {
            diag: inv,
            offdiag: -(inv * R::HALF),
            n,
        }
    }

    /// Dense application `y = T x` for verification.
    pub fn apply(&self, x: &[Complex<R>]) -> Vec<Complex<R>> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![Complex::zero(); self.n];
        for i in 0..self.n {
            let mut acc = x[i].scale(self.diag);
            if i > 0 {
                acc += x[i - 1].scale(self.offdiag);
            }
            if i + 1 < self.n {
                acc += x[i + 1].scale(self.offdiag);
            }
            y[i] = acc;
        }
        y
    }

    /// Expectation value `<x| T |x>` (real by symmetry).
    pub fn expectation(&self, x: &[Complex<R>]) -> R {
        let tx = self.apply(x);
        x.iter().zip(&tx).map(|(a, b)| (a.conj() * *b).re).sum()
    }
}

/// Apply `exp(-i dt A_even)` (pairs starting at 0) or `exp(-i dt A_odd)`
/// (pairs starting at 1) exactly, in place, along a 1D line.
///
/// The even/odd split assigns half the diagonal to each half-operator so
/// `A_even + A_odd = T` exactly in the interior; boundary points that have no
/// partner in a given parity receive a pure diagonal phase of their half
/// share, preserving unitarity.
pub fn apply_split_exp<R: Real>(line: &mut [Complex<R>], dt: R, diag: R, offdiag: R, odd: bool) {
    let n = line.len();
    let half_diag = diag * R::HALF;
    let (d, o) = exp_2x2_symmetric(dt, half_diag, offdiag);
    let start = usize::from(odd);
    // Unpaired boundary points still carry their half-diagonal phase.
    let lone_phase = Complex::cis(-dt * half_diag);
    if start == 1 {
        line[0] *= lone_phase;
    }
    let mut i = start;
    while i + 1 < n {
        let u = line[i];
        let v = line[i + 1];
        line[i] = d * u + o * v;
        line[i + 1] = o * u + d * v;
        i += 2;
    }
    if i < n {
        line[i] *= lone_phase;
    }
}

/// Full 1D split-operator kinetic step: Strang split
/// `exp(-i dt T) ~= E(dt/2) O(dt) E(dt/2)` with E = even half, O = odd half.
/// Exactly unitary; second-order accurate in `dt`.
pub fn kinetic_step_1d<R: Real>(line: &mut [Complex<R>], dt: R, t: &KineticTridiag<R>) {
    let half = dt * R::HALF;
    apply_split_exp(line, half, t.diag, t.offdiag, false);
    apply_split_exp(line, dt, t.diag, t.offdiag, true);
    apply_split_exp(line, half, t.diag, t.offdiag, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn norm(v: &[C64]) -> f64 {
        v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    fn gaussian_packet(n: usize, k0: f64) -> Vec<C64> {
        let x0 = n as f64 / 2.0;
        let sigma = n as f64 / 10.0;
        let mut v: Vec<C64> = (0..n)
            .map(|i| {
                let x = i as f64 - x0;
                C64::from_polar((-x * x / (2.0 * sigma * sigma)).exp(), k0 * x)
            })
            .collect();
        let nv = norm(&v);
        for z in &mut v {
            *z = *z / nv;
        }
        v
    }

    #[test]
    fn exp_2x2_is_unitary() {
        let (d, o) = exp_2x2_symmetric(0.37, 1.9, -0.8);
        // Columns of [[d, o], [o, d]] must be orthonormal.
        assert!((d.norm_sqr() + o.norm_sqr() - 1.0).abs() < 1e-14);
        let cross = d.conj() * o + o.conj() * d;
        assert!(cross.abs() < 1e-14);
    }

    #[test]
    fn exp_2x2_zero_angle_is_identity() {
        let (d, o) = exp_2x2_symmetric(0.0, 2.0, 3.0);
        assert!((d - C64::one()).abs() < 1e-15);
        assert!(o.abs() < 1e-15);
    }

    #[test]
    fn split_halves_sum_to_full_operator() {
        // Verify A_even + A_odd = T by applying first-order expansions:
        // d/dt at t=0 of the split steps equals -i T.
        let n = 9;
        let t = KineticTridiag::new(n, 1.0, 0.5);
        let psi = gaussian_packet(n, 0.7);
        let dt = 1e-6;
        let mut a = psi.clone();
        apply_split_exp(&mut a, dt, t.diag, t.offdiag, false);
        apply_split_exp(&mut a, dt, t.diag, t.offdiag, true);
        let tpsi = t.apply(&psi);
        for i in 0..n {
            let deriv = (a[i] - psi[i]) / dt;
            let want = tpsi[i].mul_neg_i();
            assert!((deriv - want).abs() < 1e-4, "i={i}: {deriv} vs {want}");
        }
    }

    #[test]
    fn kinetic_step_preserves_norm_exactly() {
        let n = 64;
        let t = KineticTridiag::new(n, 1.0, 0.3);
        let mut psi = gaussian_packet(n, 1.2);
        for _ in 0..500 {
            kinetic_step_1d(&mut psi, 0.05, &t);
        }
        assert!(
            (norm(&psi) - 1.0).abs() < 1e-12,
            "norm drifted: {}",
            norm(&psi)
        );
    }

    #[test]
    fn kinetic_step_conserves_energy() {
        let n = 128;
        let t = KineticTridiag::new(n, 1.0, 0.25);
        let mut psi = gaussian_packet(n, 0.9);
        let e0 = t.expectation(&psi);
        for _ in 0..200 {
            kinetic_step_1d(&mut psi, 0.02, &t);
        }
        let e1 = t.expectation(&psi);
        // Strang splitting conserves a shadow Hamiltonian; energy error stays
        // bounded and small for small dt.
        assert!((e1 - e0).abs() / e0.abs() < 2e-2, "e0={e0} e1={e1}");
    }

    #[test]
    fn free_packet_moves_with_group_velocity() {
        // A packet with momentum k0 should move by ~ v_g * T = k0/m * T.
        let n = 256;
        let dx = 0.5;
        let k0_per_dx = 0.6; // phase advance per grid point
        let t = KineticTridiag::new(n, 1.0, dx);
        let mut psi = gaussian_packet(n, k0_per_dx);
        let centroid = |v: &[C64]| -> f64 {
            let w: f64 = v.iter().map(|z| z.norm_sqr()).sum();
            v.iter()
                .enumerate()
                .map(|(i, z)| i as f64 * z.norm_sqr())
                .sum::<f64>()
                / w
        };
        let c0 = centroid(&psi);
        let dt = 0.05;
        let steps = 400;
        for _ in 0..steps {
            kinetic_step_1d(&mut psi, dt, &t);
        }
        let c1 = centroid(&psi);
        // Discrete dispersion: v_g = sin(k0 dx)/(m dx) in grid units of dx.
        let vg = (k0_per_dx).sin() / dx; // physical velocity
        let expected_shift = vg * dt * steps as f64 / dx; // in grid points
        let shift = c1 - c0;
        assert!(
            (shift - expected_shift).abs() / expected_shift < 0.08,
            "shift={shift} expected={expected_shift}"
        );
    }

    #[test]
    fn kinetic_expectation_positive() {
        let n = 32;
        let t = KineticTridiag::new(n, 1.0, 1.0);
        let psi = gaussian_packet(n, 0.4);
        assert!(t.expectation(&psi) > 0.0);
    }
}
