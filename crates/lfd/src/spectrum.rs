//! Linear-response absorption spectra from real-time propagation —
//! the standard delta-kick protocol of real-time TDDFT (paper refs
//! [9, 23, 24]: Octopus and SALMON compute optical spectra exactly this
//! way, and it is the canonical validation of any RT-TDDFT propagator).
//!
//! Protocol: boost every occupied orbital with a uniform momentum kick
//! `psi -> exp(i k x) psi`, propagate field-free, record the time-dependent
//! dipole moment `mu(t)`, and Fourier transform:
//!
//! ```text
//! S(w)  ~  w * Im integral dt e^{i w t} e^{-g t} [mu(t) - mu(0)]
//! ```
//!
//! Peaks of `S(w)` sit at the excitation energies — for a harmonic well
//! exactly at the oscillator frequency, which the tests verify.

use dcmesh_grid::{Mesh3, WfAos, WfSoa};
use dcmesh_math::{Complex, C64};

use crate::kinetic::KineticPropagator;
use crate::potential::PotentialPropagator;

/// Electric-dipole moment of the electron density along `axis`, relative
/// to the mesh center: `mu = -integral rho(r) (r - r_c) dV` (electron
/// charge = -1 in atomic units).
pub fn dipole_moment(wf: &WfAos<f64>, occupations: &[f64], axis: usize) -> f64 {
    density_dipole(wf.mesh(), &wf.density(occupations), axis)
}

/// [`dipole_moment`] of a density `rho` already in hand (one value per
/// point of `mesh`).
pub fn density_dipole(mesh: &Mesh3, rho: &[f64], axis: usize) -> f64 {
    let c = mesh.center();
    let dv = mesh.dv();
    let mut mu = 0.0;
    for (i, j, k) in mesh.iter_points() {
        let p = mesh.position(i, j, k);
        mu -= rho[mesh.idx(i, j, k)] * (p[axis] - c[axis]);
    }
    mu * dv
}

/// Apply the delta kick `psi -> exp(i k x_axis) psi` to every orbital
/// (a uniform momentum boost — the impulsive limit of an E-field pulse).
pub fn delta_kick(wf: &mut WfAos<f64>, kick: f64, axis: usize) {
    let mesh = wf.mesh().clone();
    for n in 0..wf.norb() {
        let orb = wf.orbital_mut(n);
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            orb[mesh.idx(i, j, k)] *= C64::cis(kick * p[axis]);
        }
    }
}

/// Result of a spectrum run.
#[derive(Clone, Debug)]
pub struct Spectrum {
    /// Angular frequencies (Hartree).
    pub omega: Vec<f64>,
    /// Absorption strength (arbitrary units, >= 0 at true resonances).
    pub strength: Vec<f64>,
    /// The recorded dipole time series.
    pub dipole: Vec<f64>,
    /// Time step between dipole samples (a.u.).
    pub dt: f64,
}

impl Spectrum {
    /// The frequency of the strongest absorption peak.
    pub fn dominant_peak(&self) -> f64 {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, &s) in self.strength.iter().enumerate() {
            if s > best.1 {
                best = (i, s);
            }
        }
        self.omega[best.0]
    }
}

/// Fourier-transform a dipole series into an absorption spectrum with
/// exponential damping `gamma` (spectral broadening) and `nomega` bins up
/// to `omega_max`.
pub fn spectrum_from_dipole(
    dipole: &[f64],
    dt: f64,
    gamma: f64,
    omega_max: f64,
    nomega: usize,
) -> Spectrum {
    assert!(dipole.len() > 2);
    let mu0 = dipole[0];
    let mut omega = Vec::with_capacity(nomega);
    let mut strength = Vec::with_capacity(nomega);
    for iw in 0..nomega {
        let w = omega_max * (iw as f64 + 0.5) / nomega as f64;
        let mut acc = Complex::<f64>::zero();
        for (n, &mu) in dipole.iter().enumerate() {
            let t = n as f64 * dt;
            let damped = (mu - mu0) * (-gamma * t).exp();
            acc += Complex::cis(w * t).scale(damped);
        }
        omega.push(w);
        strength.push(w * acc.im.abs() * dt);
    }
    Spectrum {
        omega,
        strength,
        dipole: dipole.to_vec(),
        dt,
    }
}

/// Run the full delta-kick protocol: kick the given (ground-state) orbitals
/// along `axis`, propagate `steps` QD steps in the static `v_loc`, record
/// the dipole, and return the spectrum.
#[allow(clippy::too_many_arguments)]
pub fn delta_kick_spectrum(
    mesh: &Mesh3,
    v_loc: &[f64],
    mut orbitals: WfAos<f64>,
    occupations: &[f64],
    kick: f64,
    dt: f64,
    steps: usize,
    axis: usize,
) -> Spectrum {
    assert_eq!(v_loc.len(), mesh.len());
    delta_kick(&mut orbitals, kick, axis);
    let kin = KineticPropagator::new(mesh.clone(), dt, 1.0);
    let pot_half = PotentialPropagator::new(mesh.clone(), v_loc, dt * 0.5);
    let mut soa: WfSoa<f64> = orbitals.to_soa();
    let block = soa.norb().max(1);
    let mut dipole = Vec::with_capacity(steps + 1);
    dipole.push(dipole_moment(&soa.to_aos(), occupations, axis));
    for _ in 0..steps {
        kin.step_with_potential(&mut soa, &pot_half, block, None);
        dipole.push(dipole_moment(&soa.to_aos(), occupations, axis));
    }
    // Resolution: gamma ~ few / T_total; omega_max covers several gaps.
    let t_total = steps as f64 * dt;
    let gamma = 4.0 / t_total;
    spectrum_from_dipole(&dipole, dt, gamma, 4.0, 400)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_tddft::{eigensolver, Hamiltonian};

    fn harmonic_setup(omega0: f64) -> (Mesh3, Vec<f64>, WfAos<f64>) {
        let mesh = Mesh3::cubic(11, 0.45);
        let c = mesh.center();
        let mut v = vec![0.0; mesh.len()];
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
            v[mesh.idx(i, j, k)] = 0.5 * omega0 * omega0 * r2;
        }
        let h = Hamiltonian::with_potential(mesh.clone(), v.clone());
        let eig = eigensolver::lowest_states(&h, 1, 300, 21);
        (mesh, v, eig.orbitals)
    }

    #[test]
    fn ground_state_dipole_is_zero() {
        let (_, _, orbitals) = harmonic_setup(1.0);
        for axis in 0..3 {
            let mu = dipole_moment(&orbitals, &[2.0], axis);
            // Zero up to the iterative eigensolver's residual asymmetry.
            assert!(mu.abs() < 0.02, "axis {axis}: mu {mu}");
        }
    }

    #[test]
    fn kick_conserves_norm_and_density() {
        let (_, _, mut orbitals) = harmonic_setup(1.0);
        let rho0 = orbitals.density(&[2.0]);
        delta_kick(&mut orbitals, 0.1, 0);
        assert!((orbitals.orbital_norm(0) - 1.0).abs() < 1e-12);
        let rho1 = orbitals.density(&[2.0]);
        for (a, b) in rho0.iter().zip(&rho1) {
            assert!((a - b).abs() < 1e-12, "kick moved density instantaneously");
        }
    }

    #[test]
    fn harmonic_well_absorbs_at_its_frequency() {
        // The dipole-allowed transition of a harmonic well sits exactly at
        // omega0 (Kohn's theorem for the single-mode kick).
        let omega0 = 1.0;
        let (mesh, v, orbitals) = harmonic_setup(omega0);
        let spec = delta_kick_spectrum(&mesh, &v, orbitals, &[2.0], 0.05, 0.05, 1200, 0);
        let peak = spec.dominant_peak();
        // Finite mesh + discrete Laplacian shift the frequency slightly.
        assert!(
            (peak - omega0).abs() < 0.12,
            "spectrum peak {peak} (want ~{omega0})"
        );
    }

    #[test]
    fn dipole_oscillates_after_kick() {
        let (mesh, v, orbitals) = harmonic_setup(1.0);
        let spec = delta_kick_spectrum(&mesh, &v, orbitals, &[2.0], 0.05, 0.05, 400, 0);
        let max = spec
            .dipole
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = spec.dipole.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 1e-3 && min < -1e-3,
            "dipole did not oscillate: [{min}, {max}]"
        );
        // Sign changes confirm oscillation rather than drift.
        let crossings = spec.dipole.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        assert!(crossings > 4, "only {crossings} zero crossings");
    }

    #[test]
    fn spectrum_is_linear_in_small_kicks() {
        let (mesh, v, orbitals) = harmonic_setup(1.0);
        let s1 = delta_kick_spectrum(&mesh, &v, orbitals.clone(), &[2.0], 0.02, 0.05, 300, 0);
        let s2 = delta_kick_spectrum(&mesh, &v, orbitals, &[2.0], 0.04, 0.05, 300, 0);
        // Peak-to-peak dipole amplitude doubles with the kick
        // (linear-response regime; peak-to-peak cancels the small residual
        // asymmetry of the iterative ground state).
        let ptp = |d: &[f64]| {
            d.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - d.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        let ratio = ptp(&s2.dipole) / ptp(&s1.dipole);
        assert!((ratio - 2.0).abs() < 0.25, "kick-linearity ratio {ratio}");
    }
}
