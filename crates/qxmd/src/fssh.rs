//! Tully fewest-switches surface hopping (FSSH).
//!
//! The `U_SH(Rdot, Delta_MD)` factor of paper Eq. (3): between electronic
//! propagation windows, the occupation of adiabatic states changes
//! stochastically according to the nonadiabatic coupling (NAC) induced by
//! slow atomic motion (refs [20, 21]). The electronic amplitudes evolve as
//!
//! ```text
//! dc_k/dt = -i eps_k c_k - sum_j d_kj c_j
//! ```
//!
//! with real antisymmetric NAC `d_kj = <k| d/dt |j>`, and the hop
//! probability out of the active surface `k` into `j` over `dt` is the
//! fewest-switches expression
//!
//! ```text
//! g_{k->j} = max(0, 2 d_kj Re(c_k^* c_j) dt / |c_k|^2).
//! ```
//!
//! Hops conserve total energy by rescaling the nuclear kinetic energy
//! reservoir; energetically forbidden ("frustrated") hops are rejected.

use dcmesh_math::C64;
use rand::Rng;

/// FSSH configuration.
#[derive(Clone, Debug)]
pub struct FsshConfig {
    /// Electronic sub-steps per [`FsshState::step`] call (RK4 substepping).
    pub substeps: usize,
}

impl Default for FsshConfig {
    fn default() -> Self {
        Self { substeps: 20 }
    }
}

/// Outcome of one FSSH step.
#[derive(Clone, Debug, PartialEq)]
pub enum HopEvent {
    /// Stayed on the current surface.
    None,
    /// Hopped to a new surface (index), adjusting kinetic energy.
    Hopped(usize),
    /// A hop was selected but rejected for lack of kinetic energy.
    Frustrated(usize),
}

/// The electronic state of one FSSH trajectory.
#[derive(Clone, Debug)]
pub struct FsshState {
    /// Complex amplitudes on the adiabatic states.
    pub c: Vec<C64>,
    /// Active surface index.
    pub surface: usize,
    cfg: FsshConfig,
}

impl FsshState {
    /// Start on `surface` with unit amplitude there.
    pub fn new(nstates: usize, surface: usize, cfg: FsshConfig) -> Self {
        assert!(surface < nstates);
        let mut c = vec![C64::zero(); nstates];
        c[surface] = C64::one();
        Self { c, surface, cfg }
    }

    /// Number of states.
    pub fn nstates(&self) -> usize {
        self.c.len()
    }

    /// True when every amplitude is finite.
    pub fn is_finite(&self) -> bool {
        self.c.iter().all(|z| z.re.is_finite() && z.im.is_finite())
    }

    /// Populations `|c_k|^2`.
    pub fn populations(&self) -> Vec<f64> {
        self.c.iter().map(|z| z.norm_sqr()).collect()
    }

    /// Total norm (should stay 1).
    pub fn norm(&self) -> f64 {
        self.populations().iter().sum()
    }

    /// Amplitude derivative `dc/dt` at fixed (energies, nac), into `dc`.
    fn derivative(c: &[C64], energies: &[f64], nac: &[Vec<f64>], dc: &mut [C64]) {
        let n = c.len();
        for k in 0..n {
            // -i eps_k c_k
            let mut acc = c[k].scale(energies[k]).mul_neg_i();
            for j in 0..n {
                if j != k {
                    acc -= c[j].scale(nac[k][j]);
                }
            }
            dc[k] = acc;
        }
    }

    /// Advance the amplitudes by `dt` (RK4 with substeps) and attempt one
    /// stochastic hop. `kinetic` is the nuclear kinetic-energy reservoir
    /// used for energy conservation on hops.
    pub fn step<RNG: Rng>(
        &mut self,
        energies: &[f64],
        nac: &[Vec<f64>],
        dt: f64,
        kinetic: &mut f64,
        rng: &mut RNG,
    ) -> HopEvent {
        let n = self.nstates();
        assert_eq!(energies.len(), n);
        assert_eq!(nac.len(), n);
        for row in nac {
            assert_eq!(row.len(), n);
        }
        debug_assert!(nac_antisymmetric(nac), "NAC matrix must be antisymmetric");
        // RK4 substepping of the amplitude ODE, in one buffer per call: the
        // start `c0`, a stage `ct` and the four slopes.
        let h = dt / self.cfg.substeps as f64;
        let mut buf = vec![C64::zero(); 6 * n];
        let (c0, rest) = buf.split_at_mut(n);
        let (ct, k) = rest.split_at_mut(n);
        let (k12, k34) = k.split_at_mut(2 * n);
        let ((k1, k2), (k3, k4)) = (k12.split_at_mut(n), k34.split_at_mut(n));
        for _ in 0..self.cfg.substeps {
            c0.copy_from_slice(&self.c);
            Self::derivative(c0, energies, nac, k1);
            for ((t, c), k) in ct.iter_mut().zip(&*c0).zip(&*k1) {
                *t = *c + k.scale(h / 2.0);
            }
            Self::derivative(ct, energies, nac, k2);
            for ((t, c), k) in ct.iter_mut().zip(&*c0).zip(&*k2) {
                *t = *c + k.scale(h / 2.0);
            }
            Self::derivative(ct, energies, nac, k3);
            for ((t, c), k) in ct.iter_mut().zip(&*c0).zip(&*k3) {
                *t = *c + k.scale(h);
            }
            Self::derivative(ct, energies, nac, k4);
            for i in 0..n {
                self.c[i] =
                    c0[i] + (k1[i] + k2[i].scale(2.0) + k3[i].scale(2.0) + k4[i]).scale(h / 6.0);
            }
        }
        // Fewest-switches hop decision.
        let k = self.surface;
        let pk = self.c[k].norm_sqr();
        if pk < 1e-14 {
            return HopEvent::None;
        }
        let mut probs = vec![0.0; n];
        let mut total = 0.0;
        for j in 0..n {
            if j == k {
                continue;
            }
            let flow = 2.0 * nac[k][j] * (self.c[k].conj() * self.c[j]).re;
            let g = (flow * dt / pk).max(0.0);
            probs[j] = g;
            total += g;
        }
        if total <= 0.0 {
            return HopEvent::None;
        }
        let xi: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for j in 0..n {
            acc += probs[j];
            if xi < acc {
                // Energy conservation: DeltaE = eps_k - eps_j added to KE.
                let de = energies[k] - energies[j];
                if *kinetic + de < 0.0 {
                    return HopEvent::Frustrated(j);
                }
                *kinetic += de;
                self.surface = j;
                return HopEvent::Hopped(j);
            }
        }
        HopEvent::None
    }
}

fn nac_antisymmetric(nac: &[Vec<f64>]) -> bool {
    let n = nac.len();
    for (i, row) in nac.iter().enumerate() {
        for (j, &v) in row.iter().enumerate().take(n) {
            if (v + nac[j][i]).abs() > 1e-10 {
                return false;
            }
        }
    }
    true
}

/// Finite-difference NAC between two orbital snapshots:
/// `d_jk ~ (<psi_j(t)|psi_k(t+dt)> - <psi_j(t+dt)|psi_k(t)>) / (2 dt)`
/// (the standard overlap-based estimator used with SCF orbitals).
pub fn nac_from_overlaps(
    s_forward: &dcmesh_math::Matrix<f64>,
    s_backward: &dcmesh_math::Matrix<f64>,
    dt: f64,
) -> Vec<Vec<f64>> {
    let n = s_forward.rows();
    assert_eq!(s_forward.cols(), n);
    assert_eq!(s_backward.rows(), n);
    let mut d = vec![vec![0.0; n]; n];
    for (j, row) in d.iter_mut().enumerate() {
        for (k, djk) in row.iter_mut().enumerate() {
            if j != k {
                *djk = (s_forward[(j, k)].re - s_backward[(j, k)].re) / (2.0 * dt);
            }
        }
    }
    // Enforce exact antisymmetry against numerical noise. Index form kept:
    // the body reads/writes two distinct rows of `d` per iteration.
    #[allow(clippy::needless_range_loop)]
    for j in 0..n {
        for k in j + 1..n {
            let a = 0.5 * (d[j][k] - d[k][j]);
            d[j][k] = a;
            d[k][j] = -a;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_math::Complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_level_nac(omega: f64) -> Vec<Vec<f64>> {
        vec![vec![0.0, omega], vec![-omega, 0.0]]
    }

    #[test]
    fn amplitudes_stay_normalized() {
        let mut s = FsshState::new(3, 0, FsshConfig::default());
        let e = vec![0.0, 0.1, 0.3];
        let nac = vec![
            vec![0.0, 0.02, -0.01],
            vec![-0.02, 0.0, 0.03],
            vec![0.01, -0.03, 0.0],
        ];
        let mut ke = 10.0;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            s.step(&e, &nac, 0.5, &mut ke, &mut rng);
        }
        assert!((s.norm() - 1.0).abs() < 1e-8, "norm {}", s.norm());
    }

    #[test]
    fn degenerate_two_level_rabi_oscillation() {
        // eps1 = eps2, d = Omega: populations oscillate as cos^2(Omega t).
        let omega = 0.05;
        let mut s = FsshState::new(2, 0, FsshConfig { substeps: 50 });
        let e = vec![0.0, 0.0];
        let nac = two_level_nac(omega);
        let mut ke = 1e9; // effectively infinite: hops never frustrated
        let mut rng = StdRng::seed_from_u64(2);
        let t_total = std::f64::consts::PI / (2.0 * omega); // quarter period
        let steps = 100;
        let dt = t_total / steps as f64;
        for _ in 0..steps {
            s.step(&e, &nac, dt, &mut ke, &mut rng);
        }
        let p = s.populations();
        // After Omega t = pi/2 the population has fully transferred.
        assert!(p[0] < 1e-3, "p0 {}", p[0]);
        assert!((p[1] - 1.0).abs() < 1e-3, "p1 {}", p[1]);
    }

    #[test]
    fn hops_track_populations_statistically() {
        // With strong coupling the trajectory must eventually hop.
        let omega = 0.1;
        let e = vec![0.0, -0.05];
        let nac = two_level_nac(omega);
        let mut hopped = 0;
        for seed in 0..40 {
            let mut s = FsshState::new(2, 0, FsshConfig::default());
            let mut ke = 10.0;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                if let HopEvent::Hopped(_) = s.step(&e, &nac, 0.3, &mut ke, &mut rng) {
                    hopped += 1;
                    break;
                }
            }
        }
        assert!(hopped > 30, "only {hopped}/40 trajectories hopped");
    }

    #[test]
    fn upward_hops_are_frustrated_without_kinetic_energy() {
        // Current surface is the *ground* state; target is higher by 1 Ha,
        // but the nuclear reservoir holds almost nothing.
        let e = vec![0.0, 1.0];
        let nac = two_level_nac(0.2);
        let mut frustrated = false;
        for seed in 0..20 {
            let mut s = FsshState::new(2, 0, FsshConfig::default());
            let mut ke = 1e-6;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                match s.step(&e, &nac, 0.5, &mut ke, &mut rng) {
                    HopEvent::Frustrated(_) => {
                        frustrated = true;
                    }
                    HopEvent::Hopped(_) => panic!("energetically forbidden hop accepted"),
                    HopEvent::None => {}
                }
            }
        }
        assert!(frustrated, "no frustrated hop ever recorded");
    }

    #[test]
    fn downward_hop_releases_energy_into_kinetic() {
        let e = vec![0.5, 0.0]; // start on the upper surface
        let nac = two_level_nac(0.15);
        let mut s = FsshState::new(2, 0, FsshConfig::default());
        let mut ke = 0.1;
        let mut rng = StdRng::seed_from_u64(11);
        let mut hopped = false;
        for _ in 0..200 {
            if let HopEvent::Hopped(j) = s.step(&e, &nac, 0.4, &mut ke, &mut rng) {
                assert_eq!(j, 1);
                hopped = true;
                break;
            }
        }
        assert!(hopped, "never hopped down");
        assert!((ke - 0.6).abs() < 1e-12, "KE after hop {ke}");
    }

    #[test]
    fn nac_estimator_is_antisymmetric() {
        use dcmesh_math::Matrix;
        let mut sf: Matrix<f64> = Matrix::zeros(3, 3);
        let mut sb: Matrix<f64> = Matrix::zeros(3, 3);
        sf[(0, 1)] = Complex::from_real(0.2);
        sb[(1, 0)] = Complex::from_real(0.15);
        sf[(2, 0)] = Complex::from_real(-0.1);
        let d = nac_from_overlaps(&sf, &sb, 0.5);
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((v + d[j][i]).abs() < 1e-14);
            }
        }
        assert!(d[0][1] != 0.0);
    }

    #[test]
    fn no_coupling_means_no_hops() {
        let e = vec![0.0, 0.2];
        let nac = two_level_nac(0.0);
        let mut s = FsshState::new(2, 0, FsshConfig::default());
        let mut ke = 5.0;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(s.step(&e, &nac, 0.5, &mut ke, &mut rng), HopEvent::None);
        }
        assert_eq!(s.surface, 0);
    }
}
