//! Molecular dynamics: velocity Verlet with optional Berendsen thermostat.
//!
//! QXMD advances the atoms by one `Delta_MD ~ 1 fs` step per outer
//! iteration (paper Eq. (3)); forces come from either the SCF electronic
//! structure, the classical reference force field, or the trained NN force
//! field. The integrator is generic over a [`ForceProvider`].

use dcmesh_math::phys::KB_HARTREE_PER_K;
use dcmesh_tddft::AtomSet;

/// Anything that can add its forces to the accumulators of an [`AtomSet`]
/// and report the potential energy (Hartree).
pub trait ForceProvider {
    /// Add the forces into `atoms[i].force` and return the potential
    /// energy. The accumulators are not cleared: a caller that wants these
    /// forces alone calls [`AtomSet::clear_forces`] first, as
    /// [`MdIntegrator`] does, and providers stack by calling one another.
    fn compute(&self, atoms: &mut AtomSet) -> f64;
}

/// MD configuration.
#[derive(Clone, Debug)]
pub struct MdConfig {
    /// Time step `Delta_MD` (a.u.).
    pub dt: f64,
    /// Optional Berendsen thermostat: (target temperature K, time constant
    /// in units of dt).
    pub thermostat: Option<(f64, f64)>,
}

impl Default for MdConfig {
    fn default() -> Self {
        // 0.5 fs in atomic units.
        Self {
            dt: dcmesh_math::phys::femtoseconds_to_au(0.5),
            thermostat: None,
        }
    }
}

/// Velocity-Verlet integrator owning the atom set.
pub struct MdIntegrator<F> {
    /// The atoms.
    pub atoms: AtomSet,
    /// Force provider.
    pub forces: F,
    cfg: MdConfig,
    potential: f64,
    steps: u64,
}

impl<F> std::fmt::Debug for MdIntegrator<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdIntegrator")
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl<F: ForceProvider> MdIntegrator<F> {
    /// Create the integrator; computes initial forces.
    pub fn new(mut atoms: AtomSet, forces: F, cfg: MdConfig) -> Self {
        atoms.clear_forces();
        let potential = forces.compute(&mut atoms);
        Self {
            atoms,
            forces,
            cfg,
            potential,
            steps: 0,
        }
    }

    /// Current potential energy (Hartree).
    pub fn potential_energy(&self) -> f64 {
        self.potential
    }

    /// Kinetic energy `sum m v^2 / 2` (Hartree).
    pub fn kinetic_energy(&self) -> f64 {
        self.atoms
            .atoms
            .iter()
            .map(|a| {
                let m = self.atoms.species[a.species].mass;
                0.5 * m * (a.vel[0].powi(2) + a.vel[1].powi(2) + a.vel[2].powi(2))
            })
            .sum()
    }

    /// Total energy (Hartree).
    pub fn total_energy(&self) -> f64 {
        self.potential + self.kinetic_energy()
    }

    /// Instantaneous temperature (K) from the equipartition theorem.
    pub fn temperature(&self) -> f64 {
        let n = self.atoms.len();
        if n == 0 {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * n as f64 * KB_HARTREE_PER_K)
    }

    /// True when every position, velocity and force and the cached
    /// potential energy are finite.
    pub fn is_finite(&self) -> bool {
        self.potential.is_finite()
            && self.atoms.atoms.iter().all(|a| {
                [a.pos, a.vel, a.force]
                    .iter()
                    .all(|v| v.iter().all(|x| x.is_finite()))
            })
    }

    /// Number of completed MD steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restore the integrator's private state from a checkpoint: the cached
    /// potential energy and the step counter. The caller writes the atoms
    /// (`atoms` is public) — positions, velocities *and* the force
    /// accumulators: the first half-kick of the next step uses the stored
    /// forces, so they must be bitwise what the interrupted run held.
    pub fn import_state(&mut self, potential: f64, steps: u64) {
        self.potential = potential;
        self.steps = steps;
    }

    /// Draw Maxwell–Boltzmann velocities at temperature `t_kelvin` with a
    /// deterministic seed, removing the center-of-mass drift.
    pub fn initialize_velocities(&mut self, t_kelvin: f64, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gauss = |rng: &mut StdRng| -> f64 {
            // Box–Muller.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        for a in &mut self.atoms.atoms {
            let m = self.atoms.species[a.species].mass;
            let sigma = (KB_HARTREE_PER_K * t_kelvin / m).sqrt();
            for ax in 0..3 {
                a.vel[ax] = sigma * gauss(&mut rng);
            }
        }
        // Remove center-of-mass momentum.
        let mut p = [0.0; 3];
        let mut mtot = 0.0;
        for a in &self.atoms.atoms {
            let m = self.atoms.species[a.species].mass;
            mtot += m;
            for (pa, &v) in p.iter_mut().zip(&a.vel) {
                *pa += m * v;
            }
        }
        for a in &mut self.atoms.atoms {
            for (v, &pa) in a.vel.iter_mut().zip(&p) {
                *v -= pa / mtot;
            }
        }
    }

    /// One velocity-Verlet step (with optional thermostat velocity scaling).
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        // Half kick + drift.
        for a in &mut self.atoms.atoms {
            let m = self.atoms.species[a.species].mass;
            for ax in 0..3 {
                a.vel[ax] += 0.5 * dt * a.force[ax] / m;
                a.pos[ax] += dt * a.vel[ax];
            }
        }
        // New forces.
        self.atoms.clear_forces();
        self.potential = self.forces.compute(&mut self.atoms);
        // Second half kick.
        for a in &mut self.atoms.atoms {
            let m = self.atoms.species[a.species].mass;
            for ax in 0..3 {
                a.vel[ax] += 0.5 * dt * a.force[ax] / m;
            }
        }
        // Berendsen thermostat.
        if let Some((t_target, tau)) = self.cfg.thermostat {
            let t_now = self.temperature();
            if t_now > 1e-12 {
                let lambda = (1.0 + (t_target / t_now - 1.0) / tau).max(0.0).sqrt();
                for a in &mut self.atoms.atoms {
                    for ax in 0..3 {
                        a.vel[ax] *= lambda;
                    }
                }
            }
        }
        self.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_tddft::Species;

    /// Harmonic springs binding each atom to its initial position.
    struct Harmonic {
        anchors: Vec<[f64; 3]>,
        k: f64,
    }

    impl ForceProvider for Harmonic {
        fn compute(&self, atoms: &mut AtomSet) -> f64 {
            let mut e = 0.0;
            for (a, anchor) in atoms.atoms.iter_mut().zip(&self.anchors) {
                for (ax, &anc) in anchor.iter().enumerate() {
                    let d = a.pos[ax] - anc;
                    e += 0.5 * self.k * d * d;
                    a.force[ax] -= self.k * d;
                }
            }
            e
        }
    }

    fn oscillator() -> MdIntegrator<Harmonic> {
        let mut set = AtomSet::new(vec![Species::hydrogen()]);
        set.push(0, [0.3, 0.0, 0.0]);
        set.push(0, [5.0, 0.2, -0.1]);
        let anchors = vec![[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]];
        let forces = Harmonic { anchors, k: 0.5 };
        MdIntegrator::new(
            set,
            forces,
            MdConfig {
                dt: 2.0,
                thermostat: None,
            },
        )
    }

    #[test]
    fn energy_conserved_by_verlet() {
        let mut md = oscillator();
        let e0 = md.total_energy();
        for _ in 0..2000 {
            md.step();
        }
        let e1 = md.total_energy();
        assert!(
            (e1 - e0).abs() / e0.abs() < 1e-3,
            "energy drift {e0} -> {e1}"
        );
    }

    #[test]
    fn oscillation_period_matches_analytic() {
        // Single 1D harmonic oscillator: T = 2 pi sqrt(m/k).
        let mut set = AtomSet::new(vec![Species::hydrogen()]);
        set.push(0, [1.0, 0.0, 0.0]);
        let m = set.species[0].mass;
        let k = 0.2;
        let forces = Harmonic {
            anchors: vec![[0.0; 3]],
            k,
        };
        let dt = 1.0;
        let mut md = MdIntegrator::new(
            set,
            forces,
            MdConfig {
                dt,
                thermostat: None,
            },
        );
        // Count zero crossings of x over many periods.
        let mut crossings = 0;
        let mut last = md.atoms.atoms[0].pos[0];
        let steps = 20000;
        for _ in 0..steps {
            md.step();
            let x = md.atoms.atoms[0].pos[0];
            if x * last < 0.0 {
                crossings += 1;
            }
            last = x;
        }
        let period_meas = 2.0 * steps as f64 * dt / crossings as f64;
        let period_true = 2.0 * std::f64::consts::PI * (m / k).sqrt();
        assert!(
            (period_meas - period_true).abs() / period_true < 0.01,
            "T {period_meas} vs {period_true}"
        );
    }

    #[test]
    fn thermostat_drives_temperature_to_target() {
        let mut set = AtomSet::new(vec![Species::oxygen()]);
        for i in 0..8 {
            set.push(0, [i as f64 * 3.0, 0.1 * i as f64, 0.0]);
        }
        let anchors: Vec<[f64; 3]> = set.atoms.iter().map(|a| a.pos).collect();
        let forces = Harmonic { anchors, k: 0.1 };
        let cfg = MdConfig {
            dt: 5.0,
            thermostat: Some((300.0, 10.0)),
        };
        let mut md = MdIntegrator::new(set, forces, cfg);
        md.initialize_velocities(50.0, 4);
        for _ in 0..3000 {
            md.step();
        }
        let t = md.temperature();
        // Thermostatted harmonic system: kinetic T fluctuates around target.
        assert!((t - 300.0).abs() < 90.0, "temperature {t}");
    }

    #[test]
    fn velocity_initialization_is_com_free_and_warm() {
        let mut md = oscillator();
        md.initialize_velocities(300.0, 7);
        let mut p = [0.0; 3];
        for a in &md.atoms.atoms {
            let m = md.atoms.species[a.species].mass;
            for (pa, &v) in p.iter_mut().zip(&a.vel) {
                *pa += m * v;
            }
        }
        for (ax, &pa) in p.iter().enumerate() {
            assert!(pa.abs() < 1e-9, "COM momentum along axis {ax}: {p:?}");
        }
        assert!(md.temperature() > 0.0);
    }

    #[test]
    fn step_counter_increments() {
        let mut md = oscillator();
        assert_eq!(md.steps(), 0);
        md.step();
        md.step();
        assert_eq!(md.steps(), 2);
    }
}
