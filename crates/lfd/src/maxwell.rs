//! Maxwell solver: the vector potential `A_X(alpha)(t)` driving each domain.
//!
//! The paper solves Maxwell's equations for the vector potential sampled at
//! each DC domain's position `X(alpha)` (Eq. (2)). In the multiscale scheme
//! light propagates on a much coarser grid than the electrons: we implement
//! a 1D FDTD wave equation along the propagation axis (one cell per domain
//! slab) with a soft source injecting the laser pulse, first-order Mur
//! absorbing boundaries, and a polarization-current feedback term from the
//! matter:
//!
//! ```text
//! d2A/dt2 = c^2 d2A/dx2 - 4 pi c J_p(x, t)
//! ```
//!
//! [`LaserPulse`] provides the standard sin^2-envelope pulse and the
//! length-gauge electric field `E = -(1/c) dA/dt` used by the potential
//! propagator.

use dcmesh_math::phys::SPEED_OF_LIGHT_AU;

/// A sin^2-envelope laser pulse (atomic units).
#[derive(Clone, Debug)]
pub struct LaserPulse {
    /// Peak electric field amplitude (a.u.).
    pub e0: f64,
    /// Carrier angular frequency (a.u., = photon energy in Hartree).
    pub omega: f64,
    /// Total pulse duration (a.u.).
    pub duration: f64,
}

impl LaserPulse {
    /// Envelope `sin^2(pi t / T)` inside the pulse, zero outside.
    pub fn envelope(&self, t: f64) -> f64 {
        if t <= 0.0 || t >= self.duration {
            0.0
        } else {
            (std::f64::consts::PI * t / self.duration).sin().powi(2)
        }
    }

    /// Electric field `E(t) = E0 sin^2(pi t/T) cos(w t)`.
    pub fn e_field(&self, t: f64) -> f64 {
        self.e0 * self.envelope(t) * (self.omega * t).cos()
    }

    /// Vector potential consistent with the *carrier* part of `E`:
    /// `A(t) = -(c E0 / w) sin^2(pi t/T) sin(w t)` (slowly varying envelope).
    pub fn vector_potential(&self, t: f64) -> f64 {
        -SPEED_OF_LIGHT_AU * self.e0 / self.omega * self.envelope(t) * (self.omega * t).sin()
    }
}

/// 1D FDTD propagation of the vector potential across the domain slabs.
#[derive(Clone, Debug)]
pub struct Maxwell1d {
    /// Cells along the propagation axis.
    n: usize,
    /// Cell size (Bohr).
    dx: f64,
    /// Time step (a.u.), must satisfy the Courant condition.
    dt: f64,
    /// Speed of light (a.u.).
    c: f64,
    a_prev: Vec<f64>,
    a: Vec<f64>,
    /// Scratch for the level [`Maxwell1d::step`] computes; not state.
    a_next: Vec<f64>,
    /// Polarization current deposited for the upcoming step.
    j: Vec<f64>,
    /// Source cell index for the injected pulse.
    source_cell: usize,
    /// Elapsed time (a.u.).
    pub time: f64,
}

impl Maxwell1d {
    /// Create a quiescent field on `n` cells of size `dx`, stepped with
    /// `dt`. Panics if the Courant condition `c dt <= dx` is violated.
    pub fn new(n: usize, dx: f64, dt: f64, source_cell: usize) -> Self {
        let c = SPEED_OF_LIGHT_AU;
        assert!(n >= 3, "need at least 3 cells");
        assert!(
            source_cell > 0 && source_cell < n - 1,
            "source must be interior (Mur boundaries overwrite edge cells)"
        );
        assert!(
            c * dt <= dx * (1.0 + 1e-12),
            "Courant violated: c dt = {} > dx = {dx}",
            c * dt
        );
        Self {
            n,
            dx,
            dt,
            c,
            a_prev: vec![0.0; n],
            a: vec![0.0; n],
            a_next: vec![0.0; n],
            j: vec![0.0; n],
            source_cell,
            time: 0.0,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the field grid is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Deposit polarization current `j` into `cell` for the next step.
    pub fn deposit_current(&mut self, cell: usize, j: f64) {
        self.j[cell] += j;
    }

    /// Advance one FDTD step, injecting the pulse at the source cell. The
    /// three time levels rotate through the buffers held since
    /// construction: every cell of the new level is written below.
    pub fn step(&mut self, pulse: &LaserPulse) {
        let (c, dt, dx) = (self.c, self.dt, self.dx);
        let c2dt2 = (c * dt / dx).powi(2);
        let (a, a_prev, a_next) = (&self.a, &self.a_prev, &mut self.a_next);
        for (i, an) in a_next.iter_mut().enumerate().take(self.n - 1).skip(1) {
            let lap = a[i + 1] - 2.0 * a[i] + a[i - 1];
            *an = 2.0 * a[i] - a_prev[i] + c2dt2 * lap
                - 4.0 * std::f64::consts::PI * c * self.j[i] * dt * dt;
        }
        // Soft source: add the pulse's vector potential increment.
        let t_new = self.time + dt;
        a_next[self.source_cell] +=
            pulse.vector_potential(t_new) - pulse.vector_potential(self.time);
        // First-order Mur absorbing boundaries.
        let k = (c * dt - dx) / (c * dt + dx);
        a_next[0] = a[1] + k * (a_next[1] - a[0]);
        let n = self.n;
        a_next[n - 1] = a[n - 2] + k * (a_next[n - 2] - a[n - 1]);
        std::mem::swap(&mut self.a_prev, &mut self.a);
        std::mem::swap(&mut self.a, &mut self.a_next);
        self.j.iter_mut().for_each(|x| *x = 0.0);
        self.time = t_new;
    }

    /// Vector potential sampled at a physical position (linear
    /// interpolation, clamped to the grid).
    pub fn sample(&self, x: f64) -> f64 {
        let xf = (x / self.dx).clamp(0.0, (self.n - 1) as f64);
        let i0 = xf.floor() as usize;
        let i1 = (i0 + 1).min(self.n - 1);
        let w = xf - i0 as f64;
        self.a[i0] * (1.0 - w) + self.a[i1] * w
    }

    /// Field energy proxy `sum (dA/dt / c)^2 + (dA/dx)^2` (a.u., unnormalized).
    pub fn energy(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.n {
            let at = (self.a[i] - self.a_prev[i]) / (self.c * self.dt);
            e += at * at;
            if i + 1 < self.n {
                let ax = (self.a[i + 1] - self.a[i]) / self.dx;
                e += ax * ax;
            }
        }
        e * self.dx
    }

    /// Maximum stable time step for this grid.
    pub fn max_dt(dx: f64) -> f64 {
        dx / SPEED_OF_LIGHT_AU
    }

    /// The evolving field, borrowed: the previous and the current level of
    /// the vector potential and the current deposited for the next step
    /// (with [`Maxwell1d::time`], all a checkpoint captures; `n`, `dx`, `dt`
    /// and the source cell come back from the configuration).
    pub fn field(&self) -> [&[f64]; 3] {
        [&self.a_prev, &self.a, &self.j]
    }

    /// Restore what [`Maxwell1d::field`] and [`Maxwell1d::time`] handed out.
    /// `false` when a level has another grid size: nothing is written.
    #[must_use]
    pub fn restore(&mut self, [a_prev, a, j]: [&[f64]; 3], time: f64) -> bool {
        if [a_prev, a, j].iter().any(|level| level.len() != self.n) {
            return false;
        }
        self.a_prev.copy_from_slice(a_prev);
        self.a.copy_from_slice(a);
        self.j.copy_from_slice(j);
        self.time = time;
        true
    }

    /// True when both levels and the deposited current are finite.
    pub fn is_finite(&self) -> bool {
        self.field().iter().all(|v| v.iter().all(|x| x.is_finite()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pulse() -> LaserPulse {
        LaserPulse {
            e0: 0.01,
            omega: 0.057,
            duration: 400.0,
        } // ~800 nm, ~10 fs
    }

    #[test]
    fn envelope_bounds_and_zeroes() {
        let p = test_pulse();
        assert_eq!(p.envelope(-1.0), 0.0);
        assert_eq!(p.envelope(p.duration + 1.0), 0.0);
        assert!((p.envelope(p.duration / 2.0) - 1.0).abs() < 1e-12);
        for t in [10.0, 100.0, 399.0] {
            assert!(p.envelope(t) >= 0.0 && p.envelope(t) <= 1.0);
        }
    }

    #[test]
    fn field_peak_matches_e0() {
        let p = test_pulse();
        let mut max = 0.0f64;
        for n in 0..4000 {
            max = max.max(p.e_field(n as f64 * 0.1).abs());
        }
        assert!(max <= p.e0 * (1.0 + 1e-9));
        assert!(max > 0.9 * p.e0);
    }

    #[test]
    fn pulse_travels_at_light_speed() {
        let dx = 10.0;
        let dt = Maxwell1d::max_dt(dx) * 0.9;
        let n = 400;
        let mut m = Maxwell1d::new(n, dx, dt, 20);
        let p = LaserPulse {
            e0: 0.01,
            omega: 1.0,
            duration: 10.0,
        };
        // Run to a time where light from the source has reached cell ~245
        // but cannot yet have reached cell 330.
        let t_run = (200 - 20) as f64 * dx / SPEED_OF_LIGHT_AU + 5.0;
        let steps = (t_run / dt) as usize;
        for _ in 0..steps {
            m.step(&p);
        }
        let arrived: f64 = (190..210).map(|i| m.a[i].abs()).fold(0.0, f64::max);
        let beyond: f64 = (330..350).map(|i| m.a[i].abs()).fold(0.0, f64::max);
        assert!(arrived > 1e-8, "wave never arrived: {arrived}");
        assert!(
            beyond < arrived * 0.01 + 1e-12,
            "wave outran light: {beyond} vs {arrived}"
        );
    }

    #[test]
    fn mur_boundaries_absorb() {
        let dx = 5.0;
        let dt = Maxwell1d::max_dt(dx); // exact Courant: Mur is perfect
        let mut m = Maxwell1d::new(100, dx, dt, 50);
        let p = LaserPulse {
            e0: 0.02,
            omega: 0.5,
            duration: 10.0,
        };
        let mut peak = 0.0f64;
        for _ in 0..2000 {
            m.step(&p);
            peak = peak.max(m.energy());
        }
        assert!(peak > 0.0);
        assert!(
            m.energy() < peak * 1e-3,
            "energy not absorbed: {} vs peak {peak}",
            m.energy()
        );
    }

    #[test]
    fn sampling_interpolates() {
        let mut m = Maxwell1d::new(10, 2.0, Maxwell1d::max_dt(2.0) * 0.5, 1);
        m.a[3] = 1.0;
        m.a[4] = 3.0;
        assert!((m.sample(6.0) - 1.0).abs() < 1e-12); // exactly cell 3
        assert!((m.sample(7.0) - 2.0).abs() < 1e-12); // halfway
        assert!((m.sample(-5.0) - m.a[0]).abs() < 1e-12); // clamped
        assert!((m.sample(1e9) - m.a[9]).abs() < 1e-12);
    }

    #[test]
    fn current_feedback_radiates() {
        let dx = 5.0;
        let dt = Maxwell1d::max_dt(dx) * 0.9;
        let mut m = Maxwell1d::new(60, dx, dt, 1);
        let silent = LaserPulse {
            e0: 0.0,
            omega: 1.0,
            duration: 1.0,
        };
        for s in 0..50 {
            // Oscillating dipole current at cell 30.
            m.deposit_current(30, 1e-3 * (0.5 * s as f64 * dt).sin());
            m.step(&silent);
        }
        assert!(m.energy() > 0.0, "current produced no field");
    }

    #[test]
    fn restore_checks_every_length_and_hands_back_the_bits() {
        let fresh = || Maxwell1d::new(12, 5.0, Maxwell1d::max_dt(5.0) * 0.9, 1);
        let (mut m, mut restored) = (fresh(), fresh());
        for _ in 0..7 {
            m.deposit_current(6, 1e-3);
            m.step(&test_pulse());
        }
        m.deposit_current(4, 2e-3);
        let levels = m.field();
        for short in 0..3 {
            let mut bad = levels;
            bad[short] = &bad[short][..11];
            assert!(!restored.restore(bad, m.time));
            assert_eq!(restored.field(), fresh().field(), "a refused restore wrote");
        }
        assert!(restored.restore(levels, m.time));
        m.step(&test_pulse());
        restored.step(&test_pulse());
        assert!(m.is_finite());
        assert_eq!(m.field(), restored.field());
        assert_eq!(m.time.to_bits(), restored.time.to_bits());
    }

    #[test]
    #[should_panic(expected = "Courant")]
    fn courant_violation_panics() {
        Maxwell1d::new(10, 1.0, 1.0, 1);
    }
}
