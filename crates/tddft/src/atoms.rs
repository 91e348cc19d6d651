//! Atomic species, pseudopotential parameters, and atom containers.
//!
//! Each species carries a norm-conserving-style model pseudopotential:
//! a smooth local part `v_loc(r) = -Z_val * erf(r / rc) / r` (finite at the
//! origin, Coulombic at range) and one Kleinman–Bylander nonlocal channel
//! with a Gaussian projector — the `v_ion = v_loc + v_nl` split of paper
//! Eq. (5). Parameters for Pb/Ti/O are model values tuned for well-conditioned
//! eigensolves on coarse meshes, not transferable chemistry (see DESIGN.md).

use std::sync::OnceLock;

use dcmesh_math::phys::AMU_IN_ME;
use dcmesh_math::HermiteTable;

/// A chemical species with model pseudopotential parameters (atomic units).
#[derive(Clone, Debug)]
pub struct Species {
    /// Chemical symbol for reports.
    pub symbol: &'static str,
    /// Valence charge seen by electrons.
    pub z_val: f64,
    /// Ionic mass in electron masses.
    pub mass: f64,
    /// Local pseudopotential core radius (Bohr).
    pub rc_loc: f64,
    /// Nonlocal KB projector radius (Bohr).
    pub r_nl: f64,
    /// KB energy strength (Hartree); sign sets attractive/repulsive channel.
    pub e_kb: f64,
}

impl Species {
    /// Model lead (Pb): 4 valence electrons (6s2 6p2).
    pub fn lead() -> Self {
        Self {
            symbol: "Pb",
            z_val: 4.0,
            mass: 207.2 * AMU_IN_ME,
            rc_loc: 1.2,
            r_nl: 1.0,
            e_kb: 0.8,
        }
    }

    /// Model titanium (Ti): 4 valence electrons (3d2 4s2).
    pub fn titanium() -> Self {
        Self {
            symbol: "Ti",
            z_val: 4.0,
            mass: 47.867 * AMU_IN_ME,
            rc_loc: 1.0,
            r_nl: 0.9,
            e_kb: 1.2,
        }
    }

    /// Model oxygen (O): 6 valence electrons.
    pub fn oxygen() -> Self {
        Self {
            symbol: "O",
            z_val: 6.0,
            mass: 15.999 * AMU_IN_ME,
            rc_loc: 0.7,
            r_nl: 0.6,
            e_kb: -0.5,
        }
    }

    /// A light one-electron test species (hydrogen-like).
    pub fn hydrogen() -> Self {
        Self {
            symbol: "H",
            z_val: 1.0,
            mass: 1.008 * AMU_IN_ME,
            rc_loc: 0.5,
            r_nl: 0.5,
            e_kb: 0.0,
        }
    }

    /// Local pseudopotential at distance `r` (Bohr):
    /// `-Z erf(r/rc)/r`, with the analytic `r -> 0` limit `-2Z/(sqrt(pi) rc)`.
    pub fn v_local(&self, r: f64) -> f64 {
        if r < 1e-10 {
            -2.0 * self.z_val / (std::f64::consts::PI.sqrt() * self.rc_loc)
        } else {
            -self.z_val * erf(r / self.rc_loc) / r
        }
    }

    /// Unnormalized KB projector amplitude at distance `r`.
    pub fn projector(&self, r: f64) -> f64 {
        (-0.5 * (r / self.r_nl).powi(2)).exp()
    }
}

/// `erf(x)` is `1.0` to the last bit from here on: `erfc(6) = 2.2e-17` is
/// below half an ulp of 1. So is `g(x) = erf(x) / x` against `1 / x`.
pub const ERF_SATURATION: f64 = 6.0;

/// `g(x) = erf(x) / x` on `[0, 6]`, a quintic Hermite table at 64 nodes per
/// unit (9 KB): the local pseudopotential is
/// `v_loc(d) = -(Z / rc) g(d / rc)`, the Wolf kernel `erfc(a r) / r = 1 / r -
/// a g(a r)`. Built once per process from [`erf`], so its bits are those of
/// constants.
pub fn erf_over_x() -> &'static HermiteTable {
    static TABLE: OnceLock<HermiteTable> = OnceLock::new();
    TABLE.get_or_init(|| HermiteTable::new(0.0, ERF_SATURATION, 64.0, erf_over_x_exact))
}

/// `[g, g', g'']` of `g(x) = erf(x) / x` in closed form: with `x g = erf`,
/// `g' = (erf' - g) / x` and `g'' = -2 erf' - 2 g' / x`.
fn erf_over_x_exact(x: f64) -> [f64; 3] {
    let slope = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
    if x == 0.0 {
        return [slope, 0.0, -2.0 / 3.0 * slope];
    }
    let g = erf(x) / x;
    let dg = (slope - g) / x;
    [g, dg, -2.0 * slope - 2.0 * dg / x]
}

/// Error function by series, accurate to ~1e-15 at a cost that grows with
/// `x`: Maclaurin series for `x < 2` (up to 60 terms), continued-fraction
/// `erfc` (modified Lentz, up to 200 iterations) beyond. Odd; exactly `1.0`
/// from `x = 6` on; NaN in, NaN out. The tables of the radial kernel are
/// built from it, and the closed forms they are tested against call it.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    if x < 2.0 {
        // erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)).
        let x2 = x * x;
        let mut term = x; // (-1)^n x^(2n+1)/n! at n = 0
        let mut sum = x;
        let mut n = 0usize;
        loop {
            n += 1;
            term *= -x2 / n as f64;
            let add = term / (2 * n + 1) as f64;
            sum += add;
            if add.abs() < 1e-17 * sum.abs().max(1e-300) || n > 60 {
                break;
            }
        }
        two_over_sqrt_pi * sum
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function for `x >= 2` via the Laplace continued
/// fraction `erfc(x) = e^{-x^2}/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + ...)))`
/// evaluated with the modified Lentz algorithm.
fn erfc_cf(x: f64) -> f64 {
    // f = x + K_{n>=1}( (n/2) / x ), evaluated by modified Lentz.
    let tiny = 1e-300;
    let mut f = x;
    let mut c = f;
    let mut d = 0.0;
    for n in 1..200 {
        let a = n as f64 / 2.0;
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x * x).exp() / std::f64::consts::PI.sqrt() / f
}

/// One atom: species index plus dynamic state.
#[derive(Clone, Debug)]
pub struct Atom {
    /// Index into the owning [`AtomSet`]'s species table.
    pub species: usize,
    /// Position (Bohr).
    pub pos: [f64; 3],
    /// Velocity (atomic units).
    pub vel: [f64; 3],
    /// Force accumulator (Hartree/Bohr).
    pub force: [f64; 3],
}

impl Atom {
    /// An atom at rest.
    pub fn at(species: usize, pos: [f64; 3]) -> Self {
        Self {
            species,
            pos,
            vel: [0.0; 3],
            force: [0.0; 3],
        }
    }
}

/// A collection of atoms sharing a species table.
#[derive(Clone, Debug, Default)]
pub struct AtomSet {
    /// Species table.
    pub species: Vec<Species>,
    /// The atoms.
    pub atoms: Vec<Atom>,
}

impl AtomSet {
    /// Empty set with the given species table.
    pub fn new(species: Vec<Species>) -> Self {
        Self {
            species,
            atoms: Vec::new(),
        }
    }

    /// Add an atom at rest; returns its index.
    pub fn push(&mut self, species: usize, pos: [f64; 3]) -> usize {
        assert!(species < self.species.len(), "unknown species index");
        self.atoms.push(Atom::at(species, pos));
        self.atoms.len() - 1
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if there are no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Total valence electron count.
    pub fn electron_count(&self) -> f64 {
        self.atoms
            .iter()
            .map(|a| self.species[a.species].z_val)
            .sum()
    }

    /// Zero every atom's force accumulator.
    pub fn clear_forces(&mut self) {
        for a in &mut self.atoms {
            a.force = [0.0; 3];
        }
    }
}

/// Euclidean distance between two positions.
pub fn distance(a: [f64; 3], b: [f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-12);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn erf_over_x_table_matches_the_closed_form() {
        let (g, mut worst) = (erf_over_x(), [0.0f64; 2]);
        for i in 0..=60_000 {
            let x = i as f64 / 10_000.0;
            let ((v, dv), [v0, dv0, _]) = (g.eval(x), erf_over_x_exact(x));
            worst = [worst[0].max((v - v0).abs()), worst[1].max((dv - dv0).abs())];
        }
        assert!(worst[0] < 1e-14 && worst[1] < 1e-11, "{worst:?}");
        assert_eq!(erf(ERF_SATURATION), 1.0);
    }

    #[test]
    fn erf_passes_nan_through_without_a_panic() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erf(-f64::NAN).is_nan());
    }

    #[test]
    fn erf_is_relatively_accurate_near_zero() {
        // The series keeps small arguments' relative accuracy (v_local's
        // r -> 0 limit relies on it).
        for x in [1e-300, 1e-12, 1e-6, 1e-3] {
            let x2 = x * x;
            let want = 2.0 / std::f64::consts::PI.sqrt() * x * (1.0 - x2 / 3.0 + x2 * x2 / 10.0);
            assert!((erf(x) - want).abs() <= 4e-16 * want, "erf({x:e})");
        }
        assert_eq!(erf(0.0), 0.0);
    }

    #[test]
    fn v_local_is_finite_and_coulombic() {
        let s = Species::oxygen();
        let v0 = s.v_local(0.0);
        assert!(v0.is_finite() && v0 < 0.0);
        // At long range: -Z/r.
        let r = 10.0;
        assert!((s.v_local(r) + s.z_val / r).abs() < 1e-6);
        // Monotone attraction: deeper closer in.
        assert!(s.v_local(0.1) < s.v_local(1.0));
    }

    #[test]
    fn electron_counting_pbtio3() {
        let mut set = AtomSet::new(vec![
            Species::lead(),
            Species::titanium(),
            Species::oxygen(),
        ]);
        set.push(0, [0.0; 3]);
        set.push(1, [1.0; 3]);
        for i in 0..3 {
            set.push(2, [i as f64, 0.0, 0.0]);
        }
        // Pb(4) + Ti(4) + 3 O(6) = 26 electrons.
        assert_eq!(set.electron_count(), 26.0);
    }

    #[test]
    fn projector_decays() {
        let s = Species::titanium();
        assert!(s.projector(0.0) == 1.0);
        assert!(s.projector(3.0) < s.projector(1.0));
        assert!(s.projector(5.0) < 1e-5);
    }
}
