//! Atomic species, pseudopotential parameters, and atom containers.
//!
//! Each species carries a norm-conserving-style model pseudopotential:
//! a smooth local part `v_loc(r) = -Z_val * erf(r / rc) / r` (finite at the
//! origin, Coulombic at range) and one Kleinman–Bylander nonlocal channel
//! with a Gaussian projector — the `v_ion = v_loc + v_nl` split of paper
//! Eq. (5). Parameters for Pb/Ti/O are model values tuned for stable SCF on
//! coarse meshes, not transferable chemistry (see DESIGN.md).

use dcmesh_math::phys::AMU_IN_ME;

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

/// Nodes per unit of `x` in the [`erf`] table.
const ERF_NODES_PER_UNIT: f64 = 256.0;
/// `erf(x)` is `1.0` to the last bit from here on: `erfc(6) = 2.2e-17` is
/// below half an ulp of 1.
const ERF_SATURATION: f64 = 6.0;

/// `(erf(x_k), erf'(x_k) = 2/sqrt(pi) e^{-x_k^2})` at `x_k = k / 256` for
/// `0 <= x_k <= 6`, built on first use from [`erf_series`] (25 KB).
fn erf_table() -> &'static [[f64; 2]] {
    static TABLE: std::sync::OnceLock<Vec<[f64; 2]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let nodes = (ERF_SATURATION * ERF_NODES_PER_UNIT) as usize;
        (0..=nodes)
            .map(|k| {
                let x = k as f64 / ERF_NODES_PER_UNIT;
                let slope = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
                [erf_series(x), slope]
            })
            .collect()
    })
}

/// Error function at constant cost: the nearest node `x_k` of a table with
/// spacing 1/256 plus a five-term Taylor step in `h = x - x_k`
/// (`|h| <= 1/512`). Every derivative of `erf` is a Hermite polynomial
/// times `erf'`, so the step needs the two tabulated values and no
/// transcendental; its remainder `|H_5 erf'| h^6 / 720` is below 3e-18, and
/// the result is within 2e-15 of [`erf_series`], the series / continued
/// fraction the table is built from. Saturates: exactly `1.0` for
/// `x >= 6` (and `-1.0` for `x <= -6`). NaN in, NaN out.
///
/// High accuracy matters because ion-ion forces are validated against
/// finite differences of the erf-based energy.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x >= ERF_SATURATION {
        return 1.0;
    }
    // NaN casts to node 0 and comes back out through `h`.
    let k = (x * ERF_NODES_PER_UNIT + 0.5) as usize;
    let xk = k as f64 / ERF_NODES_PER_UNIT;
    let h = x - xk;
    let [erf_k, slope_k] = erf_table()[k];
    // erf^(n+1) = (-1)^n H_n erf': the Taylor coefficients over erf' are
    // 1, -x, (2x^2 - 1)/3, -x(2x^2 - 3)/6, (4x^4 - 12x^2 + 3)/30.
    let x2 = xk * xk;
    let c2 = (2.0 * x2 - 1.0) * (1.0 / 3.0);
    let c3 = -xk * (2.0 * x2 - 3.0) * (1.0 / 6.0);
    let c4 = (4.0 * x2 * x2 - 12.0 * x2 + 3.0) * (1.0 / 30.0);
    erf_k + slope_k * h * (1.0 + h * (-xk + h * (c2 + h * (c3 + h * c4))))
}

/// Error function by series, accurate to ~1e-15 at a cost that grows with
/// `x`: Maclaurin series for `x < 2` (up to 60 terms), continued-fraction
/// `erfc` (modified Lentz, up to 200 iterations) beyond. Builds the table
/// behind [`erf`] and is the oracle `erf` is tested against. `x >= 0`.
fn erf_series(x: f64) -> f64 {
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

    /// Number of doubly occupied orbitals needed (spin-restricted).
    pub fn occupied_orbitals(&self) -> usize {
        (self.electron_count() / 2.0).ceil() as usize
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
    fn erf_is_within_2e15_of_the_series_oracle() {
        let n = 50_000;
        let mut worst = 0.0f64;
        for i in 0..n {
            let x = 7.0 * i as f64 / n as f64;
            let (fast, oracle) = (erf(x), erf_series(x));
            worst = worst.max((fast - oracle).abs());
            assert_eq!(erf(-x), -fast, "odd symmetry at {x}");
        }
        assert!(worst <= 2e-15, "max |erf - oracle| = {worst:e}");
    }

    #[test]
    fn erf_saturates_exactly_where_the_oracle_does() {
        for i in 0..=4800 {
            let x = 6.0 + 0.005 * i as f64;
            assert_eq!(erf(x), 1.0, "erf({x})");
            assert_eq!(erf_series(x), 1.0, "oracle at {x}");
            assert_eq!(erf(-x), -1.0, "erf(-{x})");
        }
        assert_eq!(erf(f64::INFINITY), 1.0);
        // Continuous into the saturation: the last tabulated interval.
        assert!((erf(6.0 - 1e-9) - 1.0).abs() < 1e-16);
    }

    #[test]
    fn erf_passes_nan_through_without_a_panic() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erf(-f64::NAN).is_nan());
    }

    #[test]
    fn erf_is_relatively_accurate_near_zero() {
        // Node 0 holds erf(0) = 0 exactly, so small arguments keep their
        // relative accuracy (v_local's r -> 0 limit relies on it).
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
        // Pb(4) + Ti(4) + 3 O(6) = 26 electrons, 13 doubly occupied orbitals.
        assert_eq!(set.electron_count(), 26.0);
        assert_eq!(set.occupied_orbitals(), 13);
    }

    #[test]
    fn projector_decays() {
        let s = Species::titanium();
        assert!(s.projector(0.0) == 1.0);
        assert!(s.projector(3.0) < s.projector(1.0));
        assert!(s.projector(5.0) < 1e-5);
    }
}
