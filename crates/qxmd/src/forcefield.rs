//! Classical reference force field for perovskite oxides.
//!
//! The paper's application workflow (Fig. 7, ref. [35]) trains a neural
//! network against ground-state quantum MD. This classical
//! polarizable-perovskite field stands in for it. It combines:
//!
//! * Buckingham short-range repulsion/dispersion `A exp(-r/rho) - C/r^6`
//!   per species pair (energy-shifted at the cutoff),
//! * Wolf-summed damped-shifted Coulomb between nominal ionic charges
//!   (Pb +2, Ti +4, O -2) — O(N) electrostatics with periodic
//!   minimum-image convention,
//!
//! with parameters of the right order of magnitude for PbTiO3, chosen for
//! numerical robustness rather than quantitative transferability
//! (DESIGN.md).

use crate::md::ForceProvider;
use dcmesh_pool::arena::with_scratch;
use dcmesh_pool::ThreadPool;
use dcmesh_tddft::atoms::{erf, AtomSet};

/// Re-export: the force-provider trait all force fields implement.
pub use crate::md::ForceProvider as ForceField;

/// Orthorhombic periodic box with minimum-image convention.
#[derive(Clone, Debug)]
pub struct SimBox {
    /// Box lengths (Bohr).
    pub lengths: [f64; 3],
}

impl SimBox {
    /// Minimum-image displacement `a - b`.
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let mut d = [0.0; 3];
        for ax in 0..3 {
            let l = self.lengths[ax];
            let mut x = a[ax] - b[ax];
            x -= l * (x / l).round();
            d[ax] = x;
        }
        d
    }

    /// Wrap a position into the primary cell: every coordinate lands in
    /// `[0, l)`.
    pub fn wrap(&self, p: [f64; 3]) -> [f64; 3] {
        let mut out = p;
        for (o, &l) in out.iter_mut().zip(&self.lengths) {
            *o -= l * (*o / l).floor();
            if *o >= l {
                *o = 0.0; // a tiny negative coordinate rounds up onto `l` itself
            }
        }
        out
    }
}

/// Buckingham parameters for one species pair.
#[derive(Clone, Copy, Debug)]
pub struct Buckingham {
    /// Repulsion amplitude (Hartree).
    pub a: f64,
    /// Repulsion range (Bohr).
    pub rho: f64,
    /// Dispersion coefficient (Hartree Bohr^6).
    pub c: f64,
}

/// The classical perovskite force field.
#[derive(Clone, Debug)]
pub struct PerovskiteFF {
    /// Periodic box.
    pub sim_box: SimBox,
    /// Nominal ionic charge per species index.
    pub charges: Vec<f64>,
    /// Buckingham parameters per (species_i, species_j), row-major
    /// `nspecies x nspecies` (symmetric).
    pub buckingham: Vec<Option<Buckingham>>,
    nspecies: usize,
    /// Real-space cutoff (Bohr).
    pub cutoff: f64,
    /// Wolf damping parameter (1/Bohr).
    pub alpha: f64,
}

impl PerovskiteFF {
    /// PbTiO3 parameters: species order must be [Pb, Ti, O].
    /// Short-range pairs: Pb-O, Ti-O, O-O (cation-cation handled by
    /// Coulomb repulsion alone, as usual for shell-model oxides).
    pub fn pbtio3(sim_box: SimBox) -> Self {
        let n = 3;
        let mut buckingham = vec![None; n * n];
        let mut set = |i: usize, j: usize, b: Buckingham| {
            buckingham[i * n + j] = Some(b);
            buckingham[j * n + i] = Some(b);
        };
        // Order-of-magnitude oxide parameters (Hartree/Bohr units).
        set(
            0,
            2,
            Buckingham {
                a: 45.0,
                rho: 0.65,
                c: 0.0,
            },
        ); // Pb-O
        set(
            1,
            2,
            Buckingham {
                a: 85.0,
                rho: 0.55,
                c: 0.0,
            },
        ); // Ti-O
        set(
            2,
            2,
            Buckingham {
                a: 510.0,
                rho: 0.28,
                c: 2.0,
            },
        ); // O-O
           // Minimum-image correctness requires the cutoff to stay inside the
           // half-box; larger boxes use the full 14-Bohr physical cutoff.
        let lmin = sim_box
            .lengths
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let cutoff = 14.0f64.min(0.49 * lmin);
        Self {
            sim_box,
            charges: vec![2.0, 4.0, -2.0],
            buckingham,
            nspecies: n,
            cutoff,
            alpha: 0.18,
        }
    }

    /// Everything the pair loop needs that does not depend on `r`: the
    /// Wolf shifts at the cutoff and, per species pair, the charge product
    /// and the Buckingham energy at the cutoff. Built once per
    /// [`ForceProvider::compute`] call, not cached: `cutoff`, `alpha`,
    /// `charges` and `buckingham` are public and may change between calls.
    fn pair_table(&self) -> PairTable {
        let (alpha, rc) = (self.alpha, self.cutoff);
        let gauss_coef = 2.0 * alpha / std::f64::consts::PI.sqrt();
        let erfc_rc = 1.0 - erf(alpha * rc);
        let e_rc = erfc_rc / rc;
        let de_rc = -erfc_rc / (rc * rc) - gauss_coef * (-(alpha * rc).powi(2)).exp() / rc;
        let n = self.nspecies;
        let species = (0..n * n)
            .map(|ij| SpeciesPair {
                qq: self.charges[ij / n] * self.charges[ij % n],
                short: self.buckingham[ij]
                    .map(|b| (b, b.a * (-rc / b.rho).exp() - b.c / rc.powi(6))),
            })
            .collect();
        PairTable {
            alpha,
            rc,
            gauss_coef,
            e_rc,
            de_rc,
            species,
        }
    }
}

/// Charge product and short-range part of one species pair.
struct SpeciesPair {
    qq: f64,
    /// Buckingham parameters and their energy at the cutoff (the shift
    /// that takes the short-range energy to zero there).
    short: Option<(Buckingham, f64)>,
}

/// The `r`-independent half of the radial pair kernel
/// ([`PerovskiteFF::pair_table`]).
struct PairTable {
    alpha: f64,
    rc: f64,
    /// `2 alpha / sqrt(pi)`, the prefactor of the Gaussian in `d erfc`.
    gauss_coef: f64,
    /// `erfc(alpha rc) / rc` and its `r`-derivative: the Wolf energy and
    /// force shifts.
    e_rc: f64,
    de_rc: f64,
    /// Row-major `nspecies x nspecies`.
    species: Vec<SpeciesPair>,
}

impl PairTable {
    /// Energy and its `r`-derivative of species pair `pair` (an index into
    /// the row-major table) at distance `r`: damped shifted-force Coulomb
    /// plus, where the pair has one, the energy-shifted Buckingham term.
    /// One `erf` and at most two `exp` per call, shared between the energy
    /// and the derivative.
    fn pair_terms(&self, pair: usize, r: f64) -> (f64, f64) {
        let sp = &self.species[pair];
        let erfc = 1.0 - erf(self.alpha * r);
        let gauss = (-(self.alpha * r).powi(2)).exp();
        let e_r = erfc / r;
        let de_r = -erfc / (r * r) - self.gauss_coef * gauss / r;
        let mut e = sp.qq * (e_r - self.e_rc - self.de_rc * (r - self.rc));
        let mut de = sp.qq * (de_r - self.de_rc);
        if let Some((b, e_at_rc)) = &sp.short {
            let repulsion = (-r / b.rho).exp();
            e += (b.a * repulsion - b.c / r.powi(6)) - e_at_rc;
            de += -b.a / b.rho * repulsion + 6.0 * b.c / r.powi(7);
        }
        (e, de)
    }
}

/// Rows `i` of the pair loop per chunk. The chunking depends on the atom
/// count alone, so the forces and the energy keep their bits at every pool
/// size (the rule of `dcmesh_lfd::nonlocal::PROJ_CHUNK`).
const PAIR_ROWS: usize = 64;

impl ForceProvider for PerovskiteFF {
    fn compute(&self, atoms: &mut AtomSet) -> f64 {
        self.compute_on(dcmesh_pool::global(), atoms)
    }
}

impl PerovskiteFF {
    /// [`ForceProvider::compute`] with the row chunks spread over `pool`.
    fn compute_on(&self, pool: &ThreadPool, atoms: &mut AtomSet) -> f64 {
        let table = self.pair_table();
        let rc2 = self.cutoff * self.cutoff;
        let n = atoms.len();
        // Per chunk of rows: the force it puts on every atom (the row atom
        // and, by Newton's third law, its partner), then its energy.
        let stride = 3 * n + 1;
        with_scratch::<f64, 1, f64>([n.div_ceil(PAIR_ROWS) * stride], |[partials]| {
            let list = &atoms.atoms;
            pool.for_each_chunks_of_mut(partials, stride, |chunk, part| {
                part.fill(0.0);
                let (forces, energy) = part.split_at_mut(3 * n);
                for i in chunk * PAIR_ROWS..((chunk + 1) * PAIR_ROWS).min(n) {
                    for j in i + 1..n {
                        let d = self.sim_box.min_image(list[i].pos, list[j].pos);
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        if r2 > rc2 || r2 < 1e-12 {
                            continue;
                        }
                        let r = r2.sqrt();
                        let pair = list[i].species * self.nspecies + list[j].species;
                        let (e, de) = table.pair_terms(pair, r);
                        energy[0] += e;
                        // F_i = -dE/dr * dhat (d points from j to i).
                        for (ax, &dax) in d.iter().enumerate() {
                            let f = -de * dax / r;
                            forces[3 * i + ax] += f;
                            forces[3 * j + ax] -= f;
                        }
                    }
                }
            });
            // Chunk order, whichever thread ran which chunk.
            for (i, atom) in atoms.atoms.iter_mut().enumerate() {
                for (ax, fa) in atom.force.iter_mut().enumerate() {
                    *fa += partials
                        .chunks_exact(stride)
                        .map(|part| part[3 * i + ax])
                        .sum::<f64>();
                }
            }
            partials.chunks_exact(stride).map(|part| part[3 * n]).sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbtio3::{PbTiO3Cell, Supercell};
    use dcmesh_tddft::AtomSet;

    fn small_crystal() -> (PerovskiteFF, AtomSet) {
        let cell = PbTiO3Cell::cubic();
        let sc = Supercell::build(&cell, [2, 2, 2]);
        let ff = PerovskiteFF::pbtio3(SimBox {
            lengths: sc.box_lengths,
        });
        (ff, sc.atoms)
    }

    /// The `[8, 4, 4]` flux-closure supercell of the Fig. 7 shape with
    /// seeded random displacements: 640 atoms, box 8 x 4 x 4 cells, so the
    /// full 14-Bohr cutoff is active (`small_crystal` clamps it to 7.2).
    fn displaced_supercell() -> (PerovskiteFF, AtomSet) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [8, 4, 4]);
        sc.imprint_flux_closure(0.3, 1.0);
        let mut rng = StdRng::seed_from_u64(16);
        for a in &mut sc.atoms.atoms {
            for x in &mut a.pos {
                *x += rng.gen_range(-0.2..0.2);
            }
        }
        let ff = PerovskiteFF::pbtio3(SimBox {
            lengths: sc.box_lengths,
        });
        assert_eq!(ff.cutoff, 14.0);
        (ff, sc.atoms)
    }

    /// The pair functions and the pair loop as they stood before the radial
    /// kernel: four `erf` and five `exp` per pair, the cutoff shifts
    /// re-derived for every pair. Kept as the reference [`PairTable`] and
    /// [`PerovskiteFF::compute`] are held to.
    mod oracle {
        use super::super::*;

        pub fn buckingham_energy(b: &Buckingham, r: f64) -> f64 {
            b.a * (-r / b.rho).exp() - b.c / r.powi(6)
        }

        pub fn buckingham_derivative(b: &Buckingham, r: f64) -> f64 {
            -b.a / b.rho * (-r / b.rho).exp() + 6.0 * b.c / r.powi(7)
        }

        pub fn coulomb_energy(ff: &PerovskiteFF, qq: f64, r: f64) -> f64 {
            let rc = ff.cutoff;
            let erfc = |x: f64| 1.0 - erf(x);
            let e_r = erfc(ff.alpha * r) / r;
            let e_rc = erfc(ff.alpha * rc) / rc;
            let de_rc = -erfc(ff.alpha * rc) / (rc * rc)
                - 2.0 * ff.alpha / std::f64::consts::PI.sqrt() * (-(ff.alpha * rc).powi(2)).exp()
                    / rc;
            qq * (e_r - e_rc - de_rc * (r - rc))
        }

        pub fn coulomb_derivative(ff: &PerovskiteFF, qq: f64, r: f64) -> f64 {
            let rc = ff.cutoff;
            let erfc = |x: f64| 1.0 - erf(x);
            let gauss = |x: f64| (-(ff.alpha * x).powi(2)).exp();
            let de_r = -erfc(ff.alpha * r) / (r * r)
                - 2.0 * ff.alpha / std::f64::consts::PI.sqrt() * gauss(r) / r;
            let de_rc = -erfc(ff.alpha * rc) / (rc * rc)
                - 2.0 * ff.alpha / std::f64::consts::PI.sqrt() * gauss(rc) / rc;
            qq * (de_r - de_rc)
        }

        /// Energy and `dE/dr` of the species pair `(si, sj)` at `r`.
        pub fn pair(ff: &PerovskiteFF, si: usize, sj: usize, r: f64) -> (f64, f64) {
            let qq = ff.charges[si] * ff.charges[sj];
            let mut e = coulomb_energy(ff, qq, r);
            let mut de = coulomb_derivative(ff, qq, r);
            if let Some(b) = &ff.buckingham[si * ff.nspecies + sj] {
                e += buckingham_energy(b, r) - buckingham_energy(b, ff.cutoff);
                de += buckingham_derivative(b, r);
            }
            (e, de)
        }

        pub fn compute(ff: &PerovskiteFF, atoms: &mut AtomSet) -> f64 {
            let n = atoms.len();
            let mut energy = 0.0;
            for i in 0..n {
                for j in i + 1..n {
                    let (pi, pj) = (atoms.atoms[i].pos, atoms.atoms[j].pos);
                    let d = ff.sim_box.min_image(pi, pj);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 > ff.cutoff * ff.cutoff || r2 < 1e-12 {
                        continue;
                    }
                    let r = r2.sqrt();
                    let (e, de) = pair(ff, atoms.atoms[i].species, atoms.atoms[j].species, r);
                    energy += e;
                    for (ax, &dax) in d.iter().enumerate() {
                        let f = -de * dax / r;
                        atoms.atoms[i].force[ax] += f;
                        atoms.atoms[j].force[ax] -= f;
                    }
                }
            }
            energy
        }
    }

    #[test]
    fn pair_terms_are_bit_identical_to_the_oracle() {
        // Strength reduction only: the shared erfc / exp and the hoisted
        // shifts must leave every bit of the energy and the derivative.
        let (ff, _) = displaced_supercell();
        let table = ff.pair_table();
        for si in 0..3 {
            for sj in 0..3 {
                for step in 1..=2000 {
                    let r = ff.cutoff * step as f64 / 2000.0;
                    let (e, de) = table.pair_terms(si * 3 + sj, r);
                    let (e0, de0) = oracle::pair(&ff, si, sj, r);
                    assert_eq!(e.to_bits(), e0.to_bits(), "energy ({si},{sj}) r = {r}");
                    assert_eq!(de.to_bits(), de0.to_bits(), "dE/dr ({si},{sj}) r = {r}");
                }
            }
        }
    }

    #[test]
    fn chunked_forces_match_the_oracle_pair_loop() {
        // Same pairs, same radial kernel; only the order in which an
        // atom's contributions are added differs (per chunk, then chunks).
        let (ff, mut atoms) = displaced_supercell();
        let mut reference = atoms.clone();
        atoms.clear_forces();
        reference.clear_forces();
        let e = ff.compute(&mut atoms);
        let e0 = oracle::compute(&ff, &mut reference);
        assert!((e - e0).abs() <= 1e-12 * e0.abs(), "energy {e} vs {e0}");
        let scale = reference
            .atoms
            .iter()
            .flat_map(|a| a.force)
            .fold(0.0f64, |m, f| m.max(f.abs()));
        for (i, (a, b)) in atoms.atoms.iter().zip(&reference.atoms).enumerate() {
            for ax in 0..3 {
                assert!(
                    (a.force[ax] - b.force[ax]).abs() <= 1e-12 * scale,
                    "atom {i} axis {ax}: {} vs oracle {}",
                    a.force[ax],
                    b.force[ax]
                );
            }
        }
        for ax in 0..3 {
            let total: f64 = atoms.atoms.iter().map(|a| a.force[ax]).sum();
            assert!(total.abs() < 1e-9, "axis {ax} total force {total}");
        }
    }

    #[test]
    fn force_bits_do_not_depend_on_the_pool_size() {
        let (ff, atoms) = displaced_supercell();
        assert!(
            atoms.len().div_ceil(PAIR_ROWS) > 4,
            "more chunks than threads"
        );
        let bits = |threads: usize| -> Vec<u64> {
            let pool = ThreadPool::new(threads);
            let mut atoms = atoms.clone();
            atoms.clear_forces();
            let e = ff.compute_on(&pool, &mut atoms);
            atoms
                .atoms
                .iter()
                .flat_map(|a| a.force)
                .chain([e])
                .map(f64::to_bits)
                .collect()
        };
        let one = bits(1);
        assert_eq!(bits(2), one, "2 threads");
        assert_eq!(bits(4), one, "4 threads");
    }

    #[test]
    fn min_image_halves_box() {
        let b = SimBox {
            lengths: [10.0, 10.0, 10.0],
        };
        let d = b.min_image([9.5, 0.0, 0.0], [0.5, 0.0, 0.0]);
        assert!((d[0] + 1.0).abs() < 1e-12, "wrapped displacement {d:?}");
        let d2 = b.min_image([3.0, 0.0, 0.0], [1.0, 0.0, 0.0]);
        assert!((d2[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_lands_in_the_half_open_cell() {
        let b = SimBox {
            lengths: [10.0, 10.0, 10.0],
        };
        assert_eq!(b.wrap([-0.5, 10.0, 23.0]), [9.5, 0.0, 3.0]);
        // -1e-17 + 10 rounds to 10: the image is the cell's origin.
        assert_eq!(b.wrap([-1e-17, 3.0, 9.999])[0], 0.0);
    }

    #[test]
    fn forces_vanish_on_ideal_cubic_lattice() {
        // Every atom in the ideal cubic perovskite sits on an inversion
        // center: forces must vanish by symmetry.
        let (ff, mut atoms) = small_crystal();
        atoms.clear_forces();
        ff.compute(&mut atoms);
        for (i, a) in atoms.atoms.iter().enumerate() {
            for ax in 0..3 {
                assert!(
                    a.force[ax].abs() < 1e-8,
                    "atom {i} axis {ax}: {}",
                    a.force[ax]
                );
            }
        }
    }

    #[test]
    fn forces_match_energy_gradient() {
        let (ff, mut atoms) = small_crystal();
        // Displace a Ti atom off-center to get nonzero forces.
        let ti = atoms.atoms.iter().position(|a| a.species == 1).unwrap();
        atoms.atoms[ti].pos[0] += 0.4;
        atoms.atoms[ti].pos[1] -= 0.15;
        atoms.clear_forces();
        ff.compute(&mut atoms);
        let f_analytic = atoms.atoms[ti].force;
        let h = 1e-5;
        #[allow(clippy::needless_range_loop)]
        for ax in 0..3 {
            let mut plus = atoms.clone();
            plus.atoms[ti].pos[ax] += h;
            plus.clear_forces();
            let ep = ff.compute(&mut plus);
            let mut minus = atoms.clone();
            minus.atoms[ti].pos[ax] -= h;
            minus.clear_forces();
            let em = ff.compute(&mut minus);
            let fd = -(ep - em) / (2.0 * h);
            assert!(
                (fd - f_analytic[ax]).abs() < 1e-5 * f_analytic[ax].abs().max(1.0),
                "axis {ax}: fd {fd} vs analytic {}",
                f_analytic[ax]
            );
        }
    }

    #[test]
    fn newtons_third_law_total_force_zero() {
        let (ff, mut atoms) = small_crystal();
        atoms.atoms[3].pos[2] += 0.3;
        atoms.atoms[7].pos[0] -= 0.2;
        atoms.clear_forces();
        ff.compute(&mut atoms);
        for ax in 0..3 {
            let tot: f64 = atoms.atoms.iter().map(|a| a.force[ax]).sum();
            assert!(tot.abs() < 1e-9, "axis {ax} total {tot}");
        }
    }

    #[test]
    fn displaced_ti_is_pulled_back() {
        let (ff, mut atoms) = small_crystal();
        let ti = atoms.atoms.iter().position(|a| a.species == 1).unwrap();
        atoms.atoms[ti].pos[0] += 0.3;
        atoms.clear_forces();
        let e_displaced = ff.compute(&mut atoms);
        // Restoring force points back toward the ideal site.
        assert!(
            atoms.atoms[ti].force[0] < 0.0,
            "force {}",
            atoms.atoms[ti].force[0]
        );
        // And the ideal lattice has lower energy.
        atoms.atoms[ti].pos[0] -= 0.3;
        atoms.clear_forces();
        let e_ideal = ff.compute(&mut atoms);
        assert!(e_ideal < e_displaced);
    }

    #[test]
    fn coulomb_shifted_force_is_continuous_at_cutoff() {
        let b = SimBox {
            lengths: [100.0; 3],
        };
        let ff = PerovskiteFF::pbtio3(b);
        let table = ff.pair_table();
        // Pb-Pb: Coulomb only (qq = 4).
        let (e, de) = table.pair_terms(0, ff.cutoff - 1e-9);
        assert!(e.abs() < 1e-7, "energy at cutoff {e}");
        assert!(de.abs() < 1e-7, "force at cutoff {de}");
    }
}
