//! Classical reference force field for perovskite oxides.
//!
//! The paper's application workflow (Fig. 7, ref. \[35\]) trains a neural
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
//! (DESIGN.md). A row's pairs inside the cutoff come from one radial pass
//! as a left-packed near list, their terms from the quintic tables on the
//! lanes, each lane reading its pair's table (`Row`); the sums are a
//! scalar loop in partner order, so every bit is the scalar backend's.

use std::sync::OnceLock;

use crate::md::ForceProvider;
use dcmesh_math::simd::{self, Far, Lane, NearTerms, RadialPass, NEAR_COLUMNS};
use dcmesh_math::HermiteTable;
use dcmesh_pool::arena::with_scratch;
use dcmesh_pool::ThreadPool;
use dcmesh_tddft::atoms::{erf, erf_over_x, AtomSet};

/// Re-export: the force-provider trait all force fields implement.
pub use crate::md::ForceProvider as ForceField;

/// Orthorhombic periodic box with minimum-image convention.
#[derive(Clone, Debug)]
pub struct SimBox {
    /// Box lengths (Bohr).
    pub lengths: [f64; 3],
}

impl SimBox {
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

/// Nominal ionic charges of Pb, Ti, O (the species order).
const CHARGES: [f64; 3] = [2.0, 4.0, -2.0];
/// Wolf damping parameter (1/Bohr).
const ALPHA: f64 = 0.18;
/// The cutoff (Bohr) where the box allows it.
const MAX_CUTOFF: f64 = 14.0;
/// The short-range pairs and their Buckingham `[A, rho, C]` (Hartree,
/// Bohr): Pb-O, Ti-O, O-O. Cation-cation pairs take the Coulomb repulsion
/// alone, as usual for shell-model oxides.
const SHORT_RANGE: [((usize, usize), [f64; 3]); 3] = [
    ((0, 2), [45.0, 0.65, 0.0]),
    ((1, 2), [85.0, 0.55, 0.0]),
    ((2, 2), [510.0, 0.28, 2.0]),
];
/// The tables start here (Bohr). A closer pair (none occurs on any
/// workload, whose closest is 3.1) takes the closed form.
const TABLE_FROM: f64 = 2.0;

/// `A exp(-r/rho) - C/r^6` and its first two `r`-derivatives.
fn buckingham([a, rho, c]: [f64; 3], r: f64) -> [f64; 3] {
    let (e, c6) = (a * (-r / rho).exp(), c / r.powi(6));
    [
        e - c6,
        -e / rho + 6.0 * c6 / r,
        e / (rho * rho) - 42.0 * c6 / (r * r),
    ]
}

/// `erfc(alpha r) / r` and its first two `r`-derivatives: with `E =
/// erfc(alpha r)`, `E' = -G` and `E'' = 2 alpha^2 r G`.
fn wolf(r: f64) -> [f64; 3] {
    let erfc = 1.0 - erf(ALPHA * r);
    let gauss = 2.0 * ALPHA / std::f64::consts::PI.sqrt() * (-(ALPHA * r).powi(2)).exp();
    let e = erfc / r;
    [
        e,
        -(e + gauss) / r,
        2.0 * (ALPHA * ALPHA * gauss + (gauss + e) / (r * r)),
    ]
}

/// Each [`SHORT_RANGE`] pair's whole radial function, `qq erfc(alpha r)/r`
/// plus its Buckingham energy, as a quintic Hermite table on `[2, 14]` Bohr
/// at 48 nodes per Bohr (14 KB each), then [`erf_over_x`]: pieces 0-2 and 3
/// of one table, built once per process.
fn tables() -> &'static HermiteTable {
    static TABLES: OnceLock<HermiteTable> = OnceLock::new();
    TABLES.get_or_init(|| {
        let short = SHORT_RANGE.map(|((i, j), b)| {
            HermiteTable::new(TABLE_FROM, MAX_CUTOFF, 48.0, |r| {
                let (w, b) = (wolf(r), buckingham(b, r));
                std::array::from_fn(|k| CHARGES[i] * CHARGES[j] * w[k] + b[k])
            })
        });
        HermiteTable::join(&[&short[0], &short[1], &short[2], erf_over_x()])
    })
}

/// The piece of [`tables`] a cation pair reads, `erf_over_x` at `alpha r`.
const CATION: f64 = 3.0;

/// The classical perovskite force field for PbTiO3 (species order Pb, Ti,
/// O). Minimum-image correctness requires the cutoff to stay inside the
/// half-box: 14 Bohr where the box allows it.
#[derive(Clone, Debug)]
pub struct PerovskiteFF {
    /// Periodic box.
    pub sim_box: SimBox,
    cutoff: f64,
    /// `pairs[si][q][sj]`: of species pair `(si, sj)`, its piece of
    /// [`tables`] (the index of a short-range pair in [`SHORT_RANGE`], or
    /// [`CATION`]), the charge product `qq`, `-qq`, and the energy and the
    /// force shift at the cutoff.
    pairs: [[[f64; 3]; 5]; 3],
    tables: &'static HermiteTable,
}

impl PerovskiteFF {
    /// The field in `sim_box`.
    pub fn pbtio3(sim_box: SimBox) -> Self {
        let lmin = sim_box.lengths.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        let rc = MAX_CUTOFF.min(0.49 * lmin);
        let pair = |si: usize, sj: usize| {
            let short = SHORT_RANGE
                .iter()
                .position(|&(p, _)| p == (si.min(sj), si.max(sj)));
            let (qq, [w, dw, _]) = (CHARGES[si] * CHARGES[sj], wolf(rc));
            let b = short.map_or(0.0, |k| buckingham(SHORT_RANGE[k].1, rc)[0]);
            [
                short.map_or(CATION, |k| k as f64),
                qq,
                -qq,
                qq * w + b,
                qq * dw,
            ]
        };
        let pairs =
            std::array::from_fn(|si| std::array::from_fn(|q| [0, 1, 2].map(|sj| pair(si, sj)[q])));
        Self {
            sim_box,
            cutoff: rc,
            pairs,
            tables: tables(),
        }
    }

    /// Energy and `dE/dr` of species pair `pair` (row-major) at `r`: damped
    /// shifted-force Coulomb plus, where the pair has one, energy-shifted
    /// Buckingham. A pair below [`TABLE_FROM`] takes the closed form, any
    /// other [`Self::tabled`].
    fn pair(&self, pair: usize, r: f64) -> (f64, f64) {
        if r < TABLE_FROM {
            return self.shifted(pair, r, self.closed_form(pair, r));
        }
        self.tabled(self.consts(pair), r)
    }

    /// What [`Self::tabled`] needs of species pair `pair` (row-major).
    fn consts(&self, pair: usize) -> [f64; 5] {
        self.pairs[pair / 3].map(|c| c[pair % 3])
    }

    /// `(e, dE/dr)` at `r >= TABLE_FROM` of pairs with the [`Self::consts`]
    /// `[piece, qq, -qq, e_rc, de_rc]`, lane by lane. A [`SHORT_RANGE`] pair
    /// reads its piece and a cation pair its `erfc(alpha r)/r = 1/r - alpha
    /// g(alpha r)` from `g = erf_over_x` (within 2e-11 of the closed form's
    /// largest force on the 640-atom cell), both less the shifts.
    #[inline(always)]
    fn tabled<V: Lane>(&self, [piece, qq, neg_qq, e_rc, de_rc]: [V; 5], r: V) -> (V, V) {
        let (c, cation, t) = (V::splat, V::splat(CATION - 0.5), self.tables);
        let (v, dv) = t.eval_on(piece, piece.select_le(cation, r, c(ALPHA) * r));
        let inv_r = c(1.0) / r;
        let e = piece.select_le(cation, v, qq * (inv_r - c(ALPHA) * v));
        let de = neg_qq * (inv_r * inv_r + c(ALPHA * ALPHA) * dv);
        self.shifted_by(e_rc, de_rc, r, (e, piece.select_le(cation, dv, de)))
    }

    /// An unshifted `(e, dE/dr)` of species pair `pair` at `r` less the
    /// pair's shifts at the cutoff, which are linear in `r` and closed-form.
    fn shifted(&self, pair: usize, r: f64, e: (f64, f64)) -> (f64, f64) {
        let [.., e_rc, de_rc] = self.consts(pair);
        self.shifted_by(e_rc, de_rc, r, e)
    }

    #[inline(always)]
    fn shifted_by<V: Lane>(&self, e_rc: V, de_rc: V, r: V, (e, de): (V, V)) -> (V, V) {
        (e - e_rc - de_rc * (r - V::splat(self.cutoff)), de - de_rc)
    }

    /// [`Self::pair`] before its shifts, in closed form.
    #[cold]
    fn closed_form(&self, pair: usize, r: f64) -> (f64, f64) {
        let ([piece, qq, ..], [w, dw, _]) = (self.consts(pair), wolf(r));
        let short = (piece < CATION).then(|| SHORT_RANGE[piece as usize].1);
        let [b, db, _] = short.map_or([0.0; 3], |b| buckingham(b, r));
        (qq * w + b, qq * dw + db)
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

/// The terms of the near partners of one row, `Row(ff, species, consts)`:
/// `[e, (dE/dr) / r, r]` from [`PerovskiteFF::tabled`], each pair constant
/// `q` picked by the partner's species (`species[j]`, a real) out of
/// `consts[q]`.
struct Row<'a>(&'a PerovskiteFF, &'a [f64], [[f64; 3]; 5]);

impl NearTerms for Row<'_> {
    #[inline(always)]
    fn terms<V: Lane>(&self, j: V, r2: V) -> [V; 3] {
        let (Row(ff, species, [a, b, c, d, e]), r) = (self, r2.sqrt());
        let sj = V::gather(species, j);
        let (e, de) = ff.tabled(
            [by(sj, *a), by(sj, *b), by(sj, *c), by(sj, *d), by(sj, *e)],
            r,
        );
        [e, de / r, r]
    }
}

/// `x[sj]`, lane by lane.
#[inline(always)]
fn by<V: Lane>(sj: V, [x0, x1, x2]: [f64; 3]) -> V {
    let c = V::splat;
    sj.select_le(c(0.5), c(x0), sj.select_le(c(1.5), c(x1), c(x2)))
}

impl PerovskiteFF {
    /// [`ForceProvider::compute`] with the row chunks spread over `pool`:
    /// per row `i`, one radial pass over the partners `j > i` (minimum image
    /// and `r2` on the lanes, the near ones left-packed), the tables over
    /// those inside the cutoff on the lanes, then their sums in partner order.
    fn compute_on(&self, pool: &ThreadPool, atoms: &mut AtomSet) -> f64 {
        let n = atoms.len();
        // Per chunk of rows: the force it puts on every atom (the row atom
        // and, by Newton's third law, its partner), then its energy.
        let stride = 3 * n + 1;
        with_scratch::<f64, 2, f64>([n.div_ceil(PAIR_ROWS) * stride, 4 * n], |[partials, soa]| {
            let list = &atoms.atoms;
            for (k, x) in soa.iter_mut().enumerate() {
                let atom = &list[k % n];
                *x = atom.pos.get(k / n).copied().unwrap_or(atom.species as f64);
            }
            let (xs, rest) = soa.split_at(n);
            let (ys, rest) = rest.split_at(n);
            let (zs, species) = rest.split_at(n);
            pool.for_each_chunks_of_mut(partials, stride, |chunk, part| {
                part.fill(0.0);
                let (forces, energy) = part.split_at_mut(3 * n);
                with_scratch::<f64, 1, ()>([NEAR_COLUMNS * n], |[scratch]| {
                    for i in chunk * PAIR_ROWS..((chunk + 1) * PAIR_ROWS).min(n) {
                        let pass = RadialPass {
                            centre: list[i].pos,
                            partners: [&xs[i + 1..], &ys[i + 1..], &zs[i + 1..]],
                            period: Some(self.sim_box.lengths),
                            near2: self.cutoff * self.cutoff,
                            far: Far::None,
                        };
                        let si = list[i].species;
                        let row = Row(self, &species[i + 1..], self.pairs[si]);
                        let (_, near) = simd::radial(&pass, &row, scratch);
                        for k in 0..near.count() {
                            let (j, d, r2, [mut e, mut c, r]) = near.get(k);
                            let j = i + 1 + j;
                            if r2 < 1e-12 {
                                continue;
                            }
                            if r < TABLE_FROM {
                                let (e0, de) = self.pair(3 * si + list[j].species, r);
                                (e, c) = (e0, de / r);
                            }
                            energy[0] += e;
                            // d points from i to j: F_i = dE/dr d / r.
                            for (ax, dax) in d.into_iter().enumerate() {
                                let f = c * dax;
                                forces[3 * i + ax] += f;
                                forces[3 * j + ax] -= f;
                            }
                        }
                    }
                });
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

    fn small_crystal() -> (PerovskiteFF, AtomSet) {
        let sc = Supercell::build(&PbTiO3Cell::cubic(), [2, 2, 2]);
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

    /// The pair loop in closed form: every pair once, minimum image by
    /// `round`, no tables. The reference the tabled radial pass is held to.
    struct ClosedForm<'a>(&'a PerovskiteFF);

    impl ForceProvider for ClosedForm<'_> {
        fn compute(&self, atoms: &mut AtomSet) -> f64 {
            let (ff, n, mut energy) = (self.0, atoms.len(), 0.0);
            let l = ff.sim_box.lengths;
            for i in 0..n {
                for j in i + 1..n {
                    let (pi, pj) = (atoms.atoms[i].pos, atoms.atoms[j].pos);
                    let d: [f64; 3] = std::array::from_fn(|ax| {
                        let x = pi[ax] - pj[ax];
                        x - l[ax] * (x / l[ax]).round()
                    });
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 > ff.cutoff * ff.cutoff || r2 < 1e-12 {
                        continue;
                    }
                    let r = r2.sqrt();
                    let pair = atoms.atoms[i].species * 3 + atoms.atoms[j].species;
                    let (e, de) = ff.shifted(pair, r, ff.closed_form(pair, r));
                    energy += e;
                    for (ax, &dax) in d.iter().enumerate() {
                        atoms.atoms[i].force[ax] -= de * dax / r;
                        atoms.atoms[j].force[ax] += de * dax / r;
                    }
                }
            }
            energy
        }
    }

    /// Forces and energy of `ff` on `atoms` from cleared accumulators.
    fn forces(ff: &impl ForceProvider, atoms: &AtomSet) -> (Vec<[f64; 3]>, f64) {
        let mut atoms = atoms.clone();
        atoms.clear_forces();
        let e = ff.compute(&mut atoms);
        (atoms.atoms.iter().map(|a| a.force).collect(), e)
    }

    #[test]
    fn tabled_forces_match_the_closed_form_at_the_full_cutoff() {
        let (ff, atoms) = displaced_supercell();
        let ((f, e), (f0, e0)) = (forces(&ff, &atoms), forces(&ClosedForm(&ff), &atoms));
        let scale = f0.iter().flatten().fold(0.0f64, |m, x| m.max(x.abs()));
        let fs = f.iter().flatten().zip(f0.iter().flatten());
        let worst = fs.fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(worst <= 1e-10 * scale, "{:e} of max|F|", worst / scale);
        assert!((e - e0).abs() <= 1e-12 * e0.abs(), "energy {e} vs {e0}");
        for ax in 0..3 {
            let total: f64 = f.iter().map(|f| f[ax]).sum();
            assert!(total.abs() < 1e-9, "axis {ax} total force {total}");
        }
    }

    #[test]
    fn a_pair_closer_than_the_tables_takes_the_closed_form() {
        let (ff, mut atoms) = small_crystal();
        atoms.atoms.clear();
        atoms.push(1, [4.0, 5.0, 6.0]);
        atoms.push(2, [4.6, 5.8, 6.0]);
        let d: [f64; 3] = [4.6 - 4.0, 5.8 - 5.0, 0.0];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((r - 1.0).abs() < 1e-12);
        let ((f, e), (e0, de)) = (forces(&ff, &atoms), ff.shifted(5, r, ff.closed_form(5, r)));
        assert_eq!((e, f[0][0], f[1][1]), (e0, de / r * d[0], -(de / r * d[1])));
    }

    #[test]
    fn forces_match_the_energy_gradient_at_the_full_cutoff() {
        // The 640-atom cell reaches pairs out to 14 Bohr, the 2 x 2 x 2
        // cell's only to 7.2: the tables' whole range is tested here.
        let (ff, atoms) = displaced_supercell();
        let (f, h) = (forces(&ff, &atoms).0, 1e-5);
        for a in [0, 211, 639] {
            for (ax, &f) in f[a].iter().enumerate() {
                let mut moved = atoms.clone();
                moved.atoms[a].pos[ax] += h;
                let ep = forces(&ff, &moved).1;
                moved.atoms[a].pos[ax] -= 2.0 * h;
                let fd = -(ep - forces(&ff, &moved).1) / (2.0 * h);
                assert!(
                    (fd - f).abs() < 1e-6 * f.abs().max(1.0),
                    "atom {a} axis {ax}: fd {fd} vs {f}"
                );
            }
        }
    }

    /// The largest `|E(t) - E(0)|` per atom over 200 dark NVE steps of the
    /// 640-atom flux-closure cell at 300 K, driven by `forces`.
    fn nve_drift(forces: impl ForceProvider) -> f64 {
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [8, 4, 4]);
        sc.imprint_flux_closure(0.3, 1.0);
        let mut md = crate::md::MdIntegrator::new(sc.atoms, forces, crate::md::MdConfig::default());
        md.initialize_velocities(300.0, 7);
        let (e0, mut drift) = (md.total_energy(), 0.0f64);
        for _ in 0..200 {
            md.step();
            drift = drift.max((md.total_energy() - e0).abs() / 640.0);
        }
        drift
    }

    #[test]
    fn nve_energy_drift_is_no_worse_than_the_closed_form() {
        // The drift is the integrator's, about 9.63e-7 Hartree per atom
        // either way: these tables move it by -1.6e-9 of itself. The 1e-8
        // margin still fails a table at 16 nodes per Bohr (+1.1e-8) or a
        // force scaled by 1 - 1e-6 (+1.3e-3).
        let ff = displaced_supercell().0;
        let (drift, closed) = (nve_drift(ff.clone()), nve_drift(ClosedForm(&ff)));
        assert!(drift <= (1.0 + 1e-8) * closed, "{drift:e} vs {closed:e}");
    }

    #[test]
    fn force_bits_do_not_depend_on_the_pool_size() {
        let (ff, atoms) = displaced_supercell();
        assert!(atoms.len().div_ceil(PAIR_ROWS) > 4, "too few chunks");
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
        let (ff, atoms) = small_crystal();
        for (i, f) in forces(&ff, &atoms).0.iter().enumerate() {
            assert!(f.iter().all(|f| f.abs() < 1e-8), "atom {i}: {f:?}");
        }
    }

    #[test]
    fn displaced_ti_is_pulled_back() {
        let (ff, mut atoms) = small_crystal();
        let ti = atoms.atoms.iter().position(|a| a.species == 1).unwrap();
        let e_ideal = forces(&ff, &atoms).1;
        atoms.atoms[ti].pos[0] += 0.3;
        let (f, e_displaced) = forces(&ff, &atoms);
        // Restoring force points back toward the ideal site, and the ideal
        // lattice has lower energy.
        assert!(
            f[ti][0] < 0.0 && e_ideal < e_displaced,
            "force {}",
            f[ti][0]
        );
    }

    #[test]
    fn coulomb_shifted_force_is_continuous_at_cutoff() {
        let ff = PerovskiteFF::pbtio3(SimBox {
            lengths: [100.0; 3],
        });
        // Pb-Pb: Coulomb only (qq = 4), from the table and in closed form.
        let r = ff.cutoff - 1e-9;
        for (e, de) in [ff.pair(0, r), ff.shifted(0, r, ff.closed_form(0, r))] {
            assert!(
                e.abs() < 1e-7 && de.abs() < 1e-7,
                "energy {e}, force {de} at the cutoff"
            );
        }
    }
}
