//! Kohn–Sham Hamiltonian application, split local/nonlocal per Eq. (5).
//!
//! `h = -(1/2m) lap + v_loc(r) + v_nl`, with:
//!
//! * kinetic: 3-point finite differences per axis, Dirichlet boundaries
//!   (DC domains are finite),
//! * `v_loc`: the local pseudopotential, point-diagonal (no Hartree or XC
//!   term: the set-up solves the bare potential),
//! * `v_nl`: Kleinman–Bylander rank-1 channels, one per atom:
//!   `v_nl = sum_a |chi_a> E_a <chi_a|` with normalized projectors.
//!
//! The split matters because the whole shadow-dynamics optimization (paper
//! Eqs. (5)-(8)) hinges on treating `v_nl` separately from the point-local
//! part.

use std::ops::{AddAssign, Mul, SubAssign};

use dcmesh_grid::Mesh3;
use dcmesh_math::simd::{self, Far};
use dcmesh_math::C64;

use crate::atoms::AtomSet;

/// An orbital amplitude `h` acts on. `h` is real — `v_loc`, the projector
/// amplitudes and the stencil are — hence real-linear: one body applies it
/// to a complex block (the LFD state) and to a real one (the eigensolver's).
pub trait Amplitude: Copy + Default + AddAssign + SubAssign + Mul<f64, Output = Self> {}
impl Amplitude for f64 {}
impl Amplitude for C64 {}

/// One Kleinman–Bylander rank-1 nonlocal channel: sparse projector values
/// with its energy strength.
#[derive(Clone, Debug)]
pub struct NonlocalProjector {
    /// (mesh index, projector amplitude) — normalized so `sum p^2 dv = 1`.
    pub entries: Vec<(usize, f64)>,
    /// KB energy (Hartree).
    pub e_kb: f64,
}

impl NonlocalProjector {
    /// `<chi | psi_n> * dv` for orbital `n` of the `ncols` in the point-major
    /// block `psi` (`(1, 0)` for a single field).
    pub fn overlap<A: Amplitude>(&self, psi: &[A], (ncols, n): (usize, usize), dv: f64) -> A {
        let mut acc = A::default();
        for &(idx, p) in &self.entries {
            acc += psi[idx * ncols + n] * p;
        }
        acc * dv
    }

    /// `out_n += coeff * |chi>` for orbital `n` of the `ncols` in `out`.
    pub fn accumulate<A: Amplitude>(&self, coeff: A, out: &mut [A], (ncols, n): (usize, usize)) {
        for &(idx, p) in &self.entries {
            out[idx * ncols + n] += coeff * p;
        }
    }
}

/// The Kohn–Sham Hamiltonian on one mesh (f64 substrate precision).
#[derive(Clone, Debug)]
pub struct Hamiltonian {
    mesh: Mesh3,
    /// Point-local effective potential (local pseudopotential [+ laser]).
    pub v_loc: Vec<f64>,
    /// Nonlocal KB channels.
    pub projectors: Vec<NonlocalProjector>,
    /// Electron mass (1 in atomic units; kept explicit for tests).
    pub mass: f64,
}

impl Hamiltonian {
    /// Hamiltonian with an externally supplied local potential and no
    /// nonlocal channels.
    pub fn with_potential(mesh: Mesh3, v_loc: Vec<f64>) -> Self {
        assert_eq!(v_loc.len(), mesh.len());
        Self {
            mesh,
            v_loc,
            projectors: Vec::new(),
            mass: 1.0,
        }
    }

    /// Build from atoms: local pseudopotential summed over atoms plus one
    /// KB projector per atom with `e_kb != 0`.
    pub fn from_atoms(mesh: Mesh3, atoms: &AtomSet) -> Self {
        let v_loc = local_pseudopotential(&mesh, atoms);
        let projectors = build_projectors(&mesh, atoms);
        Self {
            mesh,
            v_loc,
            projectors,
            mass: 1.0,
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }

    /// Finite-difference kinetic couplings `1 / (2 m d^2)` per axis.
    fn kinetic_couplings(&self) -> [f64; 3] {
        let m = &self.mesh;
        [m.dx, m.dy, m.dz].map(|d| 1.0 / (2.0 * self.mass * d * d))
    }

    /// Orbitals in `psi`: the `apply*` methods take one orbital or a block of
    /// them stored point-major (`psi[point * ncols + orbital]`, the SoA layout
    /// of the LFD engine), which costs one sweep over the mesh for all.
    fn columns<A>(&self, psi: &[A], out: &[A]) -> usize {
        let ncols = psi.len() / self.mesh.len();
        assert_eq!(psi.len(), self.mesh.len() * ncols);
        assert_eq!(out.len(), psi.len());
        ncols
    }

    /// `out = -(1/2m) lap psi` (Dirichlet boundaries), overwriting `out`, a
    /// z line of all orbitals (one contiguous run) at a time: the boundary
    /// tests are per line, the runs branch-free, and every element takes its
    /// seven terms in the order diagonal, x-, x+, y-, y+, z-, z+.
    pub fn apply_kinetic<A: Amplitude>(&self, psi: &[A], out: &mut [A]) {
        let (m, ncols) = (&self.mesh, self.columns(psi, out));
        let [cx, cy, cz] = self.kinetic_couplings();
        let diag = 2.0 * (cx + cy + cz);
        let line = m.nz * ncols;
        let (sx, sy) = (m.ny * line, line);
        let sub = |acc: &mut [A], from: &[A], coupling: f64| {
            for (a, p) in acc.iter_mut().zip(from) {
                *a -= *p * coupling;
            }
        };
        for i in 0..m.nx {
            for j in 0..m.ny {
                let c = m.idx(i, j, 0) * ncols;
                let acc = &mut out[c..c + line];
                for (a, p) in acc.iter_mut().zip(&psi[c..c + line]) {
                    *a = *p * diag;
                }
                if i > 0 {
                    sub(acc, &psi[c - sx..c - sx + line], cx);
                }
                if i + 1 < m.nx {
                    sub(acc, &psi[c + sx..c + sx + line], cx);
                }
                if j > 0 {
                    sub(acc, &psi[c - sy..c - sy + line], cy);
                }
                if j + 1 < m.ny {
                    sub(acc, &psi[c + sy..c + sy + line], cy);
                }
                // Along the line every point but the first has a lower
                // neighbour and every point but the last an upper one.
                sub(&mut acc[ncols..], &psi[c..c + line - ncols], cz);
                sub(&mut acc[..line - ncols], &psi[c + ncols..c + line], cz);
            }
        }
    }

    /// `out += v_loc * psi`.
    pub fn apply_local_potential<A: Amplitude>(&self, psi: &[A], out: &mut [A]) {
        let ncols = self.columns(psi, out).max(1);
        let points = out.chunks_exact_mut(ncols).zip(psi.chunks_exact(ncols));
        for ((o, p), &v) in points.zip(&self.v_loc) {
            for (o, p) in o.iter_mut().zip(p) {
                *o += *p * v;
            }
        }
    }

    /// `out += v_nl psi = sum_a E_a <chi_a|psi> |chi_a>`.
    pub fn apply_nonlocal<A: Amplitude>(&self, psi: &[A], out: &mut [A]) {
        let (dv, ncols) = (self.mesh.dv(), self.columns(psi, out));
        for proj in &self.projectors {
            for n in 0..ncols {
                let c = proj.overlap(psi, (ncols, n), dv) * proj.e_kb;
                proj.accumulate(c, out, (ncols, n));
            }
        }
    }

    /// Full application `out = h psi`, optionally including the nonlocal
    /// part (the loc/nl distinction of Eq. (5) and the scissor shift Eq. (8)).
    pub fn apply<A: Amplitude>(&self, psi: &[A], out: &mut [A], include_nonlocal: bool) {
        self.apply_kinetic(psi, out);
        self.apply_local_potential(psi, out);
        if include_nonlocal {
            self.apply_nonlocal(psi, out);
        }
    }

    /// The diagonal of `h` as a matrix over mesh points (kinetic, `v_loc`, each
    /// KB channel's `E_a p^2 dv`): what the eigensolver's preconditioner inverts.
    pub fn diagonal(&self) -> Vec<f64> {
        let kin = 2.0 * self.kinetic_couplings().iter().sum::<f64>();
        let mut d: Vec<f64> = self.v_loc.iter().map(|v| v + kin).collect();
        let dv = self.mesh.dv();
        for proj in &self.projectors {
            for &(idx, p) in &proj.entries {
                d[idx] += proj.e_kb * p * p * dv;
            }
        }
        d
    }

    /// Expectation `<psi|h|psi> dv / <psi|psi> dv` (real for Hermitian h).
    pub fn expectation(&self, psi: &[C64], include_nonlocal: bool) -> f64 {
        let mut hpsi = vec![C64::zero(); psi.len()];
        self.apply(psi, &mut hpsi, include_nonlocal);
        let num: f64 = psi.iter().zip(&hpsi).map(|(a, b)| (a.conj() * *b).re).sum();
        let den: f64 = psi.iter().map(|z| z.norm_sqr()).sum();
        num / den
    }

    /// Gershgorin-style upper bound of the spectrum: kinetic row sum plus the
    /// largest repulsive `v_loc` and `|E_kb|`. It ignores attractive potential,
    /// so it says nothing of the spectrum's width and is no step length.
    pub fn spectral_bound(&self) -> f64 {
        let m = &self.mesh;
        let kin =
            2.0 / self.mass * (1.0 / (m.dx * m.dx) + 1.0 / (m.dy * m.dy) + 1.0 / (m.dz * m.dz));
        let vmax = self.v_loc.iter().copied().fold(0.0f64, f64::max);
        let nl: f64 = self
            .projectors
            .iter()
            .map(|p| p.e_kb.abs())
            .fold(0.0, f64::max);
        kin + vmax + nl
    }
}

/// Sum of local pseudopotentials of all atoms, evaluated on the mesh: one
/// radial pass per atom, `-Z/d` in closed form beyond `6 rc` and
/// [`erf_over_x`](crate::atoms::erf_over_x) inside, within 1e-12 of the
/// closed form's largest value.
pub fn local_pseudopotential(mesh: &Mesh3, atoms: &AtomSet) -> Vec<f64> {
    let mut v = vec![0.0; mesh.len()];
    let cells = std::cell::Cell::from_mut(&mut v[..]).as_slice_of_cells();
    let g = crate::atoms::erf_over_x();
    crate::forces::with_positions(mesh, |points, scratch| {
        for atom in &atoms.atoms {
            let sp = &atoms.species[atom.species];
            let (scale, rc) = (-sp.z_val, sp.rc_loc);
            let pass = crate::forces::near_pass(atom.pos, points, rc, Far::Field(cells, scale));
            let terms = crate::forces::VLoc(g, sp, None, 0.0);
            let (_, near) = simd::radial(&pass, &terms, scratch);
            for k in 0..near.count() {
                let (p, _, _, [t, ..]) = near.get(k);
                cells[p].set(cells[p].get() + t);
            }
        }
    });
    v
}

/// Build normalized KB projectors (one per atom with `e_kb != 0`).
pub fn build_projectors(mesh: &Mesh3, atoms: &AtomSet) -> Vec<NonlocalProjector> {
    let dv = mesh.dv();
    let mut out = Vec::new();
    for atom in &atoms.atoms {
        let sp = &atoms.species[atom.species];
        if sp.e_kb == 0.0 {
            continue;
        }
        let cutoff = 5.0 * sp.r_nl;
        let mut entries = Vec::new();
        let mut norm2 = 0.0;
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let r = crate::atoms::distance(p, atom.pos);
            if r > cutoff {
                continue;
            }
            let amp = sp.projector(r);
            entries.push((mesh.idx(i, j, k), amp));
            norm2 += amp * amp;
        }
        let norm = (norm2 * dv).sqrt();
        if norm < 1e-12 {
            continue; // atom outside this domain's mesh
        }
        for e in &mut entries {
            e.1 /= norm;
        }
        out.push(NonlocalProjector {
            entries,
            e_kb: sp.e_kb,
        });
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::atoms::Species;
    use dcmesh_math::{linalg, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `h` as a dense matrix, built column by column from unit vectors.
    fn dense_matrix(h: &Hamiltonian) -> Matrix<f64> {
        let g = h.mesh().len();
        let mut dense = Matrix::zeros(g, g);
        let mut unit = vec![C64::zero(); g];
        for c in 0..g {
            unit[c] = C64::one();
            h.apply(&unit, dense.col_mut(c), true);
            unit[c] = C64::zero();
        }
        dense
    }

    /// The dense spectrum of `h`: the oracle of the eigensolver's tests
    /// (small meshes only).
    pub(crate) fn dense_spectrum(h: &Hamiltonian) -> linalg::Eigh<f64> {
        linalg::eigh(&dense_matrix(h))
    }

    /// One attractive KB atom on a mesh small enough for the dense oracle.
    pub(crate) fn small_atom_hamiltonian(n: usize) -> Hamiltonian {
        let mesh = Mesh3::cubic(n, 0.6);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        atoms.push(0, mesh.center());
        Hamiltonian::from_atoms(mesh, &atoms)
    }

    #[test]
    fn spectral_bound_is_above_the_dense_spectrum() {
        let h = small_atom_hamiltonian(5);
        assert!(h.v_loc.iter().all(|&v| v < 0.0), "the atom is attractive");
        let eig = dense_spectrum(&h);
        let (lo, hi) = (eig.values[0], eig.values[h.mesh().len() - 1]);
        assert!(hi <= h.spectral_bound(), "{hi} vs {}", h.spectral_bound());
        // It bounds the top only: the bottom lies below zero, where it looks
        // at nothing (why it was wrong as the old solver's step length).
        assert!(lo < 0.0, "lowest level {lo}");
    }

    #[test]
    fn diagonal_matches_the_dense_matrix() {
        let h = small_atom_hamiltonian(5);
        assert!(!h.projectors.is_empty());
        let dense = dense_matrix(&h);
        for (i, d) in h.diagonal().iter().enumerate() {
            assert!((dense[(i, i)].re - d).abs() < 1e-12, "point {i}");
        }
    }

    #[test]
    fn block_application_is_the_column_application_bit_for_bit() {
        let h = test_hamiltonian();
        let (g, ncols) = (h.mesh().len(), 5);
        let mut rng = StdRng::seed_from_u64(54);
        let soa = random_field(&mut rng, g * ncols);
        for nl in [false, true] {
            let mut out = vec![C64::zero(); g * ncols];
            h.apply(&soa, &mut out, nl);
            for n in 0..ncols {
                let col: Vec<C64> = (0..g).map(|p| soa[p * ncols + n]).collect();
                let mut want = vec![C64::zero(); g];
                h.apply(&col, &mut want, nl);
                assert!((0..g).all(|p| out[p * ncols + n] == want[p]), "column {n}");
            }
            // `h` is real: on the block's real part, the result's real part.
            let re: Vec<f64> = soa.iter().map(|z| z.re).collect();
            let mut out_re = vec![0.0; g * ncols];
            h.apply(&re, &mut out_re, nl);
            assert!(out.iter().zip(&out_re).all(|(z, x)| z.re == *x));
        }
    }

    fn random_field(rng: &mut StdRng, n: usize) -> Vec<C64> {
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn test_hamiltonian() -> Hamiltonian {
        let mesh = Mesh3::cubic(10, 0.5);
        let mut atoms = AtomSet::new(vec![Species::titanium()]);
        atoms.push(0, mesh.center());
        Hamiltonian::from_atoms(mesh, &atoms)
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let h = test_hamiltonian();
        let mut rng = StdRng::seed_from_u64(51);
        let a = random_field(&mut rng, h.mesh().len());
        let b = random_field(&mut rng, h.mesh().len());
        let mut ha = vec![C64::zero(); a.len()];
        let mut hb = vec![C64::zero(); b.len()];
        h.apply(&a, &mut ha, true);
        h.apply(&b, &mut hb, true);
        let lhs = linalg::dotc(&b, &ha); // <b|H a>
        let rhs = linalg::dotc(&hb, &a); // <H b|a>
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn expectation_is_real_and_bounded() {
        let h = test_hamiltonian();
        let mut rng = StdRng::seed_from_u64(52);
        let psi = random_field(&mut rng, h.mesh().len());
        let e = h.expectation(&psi, true);
        assert!(e.is_finite());
        assert!(e < h.spectral_bound());
    }

    #[test]
    fn kinetic_of_constant_in_interior_is_zero() {
        let mesh = Mesh3::cubic(8, 0.5);
        let h = Hamiltonian::with_potential(mesh.clone(), vec![0.0; mesh.len()]);
        let psi = vec![C64::one(); mesh.len()];
        let mut out = vec![C64::zero(); mesh.len()];
        h.apply_kinetic(&psi, &mut out);
        // Interior points see a flat field: Laplacian = 0.
        let c = mesh.idx(4, 4, 4);
        assert!(out[c].abs() < 1e-14);
        // Boundary points feel the Dirichlet wall: nonzero.
        assert!(out[mesh.idx(0, 4, 4)].abs() > 0.0);
    }

    #[test]
    fn nonlocal_is_rank_one_per_projector() {
        let h = test_hamiltonian();
        assert_eq!(h.projectors.len(), 1);
        let proj = &h.projectors[0];
        // Applying v_nl to the projector itself returns e_kb * projector.
        let mut chi = vec![C64::zero(); h.mesh().len()];
        for &(idx, p) in &proj.entries {
            chi[idx] = C64::from_real(p);
        }
        let mut out = vec![C64::zero(); h.mesh().len()];
        h.apply_nonlocal(&chi, &mut out);
        for &(idx, p) in &proj.entries {
            let want = proj.e_kb * p;
            assert!((out[idx].re - want).abs() < 1e-9, "idx {idx}");
        }
    }

    #[test]
    fn projector_normalized() {
        let h = test_hamiltonian();
        let dv = h.mesh().dv();
        let n2: f64 = h.projectors[0]
            .entries
            .iter()
            .map(|&(_, p)| p * p)
            .sum::<f64>()
            * dv;
        assert!((n2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_pseudopotential_attractive_at_atom_and_matches_the_closed_form() {
        let mesh = Mesh3::cubic(12, 0.5);
        let mut atoms = AtomSet::new(vec![Species::oxygen(), Species::lead()]);
        let c = mesh.center();
        atoms.push(0, c);
        atoms.push(1, mesh.position(2, 3, 4));
        atoms.push(0, [c[0] + 1.3, c[1] - 2.9, c[2] + 11.0]);
        let v = local_pseudopotential(&mesh, &atoms);
        let (ci, cj, ck) = mesh.nearest_point(c);
        let v_at = v[mesh.idx(ci, cj, ck)];
        let v_far = v[mesh.idx(0, 0, 0)];
        assert!(v_at < v_far && v_at < -1.0, "v_at={v_at} v_far={v_far}");
        let max = v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let want: f64 = (atoms.atoms.iter())
                .map(|a| atoms.species[a.species].v_local(crate::atoms::distance(p, a.pos)))
                .sum();
            let got = v[mesh.idx(i, j, k)];
            assert!((got - want).abs() <= 1e-12 * max, "({i},{j},{k})");
        }
    }

    #[test]
    fn atom_outside_mesh_yields_no_projector() {
        let mesh = Mesh3::cubic(8, 0.4);
        let mut atoms = AtomSet::new(vec![Species::titanium()]);
        atoms.push(0, [100.0, 100.0, 100.0]);
        let projs = build_projectors(&mesh, &atoms);
        assert!(projs.is_empty());
    }

    #[test]
    fn loc_nl_split_adds_up() {
        let h = test_hamiltonian();
        let mut rng = StdRng::seed_from_u64(53);
        let psi = random_field(&mut rng, h.mesh().len());
        let mut full = vec![C64::zero(); psi.len()];
        h.apply(&psi, &mut full, true);
        let mut loc = vec![C64::zero(); psi.len()];
        h.apply(&psi, &mut loc, false);
        let mut nl = vec![C64::zero(); psi.len()];
        h.apply_nonlocal(&psi, &mut nl);
        for i in 0..psi.len() {
            assert!((full[i] - (loc[i] + nl[i])).abs() < 1e-12);
        }
    }
}
