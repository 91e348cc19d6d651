//! PbTiO3 perovskite lattices, supercells, and polar topologies.
//!
//! The paper's benchmarks run on "40P-atom PbTiO3 material" (8 unit cells
//! per MPI rank) and its application (Fig. 7) studies flux-closure polar
//! domains in strained PbTiO3. This module builds those geometries:
//! cubic/tetragonal unit cells, supercells, displacement-based polarization
//! via Born effective charges, and the four-quadrant flux-closure vortex
//! initialization.

use dcmesh_math::phys::angstrom_to_bohr;
use dcmesh_tddft::{AtomSet, Species};

/// One ABO3 unit cell (A = Pb, B = Ti).
#[derive(Clone, Debug)]
pub struct PbTiO3Cell {
    /// Lattice constants (Bohr).
    pub a: [f64; 3],
    /// Ti displacement from the cell center (Bohr) — the polar mode.
    pub ti_shift: [f64; 3],
}

impl PbTiO3Cell {
    /// Ideal cubic cell, a = 3.97 angstrom.
    pub fn cubic() -> Self {
        let a = angstrom_to_bohr(3.97);
        Self {
            a: [a, a, a],
            ti_shift: [0.0; 3],
        }
    }

    /// Atoms per unit cell (Pb + Ti + 3 O).
    pub const ATOMS_PER_CELL: usize = 5;

    /// Born effective charges (|e|) for [Pb, Ti, O] — literature-magnitude
    /// values (Zhong et al.): Pb +3.9, Ti +7.1, O averaged -3.7.
    pub const BORN_CHARGES: [f64; 3] = [3.9, 7.1, -3.666_666_7];
}

/// A built supercell: atoms plus box metadata.
///
/// ```
/// use dcmesh_qxmd::pbtio3::{PbTiO3Cell, Supercell};
/// let sc = Supercell::build(&PbTiO3Cell::cubic(), [2, 2, 2]);
/// assert_eq!(sc.atoms.len(), 40); // the paper's per-rank granularity
/// assert_eq!(sc.atoms.electron_count(), 8.0 * 26.0);
/// ```
#[derive(Clone, Debug)]
pub struct Supercell {
    /// The atoms (species order [Pb, Ti, O]).
    pub atoms: AtomSet,
    /// Periodic box lengths (Bohr).
    pub box_lengths: [f64; 3],
    /// Cells per axis.
    pub dims: [usize; 3],
    /// The generating unit cell.
    pub cell: PbTiO3Cell,
}

impl Supercell {
    /// Tile `cell` into an `nx x ny x nz` supercell.
    pub fn build(cell: &PbTiO3Cell, dims: [usize; 3]) -> Self {
        let mut atoms = AtomSet::new(vec![
            Species::lead(),
            Species::titanium(),
            Species::oxygen(),
        ]);
        let (a, b, c) = (cell.a[0], cell.a[1], cell.a[2]);
        for ix in 0..dims[0] {
            for iy in 0..dims[1] {
                for iz in 0..dims[2] {
                    let o = [ix as f64 * a, iy as f64 * b, iz as f64 * c];
                    // Pb at the corner.
                    atoms.push(0, o);
                    // Ti at the center (+ polar shift).
                    atoms.push(
                        1,
                        [
                            o[0] + 0.5 * a + cell.ti_shift[0],
                            o[1] + 0.5 * b + cell.ti_shift[1],
                            o[2] + 0.5 * c + cell.ti_shift[2],
                        ],
                    );
                    // O at the three face centers.
                    atoms.push(2, [o[0] + 0.5 * a, o[1] + 0.5 * b, o[2]]);
                    atoms.push(2, [o[0] + 0.5 * a, o[1], o[2] + 0.5 * c]);
                    atoms.push(2, [o[0], o[1] + 0.5 * b, o[2] + 0.5 * c]);
                }
            }
        }
        Self {
            atoms,
            box_lengths: [dims[0] as f64 * a, dims[1] as f64 * b, dims[2] as f64 * c],
            dims,
            cell: cell.clone(),
        }
    }

    /// Number of unit cells.
    pub fn num_cells(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Index of the Ti atom of cell `(ix, iy, iz)`.
    pub fn ti_index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        let cell_idx = iz + self.dims[2] * (iy + self.dims[1] * ix);
        cell_idx * PbTiO3Cell::ATOMS_PER_CELL + 1
    }

    /// Ideal (unshifted) Ti position of cell `(ix, iy, iz)`.
    pub fn ti_ideal_position(&self, ix: usize, iy: usize, iz: usize) -> [f64; 3] {
        [
            (ix as f64 + 0.5) * self.cell.a[0],
            (iy as f64 + 0.5) * self.cell.a[1],
            (iz as f64 + 0.5) * self.cell.a[2],
        ]
    }

    /// Per-cell polarization vector from the Ti off-centering and Born
    /// charge: `P_cell = Z*_Ti e u / V_cell` (dipole density, a.u.).
    pub fn cell_polarization(&self, ix: usize, iy: usize, iz: usize) -> [f64; 3] {
        let ti = self.ti_index(ix, iy, iz);
        let ideal = self.ti_ideal_position(ix, iy, iz);
        let pos = self.atoms.atoms[ti].pos;
        let vcell = self.cell.a[0] * self.cell.a[1] * self.cell.a[2];
        let z = PbTiO3Cell::BORN_CHARGES[1];
        [
            z * (pos[0] - ideal[0]) / vcell,
            z * (pos[1] - ideal[1]) / vcell,
            z * (pos[2] - ideal[2]) / vcell,
        ]
    }

    /// Imprint a flux-closure (vortex) polar texture in the x-z plane:
    /// Ti displacements follow the tangential field of a vortex centered in
    /// the slab (Fig. 7's four-quadrant flux-closure domain).
    /// `amplitude` is the Ti off-centering magnitude (Bohr); `sense` = +-1
    /// picks the circulation direction.
    pub fn imprint_flux_closure(&mut self, amplitude: f64, sense: f64) {
        let cx = self.box_lengths[0] / 2.0;
        let cz = self.box_lengths[2] / 2.0;
        for ix in 0..self.dims[0] {
            for iy in 0..self.dims[1] {
                for iz in 0..self.dims[2] {
                    let ideal = self.ti_ideal_position(ix, iy, iz);
                    let dx = ideal[0] - cx;
                    let dz = ideal[2] - cz;
                    let r = (dx * dx + dz * dz).sqrt().max(1e-9);
                    // Tangential unit vector of the vortex: (-dz, 0, dx)/r.
                    let ti = self.ti_index(ix, iy, iz);
                    self.atoms.atoms[ti].pos = [
                        ideal[0] - sense * amplitude * dz / r,
                        ideal[1],
                        ideal[2] + sense * amplitude * dx / r,
                    ];
                }
            }
        }
    }

    /// Uniformly polarize along an axis (mono-domain state).
    pub fn imprint_uniform(&mut self, axis: usize, amplitude: f64) {
        for ix in 0..self.dims[0] {
            for iy in 0..self.dims[1] {
                for iz in 0..self.dims[2] {
                    let ideal = self.ti_ideal_position(ix, iy, iz);
                    let ti = self.ti_index(ix, iy, iz);
                    let mut p = ideal;
                    p[axis] += amplitude;
                    self.atoms.atoms[ti].pos = p;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stoichiometry_and_counts() {
        let sc = Supercell::build(&PbTiO3Cell::cubic(), [3, 2, 1]);
        assert_eq!(sc.num_cells(), 6);
        assert_eq!(sc.atoms.len(), 30);
        let count = |s: usize| sc.atoms.atoms.iter().filter(|a| a.species == s).count();
        assert_eq!(count(0), 6); // Pb
        assert_eq!(count(1), 6); // Ti
        assert_eq!(count(2), 18); // O
    }

    #[test]
    fn electron_count_matches_valence() {
        // Per cell: Pb 4 + Ti 4 + 3 O 6 = 26 valence electrons.
        let sc = Supercell::build(&PbTiO3Cell::cubic(), [1, 1, 1]);
        assert_eq!(sc.atoms.electron_count(), 26.0);
    }

    #[test]
    fn ti_indexing_is_consistent() {
        let sc = Supercell::build(&PbTiO3Cell::cubic(), [2, 3, 2]);
        for ix in 0..2 {
            for iy in 0..3 {
                for iz in 0..2 {
                    let ti = sc.ti_index(ix, iy, iz);
                    assert_eq!(sc.atoms.atoms[ti].species, 1, "not a Ti at {ti}");
                    let want = sc.ti_ideal_position(ix, iy, iz);
                    let got = sc.atoms.atoms[ti].pos;
                    for ax in 0..3 {
                        assert!((got[ax] - want[ax]).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn cubic_cell_has_zero_polarization() {
        let sc = Supercell::build(&PbTiO3Cell::cubic(), [2, 2, 2]);
        for ix in 0..2 {
            let p = sc.cell_polarization(ix, 0, 0);
            assert!(p.iter().all(|&x| x.abs() < 1e-12));
        }
    }

    #[test]
    fn flux_closure_has_net_zero_polarization_but_nonzero_cells() {
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [6, 1, 6]);
        sc.imprint_flux_closure(0.3, 1.0);
        let mut net = [0.0; 3];
        let mut mags = 0.0;
        for ix in 0..6 {
            for iz in 0..6 {
                let p = sc.cell_polarization(ix, 0, iz);
                for (na, &pa) in net.iter_mut().zip(&p) {
                    *na += pa;
                }
                mags += (p[0] * p[0] + p[2] * p[2]).sqrt();
            }
        }
        assert!(mags > 0.0, "vortex cells unpolarized");
        for (ax, &na) in net.iter().enumerate() {
            assert!(na.abs() < 1e-10 * mags, "net P[{ax}] = {na}");
        }
    }

    #[test]
    fn uniform_imprint_polarizes_along_requested_axis() {
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [2, 2, 2]);
        sc.imprint_uniform(1, 0.2);
        let p = sc.cell_polarization(1, 1, 0);
        assert!(p[1] > 0.0);
        assert!(p[0].abs() < 1e-12 && p[2].abs() < 1e-12);
    }
}
