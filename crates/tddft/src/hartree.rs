//! Hartree (mean electrostatic) potential via the O(N) multigrid solver.
//!
//! Paper §II: "the mean electrostatic field (or Hartree potential) is
//! computed globally using the scalable O(N) multigrid method". The solver
//! works on the *total* charge density (electrons minus smeared ionic
//! charges) so the periodic compatibility condition is physical: a neutral
//! cell has a mean-free source.

use dcmesh_grid::Mesh3;
use dcmesh_math::multigrid::{MgParams, Multigrid};

use crate::atoms::AtomSet;

/// Hartree solver bound to a mesh.
pub struct HartreeSolver {
    mesh: Mesh3,
    mg: Multigrid,
}

impl std::fmt::Debug for HartreeSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HartreeSolver").finish_non_exhaustive()
    }
}

impl HartreeSolver {
    /// Build the multigrid hierarchy for `mesh` (periodic cell).
    pub fn new(mesh: Mesh3) -> Self {
        let l = mesh.lengths();
        let mg = Multigrid::new(
            mesh.nx,
            mesh.ny,
            mesh.nz,
            l[0],
            l[1],
            l[2],
            MgParams::default(),
        );
        Self { mesh, mg }
    }

    /// Solve `-lap(v) = 4 pi rho` for a (possibly non-neutral) density;
    /// the k=0 (mean) component is projected out, which physically amounts
    /// to a neutralizing background.
    pub fn solve(&self, rho: &[f64]) -> Vec<f64> {
        assert_eq!(rho.len(), self.mesh.len());
        let _span = dcmesh_obs::span!("tddft.hartree_solve");
        let f: Vec<f64> = rho
            .iter()
            .map(|&r| 4.0 * std::f64::consts::PI * r)
            .collect();
        let sol = self.mg.solve(&f);
        dcmesh_obs::metrics::counter_add("tddft.mg_vcycles", sol.cycles as u64);
        dcmesh_obs::metrics::gauge_set("tddft.mg_rel_residual", sol.rel_residual);
        sol.phi
    }

    /// Hartree energy `1/2 integral rho v_H dV` of an electron density.
    pub fn energy(&self, rho: &[f64], v_h: &[f64]) -> f64 {
        0.5 * rho.iter().zip(v_h).map(|(r, v)| r * v).sum::<f64>() * self.mesh.dv()
    }

    /// The mesh this solver is bound to.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }
}

/// Smeared ionic charge density on the mesh: each ion contributes a
/// normalized Gaussian of width `rc_loc / sqrt(2)` carrying charge `+Z`,
/// which is the exact charge distribution whose potential is
/// `Z erf(r/rc)/r` — consistent with [`crate::atoms::Species::v_local`].
pub fn ionic_density(mesh: &Mesh3, atoms: &AtomSet) -> Vec<f64> {
    let mut rho = vec![0.0; mesh.len()];
    for atom in &atoms.atoms {
        let sp = &atoms.species[atom.species];
        let rc = sp.rc_loc;
        // Gaussian: Z * (1/(pi rc^2))^{3/2} exp(-r^2/rc^2) integrates to Z.
        let norm = sp.z_val / (std::f64::consts::PI * rc * rc).powf(1.5);
        // Only fill within 5 rc of the atom for O(1) cost per atom.
        let cutoff = 5.0 * rc;
        let (i0, j0, k0) = mesh.nearest_point(atom.pos);
        let ri = (cutoff / mesh.dx).ceil() as isize;
        let rj = (cutoff / mesh.dy).ceil() as isize;
        let rk = (cutoff / mesh.dz).ceil() as isize;
        for di in -ri..=ri {
            let i = i0 as isize + di;
            if i < 0 || i >= mesh.nx as isize {
                continue;
            }
            for dj in -rj..=rj {
                let j = j0 as isize + dj;
                if j < 0 || j >= mesh.ny as isize {
                    continue;
                }
                for dk in -rk..=rk {
                    let k = k0 as isize + dk;
                    if k < 0 || k >= mesh.nz as isize {
                        continue;
                    }
                    let p = mesh.position(i as usize, j as usize, k as usize);
                    let r2 = (p[0] - atom.pos[0]).powi(2)
                        + (p[1] - atom.pos[1]).powi(2)
                        + (p[2] - atom.pos[2]).powi(2);
                    if r2 > cutoff * cutoff {
                        continue;
                    }
                    rho[mesh.idx(i as usize, j as usize, k as usize)] +=
                        norm * (-r2 / (rc * rc)).exp();
                }
            }
        }
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Species;

    #[test]
    fn hartree_potential_of_gaussian_blob_is_positive_at_center() {
        let mesh = Mesh3::cubic(16, 0.5);
        let solver = HartreeSolver::new(mesh.clone());
        let c = mesh.center();
        let mut rho = vec![0.0; mesh.len()];
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
            rho[mesh.idx(i, j, k)] = (-r2).exp();
        }
        let v = solver.solve(&rho);
        let (ci, cj, ck) = mesh.nearest_point(c);
        let vc = v[mesh.idx(ci, cj, ck)];
        let vedge = v[mesh.idx(0, 0, 0)];
        assert!(vc > vedge, "center {vc} edge {vedge}");
        // Positive charge: repulsive (positive) potential at center after
        // background subtraction.
        assert!(vc > 0.0);
    }

    #[test]
    fn hartree_energy_positive_for_any_density() {
        let mesh = Mesh3::cubic(8, 0.6);
        let solver = HartreeSolver::new(mesh.clone());
        let mut rho = vec![0.0; mesh.len()];
        rho[mesh.idx(4, 4, 4)] = 1.0;
        rho[mesh.idx(2, 2, 2)] = 0.5;
        let v = solver.solve(&rho);
        // E_H = (1/2) <rho | (-lap/4pi)^-1 4pi rho> >= 0 for mean-free part.
        let mean = rho.iter().sum::<f64>() / rho.len() as f64;
        let rho0: Vec<f64> = rho.iter().map(|r| r - mean).collect();
        let e = solver.energy(&rho0, &v);
        assert!(e > 0.0, "E_H = {e}");
    }

    #[test]
    fn ionic_density_integrates_to_valence_charge() {
        let mesh = Mesh3::cubic(24, 0.4);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        let c = mesh.center();
        atoms.push(0, c);
        let rho = ionic_density(&mesh, &atoms);
        let q: f64 = rho.iter().sum::<f64>() * mesh.dv();
        assert!((q - 6.0).abs() < 0.05, "integrated ionic charge {q}");
    }

    #[test]
    fn neutral_system_total_charge_near_zero() {
        let mesh = Mesh3::cubic(16, 0.5);
        let mut atoms = AtomSet::new(vec![Species::hydrogen()]);
        atoms.push(0, mesh.center());
        let ion = ionic_density(&mesh, &atoms);
        // Fake electron density: same Gaussian shape scaled to 1 electron.
        let total: f64 = ion.iter().sum::<f64>() * mesh.dv();
        let elec: Vec<f64> = ion.iter().map(|r| r / total).collect();
        let net: f64 = ion
            .iter()
            .zip(&elec)
            .map(|(i, e)| i - e * total)
            .sum::<f64>()
            * mesh.dv();
        assert!(net.abs() < 1e-10);
    }
}
