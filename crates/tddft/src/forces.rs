//! Hellmann–Feynman forces on the ions from the electronic structure —
//! the electron-atom coupling channel of Ehrenfest dynamics (the "E" of
//! DC-MESH, paper Eq. (3): the time-dependent electronic state "dictates
//! interatomic interaction for molecular dynamics").
//!
//! At fixed wavefunctions the local-channel force on atom `a` is
//!
//! ```text
//! F_a = - d/dR_a integral rho(r) v_loc(|r - R_a|) dV
//! ```
//!
//! evaluated on the mesh: the density integrated against the analytic
//! gradient of the smooth pseudopotential. It is the one channel `md_step`
//! feeds back; the ion-ion part comes from the force field.

use dcmesh_grid::Mesh3;

use crate::atoms::{distance, erf, AtomSet};

/// Forces on every atom from the electron density interacting with the
/// *local* pseudopotentials (Hellmann–Feynman, local channel). Adds into
/// the atoms' force accumulators and returns the interaction energy.
///
/// Per (atom, mesh point) with non-zero density: one `sqrt`, one
/// [`erf`](crate::atoms::erf) shared by `v_loc = -Z erf(d/rc)/d` and its
/// slope, and — inside the `8 rc` force cutoff only — one `exp`. Beyond
/// `6 rc` the `erf` is exactly `1.0` and costs a comparison, so a far point
/// adds its bare `-Z/d` to the energy for a `sqrt` and a divide.
pub fn local_pseudo_forces(mesh: &Mesh3, atoms: &mut AtomSet, rho: &[f64]) -> f64 {
    assert_eq!(rho.len(), mesh.len());
    let dv = mesh.dv();
    let AtomSet { species, atoms } = atoms;
    let mut energy = 0.0;
    for atom in atoms.iter_mut() {
        let sp = &species[atom.species];
        let (z_val, rc) = (sp.z_val, sp.rc_loc);
        let ra = atom.pos;
        let cutoff = 8.0 * rc;
        let mut f = [0.0; 3];
        for (i, j, k) in mesh.iter_points() {
            let rho_p = rho[mesh.idx(i, j, k)];
            if rho_p == 0.0 {
                continue;
            }
            let p = mesh.position(i, j, k);
            let d = distance(p, ra);
            if d < 1e-8 {
                // On the atom: the analytic limit of `v_loc`, zero slope.
                energy += rho_p * sp.v_local(d) * dv;
                continue;
            }
            let x = d / rc;
            let erf_x = erf(x);
            energy += rho_p * (-z_val * erf_x / d) * dv;
            if d > cutoff {
                continue;
            }
            // F_a = + integral rho v'(d) (r - R_a)/d dV, with
            // v'(d) = -Z (erf'(x)/(rc d) - erf(x)/d^2).
            let derf = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp() / rc;
            let slope = -z_val * (derf / d - erf_x / (d * d));
            let g = rho_p * slope * dv / d;
            for (ax, fa) in f.iter_mut().enumerate() {
                *fa += g * (p[ax] - ra[ax]);
            }
        }
        for (fa, &add) in atom.force.iter_mut().zip(&f) {
            *fa += add;
        }
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Species;

    /// Gaussian density blob centered at `c`.
    fn blob_density(mesh: &Mesh3, c: [f64; 3], width: f64, total: f64) -> Vec<f64> {
        let mut rho = vec![0.0; mesh.len()];
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
            rho[mesh.idx(i, j, k)] = (-r2 / (2.0 * width * width)).exp();
        }
        let sum: f64 = rho.iter().sum::<f64>() * mesh.dv();
        for r in rho.iter_mut() {
            *r *= total / sum;
        }
        rho
    }

    /// `local_pseudo_forces` as it stood before `v_loc` and its slope
    /// shared one `erf`: a `Species` clone per atom, `v_local(d)` for every
    /// point and a second `erf` inside the cutoff. The reference the
    /// production loop is held to, bit for bit.
    fn local_pseudo_forces_oracle(mesh: &Mesh3, atoms: &mut AtomSet, rho: &[f64]) -> f64 {
        fn dv_local_dr(z_val: f64, rc: f64, r: f64) -> f64 {
            if r < 1e-8 {
                return 0.0;
            }
            let x = r / rc;
            let derf = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp() / rc;
            -z_val * (derf / r - erf(x) / (r * r))
        }
        let dv = mesh.dv();
        let mut energy = 0.0;
        for ai in 0..atoms.len() {
            let sp = atoms.species[atoms.atoms[ai].species].clone();
            let ra = atoms.atoms[ai].pos;
            let cutoff = 8.0 * sp.rc_loc;
            let mut f = [0.0; 3];
            for (i, j, k) in mesh.iter_points() {
                let p = mesh.position(i, j, k);
                let d = distance(p, ra);
                let rho_p = rho[mesh.idx(i, j, k)];
                if rho_p == 0.0 {
                    continue;
                }
                energy += rho_p * sp.v_local(d) * dv;
                if d < 1e-8 || d > cutoff {
                    continue;
                }
                let g = rho_p * dv_local_dr(sp.z_val, sp.rc_loc, d) * dv / d;
                for (ax, fa) in f.iter_mut().enumerate() {
                    *fa += g * (p[ax] - ra[ax]);
                }
            }
            for (ax, &fa) in f.iter().enumerate() {
                atoms.atoms[ai].force[ax] += fa;
            }
        }
        energy
    }

    #[test]
    fn local_forces_and_energy_are_bit_identical_to_the_oracle() {
        // A domain mesh as `DcMeshSim` builds them (origin off zero), a
        // density with exact zeros, and atoms in every regime of the loop:
        // on a mesh point, inside, within 6-8 rc of the far corner only,
        // and outside the mesh on either side.
        let mut mesh = Mesh3::cubic(10, 0.8);
        mesh.origin = [14.7, 0.0, -0.4];
        let c = mesh.center();
        let mut rho = blob_density(&mesh, [c[0] + 0.9, c[1] - 0.4, c[2] + 0.2], 1.7, 9.0);
        for r in rho.iter_mut().step_by(7) {
            *r = 0.0;
        }
        let mut atoms = AtomSet::new(vec![
            Species::lead(),
            Species::titanium(),
            Species::oxygen(),
        ]);
        atoms.push(0, mesh.position(3, 4, 5));
        atoms.push(1, [c[0] - 0.31, c[1] + 0.77, c[2] + 0.13]);
        atoms.push(2, [c[0] + 1.9, c[1] - 2.2, c[2] - 0.6]);
        atoms.push(2, mesh.position(9, 9, 9));
        atoms.push(0, [mesh.origin[0] - 3.3, c[1], c[2]]);
        atoms.push(1, [mesh.origin[0] + 8.0 + 11.0, c[1] + 20.0, c[2]]);
        atoms.push(2, [mesh.origin[0] - 0.05, -6.0, 9.1]);
        // Non-zero accumulators: both versions add into them.
        for (n, a) in atoms.atoms.iter_mut().enumerate() {
            a.force = [0.1 * n as f64, -0.3, 1e-3];
        }
        let mut reference = atoms.clone();
        let e = local_pseudo_forces(&mesh, &mut atoms, &rho);
        let e0 = local_pseudo_forces_oracle(&mesh, &mut reference, &rho);
        assert_eq!(e.to_bits(), e0.to_bits(), "energy {e} vs oracle {e0}");
        for (i, (a, b)) in atoms.atoms.iter().zip(&reference.atoms).enumerate() {
            for ax in 0..3 {
                assert_eq!(a.force[ax].to_bits(), b.force[ax].to_bits(), "atom {i}");
            }
        }
        // The far atoms felt no force but did add to the energy.
        assert_eq!(atoms.atoms[5].force, [0.5, -0.3, 1e-3]);
    }

    #[test]
    fn local_force_points_toward_electron_density() {
        // An electron blob to the +x side of the atom attracts it (+x force).
        let mesh = Mesh3::cubic(14, 0.5);
        let mut atoms = AtomSet::new(vec![Species::hydrogen()]);
        let c = mesh.center();
        atoms.push(0, [c[0] - 1.0, c[1], c[2]]);
        let rho = blob_density(&mesh, [c[0] + 1.0, c[1], c[2]], 0.8, 1.0);
        atoms.clear_forces();
        local_pseudo_forces(&mesh, &mut atoms, &rho);
        let f = atoms.atoms[0].force;
        assert!(f[0] > 1e-4, "force not attractive: {f:?}");
        assert!(
            f[1].abs() < 0.05 * f[0] && f[2].abs() < 0.05 * f[0],
            "asymmetry {f:?}"
        );
    }

    #[test]
    fn local_force_matches_energy_finite_difference() {
        let mesh = Mesh3::cubic(14, 0.5);
        let c = mesh.center();
        let rho = blob_density(&mesh, [c[0] + 0.7, c[1] - 0.3, c[2]], 0.9, 2.0);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        atoms.push(0, [c[0] - 0.5, c[1] + 0.2, c[2] + 0.1]);
        atoms.clear_forces();
        local_pseudo_forces(&mesh, &mut atoms, &rho);
        let f = atoms.atoms[0].force;
        let h = 1e-4;
        #[allow(clippy::needless_range_loop)]
        for ax in 0..3 {
            let mut ep_atoms = atoms.clone();
            ep_atoms.atoms[0].pos[ax] += h;
            ep_atoms.clear_forces();
            let ep = local_pseudo_forces(&mesh, &mut ep_atoms, &rho);
            let mut em_atoms = atoms.clone();
            em_atoms.atoms[0].pos[ax] -= h;
            em_atoms.clear_forces();
            let em = local_pseudo_forces(&mesh, &mut em_atoms, &rho);
            let fd = -(ep - em) / (2.0 * h);
            assert!(
                (fd - f[ax]).abs() < 2e-3 * f[ax].abs().max(1.0),
                "axis {ax}: fd {fd} vs analytic {}",
                f[ax]
            );
        }
    }

    #[test]
    fn symmetric_density_gives_zero_force() {
        let mesh = Mesh3::cubic(13, 0.5);
        let c = mesh.center();
        let mut atoms = AtomSet::new(vec![Species::hydrogen()]);
        atoms.push(0, c);
        let rho = blob_density(&mesh, c, 1.0, 1.0);
        atoms.clear_forces();
        local_pseudo_forces(&mesh, &mut atoms, &rho);
        for ax in 0..3 {
            assert!(atoms.atoms[0].force[ax].abs() < 1e-8, "axis {ax}");
        }
    }
}
