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
//! evaluated on the mesh: the density integrated against the gradient of
//! the smooth pseudopotential, inside a force cutoff of `8 rc`. It is the one
//! channel `md_step` feeds back, and only the force is computed: an atom
//! farther than `8 rc` from the box of mesh points skips its pass, and
//! inside a pass a vector of points past the cutoff is skipped (both only
//! drop additions of `+0.0`). The ion-ion part comes from the force field.
//!
//! `v_loc(d) = -(Z/rc) erf(d/rc)/(d/rc)` is `-Z/d` to the last bit beyond
//! `6 rc`, so its slope is read from two places: that closed form, summed
//! on the lanes, and inside `6 rc` the quintic Hermite table of `erf(x)/x`
//! ([`erf_over_x`]: 64 nodes per unit on `[0, 6]`), read on the lanes too
//! over the pass's left-packed near list, whose forces are within 1.3e-13
//! of the closed form's largest. The near sums are a scalar loop in point
//! order.

use dcmesh_grid::Mesh3;
use dcmesh_math::simd::{self, Far, Lane, NearTerms, RadialPass, NEAR_COLUMNS};
use dcmesh_math::HermiteTable;

use crate::atoms::{erf_over_x, AtomSet, Species, ERF_SATURATION};

/// The near terms of an atom of species `sp`, `VLoc(g, sp, rho, dv)`: with
/// `v = -(Z/rc) g(d/rc)`, `[rho v'(d) dv / d, d, 0]` at the points `j` of the
/// density `rho` (`dv` the volume element), or without one `[v, 0, 0]`.
pub(crate) struct VLoc<'a>(
    pub &'a HermiteTable,
    pub &'a Species,
    pub Option<&'a [f64]>,
    pub f64,
);

impl NearTerms for VLoc<'_> {
    #[inline(always)]
    fn terms<V: Lane>(&self, j: V, r2: V) -> [V; 3] {
        let VLoc(g, sp, rho, dv) = *self;
        let (c, d, z, rc) = (V::splat, r2.sqrt(), sp.z_val, sp.rc_loc);
        let (v, slope) = g.eval(d / c(rc));
        let Some(rho) = rho else {
            return [c(-z / rc) * v, c(0.0), c(0.0)];
        };
        // v'(d) = -(Z/rc^2) g'(d/rc).
        let f = V::gather(rho, j) * (c(-z / (rc * rc)) * slope) * c(dv) / d;
        [f, d, c(0.0)]
    }
}

/// Forces on every atom from the electron density interacting with the
/// *local* pseudopotentials (Hellmann–Feynman, local channel), added into
/// the atoms' force accumulators.
///
/// One radial pass per atom within `8 rc` of the mesh's point box
/// ([`simd::radial`]): the far field in closed form on the lanes, the
/// points inside `6 rc` (4 % of a `traj_coupled` domain's pairs) from the
/// table, on the lanes. A point within `1e-8` of the atom adds no force.
pub fn local_pseudo_forces(mesh: &Mesh3, atoms: &mut AtomSet, rho: &[f64]) {
    assert_eq!(rho.len(), mesh.len());
    let (dv, g) = (mesh.dv(), erf_over_x());
    let (lo, hi) = (
        mesh.origin,
        mesh.position(mesh.nx - 1, mesh.ny - 1, mesh.nz - 1),
    );
    let AtomSet { species, atoms } = atoms;
    with_positions(mesh, |points, scratch| {
        for atom in atoms.iter_mut() {
            let sp = &species[atom.species];
            let (z_val, rc) = (sp.z_val, sp.rc_loc);
            let force2 = (8.0 * rc).powi(2);
            // Squared distance to the point box, rounded as a pass rounds
            // its nearest point's; a NaN position is never skipped.
            let gap =
                [0, 1, 2].map(|ax| (lo[ax] - atom.pos[ax]).max(atom.pos[ax] - hi[ax]).max(0.0));
            if gap[0] * gap[0] + gap[1] * gap[1] + gap[2] * gap[2] > force2 * (1.0 + 1e-9) {
                continue;
            }
            let mut f = [0.0; 3];
            let pass = near_pass(atom.pos, points, rc, Far::Sums(rho, force2));
            let (far_f, near) = simd::radial(&pass, &VLoc(g, sp, Some(rho), dv), scratch);
            for k in 0..near.count() {
                let (_, d, _, [c, dist, _]) = near.get(k);
                if dist >= 1e-8 {
                    f = [0, 1, 2].map(|ax| f[ax] + c * d[ax]);
                }
            }
            for ((fa, near), far) in atom.force.iter_mut().zip(f).zip(far_f) {
                *fa += near + z_val * dv * far;
            }
        }
    })
}

/// The pass of an atom at `centre` with core radius `rc` over the mesh
/// `points`: the points inside `6 rc` are near.
pub(crate) fn near_pass<'a>(
    centre: [f64; 3],
    points: [&'a [f64]; 3],
    rc: f64,
    far: Far<'a>,
) -> RadialPass<'a> {
    let near2 = (ERF_SATURATION * rc).powi(2);
    RadialPass {
        centre,
        partners: points,
        period: None,
        near2,
        far,
    }
}

/// The mesh's point positions as three coordinate runs in point order, and
/// the scratch of a radial pass over them, borrowed from the thread's
/// scratch arena.
pub(crate) fn with_positions<T>(mesh: &Mesh3, f: impl FnOnce([&[f64]; 3], &mut [f64]) -> T) -> T {
    let n = mesh.len();
    dcmesh_pool::arena::with_scratch::<f64, 3, T>([n; 3], |[xs, ys, zs]| {
        for (p, (i, j, k)) in mesh.iter_points().enumerate() {
            [xs[p], ys[p], zs[p]] = mesh.position(i, j, k);
        }
        let near = [NEAR_COLUMNS * n];
        dcmesh_pool::arena::with_scratch::<f64, 1, T>(near, |[near]| f([xs, ys, zs], near))
    })
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

    /// The closed form of `local_pseudo_forces`: per (atom, point) with
    /// non-zero density, the slope of `v_loc = -Z erf(d/rc)/d`, the force
    /// inside `8 rc` only. The reference the tabled pass is held to; it
    /// returns the interaction energy, `sum rho v_loc dV`, the force's
    /// potential.
    fn local_pseudo_forces_closed_form(mesh: &Mesh3, atoms: &mut AtomSet, rho: &[f64]) -> f64 {
        let (dv, mut energy) = (mesh.dv(), 0.0);
        for atom in atoms.atoms.iter_mut() {
            let sp = atoms.species[atom.species].clone();
            for (i, j, k) in mesh.iter_points() {
                let (p, rho_p) = (mesh.position(i, j, k), rho[mesh.idx(i, j, k)]);
                let (d, ra) = (crate::atoms::distance(p, atom.pos), atom.pos);
                if rho_p == 0.0 {
                    continue;
                }
                energy += rho_p * sp.v_local(d) * dv;
                if d < 1e-8 || d > 8.0 * sp.rc_loc {
                    continue;
                }
                let x = d / sp.rc_loc;
                let derf = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp() / sp.rc_loc;
                let slope = -sp.z_val * (derf / d - crate::atoms::erf(x) / (d * d));
                for ((fa, pa), ra) in atom.force.iter_mut().zip(p).zip(ra) {
                    *fa += rho_p * slope * dv / d * (pa - ra);
                }
            }
        }
        energy
    }

    #[test]
    fn local_forces_match_the_closed_form() {
        // A domain mesh as `DcMeshSim` builds them (origin off zero), a
        // density with exact zeros, and atoms in every regime of the pass:
        // on a mesh point, inside, within 6-8 rc of the far corner only,
        // outside the mesh on either side, and on both sides of 8 rc from
        // the point box.
        let mut mesh = Mesh3::cubic(10, 0.8);
        mesh.origin = [14.7, 0.0, -0.4];
        let c = mesh.center();
        let mut rho = blob_density(&mesh, [c[0] + 0.9, c[1] - 0.4, c[2] + 0.2], 1.7, 9.0);
        rho.iter_mut().step_by(7).for_each(|r| *r = 0.0);
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
        // 8 rc = 5.6 Bohr off the low x face, 1e-3 inside and outside.
        let p = mesh.position(0, 5, 4);
        atoms.push(2, [p[0] - 5.599, p[1], p[2]]);
        atoms.push(2, [p[0] - 5.601, p[1], p[2]]);
        // Atoms beyond 8 rc of the point box get exactly +0.0.
        let mut cleared = atoms.clone();
        local_pseudo_forces(&mesh, &mut cleared, &rho);
        for a in [5, 6, 8].map(|i| &cleared.atoms[i]) {
            assert_eq!(a.force.map(f64::to_bits), [0; 3], "{:?}", a.pos);
        }
        assert!(cleared.atoms[7].force[0] > 0.0, "the pass keeps 8 rc");
        // Non-zero accumulators: both versions add into them.
        for (n, a) in atoms.atoms.iter_mut().enumerate() {
            a.force = [0.1 * n as f64, -0.3, 1e-3];
        }
        let (start, mut reference) = (atoms.clone(), atoms.clone());
        local_pseudo_forces(&mesh, &mut atoms, &rho);
        local_pseudo_forces_closed_form(&mesh, &mut reference, &rho);
        // The largest force gap between two sets. Against `start` it is the
        // scale: the force the pass added, not the pre-filled values.
        let gap = |a: &AtomSet, b: &AtomSet| {
            let f = a.atoms.iter().zip(&b.atoms);
            let f = f.flat_map(|(a, b)| a.force.into_iter().zip(b.force));
            f.fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
        };
        let (worst, scale) = (gap(&atoms, &reference), gap(&reference, &start));
        assert!(worst <= 1e-10 * scale, "{worst:e} of {scale:e}");
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
        let energy = |ax: usize, shift: f64| {
            let mut shifted = atoms.clone();
            shifted.atoms[0].pos[ax] += shift;
            local_pseudo_forces_closed_form(&mesh, &mut shifted, &rho)
        };
        for (ax, f) in f.into_iter().enumerate() {
            let fd = -(energy(ax, h) - energy(ax, -h)) / (2.0 * h);
            let tol = 1e-6 * f.abs().max(1.0);
            assert!((fd - f).abs() < tol, "axis {ax}: fd {fd} vs analytic {f}");
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
