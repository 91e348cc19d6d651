//! `pot_prop()` — the point-local phase propagator `exp(-i dt v_loc(r, t))`.
//!
//! In the shadow-dynamics refactoring (paper Eq. (5)) the local Hamiltonian
//! `h_loc` collects the local pseudopotential, Hartree, local XC and the
//! light coupling; its propagator is a pure per-point phase, embarrassingly
//! parallel and perfectly suited to the device (it is part of the "electron
//! propagation" timing of Table II together with the kinetic kernel).
//!
//! Light coupling: within a DC domain the vector potential is sampled at the
//! domain center `X(alpha)` (Eq. (2)); we apply the corresponding
//! length-gauge dipole term `E(t) . (r - r_c)` with `E = -(1/c) dA/dt`
//! (DESIGN.md substitution table).
//!
//! Where it runs: [`PotentialPropagator::apply`] is the paper's kernel, one
//! whole-array phase pass. The engine's SoA builds fold both `Pot(dt/2)` of a
//! QD step into the kinetic sweeps instead
//! ([`crate::KineticPropagator::step_with_potential`]), so on a host build the
//! potential's wall time sits inside the `lfd.kinetic` slice; the modeled
//! device is still charged this kernel twice per QD step
//! ([`PotentialPropagator::charge`]).

use dcmesh_device::{teams_distribute_mut, Device, KernelWork, LaunchPolicy, Precision, StreamId};
use dcmesh_grid::{Mesh3, WfSoa};
use dcmesh_math::simd::{self, LineSet, PhaseAt, PointPhases, Sweep};
use dcmesh_math::{Complex, Real};

/// Precomputed per-point propagator phases for one local potential snapshot.
#[derive(Clone, Debug)]
pub struct PotentialPropagator<R> {
    mesh: Mesh3,
    /// `exp(-i dt v_loc(r))` per mesh point, set aside by the first field
    /// (empty until then: a field-free run holds one array, `phases`).
    statics: Vec<Complex<R>>,
    /// `exp(-i dt (v_loc(r) + E . (r - rc)))` per mesh point, what `apply`
    /// multiplies by: `statics` times the uniform field's separable factor.
    phases: Vec<Complex<R>>,
    /// `cis(-dt E_d (r_d - rc_d))` for the `nx` points along x, then the
    /// `ny` along y, then the `nz` along z.
    axis_phases: Vec<Complex<R>>,
    /// The field `phases` encodes.
    field: [f64; 3],
    dt: R,
}

impl<R: Real> PotentialPropagator<R> {
    /// Build phases for a static local potential `v_loc` (Hartree units)
    /// and time step `dt`.
    pub fn new(mesh: Mesh3, v_loc: &[f64], dt: R) -> Self {
        assert_eq!(v_loc.len(), mesh.len());
        let phases = v_loc
            .iter()
            .map(|&v| Complex::cis(-dt * R::from_f64(v)))
            .collect();
        Self {
            phases,
            statics: Vec::new(),
            axis_phases: vec![Complex::one(); mesh.nx + mesh.ny + mesh.nz],
            field: [0.0; 3],
            mesh,
            dt,
        }
    }

    /// Build phases adding a uniform electric field `e_field` (length
    /// gauge, dipole about the mesh center): `v(r) = v_loc(r) + E . (r-rc)`.
    pub fn with_field(mesh: Mesh3, v_loc: &[f64], e_field: [f64; 3], dt: R) -> Self {
        let mut prop = Self::new(mesh, v_loc, dt);
        prop.set_field(e_field);
        prop
    }

    /// Recompute the phases in place for a new field value — once per QD step
    /// under a laser pulse, no allocation after the first: `nx + ny + nz` `cis`
    /// calls and two products per point; nothing for the field already encoded.
    pub fn set_field(&mut self, e_field: [f64; 3]) {
        if e_field == self.field {
            return;
        }
        if self.statics.is_empty() {
            self.statics.clone_from(&self.phases);
        }
        self.field = e_field;
        if e_field == [0.0; 3] {
            // What `new` holds, to the bit: the phases depend on the field alone.
            self.phases.copy_from_slice(&self.statics);
            return;
        }
        let m = &self.mesh;
        let rc = m.center();
        let mut table = self.axis_phases.iter_mut();
        for (d, n) in [m.nx, m.ny, m.nz].into_iter().enumerate() {
            for (i, phase) in table.by_ref().take(n).enumerate() {
                // Coordinate `d` of point `i` along axis `d`.
                let dip = e_field[d] * (m.position(i, i, i)[d] - rc[d]);
                *phase = Complex::cis(-self.dt * R::from_f64(dip));
            }
        }
        let (px, rest) = self.axis_phases.split_at(m.nx);
        let (py, pz) = rest.split_at(m.ny);
        let rows = self.phases.chunks_exact_mut(m.nz);
        for ((row, fixed), ij) in rows.zip(self.statics.chunks_exact(m.nz)).zip(0..) {
            let pxy = px[ij / m.ny] * py[ij % m.ny];
            for ((phase, v), pz) in row.iter_mut().zip(fixed).zip(pz) {
                *phase = *v * (pxy * *pz);
            }
        }
    }

    /// The time step the phases encode.
    pub fn dt(&self) -> R {
        self.dt
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }

    /// The phase `apply` multiplies each mesh point by.
    pub(crate) fn phases(&self) -> &[Complex<R>] {
        &self.phases
    }

    /// Apply the phase to every orbital at every point (SoA layout), with
    /// teams parallelism over x-slabs — per slab one dispatched body, the
    /// line kernel's per-point phases over a sweep of no passes, which
    /// broadcasts each point's phase over its orbital run; optionally
    /// launched on `device`.
    pub fn apply(&self, psi: &mut WfSoa<R>, device: Option<(&Device, LaunchPolicy)>) {
        assert_eq!(psi.mesh().len(), self.mesh.len(), "mesh mismatch");
        let norb = psi.norb();
        let plane = self.mesh.ny * self.mesh.nz;
        // A slab as one line of `plane` points.
        let (run, n_axis) = (norb, plane);
        let set = LineSet {
            first: 0,
            n_lines: 1,
            line_step: 0,
            n_axis,
            stride: run,
            run,
            block: run,
        };
        let (backend, no_passes) = (simd::active_backend(), Sweep::new(&[], n_axis));
        let data = psi.data_mut();
        let mut run = || {
            teams_distribute_mut(data, self.mesh.nx, |x, slab| {
                let table = &self.phases[x * plane..];
                let phases = PointPhases {
                    table,
                    norb,
                    at: PhaseAt::AfterLastPass,
                };
                simd::stencil_lines_with(backend, slab, &set, &no_passes, Some(&phases));
            });
        };
        match device {
            Some((dev, policy)) => self.launch(dev, policy, norb, run),
            None => run(),
        }
    }

    /// Charge the modeled device one application to `norb` orbitals without
    /// running it: the launch of a potential the host ran elsewhere.
    pub fn charge(&self, dev: &Device, policy: LaunchPolicy, norb: usize) {
        self.launch(dev, policy, norb, || ());
    }

    fn launch(&self, dev: &Device, policy: LaunchPolicy, norb: usize, body: impl FnOnce()) {
        dev.launch_named("lfd.potential", StreamId(0), policy, self.work(norb), body);
    }

    /// Roofline work of one application.
    fn work(&self, norb: usize) -> KernelWork {
        let elems = (self.mesh.len() * norb) as u64;
        let csize = 2 * std::mem::size_of::<R>() as u64;
        KernelWork {
            bytes: 2 * elems * csize + self.mesh.len() as u64 * csize,
            flops: 6 * elems,
            precision: Some(Precision::of::<R>()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_grid::WfAos;

    fn test_soa(mesh: &Mesh3, norb: usize) -> WfSoa<f64> {
        let mut wf = WfAos::zeros(mesh.clone(), norb);
        wf.randomize(21);
        wf.to_soa()
    }

    #[test]
    fn phase_preserves_norm_exactly() {
        let mesh = Mesh3::cubic(8, 0.5);
        let v: Vec<f64> = (0..mesh.len())
            .map(|i| (i as f64 * 0.01).sin() * 3.0)
            .collect();
        let prop = PotentialPropagator::new(mesh.clone(), &v, 0.05);
        let mut wf = test_soa(&mesh, 3);
        let aos0 = wf.to_aos();
        for _ in 0..50 {
            prop.apply(&mut wf, None);
        }
        let aos = wf.to_aos();
        for n in 0..3 {
            assert!((aos.orbital_norm(n) - aos0.orbital_norm(n)).abs() < 1e-12);
        }
    }

    #[test]
    fn density_unchanged_by_local_phase() {
        // |psi|^2 is invariant under a local phase — pot_prop alone cannot
        // move charge.
        let mesh = Mesh3::cubic(6, 0.5);
        let v: Vec<f64> = (0..mesh.len()).map(|i| i as f64 * 0.02).collect();
        let prop = PotentialPropagator::new(mesh.clone(), &v, 0.1);
        let mut wf = test_soa(&mesh, 2);
        let rho0 = wf.to_aos().density(&[2.0, 2.0]);
        prop.apply(&mut wf, None);
        let rho1 = wf.to_aos().density(&[2.0, 2.0]);
        for (a, b) in rho0.iter().zip(&rho1) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn constant_potential_is_global_phase() {
        let mesh = Mesh3::cubic(5, 0.4);
        let v = vec![2.0; mesh.len()];
        let dt = 0.07;
        let prop = PotentialPropagator::new(mesh.clone(), &v, dt);
        let mut wf = test_soa(&mesh, 1);
        let before = wf.data().to_vec();
        prop.apply(&mut wf, None);
        let expect = Complex::cis(-dt * 2.0);
        for (a, b) in wf.data().iter().zip(&before) {
            assert!((*a - *b * expect).abs() < 1e-14);
        }
    }

    #[test]
    fn field_tilts_phase_linearly() {
        let mesh = Mesh3::new(9, 3, 3, 0.5, 0.5, 0.5);
        let v = vec![0.0; mesh.len()];
        let e = [0.2, 0.0, 0.0];
        let dt = 0.1;
        let prop = PotentialPropagator::with_field(mesh.clone(), &v, e, dt);
        let mut wf = WfAos::<f64>::zeros(mesh.clone(), 1);
        for z in wf.orbital_mut(0) {
            *z = Complex::one();
        }
        let mut soa = wf.to_soa();
        prop.apply(&mut soa, None);
        let out = soa.to_aos();
        // Phase difference between neighbouring x points = -dt * E_x * dx.
        let p0 = out.orbital(0)[mesh.idx(3, 1, 1)].arg();
        let p1 = out.orbital(0)[mesh.idx(4, 1, 1)].arg();
        let want = -dt * e[0] * mesh.dx;
        assert!(((p1 - p0) - want).abs() < 1e-12, "{} vs {want}", p1 - p0);
    }

    /// The separable field phases against the direct per-point
    /// `cis(-dt (v + E . (r - rc)))`, fields set one after the other on one
    /// propagator (the phases must not remember the previous field).
    fn separable_field_matches_direct<R: Real>(tol: f64) {
        for (nx, ny, nz) in [(5, 4, 3), (4, 3, 6), (1, 7, 2)] {
            let mesh = Mesh3::new(nx, ny, nz, 0.4, 0.5, 0.6);
            let v: Vec<f64> = (0..mesh.len()).map(|i| (i as f64 * 0.37).sin()).collect();
            let dt = R::from_f64(0.05);
            let mut prop = PotentialPropagator::new(mesh.clone(), &v, dt);
            let rc = mesh.center();
            let fields = [
                [0.3, 0.0, 0.0],
                [0.0, -0.2, 0.0],
                [0.0, 0.0, 0.25],
                [0.1, 0.2, -0.3],
                [0.0; 3],
            ];
            for e in fields {
                prop.set_field(e);
                for ((i, j, k), got) in mesh.iter_points().zip(&prop.phases) {
                    let p = mesh.position(i, j, k);
                    let dip: f64 = (0..3).map(|d| e[d] * (p[d] - rc[d])).sum();
                    let want = Complex::cis(-dt * R::from_f64(v[mesh.idx(i, j, k)] + dip));
                    let diff = (*got - want).abs().to_f64();
                    assert!(
                        diff < tol,
                        "{nx}x{ny}x{nz} E {e:?} at {i},{j},{k}: {diff:e}"
                    );
                }
            }
            // Field-free again: bit for bit what `new` built.
            assert_eq!(prop.phases, prop.statics);
            let fresh = PotentialPropagator::with_field(mesh.clone(), &v, fields[3], dt);
            prop.set_field(fields[3]);
            assert_eq!(prop.phases, fresh.phases);
        }
    }

    #[test]
    fn separable_field_matches_direct_dp() {
        separable_field_matches_direct::<f64>(1e-14);
    }

    #[test]
    fn separable_field_matches_direct_sp() {
        separable_field_matches_direct::<f32>(1e-5);
    }

    #[test]
    fn device_launch_counts_kernel() {
        let mesh = Mesh3::cubic(6, 0.5);
        let v = vec![1.0; mesh.len()];
        let prop = PotentialPropagator::new(mesh.clone(), &v, 0.02);
        let mut wf = test_soa(&mesh, 2);
        let dev = Device::a100();
        prop.apply(&mut wf, Some((&dev, LaunchPolicy::Sync)));
        assert_eq!(dev.stats().kernels_launched, 1);
        assert!(dev.host_clock() > 0.0);
    }
}
