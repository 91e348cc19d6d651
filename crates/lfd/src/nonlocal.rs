//! The shadow-dynamics nonlocal correction, "BLASified" per paper §III-D.
//!
//! Shadow dynamics (Eqs. (5)-(8)) replaces the expensive nonlocal operator
//! `v_nl` inside the QD loop by a scissor-shifted projection onto the t = 0
//! unoccupied subspace:
//!
//! ```text
//! (1 - i dt/2 v_nl) |psi(t)>  ~=  |psi(t)> - i (D_sci dt / 2) sum_{u >= LUMO} |psi_u(0)><psi_u(0)|psi(t)>
//! ```
//!
//! with the scissor shift `D_sci` (Eq. (8)) computed once per MD step from
//! HOMO/LUMO eigenvalues with and without the true nonlocal potential, then
//! amortized over N_QD = 100-1000 QD steps.
//!
//! In matrix form (Eq. (9)) the correction is two GEMMs on the
//! `Ngrid x Norb` wavefunction matrix: `O = Psi_u(0)^H Psi(t)` then
//! `Psi(t) += c Psi_u(0) O`. Three LFD functions share the pattern —
//! `nlp_prop()`, `calc_energy()`, `remap_occ()` — and all three are
//! implemented here in both loop form (the pre-BLAS build of Table II) and
//! GEMM form.

use dcmesh_device::{Device, KernelWork, LaunchPolicy, Precision, StreamId};
use dcmesh_math::gemm::{gemm, gemm_cfmas, Op};
use dcmesh_math::{simd, Complex, Matrix, Real};
use dcmesh_pool::arena::with_scratch;

/// Which implementation the nonlocal kernels use (Table II rows).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// Naive nested loops (the "CPU OpenMP Parallel" non-BLAS build).
    Loops,
    /// Blocked, parallel GEMM (the "+BLAS" / cuBLAS-modeled builds).
    Blas,
}

/// Scissor-shifted nonlocal corrector bound to a t = 0 reference basis.
#[derive(Clone, Debug)]
pub struct NonlocalCorrection<R> {
    /// Full reference wavefunction matrix `Psi(0)` (`Ngrid x Norb`).
    psi0: Matrix<R>,
    /// Transposed reference `Psi(0)^T` (`Norb x Ngrid`) — the SoA layout,
    /// so SoA-resident propagation needs no layout conversion.
    psi0_t: Matrix<R>,
    /// Unoccupied reference block `Psi_u(0)` (`Ngrid x Nu`), precomputed so
    /// the per-QD-step GEMMs borrow it instead of re-materializing (or
    /// cloning the full `Psi(0)`) on every call.
    psi0u: Matrix<R>,
    /// Transposed unoccupied block (`Nu x Ngrid`).
    psi0u_t: Matrix<R>,
    /// Index of the first unoccupied reference column (LUMO).
    lumo: usize,
    /// Scissor shift `D_sci` (Hartree), Eq. (8).
    pub delta_sci: R,
    /// QD time step.
    pub dt: R,
    /// Mesh volume element (inner-product weight).
    pub dv: R,
}

impl<R: Real> NonlocalCorrection<R> {
    /// Create from the reference wavefunctions, the LUMO index, and the
    /// scissor shift computed by the QXMD side.
    pub fn new(psi0: Matrix<R>, lumo: usize, delta_sci: R, dt: R, dv: R) -> Self {
        assert!(lumo <= psi0.cols(), "LUMO index beyond reference basis");
        let psi0_t = Matrix::from_fn(psi0.cols(), psi0.rows(), |n, g| psi0[(g, n)]);
        let nu = psi0.cols() - lumo;
        let psi0u = Matrix::from_fn(psi0.rows(), nu, |g, u| psi0[(g, lumo + u)]);
        let psi0u_t = Matrix::from_fn(nu, psi0.rows(), |u, g| psi0[(g, lumo + u)]);
        Self {
            psi0,
            psi0_t,
            psi0u,
            psi0u_t,
            lumo,
            delta_sci,
            dt,
            dv,
        }
    }

    /// Number of grid points.
    pub fn ngrid(&self) -> usize {
        self.psi0.rows()
    }

    /// Number of reference orbitals.
    pub fn norb(&self) -> usize {
        self.psi0.cols()
    }

    /// Overlap `O = Psi_ref^H Psi(t) * dv` restricted to columns
    /// `[col0, cols)` of the reference set.
    fn overlap(&self, psi_t: &Matrix<R>, col0: usize, path: GemmPath) -> Matrix<R> {
        debug_assert!(
            col0 == 0 || col0 == self.lumo,
            "only full-basis or unoccupied-block overlaps are precomputed"
        );
        let nref = self.psi0.cols() - col0;
        let n = psi_t.cols();
        let mut o = Matrix::zeros(nref, n);
        match path {
            GemmPath::Blas => {
                let refblock = if col0 == 0 { &self.psi0 } else { &self.psi0u };
                gemm(
                    Complex::from_real(self.dv),
                    refblock,
                    Op::ConjTrans,
                    psi_t,
                    Op::None,
                    Complex::zero(),
                    &mut o,
                );
            }
            GemmPath::Loops => {
                // The paper's pre-BLAS formulation applies the projector
                // point by point: the grid loop is OUTERMOST, so every
                // mesh point touches one strided element of every reference
                // orbital — the poor-locality pattern BLASification removes.
                let g = self.psi0.rows();
                for r in 0..g {
                    for t in 0..n {
                        let pt = psi_t[(r, t)];
                        for u in 0..nref {
                            o[(u, t)] += self.psi0[(r, col0 + u)].conj() * pt;
                        }
                    }
                }
                for z in o.data_mut() {
                    *z = z.scale(self.dv);
                }
            }
        }
        o
    }

    /// `nlp_prop()`: apply the normalized nonlocal half-step of Eq. (6)/(7)
    /// in place. Each column is renormalized to unit norm afterwards,
    /// realizing the `1/|| ... ||` normalization of Eq. (6).
    pub fn nlp_prop(&self, psi_t: &mut Matrix<R>, path: GemmPath) {
        assert_eq!(psi_t.rows(), self.psi0.rows());
        let c = Complex::new(R::ZERO, -(self.delta_sci * self.dt * R::HALF));
        let o = self.overlap(psi_t, self.lumo, path);
        match path {
            GemmPath::Blas => {
                gemm(
                    c,
                    &self.psi0u,
                    Op::None,
                    &o,
                    Op::None,
                    Complex::one(),
                    psi_t,
                );
            }
            GemmPath::Loops => {
                // Point-by-point accumulation (grid loop outermost), the
                // mirror image of the overlap pass above.
                let g = self.psi0.rows();
                let nu = self.psi0.cols() - self.lumo;
                for r in 0..g {
                    for t in 0..psi_t.cols() {
                        let mut acc = Complex::zero();
                        for u in 0..nu {
                            acc += self.psi0[(r, self.lumo + u)] * o[(u, t)];
                        }
                        psi_t[(r, t)] += c * acc;
                    }
                }
            }
        }
        // Renormalize columns (unitarized propagator).
        let rows = psi_t.rows();
        for t in 0..psi_t.cols() {
            let col = psi_t.col_mut(t);
            let mut n2 = R::ZERO;
            for z in col.iter() {
                n2 += z.norm_sqr();
            }
            let norm = (n2 * self.dv).sqrt();
            if norm > R::ZERO {
                let inv = R::ONE / norm;
                for z in col.iter_mut() {
                    *z = z.scale(inv);
                }
            }
        }
        debug_assert_eq!(rows, self.psi0.rows());
    }

    /// `calc_energy()`: the scissor (nonlocal) energy correction per
    /// propagated orbital, `D_sci * sum_u |<psi_u(0)|psi_n(t)>|^2`.
    pub fn scissor_energies(&self, psi_t: &Matrix<R>, path: GemmPath) -> Vec<R> {
        let o = self.overlap(psi_t, self.lumo, path);
        (0..psi_t.cols())
            .map(|t| {
                let mut s = R::ZERO;
                for u in 0..o.rows() {
                    s += o[(u, t)].norm_sqr();
                }
                s * self.delta_sci
            })
            .collect()
    }

    /// `remap_occ()`: project the propagated orbitals back on the full
    /// adiabatic reference basis and redistribute the occupations:
    /// `f_s(t) = sum_n f_n(0) |<psi_s(0)|psi_n(t)>|^2`.
    pub fn remap_occ(&self, psi_t: &Matrix<R>, occ0: &[R], path: GemmPath) -> Vec<R> {
        assert_eq!(occ0.len(), psi_t.cols());
        let o = self.overlap(psi_t, 0, path);
        let mut f = vec![R::ZERO; self.psi0.cols()];
        for (s, fs) in f.iter_mut().enumerate() {
            for (n, f0) in occ0.iter().enumerate() {
                *fs += *f0 * o[(s, n)].norm_sqr();
            }
        }
        f
    }

    /// Roofline work of one `nlp_prop` (two GEMMs + renormalization), for
    /// the device timing model.
    pub fn nlp_work(&self, ncols: usize) -> KernelWork {
        let g = self.psi0.rows() as u64;
        let nu = (self.psi0.cols() - self.lumo) as u64;
        let n = ncols as u64;
        let cfmas = gemm_cfmas(nu as usize, n as usize, g as usize) as u64
            + gemm_cfmas(g as usize, n as usize, nu as usize) as u64;
        let csize = 2 * std::mem::size_of::<R>() as u64;
        let precision = if std::mem::size_of::<R>() == 4 {
            Precision::Sp
        } else {
            Precision::Dp
        };
        KernelWork {
            bytes: csize * (2 * g * n + 2 * g * nu + 2 * nu * n),
            flops: 8 * cfmas + 8 * g * n,
            precision: Some(precision),
        }
    }

    /// Run `nlp_prop` through the device offload runtime (the GPU builds of
    /// Table II), returning nothing extra — timing lands on the device.
    pub fn nlp_prop_on_device(&self, psi_t: &mut Matrix<R>, device: &Device, policy: LaunchPolicy) {
        let work = self.nlp_work(psi_t.cols());
        device.launch_named("lfd.nonlocal", StreamId(0), policy, work, || {
            self.nlp_prop(psi_t, GemmPath::Blas);
        });
    }

    // ------------------------------------------------------------------
    // SoA-layout entry points (the optimized engine keeps Psi in the SoA
    // layout of Algorithms 3-5; the SoA flat array *is* the column-major
    // transpose T = Psi^T with rows = Norb, cols = Ngrid).
    // ------------------------------------------------------------------

    /// Overlap in transposed form: `M = alpha * T * T0^H`, an
    /// `Norb_t x Nref` column-major matrix written to `m`; with
    /// `alpha = dv`, `M[n][u] = <psi_ref_u(0) | psi_n(t)>`. Zero-copy: `t`
    /// is the raw SoA storage viewed as a `norb x ngrid` column-major
    /// matrix.
    fn overlap_soa(
        &self,
        alpha: Complex<R>,
        t: &[Complex<R>],
        norb: usize,
        full_basis: bool,
        m: &mut [Complex<R>],
    ) {
        let t0 = if full_basis {
            &self.psi0_t
        } else {
            &self.psi0u_t
        };
        dcmesh_math::gemm::gemm_colmajor(
            alpha,
            t,
            (norb, self.psi0.rows()),
            Op::None,
            t0.data(),
            (t0.rows(), t0.cols()),
            Op::ConjTrans,
            Complex::zero(),
            m,
            (norb, t0.rows()),
        );
    }

    /// `nlp_prop()` on an SoA-resident wavefunction set: identical math to
    /// [`NonlocalCorrection::nlp_prop`], the two skinny GEMMs on the
    /// transposed layout, operating in place on the SoA storage (no layout
    /// conversion — this is why the SoA data structure "BLASifies" for
    /// free). Scratch comes from the thread's arena: no heap traffic.
    pub fn nlp_prop_soa(&self, soa: &mut dcmesh_grid::WfSoa<R>) {
        let norb = soa.norb();
        let ngrid = self.psi0.rows();
        assert_eq!(soa.data().len(), norb * ngrid, "SoA size mismatch");
        let c = Complex::new(R::ZERO, -(self.delta_sci * self.dt * R::HALF));
        let t0u = &self.psi0u_t;
        let data = soa.data_mut();
        with_scratch::<Complex<R>, 1, ()>([norb * t0u.rows()], |[m]| {
            // M' = c * dv * T * T0u^H, then T += M' * T0u in place with
            // the squared norm of every updated orbital from the same pass.
            self.overlap_soa(c.scale(self.dv), data, norb, false, m);
            with_scratch::<R, 1, ()>([norb], |[inv]| {
                simd::proj_update(m, t0u.data(), t0u.rows(), data, norb, inv);
                for s in inv.iter_mut() {
                    let norm = (*s * self.dv).sqrt();
                    *s = if norm > R::ZERO {
                        R::ONE / norm
                    } else {
                        R::ZERO
                    };
                }
                // Renormalize each orbital (= each row of T): one
                // streaming pass over contiguous orbital runs.
                let inv = &*inv;
                dcmesh_pool::global().for_each_chunks_of_mut(
                    data,
                    simd::PROJ_CHUNK * norb,
                    |_, chunk| {
                        for point in chunk.chunks_exact_mut(norb) {
                            for (z, &iv) in point.iter_mut().zip(inv) {
                                *z = z.scale(iv);
                            }
                        }
                    },
                );
            });
        });
    }

    /// SoA variant of [`NonlocalCorrection::scissor_energies`].
    pub fn scissor_energies_soa(&self, soa: &dcmesh_grid::WfSoa<R>) -> Vec<R> {
        let norb = soa.norb();
        let nu = self.psi0u_t.rows();
        with_scratch::<Complex<R>, 1, _>([norb * nu], |[m]| {
            self.overlap_soa(Complex::from_real(self.dv), soa.data(), norb, false, m);
            (0..norb)
                .map(|n| {
                    let mut s = R::ZERO;
                    for u in 0..nu {
                        s += m[u * norb + n].norm_sqr();
                    }
                    s * self.delta_sci
                })
                .collect()
        })
    }

    /// SoA variant of [`NonlocalCorrection::remap_occ`].
    pub fn remap_occ_soa(&self, soa: &dcmesh_grid::WfSoa<R>, occ0: &[R]) -> Vec<R> {
        let norb = soa.norb();
        assert_eq!(occ0.len(), norb);
        let nref = self.psi0.cols();
        with_scratch::<Complex<R>, 1, _>([norb * nref], |[m]| {
            self.overlap_soa(Complex::from_real(self.dv), soa.data(), norb, true, m);
            let mut f = vec![R::ZERO; nref];
            for (s, fs) in f.iter_mut().enumerate() {
                for (n, f0) in occ0.iter().enumerate() {
                    *fs += *f0 * m[s * norb + n].norm_sqr();
                }
            }
            f
        })
    }

    /// Device-launched SoA `nlp_prop`.
    pub fn nlp_prop_soa_on_device(
        &self,
        soa: &mut dcmesh_grid::WfSoa<R>,
        device: &Device,
        policy: LaunchPolicy,
    ) {
        let work = self.nlp_work(soa.norb());
        device.launch_named("lfd.nonlocal", StreamId(0), policy, work, || {
            self.nlp_prop_soa(soa);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_grid::{Mesh3, WfAos};
    use dcmesh_math::C64;

    /// Orthonormal (dv-weighted) reference set on a small mesh.
    fn reference(mesh: &Mesh3, norb: usize) -> Matrix<f64> {
        let mut wf = WfAos::<f64>::zeros(mesh.clone(), norb);
        wf.randomize(31);
        wf.to_matrix()
    }

    fn setup() -> (Mesh3, NonlocalCorrection<f64>) {
        let mesh = Mesh3::cubic(6, 0.5);
        let psi0 = reference(&mesh, 6);
        let nl = NonlocalCorrection::new(psi0, 3, 0.25, 0.02, mesh.dv());
        (mesh, nl)
    }

    #[test]
    fn loops_and_blas_agree() {
        let (_, nl) = setup();
        let mut a = nl.psi0.clone();
        let mut b = nl.psi0.clone();
        nl.nlp_prop(&mut a, GemmPath::Loops);
        nl.nlp_prop(&mut b, GemmPath::Blas);
        assert!(a.max_abs_diff(&b) < 1e-12);
        let ea = nl.scissor_energies(&a, GemmPath::Loops);
        let eb = nl.scissor_energies(&b, GemmPath::Blas);
        for (x, y) in ea.iter().zip(&eb) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn occupied_references_pass_through_unchanged() {
        // Occupied reference columns are orthogonal to the unoccupied
        // projector: nlp_prop must leave them exactly invariant (up to the
        // renormalization, which is then a no-op).
        let (_, nl) = setup();
        let occ_only = Matrix::from_fn(nl.ngrid(), 3, |r, c| nl.psi0[(r, c)]);
        let mut out = occ_only.clone();
        nl.nlp_prop(&mut out, GemmPath::Blas);
        assert!(out.max_abs_diff(&occ_only) < 1e-10);
    }

    #[test]
    fn unoccupied_reference_gets_scissor_energy() {
        let (_, nl) = setup();
        // psi = psi_u(0) for u = LUMO: scissor energy = D_sci exactly.
        let lumo_col = Matrix::from_fn(nl.ngrid(), 1, |r, _| nl.psi0[(r, 3)]);
        let e = nl.scissor_energies(&lumo_col, GemmPath::Blas);
        assert!((e[0] - 0.25).abs() < 1e-10, "scissor {e:?}");
    }

    #[test]
    fn nlp_prop_preserves_unit_norms() {
        let (mesh, nl) = setup();
        let mut psi = reference(&mesh, 6); // orthonormal start
        for _ in 0..25 {
            nl.nlp_prop(&mut psi, GemmPath::Blas);
        }
        let dv = mesh.dv();
        for t in 0..psi.cols() {
            let n2: f64 = psi.col(t).iter().map(|z| z.norm_sqr()).sum::<f64>() * dv;
            assert!((n2 - 1.0).abs() < 1e-12, "col {t} norm^2 {n2}");
        }
    }

    #[test]
    fn remap_occ_conserves_total_occupation_within_span() {
        let (_, nl) = setup();
        // Propagated orbitals that live inside span(Psi0): occupations must
        // redistribute but sum exactly.
        let occ0 = vec![2.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        // Mix occupied states by a unitary pair rotation 0<->3.
        let mut psi = nl.psi0.clone();
        let c = (0.6f64).cos();
        let s = (0.6f64).sin();
        for r in 0..psi.rows() {
            let a = nl.psi0[(r, 0)];
            let b = nl.psi0[(r, 3)];
            psi[(r, 0)] = a.scale(c) + b.scale(s);
            psi[(r, 3)] = a.scale(-s) + b.scale(c);
        }
        let f = nl.remap_occ(&psi, &occ0, GemmPath::Blas);
        let total: f64 = f.iter().sum();
        assert!((total - 5.0).abs() < 1e-10, "total {total}");
        // State 3 (LUMO) picked up population from the rotated state 0.
        assert!(f[3] > 0.1, "f = {f:?}");
        // Identity mapping for untouched states.
        assert!((f[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn remap_identity_when_unpropagated() {
        let (_, nl) = setup();
        let occ0 = vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0];
        let f = nl.remap_occ(&nl.psi0.clone(), &occ0, GemmPath::Loops);
        for (a, b) in f.iter().zip(&occ0) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_scissor_shift_is_identity() {
        let (mesh, nl0) = setup();
        let nl = NonlocalCorrection::new(nl0.psi0.clone(), 3, 0.0, 0.02, mesh.dv());
        let mut psi = nl.psi0.clone();
        let before = psi.clone();
        nl.nlp_prop(&mut psi, GemmPath::Blas);
        assert!(psi.max_abs_diff(&before) < 1e-12);
    }

    #[test]
    fn correction_is_antihermitian_first_order() {
        // The first-order change -i c P |psi> has <psi|dpsi> purely
        // imaginary: norm is conserved to O(c^2) even before renormalizing.
        let (mesh, nl) = setup();
        let lumo_col = Matrix::from_fn(nl.ngrid(), 1, |r, _| nl.psi0[(r, 4)]);
        let o = nl.overlap(&lumo_col, nl.lumo, GemmPath::Blas);
        let c = C64::new(0.0, -(nl.delta_sci * nl.dt * 0.5));
        // <psi | c P psi> = c * sum_u |o_u|^2: purely imaginary.
        let mut ip = C64::zero();
        for u in 0..o.rows() {
            ip += c.scale(o[(u, 0)].norm_sqr());
        }
        assert!(ip.re.abs() < 1e-14);
        assert!(ip.im.abs() > 0.0);
        let _ = mesh;
    }

    #[test]
    fn soa_path_matches_matrix_path() {
        let mesh = Mesh3::cubic(5, 0.5);
        let mut wf = WfAos::<f64>::zeros(mesh.clone(), 5);
        wf.randomize(33);
        let nl = NonlocalCorrection::new(wf.to_matrix(), 2, 0.4, 0.03, mesh.dv());
        // A propagated state distinct from the reference.
        let mut state = WfAos::<f64>::zeros(mesh.clone(), 5);
        state.randomize(34);
        let mut mat = state.to_matrix();
        let mut soa = state.to_soa();
        nl.nlp_prop(&mut mat, GemmPath::Blas);
        nl.nlp_prop_soa(&mut soa);
        let back = soa.to_aos().to_matrix();
        assert!(
            mat.max_abs_diff(&back) < 1e-11,
            "diff {}",
            mat.max_abs_diff(&back)
        );
        // Energies and occupations agree too.
        let ea = nl.scissor_energies(&mat, GemmPath::Blas);
        let eb = nl.scissor_energies_soa(&soa);
        for (a, b) in ea.iter().zip(&eb) {
            assert!((a - b).abs() < 1e-11);
        }
        let occ0 = vec![2.0, 2.0, 0.0, 0.0, 0.0];
        let fa = nl.remap_occ(&mat, &occ0, GemmPath::Blas);
        let fb = nl.remap_occ_soa(&soa, &occ0);
        for (a, b) in fa.iter().zip(&fb) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    /// SoA projector kernels against the loop-form oracle, over ragged
    /// orbital counts (vector tails), odd reference counts and a grid
    /// (7 x 4 x 5 and 9 x 9 x 9: one chunk and two) with an odd point count.
    fn soa_kernels_match_loops<R: Real>(tol: f64) {
        for mesh in [Mesh3::new(7, 4, 5, 0.5, 0.4, 0.6), Mesh3::cubic(9, 0.5)] {
            for norb in [1usize, 3, 4, 7, 16, 33] {
                let lumo = norb / 3;
                let mut wf = WfAos::<R>::zeros(mesh.clone(), norb);
                wf.randomize(50 + norb as u64);
                let dv = R::from_f64(mesh.dv());
                let nl = NonlocalCorrection::new(
                    wf.to_matrix(),
                    lumo,
                    R::from_f64(0.4),
                    R::from_f64(0.03),
                    dv,
                );
                let mut state = WfAos::<R>::zeros(mesh.clone(), norb);
                state.randomize(90 + norb as u64);
                let mut mat = state.to_matrix();
                let mut soa = state.to_soa();
                for _ in 0..2 {
                    nl.nlp_prop(&mut mat, GemmPath::Loops);
                    nl.nlp_prop_soa(&mut soa);
                }
                let diff = mat.max_abs_diff(&soa.to_aos().to_matrix()).to_f64();
                assert!(diff < tol, "norb {norb}: nlp_prop differs by {diff}");
                let occ0: Vec<R> = (0..norb).map(|n| R::from_usize(n % 3)).collect();
                let pairs = [
                    (
                        nl.scissor_energies(&mat, GemmPath::Loops),
                        nl.scissor_energies_soa(&soa),
                    ),
                    (
                        nl.remap_occ(&mat, &occ0, GemmPath::Loops),
                        nl.remap_occ_soa(&soa, &occ0),
                    ),
                ];
                for (want, got) in pairs {
                    for (a, b) in want.iter().zip(&got) {
                        let diff = (*a - *b).abs().to_f64();
                        assert!(diff < 10.0 * tol, "norb {norb}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn soa_kernels_match_loops_dp() {
        soa_kernels_match_loops::<f64>(1e-13);
    }

    #[test]
    fn soa_kernels_match_loops_sp() {
        soa_kernels_match_loops::<f32>(2e-5);
    }

    #[test]
    fn device_path_counts_gemm_flops() {
        let (_, nl) = setup();
        let mut psi = nl.psi0.clone();
        let dev = Device::a100();
        nl.nlp_prop_on_device(&mut psi, &dev, LaunchPolicy::Sync);
        let s = dev.stats();
        assert_eq!(s.kernels_launched, 1);
        assert!(s.kernel_busy > 0.0);
    }
}
