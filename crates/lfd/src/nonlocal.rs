//! The shadow-dynamics nonlocal correction, "BLASified" per paper §III-D.
//!
//! Shadow dynamics (Eqs. (5)-(8)) replaces the expensive nonlocal operator
//! `v_nl` inside the QD loop by a scissor-shifted projection onto the t = 0
//! unoccupied subspace, `D_sci P` with `P = sum_{u >= LUMO} |psi_u(0)><psi_u(0)|`.
//! The paper's Eq. (7) applies its first-order step and renormalizes:
//!
//! ```text
//! (1 - i dt/2 v_nl) |psi(t)>  ~=  |psi(t)> - i (D_sci dt / 2) P |psi(t)>
//! ```
//!
//! This crate applies the exponential itself (an extension of Eq. (7), see
//! DESIGN.md). `P` projects onto an orthonormal block, so `P^2 = P` and
//!
//! ```text
//! exp(-i theta P) = 1 + (e^{-i theta} - 1) P,      theta = D_sci dt frac
//! ```
//!
//! exactly: the same two GEMMs with another scalar. The step is unitary to
//! rounding (nothing to renormalize) and composes exactly — two half-steps
//! are one full step, which is what lets the engine merge the trailing
//! half-step of one QD step with the leading half-step of the next.
//!
//! The scissor shift `D_sci` (Eq. (8)) is computed once per MD step from
//! HOMO/LUMO eigenvalues with and without the true nonlocal potential, then
//! amortized over N_QD = 100-1000 QD steps.
//!
//! In matrix form (Eq. (9)) the correction is two GEMMs on the
//! `Ngrid x Norb` wavefunction matrix: `O = Psi_u(0)^H Psi(t)` then
//! `Psi(t) += c Psi_u(0) O`. Three LFD functions share the pattern —
//! `nlp_prop()`, `calc_energy()`, `remap_occ()` — and all three are
//! implemented here in both loop form on the `Ngrid x Norb` matrix (the
//! pre-BLAS build of Table II, and the oracle of the tests) and GEMM form on
//! the SoA storage (every other build).

use dcmesh_device::{KernelWork, Precision};
use dcmesh_grid::WfSoa;
use dcmesh_math::gemm::{gemm_cfmas, Op};
use dcmesh_math::{simd, Complex, Matrix, Real};
use dcmesh_pool::arena::with_scratch;

use crate::kinetic::StepFraction;

/// Scissor-shifted nonlocal corrector bound to a t = 0 reference basis.
#[derive(Clone, Debug)]
pub struct NonlocalCorrection<R> {
    /// Full reference wavefunction matrix `Psi(0)` (`Ngrid x Norb`).
    psi0: Matrix<R>,
    /// Transposed reference `Psi(0)^T` (`Norb x Ngrid`) — the SoA layout,
    /// so SoA-resident propagation needs no layout conversion.
    psi0_t: Matrix<R>,
    /// Transposed unoccupied block `Psi_u(0)^T` (`Nu x Ngrid`), precomputed
    /// so the per-QD-step GEMMs borrow it.
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
        let psi0u_t = Matrix::from_fn(nu, psi0.rows(), |u, g| psi0[(g, lumo + u)]);
        Self {
            psi0,
            psi0_t,
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
    /// `[col0, cols)` of the reference set, in loop form.
    fn overlap(&self, psi_t: &Matrix<R>, col0: usize) -> Matrix<R> {
        let nref = self.psi0.cols() - col0;
        let n = psi_t.cols();
        let mut o = Matrix::zeros(nref, n);
        // The paper's pre-BLAS formulation applies the projector point by
        // point: the grid loop is OUTERMOST, so every mesh point touches one
        // strided element of every reference orbital — the poor-locality
        // pattern BLASification removes.
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
        o
    }

    /// The scalar `e^{-i theta} - 1` of the exact step, `theta = D_sci dt
    /// frac`. Formed in f64 as `-2 sin^2(theta/2) - i sin(theta)` and cast:
    /// at `theta ~ 1e-3` an f32 `cos(theta) - 1` keeps one significant bit.
    fn phase_minus_one(&self, frac: StepFraction) -> Complex<R> {
        let theta = self.delta_sci.to_f64() * self.dt.to_f64() * frac.scale::<f64>();
        let s = (0.5 * theta).sin();
        Complex::new(R::from_f64(-2.0 * s * s), R::from_f64(-theta.sin()))
    }

    /// The nonlocal step `psi <- exp(-i theta P) psi`, that is
    /// `psi += (e^{-i theta} - 1) Psi_u (Psi_u^H psi dv)` with
    /// `theta = D_sci dt frac`, in place and unitary: nothing is renormalized.
    /// Loop form on the `Ngrid x Norb` matrix (the pre-BLAS build);
    /// [`NonlocalCorrection::apply_soa`] is the GEMM form.
    pub fn apply(&self, psi_t: &mut Matrix<R>, frac: StepFraction) {
        assert_eq!(psi_t.rows(), self.psi0.rows());
        #[cfg(test)]
        counts::bump(1, 0);
        let c = self.phase_minus_one(frac);
        let o = self.overlap(psi_t, self.lumo);
        // Point-by-point accumulation (grid loop outermost), the mirror
        // image of the overlap pass.
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

    /// `nlp_prop()`: the nonlocal half-step `exp(-i (D_sci dt / 2) P)` in
    /// place — [`NonlocalCorrection::apply`] at [`StepFraction::Half`], the
    /// step that opens and closes the engine's MD step.
    pub fn nlp_prop(&self, psi_t: &mut Matrix<R>) {
        self.apply(psi_t, StepFraction::Half);
    }

    /// `calc_energy()`: the scissor (nonlocal) energy correction per
    /// propagated orbital, `D_sci * sum_u |<psi_u(0)|psi_n(t)>|^2`.
    pub fn scissor_energies(&self, psi_t: &Matrix<R>) -> Vec<R> {
        let o = self.overlap(psi_t, self.lumo);
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
    pub fn remap_occ(&self, psi_t: &Matrix<R>, occ0: &[R]) -> Vec<R> {
        assert_eq!(occ0.len(), psi_t.cols());
        let o = self.overlap(psi_t, 0);
        let mut f = vec![R::ZERO; self.psi0.cols()];
        for (s, fs) in f.iter_mut().enumerate() {
            for (n, f0) in occ0.iter().enumerate() {
                *fs += *f0 * o[(s, n)].norm_sqr();
            }
        }
        f
    }

    /// Roofline work of one half-step of the paper's `nlp_prop` (two GEMMs
    /// and its renormalization) — what the modeled device is charged per
    /// `lfd.nonlocal` launch, twice per QD step.
    pub fn nlp_work(&self, ncols: usize) -> KernelWork {
        let g = self.psi0.rows() as u64;
        let nu = (self.psi0.cols() - self.lumo) as u64;
        let n = ncols as u64;
        let cfmas = gemm_cfmas(nu as usize, n as usize, g as usize) as u64
            + gemm_cfmas(g as usize, n as usize, nu as usize) as u64;
        let csize = 2 * std::mem::size_of::<R>() as u64;
        KernelWork {
            bytes: csize * (2 * g * n + 2 * g * nu + 2 * nu * n),
            flops: 8 * cfmas + 8 * g * n,
            precision: Some(Precision::of::<R>()),
        }
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

    /// [`NonlocalCorrection::apply`] on an SoA-resident wavefunction set:
    /// identical math as two skinny GEMMs on the transposed layout,
    /// operating in place on the SoA storage (no layout conversion — this
    /// is why the SoA data structure "BLASifies" for free). Scratch comes
    /// from the thread's arena: no heap traffic. `norms2[n]` receives the
    /// squared norm `sum_g |psi_n(g)|^2` (no `dv`) the update pass
    /// accumulates anyway, for [`NonlocalCorrection::renormalize_soa`].
    pub fn apply_soa(&self, soa: &mut WfSoa<R>, frac: StepFraction, norms2: &mut [R]) {
        let norb = soa.norb();
        let ngrid = self.psi0.rows();
        assert_eq!(soa.data().len(), norb * ngrid, "SoA size mismatch");
        #[cfg(test)]
        counts::bump(1, 0);
        let c = self.phase_minus_one(frac);
        let t0u = &self.psi0u_t;
        let data = soa.data_mut();
        with_scratch::<Complex<R>, 1, ()>([norb * t0u.rows()], |[m]| {
            // M' = c * dv * T * T0u^H, then T += M' * T0u in place with
            // the squared norm of every updated orbital from the same pass.
            self.overlap_soa(c.scale(self.dv), data, norb, false, m);
            simd::proj_update(m, t0u.data(), t0u.rows(), data, norb, norms2);
        });
    }

    /// Scale every orbital to unit norm from the squared norms
    /// [`NonlocalCorrection::apply_soa`] handed back (the inverse norms on
    /// return): one streaming pass over contiguous orbital runs.
    pub fn renormalize_soa(&self, soa: &mut WfSoa<R>, norms2: &mut [R]) {
        #[cfg(test)]
        counts::bump(0, 1);
        let norb = soa.norb();
        for s in norms2.iter_mut() {
            let norm = (*s * self.dv).sqrt();
            *s = if norm > R::ZERO {
                R::ONE / norm
            } else {
                R::ZERO
            };
        }
        let inv = &*norms2;
        dcmesh_pool::global().for_each_chunks_of_mut(
            soa.data_mut(),
            simd::PROJ_CHUNK * norb,
            |_, chunk| {
                for point in chunk.chunks_exact_mut(norb) {
                    for (z, &iv) in point.iter_mut().zip(inv) {
                        *z = z.scale(iv);
                    }
                }
            },
        );
    }

    /// `nlp_prop()` on an SoA-resident set: [`NonlocalCorrection::apply_soa`]
    /// at [`StepFraction::Half`].
    pub fn nlp_prop_soa(&self, soa: &mut WfSoa<R>) {
        with_scratch::<R, 1, ()>([soa.norb()], |[norms2]| {
            self.apply_soa(soa, StepFraction::Half, norms2);
        });
    }

    /// SoA variant of [`NonlocalCorrection::scissor_energies`].
    pub fn scissor_energies_soa(&self, soa: &WfSoa<R>) -> Vec<R> {
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
    pub fn remap_occ_soa(&self, soa: &WfSoa<R>, occ0: &[R]) -> Vec<R> {
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
}

/// Projector applications and scale sweeps made on this thread: the pin
/// on how many of each one `run_md_step` makes.
#[cfg(test)]
pub(crate) mod counts {
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    }

    pub(crate) fn bump(applications: u32, sweeps: u32) {
        COUNTS.with(|c| c.set((c.get().0 + applications, c.get().1 + sweeps)));
    }

    /// `(applications, sweeps)` since the last call; resets both.
    pub(crate) fn take() -> (u32, u32) {
        COUNTS.with(|c| c.replace((0, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_grid::{Mesh3, WfAos};
    use dcmesh_math::gemm::gemm;
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
    fn occupied_references_pass_through_unchanged() {
        // Occupied reference columns are orthogonal to the unoccupied
        // projector: nlp_prop must leave them invariant.
        let (_, nl) = setup();
        let occ_only = Matrix::from_fn(nl.ngrid(), 3, |r, c| nl.psi0[(r, c)]);
        let mut out = occ_only.clone();
        nl.nlp_prop(&mut out);
        assert!(out.max_abs_diff(&occ_only) < 1e-10);
    }

    #[test]
    fn unoccupied_reference_gets_scissor_energy() {
        let (_, nl) = setup();
        // psi = psi_u(0) for u = LUMO: scissor energy = D_sci exactly.
        let lumo_col = Matrix::from_fn(nl.ngrid(), 1, |r, _| nl.psi0[(r, 3)]);
        let e = nl.scissor_energies(&lumo_col);
        assert!((e[0] - 0.25).abs() < 1e-10, "scissor {e:?}");
    }

    #[test]
    fn nlp_prop_preserves_unit_norms() {
        let (mesh, nl) = setup();
        let mut psi = reference(&mesh, 6); // orthonormal start
        for _ in 0..25 {
            nl.nlp_prop(&mut psi);
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
        let f = nl.remap_occ(&psi, &occ0);
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
        let f = nl.remap_occ(&nl.psi0, &occ0);
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
        nl.nlp_prop(&mut psi);
        assert!(psi.max_abs_diff(&before) < 1e-12);
    }

    /// One step on both paths — loop form, SoA GEMMs — from the same AoS
    /// start.
    fn apply_on_every_path<R: Real>(
        nl: &NonlocalCorrection<R>,
        state: &WfAos<R>,
        frac: StepFraction,
    ) -> [Matrix<R>; 2] {
        let mut loops = state.to_matrix();
        nl.apply(&mut loops, frac);
        let mut soa = state.to_soa();
        nl.apply_soa(&mut soa, frac, &mut vec![R::ZERO; state.norb()]);
        [loops, soa.to_aos().to_matrix()]
    }

    /// `<ref_col | psi_col> dv`, summed in f64.
    fn amplitude<R: Real>(
        nl: &NonlocalCorrection<R>,
        ref_col: usize,
        psi: &Matrix<R>,
        col: usize,
    ) -> C64 {
        let mut acc = C64::zero();
        for (r, z) in nl.psi0.col(ref_col).iter().zip(psi.col(col)) {
            acc += r.cast::<f64>().conj() * z.cast::<f64>();
        }
        acc.scale(nl.dv.to_f64())
    }

    /// Oracle (a): on `a psi_occ + b psi_u` the step multiplies the `psi_u`
    /// amplitude by `e^{-i theta}` and leaves the `psi_occ` amplitude alone.
    fn two_level_phase<R: Real>(tol: f64) {
        let mesh = Mesh3::cubic(6, 0.5);
        // Orthonormalized in f64, then cast: the oracle's error is the
        // step's, not the reference set's.
        let reference = reference(&mesh, 6);
        let (a, b) = (C64::new(0.6, 0.0), C64::new(0.0, 0.8));
        let (occ, un) = (1, 4);
        for theta_full in [1e-4, 1e-3, 1e-2, 0.1, 1.0] {
            let nl = NonlocalCorrection::<R>::new(
                reference.cast(),
                3,
                R::from_f64(theta_full / 0.02),
                R::from_f64(0.02),
                R::from_f64(mesh.dv()),
            );
            let mixed = Matrix::from_fn(nl.ngrid(), 1, |r, _| {
                (a * reference[(r, occ)] + b * reference[(r, un)]).cast()
            });
            let state = WfAos::from_matrix(mesh.clone(), mixed);
            for frac in [StepFraction::Half, StepFraction::Full] {
                // theta as the f32 corrector sees it.
                let theta = nl.delta_sci.to_f64() * nl.dt.to_f64() * frac.scale::<f64>();
                for (path, out) in apply_on_every_path(&nl, &state, frac).iter().enumerate() {
                    let err_u = (amplitude(&nl, un, out, 0) - b * C64::cis(-theta)).abs();
                    let err_occ = (amplitude(&nl, occ, out, 0) - a).abs();
                    assert!(
                        err_u < tol && err_occ < tol,
                        "theta {theta:e}, path {path}: psi_u off by {err_u:e}, psi_occ by {err_occ:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_level_phase_dp() {
        two_level_phase::<f64>(1e-14);
    }

    #[test]
    fn two_level_phase_sp() {
        two_level_phase::<f32>(1e-6);
    }

    #[test]
    fn two_half_steps_are_one_full_step() {
        // Oracle (b): the step composes exactly, which is what lets the
        // engine merge adjacent half-steps.
        let (mesh, nl) = setup();
        let mut state = WfAos::<f64>::zeros(mesh, 6);
        state.randomize(34);
        let largest = state.data().iter().map(|z| z.abs()).fold(0.0, f64::max);
        let full = apply_on_every_path(&nl, &state, StepFraction::Full);
        let half = apply_on_every_path(&nl, &state, StepFraction::Half);
        for (path, (full, half)) in full.iter().zip(half).enumerate() {
            let half = WfAos::from_matrix(state.mesh().clone(), half);
            let twice = &apply_on_every_path(&nl, &half, StepFraction::Half)[path];
            let diff = full.max_abs_diff(twice) / largest;
            assert!(diff < 1e-15, "path {path}: Half.Half vs Full {diff:e}");
        }
    }

    #[test]
    fn a_thousand_full_steps_stay_unitary_without_renormalization() {
        // Oracle (c): an orthonormal block stays one, to rounding.
        let (mesh, nl) = setup();
        let mut state = WfAos::<f64>::zeros(mesh.clone(), 6);
        state.randomize(35);
        let mut soa = state.to_soa();
        let mut norms2 = vec![0.0; 6];
        for _ in 0..1000 {
            nl.apply_soa(&mut soa, StepFraction::Full, &mut norms2);
        }
        let after = soa.to_aos();
        let s = after.overlap(&after);
        let drift = s.max_abs_diff(&Matrix::identity(6));
        assert!(
            drift < 1e-12,
            "overlap matrix off the identity by {drift:e}"
        );
        // The norms the step hands back are those of the state it left.
        for (n, n2) in norms2.iter().enumerate() {
            assert!((n2 * mesh.dv() - s[(n, n)].re).abs() < 1e-13);
        }
    }

    /// The paper's Eq. (7) as this crate applied it until PR 17: the
    /// first-order step `1 - i theta P`, then every column renormalized.
    fn first_order_step(nl: &NonlocalCorrection<f64>, psi_t: &mut Matrix<f64>, theta: f64) {
        let o = nl.overlap(psi_t, nl.lumo);
        let c = C64::new(0.0, -theta);
        let psi0u = Matrix::from_fn(nl.ngrid(), nl.norb() - nl.lumo, |g, u| {
            nl.psi0[(g, nl.lumo + u)]
        });
        gemm(c, &psi0u, Op::None, &o, Op::None, C64::one(), psi_t);
        for t in 0..psi_t.cols() {
            let n2: f64 = psi_t.col(t).iter().map(|z| z.norm_sqr()).sum();
            let inv = 1.0 / (n2 * nl.dv).sqrt();
            psi_t.col_mut(t).iter_mut().for_each(|z| *z = z.scale(inv));
        }
    }

    #[test]
    fn first_order_step_is_recovered_to_second_order() {
        // Oracle (d). On `a psi_occ + b psi_u` the two steps differ by
        // <= theta^2; on an orbital wholly inside or outside the
        // projector's range only by the phase `theta - atan(theta)` <=
        // theta^3. And the sign: the first-order step grows `|b|^2` by
        // `|a|^2 |b|^2 theta^2` and lets the renormalization pay for it
        // out of the occupied amplitude; the exact step transfers nothing.
        let mesh = Mesh3::cubic(6, 0.5);
        let reference = reference(&mesh, 6);
        let (a, b) = (0.8, 0.6);
        for theta in [1e-3, 1e-2, 0.1f64] {
            let nl = NonlocalCorrection::new(reference.clone(), 3, theta / 0.02, 0.02, mesh.dv());
            // Columns: mixed, inside the range, outside it.
            let start = Matrix::from_fn(nl.ngrid(), 3, |r, col| match col {
                0 => reference[(r, 1)].scale(a) + reference[(r, 4)].scale(b),
                1 => reference[(r, 4)],
                _ => reference[(r, 1)],
            });
            let (mut exact, mut first) = (start.clone(), start.clone());
            nl.apply(&mut exact, StepFraction::Full);
            first_order_step(&nl, &mut first, theta);
            let col_diff = |col: usize| {
                let (x, y) = (exact.col(col), first.col(col));
                let d2: f64 = x.iter().zip(y).map(|(p, q)| (*p - *q).norm_sqr()).sum();
                (d2 * mesh.dv()).sqrt()
            };
            assert!(col_diff(0) <= theta * theta, "mixed: {:e}", col_diff(0));
            assert!(
                col_diff(0) > 0.1 * theta * theta,
                "mixed: {:e}",
                col_diff(0)
            );
            for col in [1, 2] {
                assert!(
                    col_diff(col) <= theta.powi(3),
                    "theta {theta}, column {col}: {:e}",
                    col_diff(col)
                );
            }
            let b2_exact = amplitude(&nl, 4, &exact, 0).norm_sqr();
            let b2_first = amplitude(&nl, 4, &first, 0).norm_sqr();
            assert!((b2_exact - b * b).abs() < 1e-14, "exact moved |b|^2");
            let growth = a * a * b * b * theta * theta;
            assert!(
                (b2_first - b * b - growth).abs() < 0.5 * growth,
                "theta {theta}: first order grew |b|^2 by {:e}, want {growth:e}",
                b2_first - b * b
            );
        }
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
        nl.nlp_prop(&mut mat);
        nl.nlp_prop_soa(&mut soa);
        let back = soa.to_aos().to_matrix();
        assert!(
            mat.max_abs_diff(&back) < 1e-11,
            "diff {}",
            mat.max_abs_diff(&back)
        );
        // Energies and occupations agree too.
        let ea = nl.scissor_energies(&mat);
        let eb = nl.scissor_energies_soa(&soa);
        for (a, b) in ea.iter().zip(&eb) {
            assert!((a - b).abs() < 1e-11);
        }
        let occ0 = vec![2.0, 2.0, 0.0, 0.0, 0.0];
        let fa = nl.remap_occ(&mat, &occ0);
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
                    nl.nlp_prop(&mut mat);
                    nl.nlp_prop_soa(&mut soa);
                }
                let diff = mat.max_abs_diff(&soa.to_aos().to_matrix()).to_f64();
                assert!(diff < tol, "norb {norb}: nlp_prop differs by {diff}");
                let occ0: Vec<R> = (0..norb).map(|n| R::from_usize(n % 3)).collect();
                let pairs = [
                    (nl.scissor_energies(&mat), nl.scissor_energies_soa(&soa)),
                    (nl.remap_occ(&mat, &occ0), nl.remap_occ_soa(&soa, &occ0)),
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
}
