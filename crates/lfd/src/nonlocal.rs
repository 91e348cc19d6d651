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
//!
//! The reference `Psi(0)` is real: it comes from the real symmetric set-up
//! solve (or [`dcmesh_grid::WfAos::randomize`]), and [`NonlocalCorrection::new`]
//! refuses anything else. It is held once, real and point-major, the
//! occupied and the unoccupied columns as two blocks, and both GEMMs are
//! real x complex: read as reals, the SoA block is a point-major block of
//! `2 Norb` real columns, so `O` and the update are the real block kernels
//! of [`dcmesh_math::simd`] — half the multiply-adds of a complex GEMM and
//! half its reference bytes. The modeled device is still charged the
//! paper's complex GEMMs ([`NonlocalCorrection::nlp_work`]).

use dcmesh_device::{KernelWork, Precision};
use dcmesh_grid::WfSoa;
use dcmesh_math::gemm::gemm_cfmas;
use dcmesh_math::simd::{self, Backend};
use dcmesh_math::{as_reals, as_reals_mut, Complex, Matrix, Real};
use dcmesh_pool::arena::with_scratch;
use dcmesh_pool::{global as pool, SlicePtr};

use crate::kinetic::StepFraction;

/// Grid points per parallel work unit (and per partial sum) of the SoA
/// GEMMs. A constant, so the order in which partials are added depends on
/// the shape alone — never on the size of the pool.
const PROJ_CHUNK: usize = 512;

/// Scissor-shifted nonlocal corrector bound to a t = 0 reference basis.
#[derive(Clone, Debug)]
pub struct NonlocalCorrection<R> {
    /// The reference `Psi(0)`, real, as two point-major blocks one after the
    /// other: the occupied columns (`Ngrid x lumo`), then the unoccupied
    /// ones (`Ngrid x Nu`) — each GEMM reads its block without a stride.
    psi0: Vec<R>,
    /// Number of grid points.
    ngrid: usize,
    /// Number of reference orbitals.
    nref: usize,
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
    /// Create from the reference wavefunctions (`Ngrid x Norb`, real), the
    /// LUMO index, and the scissor shift computed by the QXMD side.
    pub fn new(psi0: Matrix<R>, lumo: usize, delta_sci: R, dt: R, dv: R) -> Self {
        let (ngrid, nref) = (psi0.rows(), psi0.cols());
        assert!(lumo <= nref, "LUMO index beyond reference basis");
        assert!(
            psi0.data().iter().all(|z| z.im == R::ZERO),
            "NonlocalCorrection::new: the reference Psi(0) must be real (im == 0.0), \
             as the set-up eigensolver and WfAos::randomize hand it out"
        );
        let mut block = vec![R::ZERO; ngrid * nref];
        let (occupied, unoccupied) = block.split_at_mut(ngrid * lumo);
        for (n, orbital) in psi0.data().chunks_exact(ngrid.max(1)).enumerate() {
            let (dst, width, col) = match n.checked_sub(lumo) {
                None => (&mut *occupied, lumo, n),
                Some(u) => (&mut *unoccupied, nref - lumo, u),
            };
            for (g, z) in orbital.iter().enumerate() {
                dst[g * width + col] = z.re;
            }
        }
        Self {
            psi0: block,
            ngrid,
            nref,
            lumo,
            delta_sci,
            dt,
            dv,
        }
    }

    /// Number of grid points.
    pub fn ngrid(&self) -> usize {
        self.ngrid
    }

    /// Number of reference orbitals.
    pub fn norb(&self) -> usize {
        self.nref
    }

    /// The point-major block of the unoccupied (`true`) or the occupied
    /// reference columns, and its width.
    fn block(&self, unoccupied: bool) -> (&[R], usize) {
        let (occupied, rest) = self.psi0.split_at(self.ngrid * self.lumo);
        if unoccupied {
            (rest, self.nref - self.lumo)
        } else {
            (occupied, self.lumo)
        }
    }

    /// The reference amplitudes at grid point `g`: the unoccupied ones,
    /// after the occupied ones when `full`.
    fn refs_at(&self, g: usize, full: bool) -> impl Iterator<Item = &R> {
        let row = |unoccupied| {
            let (block, width) = self.block(unoccupied);
            &block[g * width..(g + 1) * width]
        };
        let occupied = if full { row(false) } else { &[] };
        occupied.iter().chain(row(true))
    }

    /// Overlap `O = Psi_ref^T Psi(t) * dv` with the unoccupied reference
    /// columns, or with all of them when `full`, in loop form.
    fn overlap(&self, psi_t: &Matrix<R>, full: bool) -> Matrix<R> {
        let n = psi_t.cols();
        let rows = if full {
            self.nref
        } else {
            self.nref - self.lumo
        };
        let mut o = Matrix::zeros(rows, n);
        // The paper's pre-BLAS formulation applies the projector point by
        // point: the grid loop is OUTERMOST, so every mesh point touches one
        // strided element of every propagated orbital — the poor-locality
        // pattern BLASification removes.
        for r in 0..self.ngrid {
            for t in 0..n {
                let pt = psi_t[(r, t)];
                for (u, b) in self.refs_at(r, full).enumerate() {
                    o[(u, t)] += pt.scale(*b);
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
    /// `psi += (e^{-i theta} - 1) Psi_u (Psi_u^T psi dv)` with
    /// `theta = D_sci dt frac`, in place and unitary: nothing is renormalized.
    /// Loop form on the `Ngrid x Norb` matrix (the pre-BLAS build);
    /// [`NonlocalCorrection::apply_soa`] is the GEMM form.
    pub fn apply(&self, psi_t: &mut Matrix<R>, frac: StepFraction) {
        assert_eq!(psi_t.rows(), self.ngrid);
        #[cfg(test)]
        counts::bump(1, 0);
        let c = self.phase_minus_one(frac);
        let o = self.overlap(psi_t, false);
        // Point-by-point accumulation (grid loop outermost), the mirror
        // image of the overlap pass.
        for r in 0..self.ngrid {
            for t in 0..psi_t.cols() {
                let mut acc = Complex::zero();
                for (u, b) in self.refs_at(r, false).enumerate() {
                    acc += o[(u, t)].scale(*b);
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
        let o = self.overlap(psi_t, false);
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
        let o = self.overlap(psi_t, true);
        let mut f = vec![R::ZERO; self.nref];
        for (s, fs) in f.iter_mut().enumerate() {
            for (n, f0) in occ0.iter().enumerate() {
                *fs += *f0 * o[(s, n)].norm_sqr();
            }
        }
        f
    }

    /// Roofline work of one half-step of the paper's `nlp_prop` (two complex
    /// GEMMs and its renormalization) — what the modeled device is charged
    /// per `lfd.nonlocal` launch, twice per QD step.
    pub fn nlp_work(&self, ncols: usize) -> KernelWork {
        let g = self.ngrid as u64;
        let nu = (self.nref - self.lumo) as u64;
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
    // layout of Algorithms 3-5; the SoA flat array *is* the point-major
    // block T = Psi^T, `Norb` complex or `2 Norb` real columns to a point).
    // ------------------------------------------------------------------

    /// `m[u * norb + n] = alpha * sum_g psi0[g][col0 + u] * t[g][n]` — with
    /// `alpha = dv`, `<psi_{col0 + u}(0) | psi_n(t)>` — for the SoA block `t`
    /// and the unoccupied references (`col0 = lumo`) or all of them (`full`,
    /// `col0 = 0`): per [`PROJ_CHUNK`] points one real overlap of each
    /// reference block against `t` read as reals, the chunks spread over the
    /// pool and their partials added in chunk order.
    fn overlap_soa(
        &self,
        backend: Backend,
        alpha: Complex<R>,
        t: &[Complex<R>],
        (norb, full): (usize, bool),
        m: &mut [Complex<R>],
    ) {
        let blocks = [self.block(false), self.block(true)];
        let blocks = &blocks[usize::from(!full)..];
        let width = 2 * norb;
        let len = m.len() * 2;
        let t = as_reals(t);
        with_scratch::<R, 1, ()>([self.ngrid.div_ceil(PROJ_CHUNK) * len], |[partials]| {
            pool().for_each_chunks_of_mut(partials, len, |ci, part| {
                let points = ci * PROJ_CHUNK..((ci + 1) * PROJ_CHUNK).min(self.ngrid);
                let tc = &t[width * points.start..width * points.end];
                let mut rows = &mut *part;
                for &(block, nb) in blocks {
                    let (out, rest) = rows.split_at_mut(nb * width);
                    let refs = &block[nb * points.start..nb * points.end];
                    simd::real_overlap_with(backend, R::ONE, refs, (nb, width), tc, out);
                    rows = rest;
                }
            });
            for (i, z) in m.iter_mut().enumerate() {
                let mut acc = Complex::zero();
                for part in partials.chunks_exact(len) {
                    acc += Complex::new(part[2 * i], part[2 * i + 1]);
                }
                *z = alpha * acc;
            }
        });
    }

    /// [`NonlocalCorrection::apply`] on an SoA-resident wavefunction set:
    /// identical math as two real x complex GEMMs on the transposed layout,
    /// operating in place on the SoA storage (no layout conversion — this
    /// is why the SoA data structure "BLASifies" for free). Scratch comes
    /// from the thread's arena: no heap traffic. With `norms2`, every
    /// chunk's updated orbitals are also summed into `norms2[n] = sum_g
    /// |psi_n(g)|^2` (no `dv`) while the chunk is in cache, for
    /// [`NonlocalCorrection::renormalize_soa`].
    pub fn apply_soa(&self, soa: &mut WfSoa<R>, frac: StepFraction, norms2: Option<&mut [R]>) {
        self.apply_soa_with(simd::active_backend(), soa, frac, norms2);
    }

    /// [`NonlocalCorrection::apply_soa`] on an explicit backend.
    fn apply_soa_with(
        &self,
        backend: Backend,
        soa: &mut WfSoa<R>,
        frac: StepFraction,
        norms2: Option<&mut [R]>,
    ) {
        let norb = soa.norb();
        assert_eq!(soa.data().len(), norb * self.ngrid, "SoA size mismatch");
        if let Some(n) = &norms2 {
            assert_eq!(n.len(), norb, "norm output length mismatch");
        }
        #[cfg(test)]
        counts::bump(1, 0);
        let ((refs, nu), width) = (self.block(true), 2 * norb);
        let alpha = self.phase_minus_one(frac).scale(self.dv);
        let n_chunks = self.ngrid.div_ceil(PROJ_CHUNK);
        let sums = if norms2.is_some() {
            n_chunks * width
        } else {
            0
        };
        with_scratch::<Complex<R>, 1, ()>([norb * nu], |[m]| {
            // M = (e^{-i theta} - 1) dv Psi_u^T T, then T += Psi_u M chunk
            // by chunk, the coefficient block read as reals.
            self.overlap_soa(backend, alpha, soa.data(), (norb, false), m);
            let m = as_reals(m);
            with_scratch::<R, 1, ()>([sums], |[partials]| {
                let slots = SlicePtr::new(partials);
                let t = as_reals_mut(soa.data_mut());
                pool().for_each_chunks_of_mut(t, width * PROJ_CHUNK, |ci, tc| {
                    let p0 = ci * PROJ_CHUNK;
                    let points = &refs[nu * p0..nu * (p0 + tc.len() / width)];
                    simd::real_update_with(backend, m, points, (nu, width), tc);
                    if sums == 0 {
                        return;
                    }
                    // SAFETY: chunk index ci is claimed exactly once, so slot
                    // [ci*width, (ci+1)*width) has no other live reference;
                    // `partials` outlives the dispatch.
                    let part = unsafe { slots.subslice_mut(ci * width, (ci + 1) * width) };
                    part.fill(R::ZERO);
                    for point in tc.chunks_exact(width) {
                        for (acc, x) in part.iter_mut().zip(point) {
                            *acc += *x * *x;
                        }
                    }
                });
                for (n, out) in norms2.into_iter().flatten().enumerate() {
                    let pairs = partials
                        .chunks_exact(width)
                        .map(|p| p[2 * n] + p[2 * n + 1]);
                    *out = pairs.sum();
                }
            });
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
        pool().for_each_chunks_of_mut(soa.data_mut(), PROJ_CHUNK * norb, |_, chunk| {
            for point in chunk.chunks_exact_mut(norb) {
                for (z, &iv) in point.iter_mut().zip(inv) {
                    *z = z.scale(iv);
                }
            }
        });
    }

    /// `nlp_prop()` on an SoA-resident set: [`NonlocalCorrection::apply_soa`]
    /// at [`StepFraction::Half`].
    pub fn nlp_prop_soa(&self, soa: &mut WfSoa<R>) {
        self.apply_soa(soa, StepFraction::Half, None);
    }

    /// SoA variant of [`NonlocalCorrection::scissor_energies`].
    pub fn scissor_energies_soa(&self, soa: &WfSoa<R>) -> Vec<R> {
        let (norb, nu) = (soa.norb(), self.nref - self.lumo);
        with_scratch::<Complex<R>, 1, _>([norb * nu], |[m]| {
            let dv = Complex::from_real(self.dv);
            self.overlap_soa(simd::active_backend(), dv, soa.data(), (norb, false), m);
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
        let nref = self.nref;
        with_scratch::<Complex<R>, 1, _>([norb * nref], |[m]| {
            let dv = Complex::from_real(self.dv);
            self.overlap_soa(simd::active_backend(), dv, soa.data(), (norb, true), m);
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
    use dcmesh_math::gemm::{gemm, Op};
    use dcmesh_math::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Orthonormal (dv-weighted) real reference set on a small mesh.
    fn reference(mesh: &Mesh3, norb: usize) -> Matrix<f64> {
        let mut wf = WfAos::<f64>::zeros(mesh.clone(), norb);
        wf.randomize(31);
        wf.to_matrix()
    }

    /// A complex propagated state: a `randomize` block with every grid
    /// point turned by a phase of its own — a diagonal unitary, so the block
    /// stays orthonormal.
    fn complex_state<R: Real>(mesh: &Mesh3, norb: usize, seed: u64) -> WfAos<R> {
        let mut wf = WfAos::<R>::zeros(mesh.clone(), norb);
        wf.randomize(seed);
        let g = mesh.len();
        for (i, z) in wf.data_mut().iter_mut().enumerate() {
            let phase = 0.7 * (i % g) as f64 + 0.1 * seed as f64;
            *z *= Complex::cis(R::from_f64(phase));
        }
        wf
    }

    fn setup() -> (Mesh3, Matrix<f64>, NonlocalCorrection<f64>) {
        let mesh = Mesh3::cubic(6, 0.5);
        let psi0 = reference(&mesh, 6);
        let nl = NonlocalCorrection::new(psi0.clone(), 3, 0.25, 0.02, mesh.dv());
        (mesh, psi0, nl)
    }

    #[test]
    #[should_panic(expected = "must be real (im == 0.0)")]
    fn new_refuses_a_complex_reference() {
        let mesh = Mesh3::cubic(5, 0.5);
        let psi0 = complex_state::<f64>(&mesh, 3, 8).to_matrix();
        NonlocalCorrection::new(psi0, 1, 0.25, 0.02, mesh.dv());
    }

    #[test]
    fn occupied_references_pass_through_unchanged() {
        // Occupied reference columns are orthogonal to the unoccupied
        // projector: nlp_prop must leave them invariant.
        let (_, psi0, nl) = setup();
        let occ_only = Matrix::from_fn(nl.ngrid(), 3, |r, c| psi0[(r, c)]);
        let mut out = occ_only.clone();
        nl.nlp_prop(&mut out);
        assert!(out.max_abs_diff(&occ_only) < 1e-10);
    }

    #[test]
    fn unoccupied_reference_gets_scissor_energy() {
        let (_, psi0, nl) = setup();
        // psi = psi_u(0) for u = LUMO: scissor energy = D_sci exactly.
        let lumo_col = Matrix::from_fn(nl.ngrid(), 1, |r, _| psi0[(r, 3)]);
        let e = nl.scissor_energies(&lumo_col);
        assert!((e[0] - 0.25).abs() < 1e-10, "scissor {e:?}");
    }

    #[test]
    fn nlp_prop_preserves_unit_norms() {
        let (mesh, _, nl) = setup();
        let mut psi = complex_state::<f64>(&mesh, 6, 36).to_matrix();
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
        let (_, psi0, nl) = setup();
        // Propagated orbitals that live inside span(Psi0): occupations must
        // redistribute but sum exactly.
        let occ0 = vec![2.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        // Mix occupied states by a unitary pair rotation 0<->3.
        let mut psi = psi0.clone();
        let c = (0.6f64).cos();
        let s = (0.6f64).sin();
        for r in 0..psi.rows() {
            let a = psi0[(r, 0)];
            let b = psi0[(r, 3)];
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
        let (_, psi0, nl) = setup();
        let occ0 = vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0];
        let f = nl.remap_occ(&psi0, &occ0);
        for (a, b) in f.iter().zip(&occ0) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn zero_scissor_shift_is_identity() {
        let (mesh, psi0, _) = setup();
        let nl = NonlocalCorrection::new(psi0.clone(), 3, 0.0, 0.02, mesh.dv());
        let mut psi = psi0.clone();
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
        nl.apply_soa(&mut soa, frac, None);
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
        for (g, z) in psi.col(col).iter().enumerate() {
            let b = nl
                .refs_at(g, true)
                .nth(ref_col)
                .map_or(f64::NAN, |b| b.to_f64());
            acc += z.cast::<f64>().scale(b);
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
        let (mesh, _, nl) = setup();
        let state = complex_state::<f64>(&mesh, 6, 34);
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
        let (mesh, _, nl) = setup();
        let state = complex_state::<f64>(&mesh, 6, 35);
        let mut soa = state.to_soa();
        let mut norms2 = vec![0.0; 6];
        for _ in 0..1000 {
            nl.apply_soa(&mut soa, StepFraction::Full, Some(&mut norms2));
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
    fn first_order_step(
        nl: &NonlocalCorrection<f64>,
        psi0: &Matrix<f64>,
        psi_t: &mut Matrix<f64>,
        theta: f64,
    ) {
        let o = nl.overlap(psi_t, false);
        let c = C64::new(0.0, -theta);
        let psi0u = Matrix::from_fn(nl.ngrid(), nl.norb() - nl.lumo, |g, u| {
            psi0[(g, nl.lumo + u)]
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
            first_order_step(&nl, &reference, &mut first, theta);
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
        let state = complex_state::<f64>(&mesh, 5, 34);
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

    /// SoA projector kernels against the loop form (`CpuLoops`' production
    /// path), over ragged orbital counts (vector tails), the LUMO at the
    /// first, a third and the last orbital, and a grid (7 x 4 x 5 and
    /// 9 x 9 x 9: one chunk and two) with an odd point count.
    fn soa_kernels_match_loops<R: Real>(tol: f64) {
        for mesh in [Mesh3::new(7, 4, 5, 0.5, 0.4, 0.6), Mesh3::cubic(9, 0.5)] {
            for norb in [1usize, 3, 4, 7, 16, 33] {
                let mut wf = WfAos::<R>::zeros(mesh.clone(), norb);
                wf.randomize(50 + norb as u64);
                let dv = R::from_f64(mesh.dv());
                let state = complex_state::<R>(&mesh, norb, 90 + norb as u64);
                let occ0: Vec<R> = (0..norb).map(|n| R::from_usize(n % 3)).collect();
                for lumo in [0, norb / 3, norb - 1] {
                    let (delta, dt) = (R::from_f64(0.4), R::from_f64(0.03));
                    let nl = NonlocalCorrection::new(wf.to_matrix(), lumo, delta, dt, dv);
                    let mut mat = state.to_matrix();
                    let mut soa = state.to_soa();
                    for _ in 0..2 {
                        nl.nlp_prop(&mut mat);
                        nl.nlp_prop_soa(&mut soa);
                    }
                    let diff = mat.max_abs_diff(&soa.to_aos().to_matrix()).to_f64();
                    let tag = format!("{} points x {norb}, lumo {lumo}", mesh.len());
                    assert!(diff < tol, "{tag}: nlp_prop differs by {diff}");
                    let pairs = [
                        (nl.scissor_energies(&mat), nl.scissor_energies_soa(&soa)),
                        (nl.remap_occ(&mat, &occ0), nl.remap_occ_soa(&soa, &occ0)),
                    ];
                    for (want, got) in pairs {
                        for (a, b) in want.iter().zip(&got) {
                            let diff = (*a - *b).abs().to_f64();
                            assert!(diff < 10.0 * tol, "{tag}: {a} vs {b}");
                        }
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

    /// The step (`StepFraction::Full`) and the squared moduli of the
    /// unoccupied and of the full overlap, in f64.
    type Outputs = (Vec<C64>, Vec<f64>, Vec<f64>);

    /// The SoA entry points on `backend`, widened to f64.
    fn soa_outputs<R: Real>(
        nl: &NonlocalCorrection<R>,
        backend: Backend,
        state: &WfAos<R>,
    ) -> Outputs {
        let norb = state.norb();
        let mut soa = state.to_soa();
        nl.apply_soa_with(backend, &mut soa, StepFraction::Full, None);
        let step = soa.data().iter().map(|z| z.cast()).collect();
        let soa = state.to_soa();
        let dv = Complex::from_real(nl.dv);
        let [unocc, full] = [false, true].map(|full| {
            let cols = if full { nl.nref } else { nl.nref - nl.lumo };
            let mut m = vec![Complex::zero(); norb * cols];
            nl.overlap_soa(backend, dv, soa.data(), (norb, full), &mut m);
            m.iter().map(|z| z.norm_sqr().to_f64()).collect()
        });
        (step, unocc, full)
    }

    /// The oracle: [`soa_outputs`] by triple loops in f64 over the reference
    /// the corrector holds.
    fn triple_loops<R: Real>(nl: &NonlocalCorrection<R>, state: &WfAos<R>) -> Outputs {
        let (norb, nref, lumo) = (state.norb(), nl.nref, nl.lumo);
        let t: Vec<C64> = state.to_soa().data().iter().map(|z| z.cast()).collect();
        let rows: Vec<Vec<f64>> = (0..nl.ngrid)
            .map(|p| nl.refs_at(p, true).map(|b| b.to_f64()).collect())
            .collect();
        let mut full = vec![C64::zero(); nref * norb];
        for (p, row) in rows.iter().enumerate() {
            for (o, b) in full.chunks_exact_mut(norb).zip(row) {
                for (z, x) in o.iter_mut().zip(&t[p * norb..]) {
                    *z += x.scale(*b);
                }
            }
        }
        full.iter_mut().for_each(|z| *z = z.scale(nl.dv.to_f64()));
        let (o, c) = (
            &full[lumo * norb..],
            nl.phase_minus_one(StepFraction::Full).cast(),
        );
        let mut step = t.clone();
        for (p, row) in rows.iter().enumerate() {
            for n in 0..norb {
                let mut acc = C64::zero();
                for u in lumo..nref {
                    acc += o[(u - lumo) * norb + n].scale(row[u]);
                }
                step[p * norb + n] += c * acc;
            }
        }
        let moduli = |o: &[C64]| o.iter().map(|z| z.norm_sqr()).collect();
        (step, moduli(o), moduli(&full))
    }

    fn max_diff(a: &Outputs, b: &Outputs) -> f64 {
        let step = a.0.iter().zip(&b.0).map(|(x, y)| (*x - *y).abs());
        let moduli = a.1.iter().chain(&a.2).zip(b.1.iter().chain(&b.2));
        step.chain(moduli.map(|(x, y)| (x - y).abs()))
            .fold(0.0, f64::max)
    }

    /// Meshes of 125, 216, 511, 512, 513, 4,096 and 13,824 points: both
    /// sides of a 512-point chunk and of the 256 points below which the
    /// complex GEMM once sent the overlap to other code, one chunk and many.
    const GRID_MESHES: [(usize, usize, usize); 7] = [
        (5, 5, 5),
        (6, 6, 6),
        (7, 73, 1),
        (8, 8, 8),
        (3, 9, 19),
        (16, 16, 16),
        (24, 24, 24),
    ];

    /// The SoA entry points on every backend against [`triple_loops`] over
    /// [`GRID_MESHES`], ragged and vector-wide orbital counts and the LUMO
    /// at the first, a third and the last orbital; the largest difference.
    ///
    /// The blocks are seeded noise of about unit norm, not `randomize`'s
    /// waves: their envelope takes its width from the smallest extent, and on
    /// 7 x 73 x 1 they leave 23 of 33 orbitals zero. The 13,824-point mesh
    /// runs in release builds only (seconds there, a minute in a debug one;
    /// `check.sh gates` runs it).
    fn real_projector_matches_triple_loops<R: Real>(tol: f64) -> f64 {
        let mut worst: f64 = 0.0;
        let meshes = if cfg!(debug_assertions) { 6 } else { 7 };
        for (nx, ny, nz) in GRID_MESHES.into_iter().take(meshes) {
            let mesh = Mesh3::new(nx, ny, nz, 0.5, 0.45, 0.4);
            let scale = 1.0 / (mesh.len() as f64 * mesh.dv()).sqrt();
            for norb in [1, 3, 4, 7, 16, 32, 33] {
                let mut rng = StdRng::seed_from_u64(50 + norb as u64);
                let mut unit = || R::from_f64(scale * rng.gen_range(-1.7..1.7));
                let reference =
                    Matrix::from_fn(mesh.len(), norb, |_, _| Complex::from_real(unit()));
                let state = Matrix::from_fn(mesh.len(), norb, |_, _| Complex::new(unit(), unit()));
                let state = WfAos::from_matrix(mesh.clone(), state);
                for lumo in [0, norb / 3, norb - 1] {
                    let (delta, dt) = (R::from_f64(0.4), R::from_f64(0.03));
                    let dv = R::from_f64(mesh.dv());
                    let nl = NonlocalCorrection::new(reference.clone(), lumo, delta, dt, dv);
                    let want = triple_loops(&nl, &state);
                    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                        let d = max_diff(&soa_outputs(&nl, backend, &state), &want);
                        let tag = format!("{nx}x{ny}x{nz} x {norb}, lumo {lumo}, {backend:?}");
                        assert!(d < tol, "{tag}: {d:e}");
                        worst = worst.max(d);
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn real_projector_matches_triple_loops_dp() {
        let worst = real_projector_matches_triple_loops::<f64>(1e-13);
        println!("real projector vs triple loops, f64: {worst:.2e}");
    }

    #[test]
    fn real_projector_matches_triple_loops_sp() {
        let worst = real_projector_matches_triple_loops::<f32>(1e-5);
        println!("real projector vs triple loops, f32: {worst:.2e}");
    }

    /// Partials are added in an order the shape fixes: every SoA entry point
    /// spread over the pool and run on this thread alone agree to the bit.
    fn chunk_owner_case<R: Real>(side: usize, norb: usize) {
        let mesh = Mesh3::cubic(side, 0.4);
        let mut wf = WfAos::<R>::zeros(mesh.clone(), norb);
        wf.randomize(3);
        let dv = R::from_f64(mesh.dv());
        let nl = NonlocalCorrection::new(wf.to_matrix(), norb / 2, R::ONE, R::from_f64(0.03), dv);
        let state = complex_state::<R>(&mesh, norb, 4);
        let occ0: Vec<R> = (0..norb).map(|n| R::from_usize(n % 3)).collect();
        let run = || {
            let (mut soa, mut norms2) = (state.to_soa(), vec![R::ZERO; norb]);
            nl.apply_soa(&mut soa, StepFraction::Full, Some(&mut norms2));
            let norms = norms2.clone();
            nl.renormalize_soa(&mut soa, &mut norms2);
            let energies = nl.scissor_energies_soa(&soa);
            let occ = nl.remap_occ_soa(&soa, &occ0);
            (soa.data().to_vec(), norms, energies, occ)
        };
        assert!(run() == dcmesh_pool::run_inline(run), "{side}^3 x {norb}");
    }

    #[test]
    fn results_do_not_depend_on_who_ran_the_chunks() {
        chunk_owner_case::<f64>(16, 16);
        chunk_owner_case::<f32>(24, 32);
    }
}
