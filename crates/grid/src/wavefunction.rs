//! Wavefunction storage: AoS (orbital-major) vs SoA (grid-major) layouts.
//!
//! Paper §III-A: "We also change the data layout of the wave function `psi`
//! such that the wave function at each grid point stores the value for all
//! orbitals, thereby making it a structure of arrays (SoA) over the original
//! arrays of structures (AoS)." Both layouts are first-class here because the
//! benchmark harness measures the transition (Algorithm 1 -> Algorithm 3).

use dcmesh_math::{from_reals, from_reals_mut, linalg, Complex, Matrix, Real};
use dcmesh_pool::arena::ALIGN;

use crate::mesh::Mesh3;

/// The share of its starting norm below which [`WfAos::randomize`] calls an
/// orbital dependent on the ones before it.
const RANK_TOL: f64 = 1e-5;

/// Orbital-major wavefunction set: orbital `n` occupies the contiguous slice
/// `[n * ngrid, (n+1) * ngrid)`, with mesh points in z-fastest order.
///
/// This is simultaneously the column-major `Ngrid x Norb` matrix `Psi` of
/// paper Eq. (9), so BLASified kernels view it as a [`Matrix`] at zero cost.
#[derive(Clone, Debug)]
pub struct WfAos<R> {
    mesh: Mesh3,
    norb: usize,
    data: Vec<Complex<R>>,
}

/// Grid-major wavefunction set: grid point `ijk` stores all `Norb` orbital
/// amplitudes contiguously — the SoA layout of Algorithms 2-5. The first
/// amplitude starts a cache line ([`ALIGN`] bytes), so a run that is a whole
/// number of lines from it (a point of 4 f64 or 8 f32 orbitals and more)
/// never splits one in a vector load or store.
#[derive(Debug)]
pub struct WfSoa<R> {
    mesh: Mesh3,
    norb: usize,
    /// The amplitudes as reals, from `reals[lead]` on: one zeroed allocation
    /// (a `calloc`, so pages are touched when first written) [`ALIGN`] bytes
    /// longer than they need, `lead` the reals up to its first line.
    reals: Vec<R>,
    lead: usize,
}

impl<R: Real> WfAos<R> {
    /// Zero-initialized set of `norb` orbitals on `mesh`.
    pub fn zeros(mesh: Mesh3, norb: usize) -> Self {
        let len = mesh.len() * norb;
        Self {
            mesh,
            norb,
            data: vec![Complex::zero(); len],
        }
    }

    /// Mesh this set lives on.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }

    /// Number of orbitals.
    pub fn norb(&self) -> usize {
        self.norb
    }

    /// Raw storage (orbital-major).
    pub fn data(&self) -> &[Complex<R>] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [Complex<R>] {
        &mut self.data
    }

    /// Linear index of orbital `n`, grid point `(i, j, k)`.
    #[inline(always)]
    pub fn index(&self, n: usize, i: usize, j: usize, k: usize) -> usize {
        n * self.mesh.len() + self.mesh.idx(i, j, k)
    }

    /// Contiguous slice of orbital `n`.
    #[inline]
    pub fn orbital(&self, n: usize) -> &[Complex<R>] {
        let g = self.mesh.len();
        &self.data[n * g..(n + 1) * g]
    }

    /// Mutable contiguous slice of orbital `n`.
    #[inline]
    pub fn orbital_mut(&mut self, n: usize) -> &mut [Complex<R>] {
        let g = self.mesh.len();
        &mut self.data[n * g..(n + 1) * g]
    }

    /// Fill with deterministic real amplitudes — Gaussian-enveloped standing
    /// waves `env(r) cos(k_n . r + 0.37 n)`, a distinct wave vector per
    /// orbital perturbed by the seed — and orthonormalize them in real
    /// arithmetic. Used for benchmark workloads and synthetic reference
    /// blocks; seeds give reproducible streams.
    ///
    /// Returns the orbitals Gram–Schmidt found dependent and left zero:
    /// every orbital past the mesh's point count, and any the waves cannot
    /// tell apart on a small mesh.
    pub fn randomize(&mut self, seed: u64) -> Vec<usize> {
        let (nx, ny, nz) = (self.mesh.nx, self.mesh.ny, self.mesh.nz);
        let g = self.mesh.len();
        let center = [nx as f64 / 2.0, ny as f64 / 2.0, nz as f64 / 2.0];
        let sigma2 = (nx.min(ny).min(nz) as f64 / 3.0).powi(2);
        let mut block = vec![R::ZERO; g * self.norb];
        for (n, orb) in block.chunks_exact_mut(g.max(1)).enumerate() {
            // Distinct wave vector per orbital, perturbed by the seed.
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(n as u64);
            let kx = 2.0 * std::f64::consts::PI * ((s % 7) as f64 + 1.0) / nx as f64;
            let ky = 2.0 * std::f64::consts::PI * (((s / 7) % 5) as f64 + 1.0) / ny as f64;
            let kz = 2.0 * std::f64::consts::PI * (((s / 35) % 3) as f64 + 1.0) / nz as f64;
            for (i, j, k) in self.mesh.iter_points() {
                let r2 = (i as f64 - center[0]).powi(2)
                    + (j as f64 - center[1]).powi(2)
                    + (k as f64 - center[2]).powi(2);
                let env = (-r2 / (2.0 * sigma2)).exp();
                let phase = kx * i as f64 + ky * j as f64 + kz * k as f64 + (n as f64) * 0.37;
                orb[self.mesh.idx(i, j, k)] = R::from_f64(env) * R::from_f64(phase).cos();
            }
        }
        let dropped = linalg::gram_schmidt(&mut block, g, R::from_f64(RANK_TOL));
        // Gram–Schmidt normalized with dv = 1; rescale to physical norm.
        let scale = R::from_f64(1.0 / self.mesh.dv().sqrt());
        for (z, x) in self.data.iter_mut().zip(&block) {
            *z = Complex::from_real(*x * scale);
        }
        dropped
    }

    /// L2 norm (including the volume element) of orbital `n`.
    pub fn orbital_norm(&self, n: usize) -> R {
        let dv = R::from_f64(self.mesh.dv());
        (linalg::norm(self.orbital(n)).powi(2) * dv).sqrt()
    }

    /// Normalize every orbital to unit L2 norm.
    pub fn normalize_orbitals(&mut self) {
        for n in 0..self.norb {
            let nv = self.orbital_norm(n);
            if nv > R::ZERO {
                linalg::scal(R::ONE / nv, self.orbital_mut(n));
            }
        }
    }

    /// View as the `Ngrid x Norb` matrix `Psi` of Eq. (9) (clones data).
    pub fn to_matrix(&self) -> Matrix<R> {
        Matrix::from_vec(self.mesh.len(), self.norb, self.data.clone())
    }

    /// Rebuild from a matrix produced by [`WfAos::to_matrix`].
    pub fn from_matrix(mesh: Mesh3, m: Matrix<R>) -> Self {
        assert_eq!(m.rows(), mesh.len());
        let norb = m.cols();
        Self {
            mesh,
            norb,
            data: take_matrix_data(m),
        }
    }

    /// Electron number density `rho(r) = sum_n f_n |psi_n(r)|^2`.
    pub fn density(&self, occupations: &[R]) -> Vec<R> {
        let mut rho = vec![R::ZERO; self.mesh.len()];
        self.density_into(occupations, &mut rho);
        rho
    }

    /// [`WfAos::density`] written over `rho`, one value per mesh point.
    pub fn density_into(&self, occupations: &[R], rho: &mut [R]) {
        assert_eq!(occupations.len(), self.norb);
        assert_eq!(rho.len(), self.mesh.len());
        rho.fill(R::ZERO);
        for (n, &f) in occupations.iter().enumerate() {
            if f == R::ZERO {
                continue;
            }
            for (r, z) in rho.iter_mut().zip(self.orbital(n)) {
                *r += z.norm_sqr() * f;
            }
        }
    }

    /// Total electron count `integral rho dV` for given occupations.
    pub fn electron_count(&self, occupations: &[R]) -> R {
        let dv = R::from_f64(self.mesh.dv());
        self.density(occupations).iter().copied().sum::<R>() * dv
    }

    /// Convert to the SoA layout.
    pub fn to_soa(&self) -> WfSoa<R> {
        let mut out = WfSoa::zeros(self.mesh.clone(), self.norb);
        let data = out.data_mut();
        for n in 0..self.norb {
            for (ijk, &z) in self.orbital(n).iter().enumerate() {
                data[ijk * self.norb + n] = z;
            }
        }
        out
    }

    /// Overlap matrix `S = Psi^dagger Psi * dv` between two sets.
    pub fn overlap(&self, other: &WfAos<R>) -> Matrix<R> {
        assert_eq!(self.mesh.len(), other.mesh.len());
        let a = self.to_matrix();
        let b = other.to_matrix();
        let mut s = Matrix::zeros(self.norb, other.norb);
        dcmesh_math::gemm::gemm(
            Complex::from_real(R::from_f64(self.mesh.dv())),
            &a,
            dcmesh_math::Op::ConjTrans,
            &b,
            dcmesh_math::Op::None,
            Complex::zero(),
            &mut s,
        );
        s
    }

    /// Cast to another precision (for the SP/DP comparison harness).
    pub fn cast<R2: Real>(&self) -> WfAos<R2> {
        WfAos {
            mesh: self.mesh.clone(),
            norb: self.norb,
            data: self.data.iter().map(|z| z.cast()).collect(),
        }
    }

    /// Maximum absolute amplitude difference against another set.
    pub fn max_abs_diff(&self, other: &WfAos<R>) -> R {
        assert_eq!(self.data.len(), other.data.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(R::ZERO, R::max)
    }
}

impl<R: Real> WfSoa<R> {
    /// Zero-initialized set of `norb` orbitals on `mesh` in SoA layout.
    pub fn zeros(mesh: Mesh3, norb: usize) -> Self {
        let size = std::mem::size_of::<R>();
        // Zeros of a float are one `calloc`; a `Complex` zero is written out.
        let reals = vec![R::ZERO; 2 * mesh.len() * norb + ALIGN / size];
        // A `Vec<R>` starts on a multiple of `size`, which divides `ALIGN`.
        let lead = (ALIGN - reals.as_ptr() as usize % ALIGN) % ALIGN / size;
        Self {
            mesh,
            norb,
            reals,
            lead,
        }
    }

    /// Mesh this set lives on.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }

    /// Number of orbitals.
    pub fn norb(&self) -> usize {
        self.norb
    }

    /// Raw storage (grid-major, orbital fastest), starting on a cache line.
    pub fn data(&self) -> &[Complex<R>] {
        let end = self.lead + 2 * self.mesh.len() * self.norb;
        from_reals(&self.reals[self.lead..end])
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [Complex<R>] {
        let end = self.lead + 2 * self.mesh.len() * self.norb;
        from_reals_mut(&mut self.reals[self.lead..end])
    }

    /// Linear index of grid point `(i, j, k)`, orbital `n`.
    #[inline(always)]
    pub fn index(&self, i: usize, j: usize, k: usize, n: usize) -> usize {
        self.mesh.idx(i, j, k) * self.norb + n
    }

    /// All orbital amplitudes at one grid point, contiguous.
    #[inline]
    pub fn point(&self, i: usize, j: usize, k: usize) -> &[Complex<R>] {
        let base = self.mesh.idx(i, j, k) * self.norb;
        &self.data()[base..base + self.norb]
    }

    /// Electron number density `rho(r) = sum_n f_n |psi_n(r)|^2` written
    /// over `rho` (one value per mesh point), read in place: each point's
    /// sum runs in orbital order and skips `f == 0`, so the result is
    /// [`WfAos::density`]'s bit for bit.
    pub fn density_into(&self, occupations: &[R], rho: &mut [R]) {
        assert_eq!(occupations.len(), self.norb);
        assert_eq!(rho.len(), self.mesh.len());
        for (r, point) in rho
            .iter_mut()
            .zip(self.data().chunks_exact(self.norb.max(1)))
        {
            *r = R::ZERO;
            for (z, &f) in point.iter().zip(occupations) {
                if f != R::ZERO {
                    *r += z.norm_sqr() * f;
                }
            }
        }
    }

    /// Convert to the AoS layout.
    pub fn to_aos(&self) -> WfAos<R> {
        let g = self.mesh.len();
        let mut out = WfAos::zeros(self.mesh.clone(), self.norb);
        let data = self.data();
        for n in 0..self.norb {
            let go = n * g;
            for ijk in 0..g {
                out.data[go + ijk] = data[ijk * self.norb + n];
            }
        }
        out
    }

    /// Maximum absolute amplitude difference against another SoA set.
    pub fn max_abs_diff(&self, other: &WfSoa<R>) -> R {
        assert_eq!(self.data().len(), other.data().len());
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (*a - *b).abs())
            .fold(R::ZERO, R::max)
    }
}

impl<R: Real> Clone for WfSoa<R> {
    /// A copy whose storage starts on a cache line of its own.
    fn clone(&self) -> Self {
        let mut out = Self::zeros(self.mesh.clone(), self.norb);
        out.data_mut().copy_from_slice(self.data());
        out
    }
}

/// Extract the data vector from a Matrix (helper; Matrix has no public
/// into_vec to keep its invariants, so we copy through the slice).
fn take_matrix_data<R: Real>(m: Matrix<R>) -> Vec<Complex<R>> {
    m.data().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_math::C64;

    fn small_set() -> WfAos<f64> {
        let mesh = Mesh3::new(4, 3, 5, 0.5, 0.5, 0.5);
        let mut wf = WfAos::zeros(mesh, 3);
        wf.randomize(7);
        wf
    }

    #[test]
    fn layout_roundtrip_aos_soa() {
        let wf = small_set();
        let back = wf.to_soa().to_aos();
        assert!(wf.max_abs_diff(&back) < 1e-15);
    }

    #[test]
    fn soa_point_is_orbital_contiguous() {
        let wf = small_set();
        let soa = wf.to_soa();
        let p = soa.point(1, 2, 3);
        assert_eq!(p.len(), 3);
        for (n, &pn) in p.iter().enumerate() {
            assert_eq!(pn, wf.orbital(n)[wf.mesh().idx(1, 2, 3)]);
        }
    }

    #[test]
    fn orthonormalization() {
        let wf = small_set();
        let s = wf.overlap(&wf);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { C64::one() } else { C64::zero() };
                assert!((s[(i, j)] - want).abs() < 1e-10, "({i},{j}) {}", s[(i, j)]);
            }
        }
    }

    #[test]
    fn density_is_nonnegative_and_integrates_to_electron_count() {
        let wf = small_set();
        let occ = vec![2.0, 2.0, 0.0];
        let rho = wf.density(&occ);
        assert!(rho.iter().all(|&r| r >= 0.0));
        let count = wf.electron_count(&occ);
        assert!((count - 4.0).abs() < 1e-10, "count {count}");
    }

    #[test]
    fn zero_occupation_gives_zero_density() {
        let wf = small_set();
        let rho = wf.density(&[0.0, 0.0, 0.0]);
        assert!(rho.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn matrix_view_roundtrip() {
        let wf = small_set();
        let m = wf.to_matrix();
        assert_eq!(m.rows(), wf.mesh().len());
        assert_eq!(m.cols(), 3);
        let back = WfAos::from_matrix(wf.mesh().clone(), m);
        assert!(wf.max_abs_diff(&back) < 1e-15);
    }

    #[test]
    fn orbital_norm_after_normalize() {
        let mut wf = small_set();
        wf.orbital_mut(1)[0] = C64::new(10.0, -3.0); // perturb
        wf.normalize_orbitals();
        for n in 0..3 {
            assert!((wf.orbital_norm(n) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn precision_cast_roundtrip_error_small() {
        let wf = small_set();
        let sp: WfAos<f32> = wf.cast();
        let back: WfAos<f64> = sp.cast();
        assert!(wf.max_abs_diff(&back) < 1e-6);
    }

    #[test]
    fn randomize_is_deterministic() {
        let mesh = Mesh3::cubic(6, 0.4);
        let mut a = WfAos::<f64>::zeros(mesh.clone(), 2);
        let mut b = WfAos::<f64>::zeros(mesh, 2);
        a.randomize(42);
        b.randomize(42);
        assert!(a.max_abs_diff(&b) == 0.0);
    }

    /// `S = Psi^T Psi dv` of a randomized set: the identity, but for the
    /// orbitals `randomize` reported, whose rows and columns are zero.
    fn randomize_case<R: Real>(
        (nx, ny, nz): (usize, usize, usize),
        norb: usize,
        seed: u64,
    ) -> Vec<usize> {
        let mut wf = WfAos::<R>::zeros(Mesh3::new(nx, ny, nz, 0.5, 0.45, 0.4), norb);
        let dropped = wf.randomize(seed);
        assert!(wf.data().iter().all(|z| z.im == R::ZERO));
        let s = wf.overlap(&wf);
        let tol = 100.0 * R::EPSILON.to_f64();
        for i in 0..norb {
            for j in 0..norb {
                let kept = !dropped.contains(&i) && !dropped.contains(&j);
                let want = if kept && i == j { 1.0 } else { 0.0 };
                let got = s[(i, j)].re.to_f64();
                assert!(
                    (got - want).abs() < tol,
                    "{nx}x{ny}x{nz} x {norb} seed {seed}: S[{i}][{j}] = {got}"
                );
            }
        }
        dropped
    }

    #[test]
    fn randomize_has_full_rank_at_every_shape_in_use() {
        // The benchmark's engines and probes (24^3 x 32 for `lfd_sp`, its
        // f64 check and the digests' 24^3 x 8; 16^3 x 16 and 8^3 x 4 for the
        // `DcMeshSim` workloads) at the seeds it runs and beyond, and the
        // suite's fixed shapes and seeds down to the line kernel's 7 x 4 x 5
        // x 33 (in both precisions: `randomize` orthonormalizes in `R`).
        let seeds = |n: u64| (0..n).chain([1_000_003, 0x5eed_5eed]);
        for seed in 1..=10 {
            let mut wf = WfAos::<f32>::zeros(Mesh3::cubic(24, 0.4), 32);
            assert_eq!(wf.randomize(seed), [], "lfd_sp, seed {seed}");
        }
        let mut cases: Vec<((usize, usize, usize), usize, u64)> = Vec::new();
        cases.extend(seeds(12).map(|seed| ((16, 16, 16), 16, seed)));
        cases.extend(seeds(64).map(|seed| ((8, 8, 8), 4, seed)));
        cases.extend([
            ((24, 24, 24), 32, 7),
            ((24, 24, 24), 8, 11),
            ((12, 12, 12), 16, 1),
            ((8, 8, 8), 6, 7),
            ((9, 6, 5), 4, 2),
            ((6, 6, 6), 7, 4),
            ((6, 6, 6), 6, 31),
            ((5, 5, 5), 5, 33),
            ((7, 4, 5), 33, 73),
            ((4, 5, 7), 33, 73),
            ((4, 4, 4), 22, 5),
        ]);
        for (dims, norb, seed) in cases {
            assert_eq!(
                randomize_case::<f64>(dims, norb, seed),
                [],
                "{dims:?} x {norb}, seed {seed}"
            );
            assert_eq!(
                randomize_case::<f32>(dims, norb, seed),
                [],
                "{dims:?} x {norb}, seed {seed}"
            );
        }
    }

    #[test]
    fn randomize_reports_the_orbitals_it_cannot_make_independent() {
        // Eight points hold at most eight orbitals (these waves six); the
        // standing waves of a 4^3 mesh alias, so forty of them
        // (`lowest_states`' widest test block, whose start noise restores
        // the rank) span 39 dimensions at seed 3.
        for (dims, norb, seed, lost) in [((2, 2, 2), 16, 1, 10), ((4, 4, 4), 40, 3, 1)] {
            assert_eq!(
                randomize_case::<f64>(dims, norb, seed).len(),
                lost,
                "{dims:?}"
            );
            assert_eq!(
                randomize_case::<f32>(dims, norb, seed).len(),
                lost,
                "{dims:?}"
            );
        }
    }

    fn starts_lines<R: Real>() {
        for n in 1..=40 {
            let wf = WfAos::<R>::zeros(Mesh3::new(n, 1, 1, 0.5, 0.5, 0.5), 1 + n % 3);
            let soa = WfSoa::<R>::zeros(wf.mesh().clone(), wf.norb());
            for data in [soa.data(), soa.clone().data(), wf.to_soa().data()] {
                assert_eq!(
                    (data.len(), data.as_ptr() as usize % ALIGN),
                    (n * wf.norb(), 0)
                );
            }
        }
    }

    #[test]
    fn soa_storage_starts_on_a_cache_line() {
        starts_lines::<f64>();
        starts_lines::<f32>();
    }

    #[test]
    fn index_functions_agree_with_slices() {
        let wf = small_set();
        let soa = wf.to_soa();
        assert_eq!(
            wf.data()[wf.index(2, 1, 0, 3)],
            wf.orbital(2)[wf.mesh().idx(1, 0, 3)]
        );
        assert_eq!(soa.data()[soa.index(1, 0, 3, 2)], soa.point(1, 0, 3)[2]);
    }
}
