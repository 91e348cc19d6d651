//! Dense complex matrices and a from-scratch level-3 BLAS (GEMM).
//!
//! Paper §III-D rewrites the nonlocal correction (Eq. (7)) as the matrix
//! product `Psi(t) = c * Psi(0) * Psi(0)^dagger * Psi(t)` (Eq. (9)) and maps it
//! to BLAS level-3 calls. This module supplies that BLAS:
//!
//! * [`gemm_naive`] — reference triple loop (the pre-BLAS "CPU OpenMP
//!   Parallel" build of Table II uses the loop formulation) and the
//!   semantics oracle of the tests.
//! * [`gemm_colmajor`] — the one general GEMM, over raw column-major
//!   slices: blocked column panels with a packed A-panel, spread over the
//!   persistent `dcmesh-pool` executor (the device executor layers the
//!   cuBLAS roofline model on top). [`gemm`] is the same kernel over
//!   [`Matrix`] operands.
//!
//! The workloads' own GEMMs are not here: the nonlocal projector multiplies
//! by a real reference and the set-up solve is real symmetric, so both run
//! on the real block kernels of [`crate::simd`]. This one serves the tests
//! as an oracle and the frozen benchmark as its GEMM probe.
//!
//! Matrices are column-major like BLAS, so a wavefunction matrix `Psi` with
//! `Ngrid` rows (grid points) and `Norb` columns (orbitals) stores each
//! orbital contiguously.
//!
//! Parallel dispatch is zero-allocation in steady state (no chunk lists,
//! no spawned threads, and packing scratch comes from the per-thread
//! aligned arena), and the arithmetic per output entry is a function of
//! the shape alone — a call spread over the pool is bitwise equal to the
//! same call under `dcmesh_pool::run_inline`, which the tests assert.

use crate::complex::Complex;
use crate::real::Real;
use dcmesh_pool::arena::with_scratch;
use dcmesh_pool::global as pool;

/// Transpose operation applied to a GEMM operand, mirroring BLAS `op(A)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose (Hermitian adjoint) — `Psi^dagger` in Eq. (9).
    ConjTrans,
}

/// Column-major dense complex matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<R> {
    rows: usize,
    cols: usize,
    data: Vec<Complex<R>>,
}

impl<R: Real> Matrix<R> {
    /// Zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex::zero(); rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::one();
        }
        m
    }

    /// Build from a column-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex<R>>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Complex<R>,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw column-major storage.
    #[inline(always)]
    pub fn data(&self) -> &[Complex<R>] {
        &self.data
    }

    /// Mutable raw column-major storage.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [Complex<R>] {
        &mut self.data
    }

    /// Borrow one column as a slice (contiguous in column-major layout).
    #[inline(always)]
    pub fn col(&self, c: usize) -> &[Complex<R>] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrow one column.
    #[inline(always)]
    pub fn col_mut(&mut self, c: usize) -> &mut [Complex<R>] {
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Hermitian adjoint (conjugate transpose) as a new matrix.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Maximum absolute entry difference against another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> R {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(R::ZERO, R::max)
    }

    /// Cast every entry to another precision.
    pub fn cast<R2: Real>(&self) -> Matrix<R2> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.cast()).collect(),
        }
    }

    /// Dimensions of `op(self)`.
    fn op_dims(&self, op: Op) -> (usize, usize) {
        match op {
            Op::None => (self.rows, self.cols),
            Op::Trans | Op::ConjTrans => (self.cols, self.rows),
        }
    }

    /// Element of `op(self)` at (r, c).
    #[inline(always)]
    fn op_at(&self, op: Op, r: usize, c: usize) -> Complex<R> {
        match op {
            Op::None => self[(r, c)],
            Op::Trans => self[(c, r)],
            Op::ConjTrans => self[(c, r)].conj(),
        }
    }
}

impl<R: Real> std::ops::Index<(usize, usize)> for Matrix<R> {
    type Output = Complex<R>;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &Complex<R> {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[c * self.rows + r]
    }
}

impl<R: Real> std::ops::IndexMut<(usize, usize)> for Matrix<R> {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex<R> {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[c * self.rows + r]
    }
}

/// Check GEMM operand shapes; returns (m, n, k).
fn gemm_dims<R: Real>(
    a: &Matrix<R>,
    op_a: Op,
    b: &Matrix<R>,
    op_b: Op,
    c: &Matrix<R>,
) -> (usize, usize, usize) {
    let (m, ka) = a.op_dims(op_a);
    let (kb, n) = b.op_dims(op_b);
    assert_eq!(ka, kb, "GEMM inner dimensions must agree");
    assert_eq!(c.rows(), m, "GEMM output rows mismatch");
    assert_eq!(c.cols(), n, "GEMM output cols mismatch");
    (m, n, ka)
}

/// Reference GEMM: `C = alpha * op(A) * op(B) + beta * C`, naive triple loop.
///
/// This is the semantics oracle for the optimized paths and the stand-in for
/// the paper's pre-BLAS loop nest.
pub fn gemm_naive<R: Real>(
    alpha: Complex<R>,
    a: &Matrix<R>,
    op_a: Op,
    b: &Matrix<R>,
    op_b: Op,
    beta: Complex<R>,
    c: &mut Matrix<R>,
) {
    let (m, n, k) = gemm_dims(a, op_a, b, op_b, c);
    for j in 0..n {
        for i in 0..m {
            let mut acc = Complex::zero();
            for p in 0..k {
                acc += a.op_at(op_a, i, p) * b.op_at(op_b, p, j);
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

/// Cache-block edge in rows/cols. 64 complex<f64> = 1 KiB per panel column,
/// sized so an MC x KC A-panel plus a KC x NC B-panel stay L2-resident.
const BLOCK: usize = 64;

/// Production GEMM on [`Matrix`] operands: [`gemm_colmajor`] over their
/// column-major storage.
pub fn gemm<R: Real>(
    alpha: Complex<R>,
    a: &Matrix<R>,
    op_a: Op,
    b: &Matrix<R>,
    op_b: Op,
    beta: Complex<R>,
    c: &mut Matrix<R>,
) {
    let cdims = (c.rows(), c.cols());
    gemm_colmajor(
        alpha,
        a.data(),
        (a.rows(), a.cols()),
        op_a,
        b.data(),
        (b.rows(), b.cols()),
        op_b,
        beta,
        c.data_mut(),
        cdims,
    );
}

/// Slice-based GEMM over raw column-major storage:
/// `C = alpha * op(A) * op(B) + beta * C` where each operand is a
/// `(data, rows, cols)` triple describing its *stored* shape: the one
/// general complex GEMM every other entry point of this module lands in.
///
/// Blocked column panels of `C` with a packed A-panel: the panels are
/// independent, so each claim-loop task owns a disjoint slice of the output
/// — data-race freedom by construction — and the arithmetic per output
/// entry does not depend on who ran the panel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_colmajor<R: Real>(
    alpha: Complex<R>,
    a: &[Complex<R>],
    (ar, ac): (usize, usize),
    op_a: Op,
    b: &[Complex<R>],
    (br, bc): (usize, usize),
    op_b: Op,
    beta: Complex<R>,
    c: &mut [Complex<R>],
    (cr, cc): (usize, usize),
) {
    assert_eq!(a.len(), ar * ac, "A storage size mismatch");
    assert_eq!(b.len(), br * bc, "B storage size mismatch");
    assert_eq!(c.len(), cr * cc, "C storage size mismatch");
    let (m, k) = match op_a {
        Op::None => (ar, ac),
        _ => (ac, ar),
    };
    let (kb, n) = match op_b {
        Op::None => (br, bc),
        _ => (bc, br),
    };
    assert_eq!(k, kb, "GEMM inner dimensions must agree");
    assert_eq!((cr, cc), (m, n), "GEMM output shape mismatch");
    let mut kernel = || {
        let a_at = |r: usize, col: usize| -> Complex<R> {
            match op_a {
                Op::None => a[col * ar + r],
                Op::Trans => a[r * ar + col],
                Op::ConjTrans => a[r * ar + col].conj(),
            }
        };
        let b_at = |r: usize, col: usize| -> Complex<R> {
            match op_b {
                Op::None => b[col * br + r],
                Op::Trans => b[r * br + col],
                Op::ConjTrans => b[r * br + col].conj(),
            }
        };
        // Blocks over (p, i, j) with an explicitly packed A-panel so the
        // inner kernel streams contiguous memory — the data-reuse idea of
        // paper §III-A/B applied to GEMM — parallel over column panels of C.
        pool().for_each_chunks_of_mut(c, m * BLOCK, |panel, cpanel| {
            let j0 = panel * BLOCK;
            let ncols = cpanel.len() / m;
            if beta != Complex::one() {
                for z in cpanel.iter_mut() {
                    *z *= beta;
                }
            }
            // Packing scratch lives in the per-thread aligned arena: no
            // per-call (let alone per-panel) heap traffic.
            with_scratch::<Complex<R>, 2, ()>([BLOCK * BLOCK, BLOCK], |[apack, bcol]| {
                for p0 in (0..k).step_by(BLOCK) {
                    let p1 = (p0 + BLOCK).min(k);
                    let kw = p1 - p0;
                    for i0 in (0..m).step_by(BLOCK) {
                        let i1 = (i0 + BLOCK).min(m);
                        let mut w = 0;
                        for i in i0..i1 {
                            for p in p0..p1 {
                                apack[w] = a_at(i, p);
                                w += 1;
                            }
                        }
                        for jj in 0..ncols {
                            let j = j0 + jj;
                            for (idx, p) in (p0..p1).enumerate() {
                                bcol[idx] = b_at(p, j);
                            }
                            let ccol = &mut cpanel[jj * m..(jj + 1) * m];
                            for (row, i) in (i0..i1).enumerate() {
                                let arow = &apack[row * kw..(row + 1) * kw];
                                let mut acc = Complex::zero();
                                for (av, bv) in arow.iter().zip(&bcol[..kw]) {
                                    acc += *av * *bv;
                                }
                                ccol[i] += alpha * acc;
                            }
                        }
                    }
                }
            });
        });
    };
    if m * n * k < 32 * 32 * 32 {
        // Small problems: parallel dispatch overhead dominates.
        dcmesh_pool::run_inline(kernel)
    } else {
        kernel()
    }
}

/// Count of complex fused-multiply-adds a GEMM performs: `m * n * k`.
///
/// One complex FMA = 8 real flops; the device roofline model consumes this.
pub fn gemm_cfmas(m: usize, n: usize, k: usize) -> u64 {
    (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 5, 5);
        let id = Matrix::identity(5);
        let mut c = Matrix::zeros(5, 5);
        gemm_naive(C64::one(), &a, Op::None, &id, Op::None, C64::zero(), &mut c);
        assert!(a.max_abs_diff(&c) < 1e-14);
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, n, k) in &[(3, 4, 5), (17, 9, 33), (64, 64, 64), (70, 3, 129)] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let mut c1 = random_matrix(&mut rng, m, n);
            let mut c2 = c1.clone();
            let alpha = C64::new(0.7, -0.3);
            let beta = C64::new(-0.2, 0.4);
            gemm_naive(alpha, &a, Op::None, &b, Op::None, beta, &mut c1);
            dcmesh_pool::run_inline(|| gemm(alpha, &a, Op::None, &b, Op::None, beta, &mut c2));
            assert!(c1.max_abs_diff(&c2) < 1e-11, "({m},{n},{k})");
        }
    }

    type Shape = (usize, usize, usize);

    /// `gemm` against `gemm_naive` for all nine `Op` pairs of one
    /// `(m, n, k)` problem in precision `R`.
    fn all_ops_match_naive<R: Real>(rng: &mut StdRng, (m, n, k): Shape) {
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let mut mat = |rows, cols| random_matrix(rng, rows, cols).cast::<R>();
        for &op_a in &ops {
            for &op_b in &ops {
                let a = match op_a {
                    Op::None => mat(m, k),
                    _ => mat(k, m),
                };
                let b = match op_b {
                    Op::None => mat(k, n),
                    _ => mat(n, k),
                };
                let mut c1 = mat(m, n);
                let mut c2 = c1.clone();
                let alpha = Complex::new(R::from_f64(1.1), R::from_f64(0.2));
                let beta = Complex::new(R::from_f64(-0.2), R::from_f64(0.4));
                gemm_naive(alpha, &a, op_a, &b, op_b, beta, &mut c1);
                gemm(alpha, &a, op_a, &b, op_b, beta, &mut c2);
                let tol = R::from_f64(64.0 * (k as f64 + 4.0)) * R::EPSILON;
                assert!(
                    c1.max_abs_diff(&c2) < tol,
                    "{} ({m},{n},{k}) {op_a:?} {op_b:?}",
                    R::PRECISION_LABEL
                );
            }
        }
    }

    #[test]
    fn parallel_matches_naive_all_ops() {
        // A generic shape, the eigensolver's `X^H Y` (long contraction,
        // small square output), the thin-k `X V`, and both sides of the
        // 32^3 "run inline" threshold.
        let shapes: [Shape; 6] = [
            (33, 41, 29),
            (16, 16, 4096),
            (4, 4, 512),
            (4096, 16, 16),
            (31, 33, 32),
            (32, 32, 32),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for shape in shapes {
            all_ops_match_naive::<f64>(&mut rng, shape);
            all_ops_match_naive::<f32>(&mut rng, shape);
        }
    }

    #[test]
    fn parallel_large_matches_blocked() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, n, k) = (150, 70, 90);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        dcmesh_pool::run_inline(|| {
            gemm(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c1)
        });
        gemm(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-11);
    }

    #[test]
    fn pool_parallel_gemm_is_bitwise_equal_to_serial() {
        // One kernel, two ways of running it: spread over the pool, and
        // kept on this thread by `run_inline`. Every output entry is
        // computed by the same arithmetic sequence whoever claims its panel,
        // so the results must agree to the last bit regardless of pool size
        // or panel-claim order.
        let mut rng = StdRng::seed_from_u64(7);
        let alpha = C64::new(0.7, -0.3);
        let beta = C64::new(-0.2, 0.4);
        for (op_a, op_b, (m, n, k)) in [
            (Op::None, Op::None, (150, 130, 90)),
            (Op::ConjTrans, Op::None, (16, 16, 4096)),
            (Op::None, Op::None, (4096, 16, 16)),
            (Op::None, Op::ConjTrans, (8, 5, 3000)),
        ] {
            let a = match op_a {
                Op::None => random_matrix(&mut rng, m, k),
                _ => random_matrix(&mut rng, k, m),
            };
            let b = match op_b {
                Op::None => random_matrix(&mut rng, k, n),
                _ => random_matrix(&mut rng, n, k),
            };
            let c0 = random_matrix(&mut rng, m, n);
            let mut blocked = c0.clone();
            dcmesh_pool::run_inline(|| gemm(alpha, &a, op_a, &b, op_b, beta, &mut blocked));
            let mut parallel = c0.clone();
            gemm(alpha, &a, op_a, &b, op_b, beta, &mut parallel);
            assert_eq!(blocked.data(), parallel.data(), "({m},{n},{k})");
        }
    }

    #[test]
    fn adjoint_involution() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, 7, 4);
        assert!(a.adjoint().adjoint().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn projection_matrix_is_hermitian_idempotent() {
        // P = Q Q^dagger with Q orthonormal columns must satisfy P^2 = P —
        // the structure of the nonlocal-correction projector of Eq. (7).
        let n = 16;
        let mut q = Matrix::zeros(n, 3);
        // Three orthonormal columns from unit basis vectors.
        q[(0, 0)] = C64::one();
        q[(5, 1)] = C64::one();
        q[(9, 2)] = C64::new(0.0, 1.0); // i * e_9, still unit norm
        let mut p = Matrix::zeros(n, n);
        gemm_naive(
            C64::one(),
            &q,
            Op::None,
            &q,
            Op::ConjTrans,
            C64::zero(),
            &mut p,
        );
        let mut p2 = Matrix::zeros(n, n);
        gemm_naive(C64::one(), &p, Op::None, &p, Op::None, C64::zero(), &mut p2);
        assert!(p.max_abs_diff(&p2) < 1e-13);
        assert!(p.adjoint().max_abs_diff(&p) < 1e-13);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_cfmas(10, 20, 30), 6000);
    }

    #[test]
    fn colmajor_slice_gemm_matches_matrix_gemm() {
        let mut rng = StdRng::seed_from_u64(8);
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        for &(m, n, k) in &[(21usize, 13usize, 37usize), (4, 3, 4096)] {
            for &op_a in &ops {
                for &op_b in &ops {
                    let a = match op_a {
                        Op::None => random_matrix(&mut rng, m, k),
                        _ => random_matrix(&mut rng, k, m),
                    };
                    let b = match op_b {
                        Op::None => random_matrix(&mut rng, k, n),
                        _ => random_matrix(&mut rng, n, k),
                    };
                    let mut c1 = random_matrix(&mut rng, m, n);
                    let mut c2 = c1.data().to_vec();
                    let alpha = C64::new(0.3, -0.9);
                    let beta = C64::new(1.0, 0.25);
                    gemm_naive(alpha, &a, op_a, &b, op_b, beta, &mut c1);
                    gemm_colmajor(
                        alpha,
                        a.data(),
                        (a.rows(), a.cols()),
                        op_a,
                        b.data(),
                        (b.rows(), b.cols()),
                        op_b,
                        beta,
                        &mut c2,
                        (m, n),
                    );
                    let tol = 1e-11 * (k as f64).sqrt();
                    for (i, want) in c1.data().iter().enumerate() {
                        assert!((c2[i] - *want).abs() < tol, "{op_a:?} {op_b:?} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a: Matrix<f64> = Matrix::zeros(3, 4);
        let b: Matrix<f64> = Matrix::zeros(5, 2);
        let mut c: Matrix<f64> = Matrix::zeros(3, 2);
        gemm_naive(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c);
    }
}
