//! Dense complex matrices and the reference complex GEMM.
//!
//! Paper §III-D rewrites the nonlocal correction (Eq. (7)) as the matrix
//! product `Psi(t) = c * Psi(0) * Psi(0)^dagger * Psi(t)` (Eq. (9)) and maps it
//! to BLAS level-3 calls. The workloads' GEMMs run on the real block kernels
//! of [`crate::simd`]: the nonlocal projector multiplies by a real reference
//! and the set-up solve is real symmetric. What is left here is [`gemm`], the
//! triple loop over all nine [`Op`] pairs (the pre-BLAS "CPU OpenMP Parallel"
//! build of Table II uses the loop formulation), which the tests use as an
//! oracle and the frozen benchmark times as its GEMM probe.
//!
//! Matrices are column-major like BLAS, so a wavefunction matrix `Psi` with
//! `Ngrid` rows (grid points) and `Norb` columns (orbitals) stores each
//! orbital contiguously.

use crate::complex::Complex;
use crate::real::Real;

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

/// `C = alpha * op(A) * op(B) + beta * C`, a plain triple loop: each entry
/// of `C` sums its `k` products in order, then takes `alpha` and `beta`.
pub fn gemm<R: Real>(
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
        gemm(C64::one(), &a, Op::None, &id, Op::None, C64::zero(), &mut c);
        assert!(a.max_abs_diff(&c) < 1e-14);
    }

    /// `op(m)` spelled out: the transpose by `from_fn`, the adjoint by
    /// [`Matrix::adjoint`].
    fn explicit<R: Real>(m: &Matrix<R>, op: Op) -> Matrix<R> {
        match op {
            Op::None => m.clone(),
            Op::Trans => Matrix::from_fn(m.cols(), m.rows(), |r, c| m[(c, r)]),
            Op::ConjTrans => m.adjoint(),
        }
    }

    /// `gemm` for all nine `Op` pairs of one `(m, n, k)` problem in
    /// precision `R`, against the product of the explicit operands summed in
    /// the same order: the same bits.
    fn all_ops_match_explicit_operands<R: Real>(
        rng: &mut StdRng,
        (m, n, k): (usize, usize, usize),
    ) {
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let mut mat = |rows, cols| random_matrix(rng, rows, cols).cast::<R>();
        let alpha = Complex::new(R::from_f64(1.1), R::from_f64(0.2));
        let beta = Complex::new(R::from_f64(-0.2), R::from_f64(0.4));
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
                let c0 = mat(m, n);
                let (ea, eb) = (explicit(&a, op_a), explicit(&b, op_b));
                let want = Matrix::from_fn(m, n, |i, j| {
                    let acc = (0..k).fold(Complex::zero(), |acc, p| acc + ea[(i, p)] * eb[(p, j)]);
                    alpha * acc + beta * c0[(i, j)]
                });
                let mut c = c0.clone();
                gemm(alpha, &a, op_a, &b, op_b, beta, &mut c);
                assert_eq!(
                    c,
                    want,
                    "{} ({m},{n},{k}) {op_a:?} {op_b:?}",
                    R::PRECISION_LABEL
                );
            }
        }
    }

    #[test]
    fn all_ops_match_explicit_operands_in_both_precisions() {
        // A generic shape, a long contraction into a small square output
        // (`X^H Y`), a thin-k product (`X V`) and the degenerate vector cases.
        let mut rng = StdRng::seed_from_u64(3);
        for shape in [(33, 41, 29), (4, 4, 512), (96, 8, 8), (1, 7, 1), (6, 1, 5)] {
            all_ops_match_explicit_operands::<f64>(&mut rng, shape);
            all_ops_match_explicit_operands::<f32>(&mut rng, shape);
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
        gemm(
            C64::one(),
            &q,
            Op::None,
            &q,
            Op::ConjTrans,
            C64::zero(),
            &mut p,
        );
        let mut p2 = Matrix::zeros(n, n);
        gemm(C64::one(), &p, Op::None, &p, Op::None, C64::zero(), &mut p2);
        assert!(p.max_abs_diff(&p2) < 1e-13);
        assert!(p.adjoint().max_abs_diff(&p) < 1e-13);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_cfmas(10, 20, 30), 6000);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a: Matrix<f64> = Matrix::zeros(3, 4);
        let b: Matrix<f64> = Matrix::zeros(5, 2);
        let mut c: Matrix<f64> = Matrix::zeros(3, 2);
        gemm(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c);
    }
}
