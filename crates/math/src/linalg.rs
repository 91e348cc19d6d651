//! Vector kernels, Gram–Schmidt orthonormalization, and a complex Hermitian
//! Jacobi eigensolver.
//!
//! These back the QXMD substrate's Rayleigh–Ritz subspace diagonalization
//! (local Kohn–Sham solves per DC domain) and the HOMO/LUMO eigenvalue
//! extraction feeding the scissor shift of paper Eq. (8).

use crate::complex::Complex;
use crate::gemm::Matrix;
use crate::real::Real;

/// Conjugated dot product `sum_i conj(a_i) b_i` — the wavefunction inner
/// product `<a|b>` of paper Eq. (7).
#[inline]
pub fn dotc<R: Real>(a: &[Complex<R>], b: &[Complex<R>]) -> Complex<R> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = Complex::zero();
    for (x, y) in a.iter().zip(b) {
        acc += x.conj() * *y;
    }
    acc
}

/// Euclidean norm `sqrt(<a|a>)`.
#[inline]
pub fn norm<R: Real>(a: &[Complex<R>]) -> R {
    a.iter().map(|z| z.norm_sqr()).sum::<R>().sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<R: Real>(alpha: Complex<R>, x: &[Complex<R>], y: &mut [Complex<R>]) {
    debug_assert_eq!(x.len(), y.len());
    for (xi, yi) in x.iter().zip(y.iter_mut()) {
        *yi += alpha * *xi;
    }
}

/// `x *= alpha` for a real scalar.
#[inline]
pub fn scal<R: Real>(alpha: R, x: &mut [Complex<R>]) {
    for xi in x.iter_mut() {
        *xi = xi.scale(alpha);
    }
}

/// Normalize `x` to unit norm; returns the original norm.
pub fn normalize<R: Real>(x: &mut [Complex<R>]) -> R {
    let n = norm(x);
    if n > R::ZERO {
        scal(R::ONE / n, x);
    }
    n
}

/// Modified Gram–Schmidt on the columns of `m`, in place.
///
/// Columns that collapse below `tol` (linear dependence) are replaced with
/// zero and reported in the returned list of dropped indices.
pub fn gram_schmidt<R: Real>(m: &mut Matrix<R>, tol: R) -> Vec<usize> {
    let cols = m.cols();
    let rows = m.rows();
    let mut dropped = Vec::new();
    for c in 0..cols {
        // Subtract projections on previous columns (two passes of MGS for
        // re-orthogonalization robustness).
        for _ in 0..2 {
            for p in 0..c {
                // Split borrow: copy the previous column head pointer via raw
                // index math on the data slice.
                let (left, right) = m.data_mut().split_at_mut(c * rows);
                let prev = &left[p * rows..(p + 1) * rows];
                let cur = &mut right[..rows];
                let proj = dotc(prev, cur);
                for (pv, cv) in prev.iter().zip(cur.iter_mut()) {
                    *cv -= proj * *pv;
                }
            }
        }
        let cur = m.col_mut(c);
        let n = norm(cur);
        if n < tol {
            for z in cur.iter_mut() {
                *z = Complex::zero();
            }
            dropped.push(c);
        } else {
            scal(R::ONE / n, cur);
        }
    }
    dropped
}

/// Result of a Hermitian eigendecomposition.
#[derive(Clone, Debug)]
pub struct Eigh<R> {
    /// Eigenvalues in ascending order.
    pub values: Vec<R>,
    /// Eigenvectors as the columns of a unitary matrix, matching `values`.
    pub vectors: Matrix<R>,
}

/// Cyclic complex Jacobi eigensolver for a Hermitian matrix.
///
/// Small dense problems only (subspace dimension = number of orbitals per DC
/// domain, at most a few hundred); O(n^3) per sweep with quadratic
/// convergence once nearly diagonal.
pub fn eigh<R: Real>(a: &Matrix<R>) -> Eigh<R> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigh requires a square matrix");
    let mut m = a.clone();
    let mut vectors = Matrix::zeros(n, n);
    let mut values = vec![R::ZERO; n];
    eigh_in_place(n, m.data_mut(), vectors.data_mut(), &mut values);
    Eigh { values, vectors }
}

/// [`eigh`] without allocation, for a caller that solves many small
/// problems: `a` is the column-major `n x n` Hermitian matrix (destroyed),
/// `v` receives the eigenvectors as columns and `values` the eigenvalues,
/// ascending. NaN entries (a poisoned input) propagate into `values`
/// instead of panicking, so the caller's non-finite guards see them.
pub fn eigh_in_place<R: Real>(
    n: usize,
    a: &mut [Complex<R>],
    v: &mut [Complex<R>],
    values: &mut [R],
) {
    assert!(a.len() == n * n && v.len() == n * n && values.len() == n);
    v.fill(Complex::zero());
    for i in 0..n {
        v[i + n * i] = Complex::one();
    }
    let tol = R::EPSILON.sqrt() * R::EPSILON.sqrt(); // eps^1 for off-norm ratio
    for _sweep in 0..60 {
        let (mut off, mut dia) = (R::ZERO, R::ZERO);
        for (idx, z) in a.iter().enumerate() {
            if idx % (n + 1) == 0 {
                dia += z.norm_sqr();
            } else {
                off += z.norm_sqr();
            }
        }
        if off.sqrt() / dia.sqrt().max(R::EPSILON) < tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                jacobi_rotate(n, a, v, p, q);
            }
        }
    }
    // Stable insertion sort of the eigenpairs by value; a NaN never
    // compares greater, so it stays where it is.
    for i in 0..n {
        values[i] = a[i + n * i].re;
        let mut j = i;
        while j > 0 && values[j - 1] > values[j] {
            values.swap(j - 1, j);
            let (lo, hi) = v.split_at_mut(n * j);
            lo[n * (j - 1)..].swap_with_slice(&mut hi[..n]);
            j -= 1;
        }
    }
}

/// One complex Jacobi rotation annihilating `m[(p, q)]` of the column-major
/// `n x n` matrix `m`, accumulating the rotation into `v`.
fn jacobi_rotate<R: Real>(
    n: usize,
    m: &mut [Complex<R>],
    v: &mut [Complex<R>],
    p: usize,
    q: usize,
) {
    let apq = m[p + n * q];
    let mag = apq.abs();
    if mag <= R::EPSILON {
        return;
    }
    let phase = apq.scale(R::ONE / mag); // e^{i phi}
    let app = m[p + n * p].re;
    let aqq = m[q + n * q].re;
    let tau = (aqq - app) / (R::TWO * mag);
    let tt = R::ONE / (tau.abs() + (R::ONE + tau * tau).sqrt());
    let t = if tau < R::ZERO { -tt } else { tt };
    let c = R::ONE / (R::ONE + t * t).sqrt();
    let s = t * c;
    // Rotation columns: |p'> = c|p> - s e^{-i phi} |q>, |q'> = s e^{i phi}|p> + c|q>.
    let upq = phase.scale(s);
    let uqp = -(phase.conj().scale(s));
    // A <- U^dagger A U: first A <- A U (columns p and q) ...
    for r in 0..n {
        let arp = m[r + n * p];
        let arq = m[r + n * q];
        m[r + n * p] = arp.scale(c) + arq * uqp;
        m[r + n * q] = arp * upq + arq.scale(c);
    }
    // ... then A <- U^dagger A (rows p and q): the 2x2 block is computed,
    // the rest of the two rows is the adjoint of the columns just made.
    for col in [p, q] {
        let apc = m[p + n * col];
        let aqc = m[q + n * col];
        m[p + n * col] = apc.scale(c) + uqp.conj() * aqc;
        m[q + n * col] = upq.conj() * apc + aqc.scale(c);
    }
    for col in (0..n).filter(|&col| col != p && col != q) {
        m[p + n * col] = m[col + n * p].conj();
        m[q + n * col] = m[col + n * q].conj();
    }
    // Clean the annihilated pair against roundoff drift.
    let hermitized = (m[p + n * q] + m[q + n * p].conj()).scale(R::HALF);
    m[p + n * q] = hermitized;
    m[q + n * p] = hermitized.conj();
    // V <- V U.
    for r in 0..n {
        let vrp = v[r + n * p];
        let vrq = v[r + n * q];
        v[r + n * p] = vrp.scale(c) + vrq * uqp;
        v[r + n * q] = vrp * upq + vrq.scale(c);
    }
}

/// In-place Cholesky factorisation `A = L L^H` of the column-major `n x n`
/// Hermitian matrix `a` (its lower triangle is read and overwritten by `L`;
/// the strict upper triangle is left alone). Returns `false`, with `a` in
/// an unspecified state, when a pivot is not positive and finite: the
/// matrix is not numerically positive definite, or holds a NaN.
pub fn cholesky<R: Real>(n: usize, a: &mut [Complex<R>]) -> bool {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j + n * j].re;
        for k in 0..j {
            d -= a[j + n * k].norm_sqr();
        }
        if !(d > R::ZERO && d.is_finite()) {
            return false;
        }
        let d = d.sqrt();
        a[j + n * j] = Complex::from_real(d);
        for i in j + 1..n {
            let mut acc = a[i + n * j];
            for k in 0..j {
                acc -= a[i + n * k] * a[j + n * k].conj();
            }
            a[i + n * j] = acc.scale(R::ONE / d);
        }
    }
    true
}

/// `w <- w L^{-T}` for every length-`n` row `w` of `rows` (a point-major
/// block), `l` being a [`cholesky`] factor: with `l` from the Gram matrix
/// `sum_p w_p[i] conj(w_p[j])` of the rows, the columns come out orthonormal.
pub fn solve_rows_lower_transposed<R: Real>(n: usize, l: &[Complex<R>], rows: &mut [Complex<R>]) {
    assert_eq!(l.len(), n * n);
    for w in rows.chunks_exact_mut(n.max(1)) {
        for j in 0..n {
            let mut acc = w[j];
            for c in 0..j {
                acc -= w[c] * l[j + n * c];
            }
            w[j] = acc.scale(R::ONE / l[j + n * j].re);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, Op};
    use crate::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_hermitian(rng: &mut StdRng, n: usize) -> Matrix<f64> {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = C64::from_real(rng.gen_range(-2.0..2.0));
            for j in i + 1..n {
                let z = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                a[(i, j)] = z;
                a[(j, i)] = z.conj();
            }
        }
        a
    }

    #[test]
    fn dotc_conjugate_symmetry() {
        let a = vec![C64::new(1.0, 2.0), C64::new(-0.5, 0.3)];
        let b = vec![C64::new(0.7, -0.2), C64::new(1.1, 0.9)];
        let ab = dotc(&a, &b);
        let ba = dotc(&b, &a);
        assert!((ab - ba.conj()).abs() < 1e-15);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = vec![C64::new(3.0, 0.0), C64::new(0.0, 4.0)];
        let n0 = normalize(&mut v);
        assert!((n0 - 5.0).abs() < 1e-15);
        assert!((norm(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let mut rng = StdRng::seed_from_u64(41);
        let (rows, cols) = (20, 6);
        let mut m = Matrix::from_fn(rows, cols, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let dropped = gram_schmidt(&mut m, 1e-12);
        assert!(dropped.is_empty());
        for i in 0..cols {
            for j in 0..cols {
                let d = dotc(m.col(i), m.col(j));
                let want = if i == j { C64::one() } else { C64::zero() };
                assert!((d - want).abs() < 1e-12, "({i},{j}) -> {d}");
            }
        }
    }

    #[test]
    fn gram_schmidt_drops_dependent_column() {
        let rows = 8;
        let mut m = Matrix::zeros(rows, 3);
        for r in 0..rows {
            m[(r, 0)] = C64::from_real(1.0);
            m[(r, 1)] = C64::from_real(2.0); // parallel to column 0
            m[(r, 2)] = C64::from_real(r as f64);
        }
        let dropped = gram_schmidt(&mut m, 1e-10);
        assert_eq!(dropped, vec![1]);
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let mut a: Matrix<f64> = Matrix::zeros(3, 3);
        a[(0, 0)] = C64::from_real(3.0);
        a[(1, 1)] = C64::from_real(-1.0);
        a[(2, 2)] = C64::from_real(2.0);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[0, i], [-i, 0]] = sigma_y: eigenvalues +-1.
        let mut a: Matrix<f64> = Matrix::zeros(2, 2);
        a[(0, 1)] = C64::i();
        a[(1, 0)] = -C64::i();
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 5, 10, 24] {
            let a = random_hermitian(&mut rng, n);
            let e = eigh(&a);
            // A V = V Lambda
            let mut av = Matrix::zeros(n, n);
            gemm_naive(
                C64::one(),
                &a,
                Op::None,
                &e.vectors,
                Op::None,
                C64::zero(),
                &mut av,
            );
            let mut vl = e.vectors.clone();
            for c in 0..n {
                for r in 0..n {
                    vl[(r, c)] = vl[(r, c)].scale(e.values[c]);
                }
            }
            assert!(
                av.max_abs_diff(&vl) < 1e-9,
                "n={n} diff={}",
                av.max_abs_diff(&vl)
            );
        }
    }

    #[test]
    fn eigh_vectors_unitary() {
        let mut rng = StdRng::seed_from_u64(43);
        let n = 12;
        let a = random_hermitian(&mut rng, n);
        let e = eigh(&a);
        let mut vtv = Matrix::zeros(n, n);
        gemm_naive(
            C64::one(),
            &e.vectors,
            Op::ConjTrans,
            &e.vectors,
            Op::None,
            C64::zero(),
            &mut vtv,
        );
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-10);
    }

    #[test]
    fn eigh_eigenvalues_sorted_and_real_trace_preserved() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 9;
        let a = random_hermitian(&mut rng, n);
        let tr: f64 = (0..n).map(|i| a[(i, i)].re).sum();
        let e = eigh(&a);
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let sum: f64 = e.values.iter().sum();
        assert!((sum - tr).abs() < 1e-9);
    }

    #[test]
    fn eigh_of_a_poisoned_matrix_returns_nan_values_without_unwinding() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut a = random_hermitian(&mut rng, 6);
        a[(2, 3)] = C64::new(f64::NAN, 0.0);
        a[(3, 2)] = C64::new(f64::NAN, 0.0);
        assert!(eigh(&a).values.iter().any(|v| v.is_nan()));
    }

    #[test]
    fn cholesky_factors_a_gram_matrix_and_the_row_solve_orthonormalises() {
        let mut rng = StdRng::seed_from_u64(46);
        let (npts, n) = (40, 5);
        // Point-major block: row p holds the n column values of point p.
        let mut rows: Vec<C64> = (0..npts * n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let gram = |rows: &[C64]| {
            Matrix::from_fn(n, n, |i, j| {
                rows.chunks_exact(n)
                    .fold(C64::zero(), |acc, w| acc + w[i] * w[j].conj())
            })
        };
        let g = gram(&rows);
        let mut l = g.clone();
        assert!(cholesky(n, l.data_mut()));
        // L L^H reproduces the matrix from the lower triangle alone.
        for i in 0..n {
            for j in 0..=i {
                let llh = (0..=j).fold(C64::zero(), |acc, k| acc + l[(i, k)] * l[(j, k)].conj());
                assert!((llh - g[(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
        solve_rows_lower_transposed(n, l.data(), &mut rows);
        assert!(gram(&rows).max_abs_diff(&Matrix::identity(n)) < 1e-12);
    }

    #[test]
    fn cholesky_refuses_what_is_not_positive_definite() {
        let mut indefinite: Matrix<f64> = Matrix::identity(3);
        indefinite[(2, 2)] = C64::from_real(-1.0);
        assert!(!cholesky(3, indefinite.data_mut()));
        let mut dependent = Matrix::from_fn(2, 2, |_, _| C64::one());
        assert!(!cholesky(2, dependent.data_mut()));
        let mut poisoned: Matrix<f64> = Matrix::identity(2);
        poisoned[(1, 1)] = C64::from_real(f64::NAN);
        assert!(!cholesky(2, poisoned.data_mut()));
        assert!(cholesky::<f64>(0, &mut []));
    }

    #[test]
    fn axpy_and_scal() {
        let x = vec![C64::one(), C64::i()];
        let mut y = vec![C64::zero(), C64::one()];
        axpy(C64::new(2.0, 0.0), &x, &mut y);
        assert_eq!(y[0], C64::new(2.0, 0.0));
        assert_eq!(y[1], C64::new(1.0, 2.0));
        scal(0.5, &mut y);
        assert_eq!(y[0], C64::new(1.0, 0.0));
    }
}
