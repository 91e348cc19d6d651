//! Vector kernels, Gram–Schmidt orthonormalization, and the dense pieces of
//! the set-up eigensolver: a real symmetric Jacobi solver, Cholesky and the
//! inverse of its factor that orthonormalises a block.
//!
//! These back the QXMD substrate's Rayleigh–Ritz subspace diagonalization
//! (local Kohn–Sham solves per DC domain, whose Hamiltonian is real
//! symmetric) and the HOMO/LUMO eigenvalue extraction feeding the scissor
//! shift of paper Eq. (8). The complex Hermitian Jacobi solver is [`eigh`],
//! the tests' dense oracle.

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

/// Modified Gram–Schmidt on the real columns of `m` (column-major, `rows`
/// reals to a column), in place, with the projections taken twice per
/// column for robustness.
///
/// A column left with at most `tol` of the norm it started with (linear
/// dependence) is replaced with zeros and reported in the returned list of
/// dropped indices.
pub fn gram_schmidt<R: Real>(m: &mut [R], rows: usize, tol: R) -> Vec<usize> {
    let dot = |a: &[R], b: &[R]| a.iter().zip(b).fold(R::ZERO, |s, (x, y)| s + *x * *y);
    let mut dropped = Vec::new();
    for c in 0..m.len() / rows.max(1) {
        let (done, rest) = m.split_at_mut(c * rows);
        let cur = &mut rest[..rows];
        let before = dot(cur, cur).sqrt();
        for _ in 0..2 {
            for prev in done.chunks_exact(rows) {
                let proj = dot(prev, cur);
                for (pv, cv) in prev.iter().zip(cur.iter_mut()) {
                    *cv -= proj * *pv;
                }
            }
        }
        let n = dot(cur, cur).sqrt();
        if n <= tol * before {
            cur.fill(R::ZERO);
            dropped.push(c);
        } else {
            let inv = R::ONE / n;
            cur.iter_mut().for_each(|x| *x *= inv);
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

/// Cyclic complex Jacobi eigensolver for a Hermitian matrix: the dense
/// oracle the tests hold the real-symmetric solvers to, and nothing's hot
/// path. NaN entries propagate into `values` instead of panicking.
pub fn eigh<R: Real>(a: &Matrix<R>) -> Eigh<R> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigh requires a square matrix");
    let mut m = a.clone();
    let mut vectors = Matrix::identity(n);
    let mut values = vec![R::ZERO; n];
    jacobi_sweeps(
        n,
        (m.data_mut(), vectors.data_mut(), &mut values),
        |z| (z.re, z.norm_sqr()),
        jacobi_rotate,
    );
    Eigh { values, vectors }
}

/// Cyclic Jacobi eigensolver for a real symmetric matrix, without
/// allocation, for a caller that solves many small problems (the subspace
/// problem of the set-up eigensolver, at most a few dozen wide): `a` is the
/// `n x n` matrix (destroyed), `v` receives the eigenvectors as columns and
/// `values` the eigenvalues, ascending. NaN entries (a poisoned input)
/// propagate into `values` instead of panicking, so the caller's non-finite
/// guards see them.
pub fn eigh_in_place<R: Real>(n: usize, a: &mut [R], v: &mut [R], values: &mut [R]) {
    v.fill(R::ZERO);
    v.iter_mut().step_by(n + 1).for_each(|d| *d = R::ONE);
    jacobi_sweeps(n, (a, v, values), |x| (x, x * x), jacobi_rotate_real);
}

/// The driver of both Jacobi solvers: sweeps of `rotate` over every pair
/// `p < q` of the column-major `n x n` matrix `a`, accumulated into `v`
/// (the identity on entry), until the off-diagonal norm is `eps` of the
/// diagonal's — O(n^3) per sweep, quadratic convergence once nearly
/// diagonal — then the eigenpairs sorted ascending. `parts` is `(Re z, |z|^2)`.
fn jacobi_sweeps<R: Real, T: Copy>(
    n: usize,
    (a, v, values): (&mut [T], &mut [T], &mut [R]),
    parts: impl Fn(T) -> (R, R),
    rotate: impl Fn(usize, &mut [T], &mut [T], usize, usize),
) {
    assert!(a.len() == n * n && v.len() == n * n && values.len() == n);
    let tol = R::EPSILON.sqrt() * R::EPSILON.sqrt(); // eps^1 for off-norm ratio
    for _sweep in 0..60 {
        let (mut off, mut dia) = (R::ZERO, R::ZERO);
        for (idx, z) in a.iter().enumerate() {
            if idx % (n + 1) == 0 {
                dia += parts(*z).1;
            } else {
                off += parts(*z).1;
            }
        }
        if off.sqrt() / dia.sqrt().max(R::EPSILON) < tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                rotate(n, a, v, p, q);
            }
        }
    }
    // Stable insertion sort of the eigenpairs by value; a NaN never
    // compares greater, so it stays where it is.
    for i in 0..n {
        values[i] = parts(a[i + n * i]).0;
        let mut j = i;
        while j > 0 && values[j - 1] > values[j] {
            values.swap(j - 1, j);
            let (lo, hi) = v.split_at_mut(n * j);
            lo[n * (j - 1)..].swap_with_slice(&mut hi[..n]);
            j -= 1;
        }
    }
}

/// The Jacobi angle annihilating the pair `(p, q)` of a matrix with diagonal
/// entries `app`, `aqq` and `|a_pq| = mag`: `(t, c, s)`, tangent, cosine, sine.
fn jacobi_angle<R: Real>(app: R, aqq: R, mag: R) -> (R, R, R) {
    let tau = (aqq - app) / (R::TWO * mag);
    let tt = R::ONE / (tau.abs() + (R::ONE + tau * tau).sqrt());
    let t = if tau < R::ZERO { -tt } else { tt };
    let c = R::ONE / (R::ONE + t * t).sqrt();
    (t, c, t * c)
}

/// One real Jacobi rotation annihilating `m[(p, q)]` of the column-major
/// symmetric `n x n` matrix `m`, accumulating the rotation into `v`.
fn jacobi_rotate_real<R: Real>(n: usize, m: &mut [R], v: &mut [R], p: usize, q: usize) {
    let (app, aqq, apq) = (m[p + n * p], m[q + n * q], m[p + n * q]);
    if apq.abs() <= R::EPSILON {
        return;
    }
    let (t, c, s) = jacobi_angle(app, aqq, apq);
    // Columns p and q (p < q) of x: |p'> = c|p> - s|q>, |q'> = s|p> + c|q>.
    let rotate_columns = |x: &mut [R]| {
        let (lo, hi) = x.split_at_mut(n * q);
        for (xp, xq) in lo[n * p..n * (p + 1)].iter_mut().zip(&mut hi[..n]) {
            (*xp, *xq) = (c * *xp - s * *xq, s * *xp + c * *xq);
        }
    };
    // A <- U^T A U: the columns, then rows p and q as their transposes,
    // then the 2x2 block in closed form with the pair exactly zero.
    rotate_columns(m);
    for col in 0..n {
        m[p + n * col] = m[col + n * p];
        m[q + n * col] = m[col + n * q];
    }
    m[p + n * p] = app - t * apq;
    m[q + n * q] = aqq + t * apq;
    m[p + n * q] = R::ZERO;
    m[q + n * p] = R::ZERO;
    rotate_columns(v);
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
    let (_, c, s) = jacobi_angle(m[p + n * p].re, m[q + n * q].re, mag);
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

/// In-place Cholesky factorisation `A = L L^T` of the `n x n` symmetric
/// matrix `a` (`a[j + n * k]`, `k <= j`, is read and overwritten by `L`;
/// the other triangle is left alone). Returns `false`, with `a` in an
/// unspecified state, when a pivot is not positive and finite: the matrix
/// is not numerically positive definite, or holds a NaN.
pub fn cholesky<R: Real>(n: usize, a: &mut [R]) -> bool {
    assert_eq!(a.len(), n * n);
    for j in 0..n {
        let mut d = a[j + n * j];
        for k in 0..j {
            d -= a[j + n * k] * a[j + n * k];
        }
        if !(d > R::ZERO && d.is_finite()) {
            return false;
        }
        let d = d.sqrt();
        a[j + n * j] = d;
        for i in j + 1..n {
            let mut acc = a[i + n * j];
            for k in 0..j {
                acc -= a[i + n * k] * a[j + n * k];
            }
            a[i + n * j] = acc / d;
        }
    }
    true
}

/// Invert a [`cholesky`] factor in place: `a` becomes `L^{-1}`, lower
/// triangular with its strict upper triangle zeroed. Read row-major it is
/// `L^{-T}`, the update coefficients that orthonormalise the rows `w` of a
/// point-major block whose Gram matrix `sum_p w_p[i] w_p[j]` was factored.
pub fn invert_lower<R: Real>(n: usize, a: &mut [R]) {
    assert_eq!(a.len(), n * n);
    // Column j of L^{-1} from the top down: entry i reads row i of L in
    // columns j..i, where only column j has been overwritten yet.
    for j in 0..n {
        a[n * j..n * j + j].fill(R::ZERO);
        a[j + n * j] = R::ONE / a[j + n * j];
        for i in j + 1..n {
            let mut acc = a[i + n * j] * a[j + n * j];
            for k in j + 1..i {
                acc += a[i + n * k] * a[k + n * j];
            }
            a[i + n * j] = -acc / a[i + n * i];
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
        let mut m: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let dropped = gram_schmidt(&mut m, rows, 1e-12);
        assert!(dropped.is_empty());
        for (i, a) in m.chunks_exact(rows).enumerate() {
            for (j, b) in m.chunks_exact(rows).enumerate() {
                let d: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d - want).abs() < 1e-12, "({i},{j}) -> {d}");
            }
        }
    }

    #[test]
    fn gram_schmidt_drops_dependent_column() {
        let rows = 8;
        let mut m = vec![0.0; 3 * rows];
        for r in 0..rows {
            m[r] = 1.0;
            m[rows + r] = 2.0; // parallel to column 0
            m[2 * rows + r] = r as f64;
        }
        let dropped = gram_schmidt(&mut m, rows, 1e-10);
        assert_eq!(dropped, vec![1]);
        assert!(m[rows..2 * rows].iter().all(|&x| x == 0.0));
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
    fn eigh_in_place_of_a_symmetric_matrix_agrees_with_the_hermitian_oracle() {
        let mut rng = StdRng::seed_from_u64(47);
        for n in [1usize, 2, 7, 24] {
            // The real part of a Hermitian matrix is symmetric.
            let sym: Vec<f64> = (random_hermitian(&mut rng, n).data().iter())
                .map(|z| z.re)
                .collect();
            let oracle = eigh(&Matrix::from_vec(
                n,
                n,
                sym.iter().map(|&x| C64::from_real(x)).collect(),
            ));
            let (mut a, mut v, mut values) = (sym.clone(), vec![0.0; n * n], vec![0.0; n]);
            eigh_in_place(n, &mut a, &mut v, &mut values);
            for (k, (got, want)) in values.iter().zip(&oracle.values).enumerate() {
                assert!((got - want).abs() < 1e-12, "n={n} value {k}");
                // A v_k = lambda_k v_k, and V is orthogonal.
                let vk = &v[n * k..n * (k + 1)];
                for i in 0..n {
                    let av: f64 = (0..n).map(|j| sym[i + n * j] * vk[j]).sum();
                    assert!((av - got * vk[i]).abs() < 1e-10, "n={n} pair {k}");
                }
                for (j, vj) in v.chunks_exact(n).enumerate() {
                    let dot: f64 = vk.iter().zip(vj).map(|(x, y)| x * y).sum();
                    assert!((dot - f64::from(u8::from(j == k))).abs() < 1e-12);
                }
            }
        }
        // A poisoned matrix yields NaN values, not an unwind.
        let (mut a, mut v, mut values) = (
            vec![1.0, f64::NAN, f64::NAN, 2.0],
            vec![0.0; 4],
            vec![0.0; 2],
        );
        eigh_in_place(2, &mut a, &mut v, &mut values);
        assert!(values.iter().any(|x| x.is_nan()));
    }

    #[test]
    fn cholesky_factors_a_gram_matrix_and_its_inverse_orthonormalises() {
        let mut rng = StdRng::seed_from_u64(46);
        let (npts, n) = (40, 5);
        // Point-major block: row p holds the n column values of point p.
        let mut rows: Vec<f64> = (0..npts * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gram = |rows: &[f64]| -> Vec<f64> {
            let entry = |i, j| rows.chunks_exact(n).map(|w| w[i] * w[j]).sum();
            (0..n * n).map(|at| entry(at % n, at / n)).collect()
        };
        let g = gram(&rows);
        let mut l = g.clone();
        assert!(cholesky(n, &mut l));
        // L L^T reproduces the matrix from the lower triangle alone.
        for i in 0..n {
            for j in 0..=i {
                let llt: f64 = (0..=j).map(|k| l[i + n * k] * l[j + n * k]).sum();
                assert!((llt - g[i + n * j]).abs() < 1e-12, "({i},{j})");
            }
        }
        invert_lower(n, &mut l);
        // Read row-major, the inverse is L^{-T}: rows <- rows L^{-T}.
        for w in rows.chunks_exact_mut(n) {
            let old = w.to_vec();
            for (j, z) in w.iter_mut().enumerate() {
                *z = (0..n).map(|k| old[k] * l[k * n + j]).sum();
            }
        }
        for (at, got) in gram(&rows).iter().enumerate() {
            let want = f64::from(u8::from(at % n == at / n));
            assert!((got - want).abs() < 1e-12, "entry {at}");
        }
    }

    #[test]
    fn cholesky_refuses_what_is_not_positive_definite() {
        assert!(!cholesky(
            3,
            &mut [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]
        ));
        assert!(!cholesky(2, &mut [1.0; 4]), "dependent");
        assert!(!cholesky(2, &mut [1.0, 0.0, 0.0, f64::NAN]), "poisoned");
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
