//! Vector kernels, Gram–Schmidt orthonormalization, and the dense pieces of
//! the set-up eigensolver: a real symmetric eigensolver (Householder
//! tridiagonalisation and implicit QL), Cholesky and the inverse of its
//! factor that orthonormalises a block.
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

/// `x *= alpha` for a real scalar.
#[inline]
pub fn scal<R: Real>(alpha: R, x: &mut [Complex<R>]) {
    for xi in x.iter_mut() {
        *xi = xi.scale(alpha);
    }
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
/// oracle the tests hold the real symmetric solver to, and nothing's hot
/// path. Sweeps over every pair `p < q` until the off-diagonal norm is `eps`
/// of the diagonal's. NaN entries propagate into `values` instead of
/// panicking.
pub fn eigh<R: Real>(a: &Matrix<R>) -> Eigh<R> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigh requires a square matrix");
    let mut m = a.clone();
    let mut vectors = Matrix::identity(n);
    let tol = R::EPSILON.sqrt() * R::EPSILON.sqrt();
    for _sweep in 0..60 {
        let (mut off, mut dia) = (R::ZERO, R::ZERO);
        for (idx, z) in m.data().iter().enumerate() {
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
                jacobi_rotate(n, m.data_mut(), vectors.data_mut(), p, q);
            }
        }
    }
    let mut values: Vec<R> = (0..n).map(|i| m.data()[i + n * i].re).collect();
    sort_ascending(n, &mut values, vectors.data_mut());
    Eigh { values, vectors }
}

/// Eigendecomposition of a real symmetric matrix without allocation, for a
/// caller that solves many small problems (the subspace problem of the
/// set-up eigensolver, at most a few dozen wide): `a` is the column-major
/// `n x n` matrix (destroyed), `v` receives the eigenvectors as columns and
/// `values` the eigenvalues, ascending. Householder tridiagonalisation, then
/// implicit QL; `a` is the QL's scratch. NaN entries (a poisoned input) come
/// out as NaN values, not as a panic or an endless iteration, so the
/// caller's non-finite guards see them.
pub fn eigh_in_place<R: Real>(n: usize, a: &mut [R], v: &mut [R], values: &mut [R]) {
    assert!(a.len() == n * n && v.len() == n * n && values.len() == n);
    tridiagonalise(n, a, values);
    // Q = H_0 H_1 ... from the last reflector back: H_k acts on rows k+1..
    // and leaves the columns of the product so far before k+1 alone.
    v.fill(R::ZERO);
    v.iter_mut().step_by(n + 1).for_each(|d| *d = R::ONE);
    for k in (0..n.saturating_sub(2)).rev() {
        let u = &a[k + 1 + n * k..n * (k + 1)];
        for col in v[n * (k + 1)..].chunks_exact_mut(n) {
            let t: R = u.iter().zip(&col[k + 1..]).map(|(x, y)| *x * *y).sum();
            for (c, x) in col[k + 1..].iter_mut().zip(u) {
                *c -= t * *x;
            }
        }
    }
    // The diagonal into `values`, the off-diagonal into a's first column
    // (which held d_0 and H_0, both read by now).
    for k in 0..n {
        values[k] = a[k + n * k];
        a[k] = if k + 1 < n {
            a[k + n * (k + 1)]
        } else {
            R::ZERO
        };
    }
    tridiagonal_ql(n, values, &mut a[..n], v);
    // Each vector's largest component positive (the reflectors' signs are
    // arbitrary): a nearly diagonal matrix, the Rayleigh–Ritz problem of a
    // converged block, keeps its columns as they were.
    for col in v.chunks_exact_mut(n.max(1)) {
        let big = col
            .iter()
            .fold(R::ZERO, |b, x| if x.abs() > b.abs() { *x } else { b });
        if big < R::ZERO {
            col.iter_mut().for_each(|x| *x = -*x);
        }
    }
    sort_ascending(n, values, v);
}

/// Householder reduction of the column-major symmetric `n x n` matrix `a`
/// to tridiagonal form, `a = Q T Q^T` with `Q = H_0 H_1 ...`: the diagonal
/// of `T` is left on a's, its off-diagonal just above it, and the reflector
/// `H_k = I - u u^T` (`u^T u = 2`) below the diagonal of column `k`. `w`
/// (at least `n` long) is scratch.
fn tridiagonalise<R: Real>(n: usize, a: &mut [R], w: &mut [R]) {
    for k in 0..n.saturating_sub(2) {
        // x = column k below the diagonal; H_k x = alpha e_1, alpha of the
        // opposite sign to x_0 so that u = x - alpha e_1 cancels nothing.
        let (head, trailing) = a.split_at_mut(n * (k + 1));
        let u = &mut head[k + 1 + n * k..];
        let norm = u.iter().map(|x| *x * *x).sum::<R>().sqrt();
        let alpha = if u[0] < R::ZERO { norm } else { -norm };
        let scale = (norm * (norm + u[0].abs())).sqrt();
        u[0] -= alpha;
        if scale > R::ZERO {
            u.iter_mut().for_each(|x| *x /= scale);
        }
        trailing[k] = alpha;
        // A <- H A H on the trailing block: p = A u, w = p - (u^T p / 2) u,
        // A <- A - u w^T - w u^T.
        let w = &mut w[k + 1..n];
        w.fill(R::ZERO);
        for (col, &uj) in trailing.chunks_exact(n).zip(&*u) {
            for (wi, aij) in w.iter_mut().zip(&col[k + 1..]) {
                *wi += *aij * uj;
            }
        }
        let half: R = R::HALF * u.iter().zip(&*w).map(|(x, y)| *x * *y).sum::<R>();
        for (wi, ui) in w.iter_mut().zip(&*u) {
            *wi -= half * *ui;
        }
        for ((col, &uj), &wj) in trailing.chunks_exact_mut(n).zip(&*u).zip(&*w) {
            for ((aij, ui), wi) in col[k + 1..].iter_mut().zip(&*u).zip(&*w) {
                *aij -= *ui * wj + *wi * uj;
            }
        }
    }
}

/// Implicit QL with Wilkinson shifts on the symmetric tridiagonal matrix of
/// diagonal `d` and off-diagonal `e` (`e[i]` couples `i` and `i + 1`; both
/// destroyed, `d` left holding the eigenvalues), each plane rotation also
/// applied to two adjacent columns of `v` (contiguous, column-major). An
/// eigenvalue not converged after 30 iterations (only a NaN makes one) sets
/// every value to NaN.
fn tridiagonal_ql<R: Real>(n: usize, d: &mut [R], e: &mut [R], v: &mut [R]) {
    for l in 0..n {
        let mut iterations = 0;
        'split: loop {
            let small = |m: usize| e[m].abs() <= R::EPSILON * (d[m].abs() + d[m + 1].abs());
            let m = (l..n).find(|&m| m + 1 == n || small(m)).unwrap_or(l);
            if m == l {
                break;
            }
            if iterations == 30 {
                d.fill(R::from_f64(f64::NAN));
                return;
            }
            iterations += 1;
            let g = (d[l + 1] - d[l]) / (R::TWO * e[l]);
            let r = (g * g + R::ONE).sqrt();
            let mut g = d[m] - d[l] + e[l] / (g + if g < R::ZERO { -r } else { r });
            let (mut s, mut c, mut p) = (R::ONE, R::ONE, R::ZERO);
            for i in (l..m).rev() {
                let (f, b) = (s * e[i], c * e[i]);
                let r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == R::ZERO {
                    // Underflow: the matrix split here; start over.
                    d[i + 1] -= p;
                    e[m] = R::ZERO;
                    continue 'split;
                }
                (s, c) = (f / r, g / r);
                g = d[i + 1] - p;
                let r = (d[i] - g) * s + R::TWO * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let (lo, hi) = v.split_at_mut(n * (i + 1));
                for (vi, vj) in lo[n * i..].iter_mut().zip(&mut hi[..n]) {
                    (*vi, *vj) = (c * *vi - s * *vj, s * *vi + c * *vj);
                }
            }
            d[l] -= p;
            e[l] = g;
            e[m] = R::ZERO;
        }
    }
}

/// Stable insertion sort of the eigenpairs (`values`, the `n`-long columns
/// of `v`) by value; a NaN never compares greater, so it stays where it is.
fn sort_ascending<R: Real, T>(n: usize, values: &mut [R], v: &mut [T]) {
    for i in 1..values.len() {
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
    let tau = (m[q + n * q].re - m[p + n * p].re) / (R::TWO * mag);
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
    use crate::gemm::{gemm, Op};
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
            gemm(
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
        gemm(
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

    /// One symmetric `n x n` matrix of each kind the set-up solve meets:
    /// dense, diagonal, levels in exact threes turned by an orthogonal `Q`,
    /// and its own shape, a diagonal `X` block bordered by dense `W`, `P`.
    fn symmetric_cases(rng: &mut StdRng, n: usize) -> [Vec<f64>; 4] {
        // The real part of a Hermitian matrix is symmetric.
        let dense: Vec<f64> = (random_hermitian(rng, n).data().iter())
            .map(|z| z.re)
            .collect();
        let on_diagonal = |at: usize, x: f64| if at.is_multiple_of(n + 1) { x } else { 0.0 };
        let diagonal = (0..n * n)
            .map(|at| on_diagonal(at, (at % 5) as f64 - 2.0))
            .collect();
        let mut q: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(gram_schmidt(&mut q, n, 1e-12).is_empty());
        let level = |k: usize| (k / 3) as f64 - 1.0;
        let degenerate = (0..n * n)
            .map(|at| {
                (0..n)
                    .map(|k| q[at % n + n * k] * level(k) * q[at / n + n * k])
                    .sum()
            })
            .collect();
        let mut bordered = dense.clone();
        for (i, j) in (0..n / 3).flat_map(|i| (0..n / 3).map(move |j| (i, j))) {
            bordered[i + n * j] = on_diagonal(i + n * j, bordered[i + n * j]);
        }
        [dense, diagonal, degenerate, bordered]
    }

    #[test]
    fn eigh_in_place_of_a_symmetric_matrix_agrees_with_the_hermitian_oracle() {
        let mut rng = StdRng::seed_from_u64(47);
        for n in [0usize, 1, 2, 3, 7, 12, 24, 47, 48] {
            for (case, sym) in symmetric_cases(&mut rng, n).iter().enumerate() {
                let oracle = eigh(&Matrix::from_vec(
                    n,
                    n,
                    sym.iter().map(|&x| C64::from_real(x)).collect(),
                ));
                let (mut a, mut v, mut values) = (sym.clone(), vec![0.0; n * n], vec![0.0; n]);
                eigh_in_place(n, &mut a, &mut v, &mut values);
                let what = format!("n={n} case {case}");
                assert!(values.windows(2).all(|w| w[0] <= w[1]), "{what}");
                for (k, (got, want)) in values.iter().zip(&oracle.values).enumerate() {
                    assert!((got - want).abs() < 1e-12, "{what}: value {k}");
                    // A v_k = lambda_k v_k, and V is orthogonal.
                    let vk = &v[n * k..n * (k + 1)];
                    for i in 0..n {
                        let av: f64 = (0..n).map(|j| sym[i + n * j] * vk[j]).sum();
                        assert!((av - got * vk[i]).abs() < 1e-10, "{what}: pair {k}");
                    }
                    for (j, vj) in v.chunks_exact(n).enumerate() {
                        let dot: f64 = vk.iter().zip(vj).map(|(x, y)| x * y).sum();
                        let want = f64::from(u8::from(j == k));
                        assert!((dot - want).abs() < 1e-12, "{what}: ({j},{k})");
                    }
                }
            }
        }
        // A poisoned matrix, off the diagonal (both triangles) or on it,
        // yields NaN values within the iteration cap, not an unwind or a hang.
        for poisoned in [[1, 6], [21, 21]] {
            let mut a = symmetric_cases(&mut rng, 6)[0].clone();
            poisoned.iter().for_each(|&at| a[at] = f64::NAN);
            let (mut v, mut values) = (vec![0.0; 36], vec![0.0; 6]);
            eigh_in_place(6, &mut a, &mut v, &mut values);
            assert!(values.iter().any(|x| x.is_nan()), "{values:?}");
        }
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
    fn scal_scales_both_parts() {
        let mut y = vec![C64::new(2.0, 0.0), C64::new(1.0, 2.0)];
        scal(0.5, &mut y);
        assert_eq!(y, [C64::new(1.0, 0.0), C64::new(0.5, 1.0)]);
    }
}
