//! Property tests: the SIMD (AVX2 split-complex) kernels must agree with
//! the scalar reference within tight accumulation-order bounds, across odd
//! shapes, remainder lanes, and every `Op` transpose case — and the forced
//! scalar backend must be *bitwise* identical to the serial reference.
//!
//! Tolerance model: complex FMA kernels and the scalar loops evaluate the
//! same sums in different association orders, so each output entry may
//! differ by a few ulps per accumulated term. We bound the difference by
//! `64 * EPS * (k + 4) * scale` where `k` is the contraction depth and
//! `scale` the magnitude of the entries involved — a bound a couple of
//! orders above the observed differences but far below any algorithmic
//! error.

use dcmesh_math::gemm::{
    gemm_blocked, gemm_colmajor_with_backend, gemm_naive, gemm_with_backend, Matrix, Op,
};
use dcmesh_math::simd::{self, Backend, LineSet, StencilPass};
use dcmesh_math::{Complex, Real, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [Op; 3] = [Op::None, Op::Trans, Op::ConjTrans];

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<C64> {
    (0..n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Accumulation-order tolerance for a depth-`k` contraction of O(1) data.
fn tol(k: usize) -> f64 {
    64.0 * f64::EPSILON * (k as f64 + 4.0)
}

/// The slice GEMM on the scalar and the AVX2 backend, one `(m, n, k)`
/// problem with the operands stored as `op_a` / `op_b` need them.
fn colmajor_backends_agree(rng: &mut StdRng, (m, n, k): (usize, usize, usize), op_a: Op, op_b: Op) {
    let stored = |op, dims: (usize, usize)| match op {
        Op::None => dims,
        _ => (dims.1, dims.0),
    };
    let (adims, bdims) = (stored(op_a, (m, k)), stored(op_b, (k, n)));
    let a = random_vec(rng, m * k);
    let b = random_vec(rng, k * n);
    let base = random_vec(rng, m * n);
    let alpha = C64::new(0.9, 0.1);
    let beta = C64::new(0.2, -0.4);
    let [c_s, c_v] = [Backend::Scalar, Backend::Avx2].map(|backend| {
        let mut c = base.clone();
        gemm_colmajor_with_backend(
            backend,
            alpha,
            &a,
            adims,
            op_a,
            &b,
            bdims,
            op_b,
            beta,
            &mut c,
            (m, n),
        );
        c
    });
    for (s, v) in c_s.iter().zip(&c_v) {
        assert!(
            (*s - *v).abs() < tol(k),
            "({m},{n},{k}) {op_a:?}x{op_b:?}: {s:?} vs {v:?}"
        );
    }
}

#[test]
fn scalar_vs_avx2_agree_on_the_eigensolver_shapes() {
    // The shapes the retired BLAS-2 branches of `gemm` used to take:
    // `X^H Y` with a long contraction, thin `k`, and a problem on each side
    // of the 32^3 inline threshold.
    let mut rng = StdRng::seed_from_u64(4096);
    for shape in [(16, 16, 4096), (4, 4, 512), (4096, 16, 16), (31, 33, 32)] {
        for op_a in OPS {
            for op_b in OPS {
                colmajor_backends_agree(&mut rng, shape, op_a, op_b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_gemm_matches_naive_all_ops(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..60,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alpha = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let beta = C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        for op_a in OPS {
            for op_b in OPS {
                let a = match op_a {
                    Op::None => random_matrix(&mut rng, m, k),
                    _ => random_matrix(&mut rng, k, m),
                };
                let b = match op_b {
                    Op::None => random_matrix(&mut rng, k, n),
                    _ => random_matrix(&mut rng, n, k),
                };
                let mut want = random_matrix(&mut rng, m, n);
                let mut got = want.data().to_vec();
                gemm_naive(alpha, &a, op_a, &b, op_b, beta, &mut want);
                // Drive the packed SIMD kernel directly (no shape-size
                // dispatch gate) so ragged MR/NR edge tiles are exercised.
                let used = simd::try_gemm_packed(
                    Backend::Avx2,
                    alpha,
                    a.data(),
                    (a.rows(), a.cols()),
                    op_a,
                    b.data(),
                    (b.rows(), b.cols()),
                    op_b,
                    beta,
                    &mut got,
                    (m, n),
                    k,
                );
                if !used {
                    // Non-AVX2 host: nothing to compare.
                    return;
                }
                for (g, w) in got.iter().zip(want.data()) {
                    prop_assert!(
                        (*g - *w).abs() < tol(k),
                        "({m},{n},{k}) {op_a:?}x{op_b:?}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_scalar_gemm_is_bitwise_equal_to_blocked(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..100,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let alpha = C64::new(0.7, -0.3);
        let beta = C64::new(-0.1, 0.2);
        let mut serial = random_matrix(&mut rng, m, n);
        let mut forced = serial.clone();
        gemm_blocked(alpha, &a, Op::None, &b, Op::None, beta, &mut serial);
        gemm_with_backend(Backend::Scalar, alpha, &a, Op::None, &b, Op::None, beta, &mut forced);
        prop_assert_eq!(serial.data(), forced.data());
    }

    #[test]
    fn scalar_vs_avx2_colmajor_agree(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        colmajor_backends_agree(&mut StdRng::seed_from_u64(seed), (m, n, k), Op::None, Op::None);
    }

    #[test]
    fn simd_stencil_pair_update_matches_scalar(
        len in 1usize..130,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Unit-magnitude pair coefficients, like the kinetic propagator's.
        let d = C64::from_polar(rng.gen_range(0.5..1.0), rng.gen_range(-3.0..3.0));
        let o = C64::from_polar(rng.gen_range(0.0..0.9), rng.gen_range(-3.0..3.0));
        let (mut a_s, mut b_s) = (random_vec(&mut rng, len), random_vec(&mut rng, len));
        let (mut a_v, mut b_v) = (a_s.clone(), b_s.clone());
        simd::pair_update_with(Backend::Scalar, &mut a_s, &mut b_s, d, o);
        simd::pair_update_with(Backend::Avx2, &mut a_v, &mut b_v, d, o);
        for (s, v) in a_s.iter().zip(&a_v).chain(b_s.iter().zip(&b_v)) {
            // Pointwise kernel: depth-2 contraction, a few ulps at most.
            prop_assert!((*s - *v).abs() < tol(2), "len={len}: {s:?} vs {v:?}");
        }
    }

    #[test]
    fn simd_pair_rotate_matches_scalar_and_pair_update(
        // Every remainder lane count, several vector iterations deep.
        len in 1usize..130,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let angle: f64 = rng.gen_range(-3.0..3.0);
        let (c, s) = (angle.cos(), angle.sin());
        let (a0, b0) = (random_vec(&mut rng, len), random_vec(&mut rng, len));
        for backend in [Backend::Scalar, Backend::Avx2] {
            let (mut a_r, mut b_r) = (a0.clone(), b0.clone());
            let (mut a_u, mut b_u) = (a0.clone(), b0.clone());
            simd::pair_rotate_with(backend, &mut a_r, &mut b_r, c, s);
            simd::pair_update_with(backend, &mut a_u, &mut b_u, C64::new(c, 0.0), C64::new(0.0, -s));
            // The products `pair_update` adds on top are exact zeros, and no
            // operand here is one: the same bits, on either backend.
            prop_assert!(a_r == a_u && b_r == b_u, "{backend:?} len={len}");
        }
        let (mut a_s, mut b_s) = (a0.clone(), b0.clone());
        let (mut a_v, mut b_v) = (a0, b0);
        simd::pair_rotate_with(Backend::Scalar, &mut a_s, &mut b_s, c, s);
        simd::pair_rotate_with(Backend::Avx2, &mut a_v, &mut b_v, c, s);
        for (s, v) in a_s.iter().zip(&a_v).chain(b_s.iter().zip(&b_v)) {
            prop_assert!((*s - *v).abs() < tol(2), "len={len}: {s:?} vs {v:?}");
        }
    }

    #[test]
    fn simd_scale_matches_scalar(
        len in 1usize..130,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ph = C64::from_polar(1.0, rng.gen_range(-3.0..3.0));
        let mut z_s = random_vec(&mut rng, len);
        let mut z_v = z_s.clone();
        simd::scale_with(Backend::Scalar, &mut z_s, ph);
        simd::scale_with(Backend::Avx2, &mut z_v, ph);
        for (s, v) in z_s.iter().zip(&z_v) {
            prop_assert!((*s - *v).abs() < tol(2));
        }
    }
}

/// The line kernel's reference: one sweep per pass over every line of
/// `set`, pairs and lone points through the public pointwise kernel the
/// line kernel picks for that pass.
fn separate_sweeps<R: Real>(
    backend: Backend,
    data: &mut [Complex<R>],
    set: &LineSet,
    passes: &[StencilPass<R>],
) {
    for pass in passes {
        let lone = |data: &mut [Complex<R>], at: usize, len: usize| {
            if pass.rotation().is_none() {
                simd::scale_with(backend, &mut data[at..at + len], pass.lone);
            }
        };
        for line in 0..set.n_lines {
            for nb in (0..set.run).step_by(set.block) {
                let len = set.block.min(set.run - nb);
                let at = |i: usize| set.first + line * set.line_step + i * set.stride + nb;
                if pass.start == 1 {
                    lone(data, at(0), len);
                }
                let mut i = pass.start;
                while i + 1 < set.n_axis {
                    let (head, tail) = data.split_at_mut(at(i + 1));
                    let (a, b) = (&mut head[at(i)..at(i) + len], &mut tail[..len]);
                    match pass.rotation() {
                        Some((c, s)) => simd::pair_rotate_with(backend, a, b, c, s),
                        None => simd::pair_update_with(backend, a, b, pass.d, pass.o),
                    }
                    i += 2;
                }
                if i < set.n_axis {
                    lone(data, at(i), len);
                }
            }
        }
    }
}

/// Fused wavefront == separate sweeps, bit for bit, on both backends, for
/// a list of `n_passes` alternating passes of which the first `bare` are
/// bare rotations (the kinetic tables: all but the last).
fn stencil_case<R: Real>(
    rng: &mut StdRng,
    set: &LineSet,
    len: usize,
    n_passes: usize,
    bare: usize,
) {
    let mut unit = |lo: f64| {
        let z = C64::from_polar(rng.gen_range(lo..1.0), rng.gen_range(-3.0..3.0));
        Complex::new(R::from_f64(z.re), R::from_f64(z.im))
    };
    let passes: Vec<StencilPass<R>> = (0..n_passes)
        .map(|q| {
            let (d, o) = (unit(0.5), unit(0.0));
            if q < bare {
                StencilPass {
                    start: q % 2,
                    d: Complex::new(d.re, R::ZERO),
                    o: Complex::new(R::ZERO, o.im),
                    lone: Complex::one(),
                }
            } else {
                StencilPass {
                    start: q % 2,
                    d,
                    o,
                    lone: unit(0.999),
                }
            }
        })
        .collect();
    assert!(passes.iter().take(bare).all(|p| p.rotation().is_some()));
    let data: Vec<Complex<R>> = (0..len).map(|_| unit(0.0)).collect();
    for backend in [Backend::Scalar, Backend::Avx2] {
        let mut fused = data.clone();
        let mut want = data.clone();
        simd::stencil_lines_with(backend, &mut fused, set, &passes);
        separate_sweeps(backend, &mut want, set, &passes);
        assert!(
            fused == want,
            "{backend:?} {set:?} {n_passes} passes, {bare} bare"
        );
    }
}

/// `(T * T0^H, T + M * T0, row norms)` by the textbook triple loops.
#[allow(clippy::type_complexity)]
fn projector_reference(
    t: &[C64],
    norb: usize,
    t0: &[C64],
    nref: usize,
    m: &[C64],
) -> (Vec<C64>, Vec<C64>, Vec<f64>) {
    let ngrid = t.len() / norb;
    let mut overlap = vec![C64::zero(); norb * nref];
    let mut updated = t.to_vec();
    let mut norms = vec![0.0; norb];
    for g in 0..ngrid {
        for n in 0..norb {
            for u in 0..nref {
                overlap[u * norb + n] += t[g * norb + n] * t0[g * nref + u].conj();
                updated[g * norb + n] += m[u * norb + n] * t0[g * nref + u];
            }
            norms[n] += updated[g * norb + n].norm_sqr();
        }
    }
    (overlap, updated, norms)
}

/// Both projector kernels on both backends against [`projector_reference`].
fn projector_case(rng: &mut StdRng, norb: usize, nref: usize, ngrid: usize) {
    let t = random_vec(rng, norb * ngrid);
    let t0 = random_vec(rng, nref * ngrid);
    let m = random_vec(rng, norb * nref);
    let (alpha, beta) = (C64::new(0.3, -0.9), C64::new(1.0, 0.25));
    let c0 = random_vec(rng, norb * nref);
    let (overlap, updated, norms) = projector_reference(&t, norb, &t0, nref, &m);
    for backend in [Backend::Scalar, Backend::Avx2] {
        let shape = format!("{backend:?} {norb}x{nref}x{ngrid}");
        let mut c = c0.clone();
        simd::proj_overlap_with(backend, alpha, &t, norb, &t0, nref, beta, &mut c);
        for ((got, raw), old) in c.iter().zip(&overlap).zip(&c0) {
            let want = alpha * *raw + beta * *old;
            assert!((*got - want).abs() < tol(ngrid), "{shape} overlap");
        }
        // beta == 0 must not read the output.
        let mut fresh = vec![C64::new(f64::NAN, f64::NAN); norb * nref];
        simd::proj_overlap_with(backend, alpha, &t, norb, &t0, nref, C64::zero(), &mut fresh);
        assert!(
            fresh.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
            "{shape}"
        );

        let mut tt = t.clone();
        let mut nrm = vec![f64::NAN; norb];
        simd::proj_update_with(backend, &m, &t0, nref, &mut tt, norb, &mut nrm);
        for (got, want) in tt.iter().zip(&updated) {
            assert!((*got - *want).abs() < tol(nref), "{shape} update");
        }
        for (got, want) in nrm.iter().zip(&norms) {
            assert!(
                (got - want).abs() < tol(ngrid) * want.max(1.0),
                "{shape} norms"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stencil_lines_equal_separate_sweeps_bitwise(
        n_lines in 1usize..4,
        n_axis in 1usize..9,
        run in 1usize..20,
        block in 1usize..24,
        // 0: points adjacent (Z lines), 1: lines adjacent (X or Y lines).
        layout in 0usize..2,
        first in 0usize..5,
        // Directional steps and merged half-steps, full passes throughout
        // or bare rotations closed by one full pass (the kinetic tables).
        shape in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (line_step, stride) = if layout == 0 {
            (n_axis * run + 3, run)
        } else {
            (run, n_lines * run + 2)
        };
        let set = LineSet { first, n_lines, line_step, n_axis, stride, run, block };
        let (n_passes, bare) = [(3, 0), (3, 2), (5, 4), (5, 0)][shape];
        stencil_case::<f64>(&mut rng, &set, set.span() + 3, n_passes, bare);
        stencil_case::<f32>(&mut rng, &set, set.span() + 3, n_passes, bare);
    }

    #[test]
    fn projector_kernels_match_triple_loops_on_both_backends(
        norb in 1usize..36,
        nref in 1usize..12,
        // Past 512 grid points the contraction spans several chunks.
        ngrid in 1usize..1200,
        seed in 0u64..1_000_000,
    ) {
        projector_case(&mut StdRng::seed_from_u64(seed), norb, nref, ngrid);
    }
}

#[test]
fn projector_kernels_on_even_chunks_of_wide_tiles() {
    // The benchmark's shape (16 orbitals, whole 512-point chunks) and its
    // neighbours: an even point count leaves the two-point body no lone
    // last point, for the 8-orbital tile and the 4-orbital one.
    let mut rng = StdRng::seed_from_u64(512);
    for (norb, nref, ngrid) in [
        (16, 8, 512),
        (16, 8, 1024),
        (8, 3, 2),
        (12, 5, 514),
        (33, 8, 600),
    ] {
        projector_case(&mut rng, norb, nref, ngrid);
    }
}

#[test]
fn projector_results_do_not_depend_on_who_ran_the_chunks() {
    // The partial-sum order is a function of the shape: a dispatch spread
    // over the pool and one forced onto this thread agree to the last bit.
    let mut rng = StdRng::seed_from_u64(99);
    let (norb, nref, ngrid) = (8, 5, 3000);
    let t = random_vec(&mut rng, norb * ngrid);
    let t0 = random_vec(&mut rng, nref * ngrid);
    let m = random_vec(&mut rng, norb * nref);
    let run = || {
        let mut c = vec![C64::zero(); norb * nref];
        let backend = simd::active_backend();
        simd::proj_overlap_with(
            backend,
            C64::one(),
            &t,
            norb,
            &t0,
            nref,
            C64::zero(),
            &mut c,
        );
        let mut tt = t.clone();
        let mut nrm = vec![0.0; norb];
        simd::proj_update(&m, &t0, nref, &mut tt, norb, &mut nrm);
        (c, tt, nrm)
    };
    assert!(run() == dcmesh_pool::run_inline(run));
}
