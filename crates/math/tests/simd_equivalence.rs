//! Property tests: every kernel gives the same bits on the scalar backend,
//! the 256-bit lanes and the 512-bit lanes, across odd shapes and remainder
//! lanes, and the fused line kernel the bits of separate sweeps.
//!
//! Tolerance model: none between backends. Each runs one kernel body, on
//! lanes whose every operation is lane-local and rounds as the scalar IEEE
//! one does (an FMA once), so any difference is a bug. Each kernel is also
//! held to an implementation of its own here: the pointwise kernels to a
//! per-value loop with the bodies' `mul_add`s in their operand order, the
//! radial pass to a plain loop over the partners, both bit for bit; the line
//! kernel to a pinned FNV of its bits; and the block kernels to triple loops
//! in `f64`, within `450 eps` of the terms' magnitudes, since a triple loop
//! adds in another order than the lanes' one multiply-add per term.
//!
//! Every kernel case is generic over the element type and runs at `f64`
//! (two, four or eight reals to a vector) and `f32` (two, eight or sixteen):
//! the six instantiations of one body get one suite.

use std::cell::Cell;

use dcmesh_math::simd::{
    self, Backend, Far, Lane, LineSet, NearTerms, PhaseAt, PointPhases, RadialPass, StencilPass,
    NEAR_COLUMNS,
};
use dcmesh_math::{as_reals, Complex, HermiteTable, Real, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec<R: Real>(rng: &mut StdRng, n: usize) -> Vec<Complex<R>> {
    let mut unit = || R::from_f64(rng.gen_range(-1.0..1.0));
    (0..n).map(|_| Complex::new(unit(), unit())).collect()
}

/// The bits of a run of reals, `f32` widened (exactly).
fn bits<R: Real>(xs: &[R]) -> Vec<u64> {
    xs.iter().map(|x| x.to_f64().to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_pointwise_kernels_match_scalar(
        // Every remainder lane count, several vector iterations deep.
        len in 1usize..130,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        pointwise_case::<f64>(&mut rng, len);
        pointwise_case::<f32>(&mut rng, len);
    }
}

/// `u * c`, and `u * c + acc` with `acc`, as the pair kernels make it:
/// `swap(u) * [-ci, ci]` fused onto `u * [cr, cr]`, itself fused onto `acc`.
fn times<R: Real>(u: Complex<R>, c: Complex<R>, acc: Option<Complex<R>>) -> Complex<R> {
    let (re, im) = match acc {
        Some(acc) => (u.re.mul_add(c.re, acc.re), u.im.mul_add(c.re, acc.im)),
        None => (u.re * c.re, u.im * c.re),
    };
    Complex::new(u.im.mul_add(-c.im, re), u.re.mul_add(c.im, im))
}

/// The pointwise kernels value by value, the bodies' `mul_add`s in their
/// operand order: `scale` (`[zi, zi] * [-pi, pr]` fused onto `[zr, zr] *
/// [pr, pi]`), `pair_update` and `pair_rotate`'s bare form.
fn pointwise_oracle<R: Real>(
    (z, u, v): (Complex<R>, Complex<R>, Complex<R>),
    (ph, d, o): (Complex<R>, Complex<R>, Complex<R>),
) -> [Complex<R>; 5] {
    let (c, s) = (d.re, -o.im);
    [
        Complex::new(
            z.im.mul_add(-ph.im, z.re * ph.re),
            z.im.mul_add(ph.re, z.re * ph.im),
        ),
        times(v, o, Some(times(u, d, None))),
        times(v, d, Some(times(u, o, None))),
        Complex::new(v.im.mul_add(s, u.re * c), v.re.mul_add(-s, u.im * c)),
        Complex::new(v.re.mul_add(c, u.im * s), v.im.mul_add(c, u.re * -s)),
    ]
}

/// `scale`, `pair_update` and `pair_rotate` on runs of `len` values: every
/// backend against the per-value oracle bit for bit, and `pair_rotate(c, s)`
/// against `pair_update((c, 0), (0, -s))`.
fn pointwise_case<R: Real>(rng: &mut StdRng, len: usize) {
    let tag = format!("{} len={len}", R::PRECISION_LABEL);
    // Unit-magnitude pair coefficients, like the kinetic propagator's.
    let (ph, d, o) = (polar::<R>(rng, 0.999), polar(rng, 0.5), polar(rng, 0.0));
    let (z0, a0, b0) = (
        random_vec::<R>(rng, len),
        random_vec::<R>(rng, len),
        random_vec::<R>(rng, len),
    );
    let on = |backend| {
        let mut z = z0.clone();
        simd::scale_with(backend, &mut z, ph);
        let (mut a_u, mut b_u) = (a0.clone(), b0.clone());
        simd::pair_update_with(backend, &mut a_u, &mut b_u, d, o);
        let (c, sn) = (d.re, -o.im);
        let (mut a_r, mut b_r) = (a0.clone(), b0.clone());
        simd::pair_rotate_with(backend, &mut a_r, &mut b_r, c, sn);
        let (mut a_b, mut b_b) = (a0.clone(), b0.clone());
        let (dc, os) = (Complex::new(c, R::ZERO), Complex::new(R::ZERO, -sn));
        simd::pair_update_with(backend, &mut a_b, &mut b_b, dc, os);
        // The products `pair_update` adds on top are exact zeros, and no
        // operand here is one: the same bits, on either backend.
        assert!(
            a_r == a_b && b_r == b_b,
            "rotate vs update {backend:?} {tag}"
        );
        [z, a_u, b_u, a_r, b_r]
    };
    let mut want: [Vec<Complex<R>>; 5] = Default::default();
    for i in 0..len {
        let each = pointwise_oracle((z0[i], a0[i], b0[i]), (ph, d, o));
        want.iter_mut().zip(each).for_each(|(w, x)| w.push(x));
    }
    let names = [
        "scale",
        "pair_update a",
        "pair_update b",
        "pair_rotate a",
        "pair_rotate b",
    ];
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        for ((got, want), what) in on(backend).iter().zip(&want).zip(names) {
            let same = bits(as_reals(got)) == bits(as_reals(want));
            assert!(same, "{what} {backend:?} {tag}: {got:?} vs {want:?}");
        }
    }
}

#[test]
fn pointwise_kernels_at_every_ragged_end() {
    // Every count of values in the last, part-filled vector of all four lane
    // widths (two, four and eight values per vector), with and without full
    // vectors before it.
    let mut rng = StdRng::seed_from_u64(7);
    for len in (0..=17).chain([64, 65]) {
        pointwise_case::<f64>(&mut rng, len);
        pointwise_case::<f32>(&mut rng, len);
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

/// A complex value of modulus in `lo..1` and any phase.
fn polar<R: Real>(rng: &mut StdRng, lo: f64) -> Complex<R> {
    let z = C64::from_polar(rng.gen_range(lo..1.0), rng.gen_range(-3.0..3.0));
    Complex::new(R::from_f64(z.re), R::from_f64(z.im))
}

/// `n_passes` alternating passes of which the first `bare` are bare
/// rotations (the kinetic tables: all but the last).
fn pass_list<R: Real>(rng: &mut StdRng, n_passes: usize, bare: usize) -> Vec<StencilPass<R>> {
    let passes: Vec<StencilPass<R>> = (0..n_passes)
        .map(|q| {
            let (d, o) = (polar::<R>(rng, 0.5), polar::<R>(rng, 0.0));
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
                    lone: polar(rng, 0.999),
                }
            }
        })
        .collect();
    assert!(passes.iter().take(bare).all(|p| p.rotation().is_some()));
    passes
}

/// Fused wavefront == separate sweeps, bit for bit, on every backend, and
/// every backend the same bits, for a [`pass_list`]: bare, and with a table of per-point
/// phases (points of `norb` elements) before the first pass or after the
/// last == every element of every run times its point's phase, one at a
/// time through the public scale kernel, before or after the sweeps.
fn stencil_case<R: Real>(
    rng: &mut StdRng,
    set: &LineSet,
    len: usize,
    n_passes: usize,
    bare: usize,
    norb: usize,
) {
    let passes = pass_list::<R>(rng, n_passes, bare);
    let data: Vec<Complex<R>> = (0..len).map(|_| polar(rng, 0.0)).collect();
    let table: Vec<Complex<R>> = (0..len.div_ceil(norb)).map(|_| polar(rng, 0.999)).collect();
    let phase_sweep = |backend, data: &mut [Complex<R>]| {
        for (line, i) in (0..set.n_lines).flat_map(|l| (0..set.n_axis).map(move |i| (l, i))) {
            let at = set.first + line * set.line_step + i * set.stride;
            for e in at..at + set.run {
                simd::scale_with(backend, &mut data[e..=e], table[e / norb]);
            }
        }
    };
    for at in [
        None,
        Some(PhaseAt::BeforeFirstPass),
        Some(PhaseAt::AfterLastPass),
    ] {
        let phases = at.map(|at| PointPhases {
            table: &table,
            norb,
            at,
        });
        let mut lanes = Vec::new();
        for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            let mut fused = data.clone();
            let mut want = data.clone();
            simd::stencil_lines_with(backend, &mut fused, set, &passes, phases.as_ref());
            // With no pass to go before, there is nothing to take phases.
            if at == Some(PhaseAt::BeforeFirstPass) && n_passes > 0 {
                phase_sweep(backend, &mut want);
            }
            separate_sweeps(backend, &mut want, set, &passes);
            if at == Some(PhaseAt::AfterLastPass) {
                phase_sweep(backend, &mut want);
            }
            assert!(
                fused == want,
                "{backend:?} {set:?} {n_passes} passes, {bare} bare, phases {at:?} of {norb}"
            );
            lanes.push(bits(as_reals(&fused)));
        }
        assert!(
            lanes.iter().all(|l| *l == lanes[0]),
            "backends differ {set:?} {at:?}"
        );
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
        // or bare rotations closed by one full pass (the kinetic tables),
        // and no passes (the potential: phases alone).
        shape in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (line_step, stride) = if layout == 0 {
            (n_axis * run + 3, run)
        } else {
            (run, n_lines * run + 2)
        };
        let set = LineSet { first, n_lines, line_step, n_axis, stride, run, block };
        let (n_passes, bare) = [(3, 0), (3, 2), (5, 4), (5, 0), (0, 0)][shape];
        // Points of the phase table: as long as a run (the kinetic sweeps'
        // Z lines), shorter or longer.
        let norb = [run, 1 + seed as usize % (2 * run)][(seed / 7) as usize % 2];
        stencil_case::<f64>(&mut rng, &set, set.span() + 3, n_passes, bare, norb);
        stencil_case::<f32>(&mut rng, &set, set.span() + 3, n_passes, bare, norb);
    }
}

#[test]
fn stencil_wavefront_equals_sweeps_at_every_block_size() {
    // Five passes (four bare, one full) over 19-element runs: blocks that
    // are a lone value, that leave ragged ends of every width, that are
    // whole vectors of either width, and the whole run.
    let mut rng = StdRng::seed_from_u64(19);
    let (n_lines, n_axis, run) = (3, 7, 19);
    for block in [1, 3, 4, 8, run] {
        for (line_step, stride) in [(n_axis * run + 3, run), (run, n_lines * run + 2)] {
            let set = LineSet {
                first: 2,
                n_lines,
                line_step,
                n_axis,
                stride,
                run,
                block,
            };
            stencil_case::<f64>(&mut rng, &set, set.span() + 3, 5, 4, run);
            stencil_case::<f32>(&mut rng, &set, set.span() + 3, 5, 4, 4);
        }
    }
}

/// Both real block kernels on every backend against triple loops in `f64`,
/// to `450 eps` (1e-13 in `f64`) of the sum of the terms' magnitudes, and
/// every backend the same bits.
fn real_block_case<R: Real>(rng: &mut StdRng, (nl, nr): (usize, usize), npts: usize) {
    let mut reals = |n: usize| -> Vec<R> {
        (0..n)
            .map(|_| R::from_f64(rng.gen_range(-1.0..1.0)))
            .collect()
    };
    let (l, r, coeff, alpha) = (reals(npts * nl), reals(npts * nr), reals(nl * nr), -0.7);
    let wide = |x: &R| x.to_f64();
    let close = 450.0 * R::EPSILON.to_f64();
    let mut lanes = Vec::new();
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        let shape = format!("{} {backend:?} {nl}x{nr}x{npts}", R::PRECISION_LABEL);
        // out = alpha L^T R must not read what out held.
        let mut out = vec![R::from_f64(f64::NAN); nl * nr];
        simd::real_overlap_with(backend, R::from_f64(alpha), &l, (nl, nr), &r, &mut out);
        for (i, row) in out.chunks_exact(nr).enumerate() {
            for (c, got) in row.iter().enumerate() {
                let terms = (0..npts).map(|p| wide(&l[p * nl + i]) * wide(&r[p * nr + c]));
                let (sum, size) = terms.fold((0.0, 0.0), |(s, m), t| (s + t, m + t.abs()));
                assert!(
                    (wide(got) - alpha * sum).abs() <= close * size,
                    "{shape} overlap"
                );
            }
        }
        // t += S C with the nl-wide block as S and the nr-wide one as t.
        let mut t = r.clone();
        simd::real_update_with(backend, &coeff, &l, (nl, nr), &mut t);
        for (p, row) in t.chunks_exact(nr).enumerate() {
            for (j, got) in row.iter().enumerate() {
                let terms = (0..nl).map(|k| wide(&l[p * nl + k]) * wide(&coeff[k * nr + j]));
                let start = wide(&r[p * nr + j]);
                let (sum, size) =
                    terms.fold((start, start.abs()), |(s, m), t| (s + t, m + t.abs()));
                assert!((wide(got) - sum).abs() <= close * size, "{shape} update");
            }
        }
        lanes.push([bits(&out), bits(&t)]);
    }
    assert!(lanes[0] == lanes[1], "{nl}x{nr}x{npts}: avx2 vs scalar");
    assert!(lanes[1] == lanes[2], "{nl}x{nr}x{npts}: avx512 vs avx2");
}

#[test]
fn real_block_kernels_match_triple_loops_at_every_width_pair() {
    // Widths on both sides of one, two, three and four vectors of either lane
    // width, the overlapped last vector, the portable rest past a multiple
    // of four vectors (17) and below one vector; point counts around the
    // overlap's 64-point passes and the update's odd last row.
    let mut rng = StdRng::seed_from_u64(2424);
    for npts in [1, 127, 128, 129, 512] {
        for nl in 1..=17 {
            for nr in 1..=17 {
                real_block_case::<f64>(&mut rng, (nl, nr), npts);
            }
            real_block_case::<f32>(&mut rng, (nl, 1 + (3 * nl + npts) % 37), npts);
        }
    }
}

#[test]
fn real_block_kernels_leave_their_output_alone_on_an_empty_shape() {
    // The solver's P block is empty on its first iteration, and its W block
    // can be: no shape is asserted before the width is known to be positive.
    let (block, sentinel) = (vec![0.5; 12], vec![7.0; 6]);
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        for (nl, nr) in [(0, 3), (3, 0), (0, 0)] {
            let mut out = sentinel.clone();
            simd::real_overlap_with(backend, 2.0, &block, (nl, nr), &block, &mut out);
            assert_eq!(out, sentinel, "{backend:?} overlap {nl}x{nr}");
            let mut t = sentinel.clone();
            simd::real_update_with(backend, &block, &block, (nl, nr), &mut t);
            assert_eq!(t, sentinel, "{backend:?} update {nl}x{nr}");
        }
    }
}

/// FNV-1a over the bits of a run of `f64` values.
fn fnv1a(h: u64, zs: &[C64]) -> u64 {
    zs.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .flat_map(u64::to_le_bytes)
        .fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn f64_avx2_bits_are_those_of_the_hand_written_kernels() {
    // The f64 instantiations of the lane-generic line kernel issue, lane for
    // lane, the instructions of the f64-only kernel they replaced (commit
    // 0b31463, where the constant was computed): three shapes with ragged
    // ends, a partnerless last point and blocks of either parity. The scalar
    // backend runs the same body, so the constant holds on any CPU (a width
    // it lacks runs as the next narrower one).
    for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
        let mut rng = StdRng::seed_from_u64(1919);
        // The draws of the complex projector kernels this test pinned beside
        // the line kernel until they were deleted: the stencil's inputs stay
        // those its constant was computed from.
        for (norb, nref, ngrid) in [(16, 8, 1025), (13, 5, 513), (32, 3, 64)] {
            random_vec::<f64>(&mut rng, (norb + nref) * ngrid + 2 * norb * nref);
        }
        let mut stencil = 0xcbf2_9ce4_8422_2325;
        for (n_lines, n_axis, run, block, pad) in
            [(3, 8, 16, 8, 0), (2, 7, 19, 4, 2), (1, 5, 9, 9, 5)]
        {
            let set = LineSet {
                first: 1,
                n_lines,
                line_step: run,
                n_axis,
                stride: n_lines * run + pad,
                run,
                block,
            };
            let passes = pass_list::<f64>(&mut rng, 5, 4);
            let mut data = random_vec::<f64>(&mut rng, set.span() + 2);
            simd::stencil_lines_with(backend, &mut data, &set, &passes, None);
            stencil = fnv1a(stencil, &data);
        }
        assert_eq!(stencil, 0xa15c_d0a4_c287_6a4a, "{backend:?}");
    }
}

#[test]
fn avx512_gives_the_bits_of_avx2() {
    // Each case also holds the 512-bit lanes to the 256-bit lanes' bits (and
    // those to the scalar backend's; a width the CPU lacks runs as the next
    // narrower one): a line of runs of every width 1..=17, and block products
    // with that many rows and as many or twice as many columns, at each count
    // of points (4096 in release builds only; `check.sh gates` runs them).
    let mut rng = StdRng::seed_from_u64(512);
    let counts = if cfg!(debug_assertions) { 5 } else { 6 };
    for w in 1..=17 {
        for points in [1, 127, 128, 129, 512, 4096].into_iter().take(counts) {
            let set = LineSet {
                first: 0,
                n_lines: 1,
                line_step: 0,
                n_axis: points,
                stride: w,
                run: w,
                block: w,
            };
            stencil_case::<f64>(&mut rng, &set, set.span(), 5, 4, w);
            stencil_case::<f32>(&mut rng, &set, set.span(), 5, 4, w);
            for shape in [(w, w), (w, 2 * w)] {
                real_block_case::<f64>(&mut rng, shape, points);
                real_block_case::<f32>(&mut rng, shape, points);
            }
        }
    }
}

/// Near terms for the tests: partner `j` reads piece `pieces[j]` of a table
/// of three at `r` (a table per lane), and the first piece at `r2`.
struct PieceTerms<'a>(&'a HermiteTable, &'a [f64]);

impl NearTerms for PieceTerms<'_> {
    #[inline(always)]
    fn terms<V: Lane>(&self, j: V, r2: V) -> [V; 3] {
        let (v, dv) = self.0.eval_on(V::gather(self.1, j), r2.sqrt());
        [v, dv, self.0.eval(r2).1]
    }
}

/// A near partner's index, displacement, `r2` and terms.
type NearPair = (usize, [f64; 3], f64, [f64; 3]);

/// The radial pass as a plain loop over the partners, with the lane body's
/// operations in its order and its eight sum slots (partner `j` in slot `j %
/// 8`): the oracle of every backend.
fn radial_loop(pass: &RadialPass<'_>, terms: &PieceTerms<'_>) -> ([f64; 4], Vec<NearPair>) {
    let (mut sums, mut near) = ([[0.0; 8]; 4], Vec::new());
    for j in 0..pass.partners[0].len() {
        let d: [f64; 3] = std::array::from_fn(|ax| {
            let x = pass.partners[ax][j] - pass.centre[ax];
            pass.period
                .map_or(x, |l| x - l[ax] * (x * (1.0 / l[ax])).round_ties_even())
        });
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        match pass.far {
            _ if r2 <= pass.near2 => near.push((j, d, r2, terms.terms(j as f64, r2))),
            Far::None => {}
            Far::Sums(w, force2) => {
                let (e, slot) = (w[j] / r2.sqrt(), j % 8);
                let g = if r2 <= force2 { e / r2 } else { 0.0 };
                sums[0][slot] += e;
                (1..4).for_each(|k| sums[k][slot] += g * d[k - 1]);
            }
            Far::Field(v, scale) => v[j].set(v[j].get() + scale / r2.sqrt()),
        }
    }
    let sums = sums.map(|s| ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])));
    (sums, near)
}

/// Every output of the radial pass on `backend`, or of [`radial_loop`]
/// without one — the near list and its terms, the sums of `Far::Sums` and
/// the field of `Far::Field` — as bits, at a near radius that takes some
/// partners, every one and none.
fn radial_bits(
    backend: Option<Backend>,
    partners: [&[f64]; 3],
    w: &[f64],
    period: Option<[f64; 3]>,
) -> Vec<u64> {
    let table = HermiteTable::join(&[
        &HermiteTable::new(0.0, 5.0, 1.0, |x| [x.sin(), x.cos(), -x.sin()]),
        &HermiteTable::new(2.0, 30.0, 3.0, |x| {
            [1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x)]
        }),
        &HermiteTable::new(-1.0, 8.0, 16.0, |x| [x.exp(); 3]),
    ]);
    let n = w.len();
    let pieces: Vec<f64> = (0..n).map(|j| ((j + 2) % 3) as f64).collect();
    let mut scratch = vec![f64::NAN; NEAR_COLUMNS * n];
    let (v, mut bits) = (w.iter().map(|&x| Cell::new(x)).collect::<Vec<_>>(), vec![]);
    for near2 in [40.0, 1e9, -1.0] {
        for far in [Far::None, Far::Sums(w, 150.0), Far::Field(&v, -6.0)] {
            let pass = RadialPass {
                centre: [1.5, 17.0, 30.5],
                partners,
                period,
                near2,
                far,
            };
            let terms = PieceTerms(&table, &pieces);
            let (sums, near) = match backend {
                None => radial_loop(&pass, &terms),
                Some(b) => {
                    let (sums, near) = simd::radial_with(b, &pass, &terms, &mut scratch);
                    (sums, (0..near.count()).map(|k| near.get(k)).collect())
                }
            };
            for &(j, d, r2, t) in &near {
                bits.extend(
                    d.into_iter()
                        .chain([r2, j as f64])
                        .chain(t)
                        .map(f64::to_bits),
                );
            }
            bits.push(near.len() as u64);
            bits.extend(sums.map(f64::to_bits));
        }
    }
    bits.extend(v.iter().map(|c| c.get().to_bits()));
    bits
}

#[test]
fn radial_pass_gives_the_plain_loops_bits_on_every_backend() {
    // Partner counts on both sides of every lane count and vector pair; the
    // first partner sits on the centre (`-Z/0`, selected away) and the
    // second at distance 5, the last node of the first piece.
    let mut rng = StdRng::seed_from_u64(31);
    for n in (0..=17).chain([64, 65, 127, 512, 639]) {
        let mut run = || -> Vec<f64> { (0..n).map(|_| rng.gen_range(-3.0..33.0)).collect() };
        let (mut xs, mut ys, mut zs, w) = (run(), run(), run(), run());
        for (j, at) in [[1.5, 17.0, 30.5], [4.5, 21.0, 30.5]]
            .into_iter()
            .enumerate()
            .take(n)
        {
            [xs[j], ys[j], zs[j]] = at;
        }
        for period in [None, Some([30.0, 28.0, 32.0])] {
            let want = radial_bits(None, [&xs, &ys, &zs], &w, period);
            for backend in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
                let got = radial_bits(Some(backend), [&xs, &ys, &zs], &w, period);
                assert!(got == want, "{backend:?} n = {n} period {period:?}");
            }
        }
    }
}
