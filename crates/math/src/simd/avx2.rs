//! The AVX2+FMA kernel bodies, each written once over [`Lanes`] and
//! instantiated for `__m256d` (f64 x 4) and `__m256` (f32 x 8).
//!
//! Three ways of getting complex arithmetic onto real lanes:
//!
//! * The GEMM [`microkernel`] consumes panels that were *packed* into
//!   separate re/im arrays (SoA), so every vector load is all useful reals
//!   and the complex product needs no in-register shuffles at all — 16 FMAs
//!   per contraction step for a 4×4 (f64) or 8×4 (f32) output tile.
//! * The projector overlap loads interleaved complex values two vectors at
//!   a time and deinterleaves them in-register. That permutes the values;
//!   elementwise arithmetic commutes with any lane permutation, and
//!   [`Lanes::interleave`] restores the original order on store, so results
//!   land exactly where the scalar loop would put them.
//! * [`scale`], [`pair_update`] and the projector rank update multiply
//!   interleaved values by a *scalar* complex coefficient, which needs no
//!   deinterleaving: `z * c = z * [cr, cr] + swap(z) * [-ci, ci]` (or, in
//!   `scale`, `[zr, zr] * [cr, ci] + [zi, zi] * [-ci, cr]`, which rounds
//!   `zr * ci` first as the scalar product does), one multiply (or FMA)
//!   and one FMA per product.
//!
//! Every function here is `unsafe fn` + `#[target_feature]`: the caller
//! (dispatch in `simd::mod`) has verified AVX2+FMA. Loads and stores are
//! unaligned — operands come from caller-owned slices (arena panels are
//! 64-byte aligned at the start, microkernel offsets within them are not).

use core::array::from_fn;

use super::lanes::Lanes;
use crate::complex::Complex;
use crate::real::Real;
use crate::simd::{line_units, LineSet, StencilPass, NR};

/// Split-complex GEMM microkernel, one vector of rows (`MR = 2 * C` reals) by
/// [`NR`] columns: `T[i][j] = sum_p a[p][i] * b[p][j]` over `kw` contraction
/// steps, with `a`/`b` supplied as separate re/im MR- / NR-packed panels and
/// the tile written to column-major `out_re`/`out_im` (`out[j*MR + i]`).
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU. Slice
/// lengths must be at least `kw * MR` (a panels) and `kw * NR` (b panels).
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=panel reads capped by kw*MR and kw*NR;
// tile writes by the MR*NR entry assert, aliasing=disjoint &mut
// out_re/out_im borrows) loads/stores are unaligned by design.
pub unsafe fn microkernel<L: Lanes>(
    kw: usize,
    a_re: &[L::R],
    a_im: &[L::R],
    b_re: &[L::R],
    b_im: &[L::R],
    out_re: &mut [L::R],
    out_im: &mut [L::R],
) {
    let mr = 2 * L::C;
    debug_assert!(a_re.len() >= kw * mr && a_im.len() >= kw * mr);
    debug_assert!(b_re.len() >= kw * NR && b_im.len() >= kw * NR);
    // AUDIT: waiver(entry guard before the hot loop; tile-size misuse must fail loudly)
    assert!(out_re.len() >= mr * NR && out_im.len() >= mr * NR);
    let mut cre = [L::splat(L::R::ZERO); NR];
    let mut cim = cre;
    for p in 0..kw {
        // SAFETY: p < kw so p*MR + MR <= kw*MR <= slice length.
        let ar = unsafe { L::load(a_re.as_ptr().add(p * mr)) };
        // SAFETY: as above.
        let ai = unsafe { L::load(a_im.as_ptr().add(p * mr)) };
        for j in 0..NR {
            // SAFETY: p < kw, j < NR so p*NR + j < kw*NR <= slice length.
            let br = L::splat(unsafe { *b_re.get_unchecked(p * NR + j) });
            // SAFETY: as above.
            let bi = L::splat(unsafe { *b_im.get_unchecked(p * NR + j) });
            // (ar + i*ai)(br + i*bi): re = ar*br - ai*bi, im = ar*bi + ai*br.
            cre[j] = ai.fnmadd(bi, ar.fmadd(br, cre[j])); // AUDIT: waiver(j < NR tile bound)
            cim[j] = ai.fmadd(br, ar.fmadd(bi, cim[j])); // AUDIT: waiver(j < NR tile bound)
        }
    }
    for j in 0..NR {
        // SAFETY: out slices hold >= MR*NR reals (asserted); j*MR + MR <= MR*NR.
        unsafe {
            cre[j].store(out_re.as_mut_ptr().add(j * mr)); // AUDIT: waiver(j < NR tile bound)
            cim[j].store(out_im.as_mut_ptr().add(j * mr)); // AUDIT: waiver(j < NR tile bound)
        }
    }
}

/// `z *= ph` over an interleaved complex slice.
///
/// Lane-local: every complex value computes `re = zr*pr - zi*pi`,
/// `im = zr*pi + zi*pr` as one multiply and one FMA, and the ragged end
/// takes the same two operations on a part-filled vector, so every element
/// rounds alike wherever it sits in a run.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the vector loop touches complex values
// i .. i + C <= n per step and the tail the values i .. n)
pub unsafe fn scale<L: Lanes>(zs: &mut [Complex<L::R>], ph: Complex<L::R>) {
    let n = zs.len();
    let pz = zs.as_mut_ptr() as *mut L::R;
    // [pr, pi] against [zr, zr]; [-pi, pr] against [zi, zi].
    let p_re = L::pattern(ph.re, ph.im);
    let p_im = L::pattern(-ph.im, ph.re);
    let times = |z: L| z.dup_im().fmadd(p_im, z.dup_re().mul(p_re));
    let mut i = 0;
    while i + L::C <= n {
        // SAFETY: complex values i .. i + C are in bounds.
        unsafe { times(L::load(pz.add(2 * i))).store(pz.add(2 * i)) };
        i += L::C;
    }
    if i < n {
        // SAFETY: complex values i .. n are in bounds.
        unsafe { times(L::load_head(pz.add(2 * i), n - i)).store_head(pz.add(2 * i), n - i) };
    }
}

/// Kinetic stencil pair rotation over two interleaved complex slices:
/// `a' = d*a + o*b`, `b' = o*a + d*b` elementwise.
///
/// Lane-local like [`scale`]: with `swap(z) = [zi, zr]` a complex product
/// is `z * c = z * [cr, cr] + swap(z) * [-ci, ci]`, so each output is one
/// multiply and three FMAs on the interleaved values and a swap per input
/// — half the shuffles of a deinterleave/reinterleave round trip, and the
/// ragged end takes the same operations on a part-filled vector.
/// `BARE` is the caller's word that `d.im == 0` and `o.re == 0` (the bare
/// rotation `[[c, -is], [-is, c]]`): the two FMAs per output that then add
/// an exact zero are left out — the same bits for half the arithmetic.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the vector loop touches complex values
// i .. i + C <= n per step and the tail the values i .. n,
// aliasing=a and b are disjoint &mut borrows)
pub unsafe fn pair_update<L: Lanes, const BARE: bool>(
    a: &mut [Complex<L::R>],
    b: &mut [Complex<L::R>],
    d: Complex<L::R>,
    o: Complex<L::R>,
) {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let pa = a.as_mut_ptr() as *mut L::R;
    let pb = b.as_mut_ptr() as *mut L::R;
    let (d_re, d_im) = (L::splat(d.re), L::pattern(-d.im, d.im));
    let (o_re, o_im) = (L::splat(o.re), L::pattern(-o.im, o.im));
    // a' = d*u + o*v:
    //   re = ((dr*ur - di*ui) + or*vr) - oi*vi
    //   im = ((dr*ui + di*ur) + or*vi) + oi*vr
    // b' = o*u + d*v (same structure with d/o swapped).
    let rotate = |u: L, v: L| {
        let (us, vs) = (u.swap(), v.swap());
        if BARE {
            (vs.fmadd(o_im, u.mul(d_re)), v.fmadd(d_re, us.mul(o_im)))
        } else {
            let na = us.fmadd(d_im, u.mul(d_re));
            let nb = us.fmadd(o_im, u.mul(o_re));
            (
                vs.fmadd(o_im, v.fmadd(o_re, na)),
                vs.fmadd(d_im, v.fmadd(d_re, nb)),
            )
        }
    };
    let mut i = 0;
    while i + L::C <= n {
        // SAFETY: complex values i .. i + C of both slices are in bounds;
        // `a` and `b` are disjoint, so each in-place update is race-free.
        unsafe {
            let (qa, qb) = (pa.add(2 * i), pb.add(2 * i));
            let (na, nb) = rotate(L::load(qa), L::load(qb));
            na.store(qa);
            nb.store(qb);
        }
        i += L::C;
    }
    if i < n {
        let m = n - i;
        // SAFETY: complex values i .. n of both slices are in bounds.
        unsafe {
            let (qa, qb) = (pa.add(2 * i), pb.add(2 * i));
            let (na, nb) = rotate(L::load_head(qa, m), L::load_head(qb, m));
            na.store_head(qa, m);
            nb.store_head(qb, m);
        }
    }
}

/// Grid points the overlap kernel sweeps with one accumulator tile held in
/// registers: 64 points x (16 + 8) complex values = 24 KiB at the paper's
/// 16-orbital, 8-reference shape in f64, so the block every tile re-reads
/// stays in L1.
const OVERLAP_BLOCK: usize = 64;

/// One register tile of the projector overlap: for `V` vector pairs of
/// orbitals (`2 * C` each: 4 in f64, 8 in f32) and `U` references,
/// `out[u][n] += sum_p t[p][n] * conj(t0[p][u])` over `npts` grid points,
/// the `2 * V * U` accumulators living in registers for the whole sweep.
/// `t`/`t0`/`out` point at the tile's first orbital / reference; `norb`,
/// `nref` are the per-point run lengths and also the leading dimension of
/// `out`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the caller keeps 2*C*V orbitals and U
// references inside the norb / nref runs of each of the npts points and
// inside the norb x nref output, aliasing=t and t0 are only read; out is
// the caller's exclusive partial)
unsafe fn overlap_tile<L: Lanes, const V: usize, const U: usize>(
    t: *const L::R,
    norb: usize,
    t0: *const L::R,
    nref: usize,
    npts: usize,
    out: *mut L::R,
) {
    let zero = L::splat(L::R::ZERO);
    let mut acc_re = [[zero; U]; V];
    let mut acc_im = [[zero; U]; V];
    for p in 0..npts {
        // SAFETY: p < npts, so both point runs are in bounds (contract).
        let (tp, bp) = unsafe { (t.add(2 * p * norb), t0.add(2 * p * nref)) };
        let mut tr = [zero; V];
        let mut ti = [zero; V];
        for (v, (r, i)) in tr.iter_mut().zip(ti.iter_mut()).enumerate() {
            // SAFETY: vector pair v < V of this tile lies inside the
            // orbital run.
            let (lo, hi) = unsafe {
                (
                    L::load(tp.add(4 * L::C * v)),
                    L::load(tp.add(4 * L::C * v + 2 * L::C)),
                )
            };
            (*r, *i) = L::deinterleave(lo, hi);
        }
        let mut br = [zero; U];
        let mut bi = [zero; U];
        for (u, (r, i)) in br.iter_mut().zip(bi.iter_mut()).enumerate() {
            // SAFETY: reference u < U of this tile lies inside the run.
            unsafe { (*r, *i) = (L::splat(*bp.add(2 * u)), L::splat(*bp.add(2 * u + 1))) };
        }
        let pairs = acc_re.iter_mut().zip(acc_im.iter_mut());
        for ((row_re, row_im), (tr, ti)) in pairs.zip(tr.iter().zip(&ti)) {
            let refs = row_re.iter_mut().zip(row_im.iter_mut());
            for ((re, im), (br, bi)) in refs.zip(br.iter().zip(&bi)) {
                // t * conj(b): re += tr*br + ti*bi, im += ti*br - tr*bi.
                *re = ti.fmadd(*bi, tr.fmadd(*br, *re));
                *im = tr.fnmadd(*bi, ti.fmadd(*br, *im));
            }
        }
    }
    for (v, (row_re, row_im)) in acc_re.iter().zip(&acc_im).enumerate() {
        for (u, (re, im)) in row_re.iter().zip(row_im).enumerate() {
            let (lo, hi) = L::interleave(*re, *im);
            // SAFETY: column u, vector pair v of the tile inside the output.
            unsafe {
                let o = out.add(2 * (u * norb + 2 * L::C * v));
                L::load(o).add(lo).store(o);
                L::load(o.add(2 * L::C)).add(hi).store(o.add(2 * L::C));
            }
        }
    }
}

/// Projector overlap `out[u][n] += sum_p t[p][n] * conj(t0[p][u])` for the
/// orbitals below the returned count, the largest multiple of `2 * C` in
/// `norb` (the caller's portable body takes the rest): blocks of
/// [`OVERLAP_BLOCK`] grid points, and inside a block one register tile of
/// up to two vector pairs of orbitals x 2 references at a time.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the entry assert ties every slice to npts
// points of norb / nref values; tiles stay below the returned count and
// nref, aliasing=t and t0 are shared borrows and out an exclusive one)
pub unsafe fn proj_overlap<L: Lanes>(
    t: &[Complex<L::R>],
    norb: usize,
    t0: &[Complex<L::R>],
    nref: usize,
    out: &mut [Complex<L::R>],
) -> usize {
    let npts = t.len().checked_div(norb).unwrap_or(0);
    // AUDIT: waiver(entry guard before the raw-pointer sweep; shape misuse must fail loudly)
    assert!(t.len() == npts * norb && t0.len() == npts * nref && out.len() == norb * nref);
    let (t, t0, out) = (
        t.as_ptr() as *const L::R,
        t0.as_ptr() as *const L::R,
        out.as_mut_ptr() as *mut L::R,
    );
    let vp = 2 * L::C; // orbitals per vector pair
    let pairs = norb / vp;
    let mut p0 = 0;
    while p0 < npts {
        let np = (npts - p0).min(OVERLAP_BLOCK);
        let mut q = 0;
        while q < pairs {
            let v = (pairs - q).min(2);
            let mut u = 0;
            while u < nref {
                let w = (nref - u).min(2);
                // SAFETY: p0 < npts, vp*(q + v) <= norb, u + w <= nref.
                unsafe {
                    let tt = t.add(2 * (p0 * norb + vp * q));
                    let bt = t0.add(2 * (p0 * nref + u));
                    let ot = out.add(2 * (u * norb + vp * q));
                    match (v, w) {
                        (2, 2) => overlap_tile::<L, 2, 2>(tt, norb, bt, nref, np, ot),
                        (2, _) => overlap_tile::<L, 2, 1>(tt, norb, bt, nref, np, ot),
                        (_, 2) => overlap_tile::<L, 1, 2>(tt, norb, bt, nref, np, ot),
                        _ => overlap_tile::<L, 1, 1>(tt, norb, bt, nref, np, ot),
                    }
                }
                u += w;
            }
            q += v;
        }
        p0 += np;
    }
    pairs * vp
}

/// One orbital tile of the projector rank update: for `W` vectors of
/// orbitals, `t[p][n] += sum_u m[u][n] * t0[p][u]` at every one of `npts`
/// grid points, `P` points at a time: the tile's runs of those points stay
/// in `P * W` registers across all `nref` terms (each column of `m` is
/// loaded once for the `P` points), and `nrm[n] += |t[p][n]|^2` of the
/// updated values comes from the same pass. `im` holds `i * m`, so a complex
/// product is two FMAs on the interleaved run:
/// `m * b = m * b.re + (i m) * b.im`. Handles `npts - npts % P` points.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the caller keeps C*W orbitals inside the norb
// run of each of the npts points and of each of the nref columns of m and
// im and inside nrm, aliasing=the coefficient and reference arrays are
// only read; t and nrm are the caller's exclusive chunk and partial)
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<L: Lanes, const W: usize, const P: usize>(
    m: *const L::R,
    im: *const L::R,
    t0: *const L::R,
    nref: usize,
    t: *mut L::R,
    norb: usize,
    npts: usize,
    nrm: *mut L::R,
) {
    let zero = L::splat(L::R::ZERO);
    let mut nacc = [zero; W];
    let mut p = 0;
    while p + P <= npts {
        // acc[w][k]: orbital vector w of the tile at point p + k.
        let mut acc = [[zero; P]; W];
        for (w, run) in acc.iter_mut().enumerate() {
            for (k, a) in run.iter_mut().enumerate() {
                // SAFETY: point p + k < npts; vector w < W of this tile lies
                // inside its orbital run.
                *a = unsafe { L::load(t.add(2 * ((p + k) * norb + L::C * w))) };
            }
        }
        for u in 0..nref {
            let mut br = [zero; P];
            let mut bi = [zero; P];
            for (k, (r, i)) in br.iter_mut().zip(bi.iter_mut()).enumerate() {
                // SAFETY: point p + k < npts and u < nref: inside the
                // reference run.
                unsafe {
                    let b = t0.add(2 * ((p + k) * nref + u));
                    (*r, *i) = (L::splat(*b), L::splat(*b.add(1)));
                }
            }
            for (w, run) in acc.iter_mut().enumerate() {
                // SAFETY: vector w < W of this tile lies inside column u.
                let (mv, iv) = unsafe {
                    (
                        L::load(m.add(2 * (u * norb + L::C * w))),
                        L::load(im.add(2 * (u * norb + L::C * w))),
                    )
                };
                for (a, (br, bi)) in run.iter_mut().zip(br.iter().zip(&bi)) {
                    *a = iv.fmadd(*bi, mv.fmadd(*br, *a));
                }
            }
        }
        for (w, (run, n)) in acc.iter().zip(nacc.iter_mut()).enumerate() {
            for (k, a) in run.iter().enumerate() {
                // SAFETY: as for the load above.
                unsafe { a.store(t.add(2 * ((p + k) * norb + L::C * w))) };
                *n = a.fmadd(*a, *n);
            }
        }
        p += P;
    }
    for (w, n) in nacc.iter().enumerate() {
        // SAFETY: orbitals C*w .. C*(w + 1) of the tile lie inside nrm
        // (contract).
        unsafe { n.add_norms(nrm.add(L::C * w)) };
    }
}

/// Projector rank update with fused norms, `t[p][n] += sum_u m[u][n] *
/// t0[p][u]` and `nrm[n] += sum_p |t[p][n]|^2`, for the orbitals below the
/// returned count, the largest multiple of `2 * C` in `norb` (the caller's
/// portable body takes the rest), in tiles of four or two vectors of
/// orbitals by two grid points — eight independent FMA chains, what two FMA
/// ports of latency four need.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the entry assert ties every slice to npts
// points of norb / nref values; tiles stay below the returned count,
// aliasing=the coefficient and reference slices are shared borrows; t and
// nrm exclusive ones)
pub unsafe fn proj_update<L: Lanes>(
    m: &[Complex<L::R>],
    im: &[Complex<L::R>],
    t0: &[Complex<L::R>],
    nref: usize,
    t: &mut [Complex<L::R>],
    norb: usize,
    nrm: &mut [L::R],
) -> usize {
    let npts = t.len().checked_div(norb).unwrap_or(0);
    // AUDIT: waiver(entry guard before the raw-pointer sweep; shape misuse must fail loudly)
    assert!(
        t.len() == npts * norb
            && t0.len() == npts * nref
            && m.len() == norb * nref
            && im.len() == m.len()
            && nrm.len() == norb
    );
    let (m, im, t0) = (
        m.as_ptr() as *const L::R,
        im.as_ptr() as *const L::R,
        t0.as_ptr() as *const L::R,
    );
    let (t, nrm) = (t.as_mut_ptr() as *mut L::R, nrm.as_mut_ptr());
    let vec_n = norb & !(2 * L::C - 1);
    if npts == 0 {
        return vec_n;
    }
    // Points the two-at-a-time body covers; an odd last one follows alone.
    let paired = npts & !1;
    let mut n = 0;
    while n < vec_n {
        let wide = vec_n - n >= 4 * L::C;
        // `m` and `im` are empty when nref == 0 and are then never read:
        // their tile offsets must not be in-bounds claims.
        let (mt, it) = (m.wrapping_add(2 * n), im.wrapping_add(2 * n));
        // SAFETY: the tile's orbitals [n, n + C*W) lie below vec_n <= norb,
        // inside point 0's run of the non-empty t and inside nrm.
        unsafe {
            let (tt, nt) = (t.add(2 * n), nrm.add(n));
            if wide {
                update_tile::<L, 4, 2>(mt, it, t0, nref, tt, norb, npts, nt);
            } else {
                update_tile::<L, 2, 2>(mt, it, t0, nref, tt, norb, npts, nt);
            }
            if npts > paired {
                // npts is odd here: point `paired` exists in t and t0.
                let (bl, tl) = (t0.add(2 * paired * nref), tt.add(2 * paired * norb));
                if wide {
                    update_tile::<L, 4, 1>(mt, it, bl, nref, tl, norb, 1, nt);
                } else {
                    update_tile::<L, 2, 1>(mt, it, bl, nref, tl, norb, 1, nt);
                }
            }
        }
        n += if wide { 4 * L::C } else { 2 * L::C };
    }
    vec_n
}

/// The kinetic line kernel: the wavefront of [`line_units`] with each run
/// handed to [`pair_update`] — its `BARE` form when the pass is a bare
/// rotation, whose partnerless points are left alone — or [`scale`]. Their
/// bodies are lane-local: an element rounds the same wherever it sits in a
/// run, so the block size changes no bit.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU, that
/// `set.span()` elements are live behind `ptr`, that `set.stride >=
/// set.run` whenever a line has more than one point, and that no other
/// thread touches the set's lines during the call.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the dispatcher checked set.span() against the
// allocation; the nest keeps every run below it, aliasing=the caller owns
// the set's lines; partner runs are stride >= run >= len apart)
pub unsafe fn stencil_lines<L: Lanes>(
    ptr: *mut Complex<L::R>,
    set: &LineSet,
    passes: &[StencilPass<L::R>],
) {
    // SAFETY: the caller's contract is the nest's; the kernels carry the
    // target features of this fn.
    unsafe {
        line_units(ptr, set, passes, |pass, a, b| match (pass.rotation(), b) {
            (Some(_), None) => {}
            (Some(_), Some(b)) => pair_update::<L, true>(a, b, pass.d, pass.o),
            (None, None) => scale::<L>(a, pass.lone),
            (None, Some(b)) => pair_update::<L, false>(a, b, pass.d, pass.o),
        })
    };
}

/// One register tile of [`real_gemm`]: `c[a][col..] += sum_q x(a, q) *
/// b[q][col..]` for the `W` vectors of columns at `cols` (`part` reals wide:
/// fewer than a vector's are one masked vector), `P` rows at a time from row
/// `a` while `P` are left below `rows` (the first row left is returned),
/// their `P * W` accumulators in registers across all `nq` terms; `x(a, q)`
/// is `x[a * sa + q * sq]`, and `b`, `c` have `ld` reals to a row. The
/// vectors of a row are all loaded before any is stored, so two of them may
/// overlap.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the caller keeps the part reals at every one of
// cols inside the ld reals of each of the nq rows of b and rows rows of c
// and the entry of x the strides reach inside x for a < rows and q < nq,
// aliasing=x and b are only read; c is the caller's exclusive block)
#[allow(clippy::too_many_arguments)]
unsafe fn real_gemm_tile<L: Lanes, const W: usize, const P: usize>(
    x: *const L::R,
    (sa, sq): (usize, usize),
    nq: usize,
    b: *const L::R,
    c: *mut L::R,
    ld: usize,
    (cols, part): ([usize; W], usize),
    (mut a, rows): (usize, usize),
) -> usize {
    let zero = L::splat(L::R::ZERO);
    while a + P <= rows {
        let mut acc = [[zero; W]; P];
        for (k, run) in acc.iter_mut().enumerate() {
            for (z, col) in run.iter_mut().zip(cols) {
                // SAFETY: row a + k < rows of c; part reals at col are inside it.
                *z = unsafe { L::load_reals(c.add((a + k) * ld + col), part) };
            }
        }
        for q in 0..nq {
            let mut bv = [zero; W];
            for (v, col) in bv.iter_mut().zip(cols) {
                // SAFETY: row q < nq of b; part reals at col are inside it.
                *v = unsafe { L::load_reals(b.add(q * ld + col), part) };
            }
            for (k, run) in acc.iter_mut().enumerate() {
                // SAFETY: a + k < rows and q < nq (contract).
                let xv = L::splat(unsafe { *x.add((a + k) * sa + q * sq) });
                for (z, bv) in run.iter_mut().zip(&bv) {
                    *z = xv.fmadd(*bv, *z);
                }
            }
        }
        for (k, run) in acc.iter().enumerate() {
            for (z, col) in run.iter().zip(cols) {
                // SAFETY: as for the load above.
                unsafe { z.store_reals(c.add((a + k) * ld + col), part) };
            }
        }
        a += P;
    }
    a
}

/// The real block product `c[a][j] += sum_q x[a * sa + q * sq] * b[q][j]`
/// (`c` of `ncols` reals to a row, `b` of `nq` such rows). Columns go in
/// groups of up to four vectors; where `ncols` is no multiple of the vector,
/// the last vector of the last group starts early and overlaps its neighbour
/// (both hold the same sums); a width below one vector — the solver's active
/// set at the served-job shape, a quarter of its kernel work — and the few
/// columns past a multiple of four vectors are one masked vector. Rows go as
/// many at a time as give a group eight accumulators (what two FMA ports of
/// latency four need), then four, two, one.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU, that `c` is
/// `rows` whole rows of `ncols` and `b` `nq` of them, and that `x` holds
/// entry `(rows - 1) * sa + (nq - 1) * sq`.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the dispatcher asserted that c and b are whole
// rows of ncols and that the strides stay inside x; every vector ends at
// or below ncols, aliasing=x and b are shared borrows and c an exclusive one)
pub unsafe fn real_gemm<L: Lanes>(
    x: &[L::R],
    (sa, sq): (usize, usize),
    nq: usize,
    b: &[L::R],
    c: &mut [L::R],
    ncols: usize,
) {
    let (w, rows) = (2 * L::C, c.len().checked_div(ncols).unwrap_or(0));
    let (x, b, c, st) = (x.as_ptr(), b.as_ptr(), c.as_mut_ptr(), (sa, sq));
    let mut done = 0;
    while done < ncols {
        let part = (ncols - done).min(w);
        let vectors = (ncols - done).div_ceil(w).min(4);
        let at = |v: usize| (done + v * w).min(ncols - part);
        // All rows of a group of `$w` vectors, `$p` at a time, largest first.
        macro_rules! rows_by {
            ($w:literal: $($p:literal),+) => {{
                let (mut a, cols) = (0, (from_fn(at), part));
                // SAFETY: at(v) + part <= ncols; rows, nq and the strides
                // are those the dispatcher asserted.
                $(a = unsafe {
                    real_gemm_tile::<L, $w, $p>(x, st, nq, b, c, ncols, cols, (a, rows))
                };)+
                debug_assert_eq!(a, rows);
            }};
        }
        match vectors {
            4 => rows_by!(4: 2, 1),
            3 => rows_by!(3: 2, 1),
            2 => rows_by!(2: 4, 2, 1),
            _ => rows_by!(1: 8, 4, 2, 1),
        }
        done = (done + vectors * w).min(ncols);
    }
}
