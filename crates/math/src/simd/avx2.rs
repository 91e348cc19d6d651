//! AVX2+FMA kernels for `Complex<f64>` data.
//!
//! Three ways of getting complex arithmetic onto four real lanes:
//!
//! * The GEMM microkernel ([`mk4x4`]) consumes panels that were *packed*
//!   into separate re/im arrays (SoA), so every vector load is four useful
//!   reals and the complex product needs no in-register shuffles at all —
//!   16 FMAs per contraction step for a 4×4 output tile.
//! * The projector overlap loads interleaved `Complex<f64>` pairs and
//!   deinterleaves in-register with `unpacklo/unpackhi`. Those produce the
//!   fixed lane permutation `[z0 z2 z1 z3]`; elementwise arithmetic
//!   commutes with any lane permutation, and the same unpack pair applied
//!   to (re, im) vectors restores the original interleaved order on store,
//!   so results land exactly where the scalar loop would put them.
//! * [`scale`], [`pair_update`] and the projector rank update multiply
//!   interleaved values by a *scalar* complex coefficient, which needs no
//!   deinterleaving: `z * c = z * [cr, cr] + swap(z) * [-ci, ci]` (or, in
//!   `scale`, `[zr, zr] * [cr, ci] + [zi, zi] * [-ci, cr]`, which rounds
//!   `zr * ci` first as the scalar product does), one multiply (or FMA)
//!   and one FMA per product, each 128-bit lane holding one complex value.
//!
//! Every function here is `unsafe fn` + `#[target_feature]`: the caller
//! (dispatch in `simd::mod`) is responsible for having verified AVX2+FMA
//! via `is_x86_feature_detected!`. Loads/stores are `_mm256_loadu_pd`/
//! `storeu` — operands come from caller-owned slices with no alignment
//! guarantee (arena panels are 64-byte aligned at the start but microkernel
//! offsets within them are only 8-byte granular).

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
    _mm256_fnmadd_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute_pd,
    _mm256_set1_pd, _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_unpackhi_pd,
    _mm256_unpacklo_pd, _mm_add_pd, _mm_fmadd_pd, _mm_hadd_pd, _mm_loadu_pd, _mm_movedup_pd,
    _mm_mul_pd, _mm_permute_pd, _mm_storeu_pd, _mm_unpackhi_pd,
};

use crate::complex::Complex;
use crate::simd::{LineSet, StencilPass, Wavefront, MR, NR};

type C64 = Complex<f64>;

/// Deinterleave four `Complex<f64>` held in two ymm registers into
/// (re, im) vectors with lane order `[z0 z2 z1 z3]`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2) pure register permutation; inherits the
// module-wide target-feature caller contract (see `# Safety` on the
// public kernels).
fn deinterleave(lo: __m256d, hi: __m256d) -> (__m256d, __m256d) {
    (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
}

/// Re-interleave (re, im) vectors in `[z0 z2 z1 z3]` lane order back into
/// the two original interleaved ymm registers.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2) pure register permutation; see `deinterleave`.
fn interleave(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
    (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im))
}

/// 4×4 split-complex GEMM microkernel:
/// `T[i][j] = sum_p a[p][i] * b[p][j]` over `kw` contraction steps, with
/// `a`/`b` supplied as separate re/im MR- / NR-packed panels and the tile
/// written to column-major `out_re`/`out_im` (`out[j*MR + i]`).
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
pub unsafe fn mk4x4(
    kw: usize,
    a_re: &[f64],
    a_im: &[f64],
    b_re: &[f64],
    b_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    debug_assert!(a_re.len() >= kw * MR && a_im.len() >= kw * MR);
    debug_assert!(b_re.len() >= kw * NR && b_im.len() >= kw * NR);
    // AUDIT: waiver(entry guard before the hot loop; tile-size misuse must fail loudly)
    assert!(out_re.len() >= MR * NR && out_im.len() >= MR * NR);
    let mut cre = [_mm256_setzero_pd(); NR];
    let mut cim = [_mm256_setzero_pd(); NR];
    for p in 0..kw {
        // SAFETY: p < kw so p*MR + MR <= kw*MR <= slice length.
        let ar = unsafe { _mm256_loadu_pd(a_re.as_ptr().add(p * MR)) };
        // SAFETY: as above.
        let ai = unsafe { _mm256_loadu_pd(a_im.as_ptr().add(p * MR)) };
        for j in 0..NR {
            // SAFETY: p < kw, j < NR so p*NR + j < kw*NR <= slice length.
            let br = _mm256_set1_pd(unsafe { *b_re.get_unchecked(p * NR + j) });
            // SAFETY: as above.
            let bi = _mm256_set1_pd(unsafe { *b_im.get_unchecked(p * NR + j) });
            // (ar + i*ai)(br + i*bi): re = ar*br - ai*bi, im = ar*bi + ai*br.
            cre[j] = _mm256_fnmadd_pd(ai, bi, _mm256_fmadd_pd(ar, br, cre[j])); // AUDIT: waiver(j < NR tile bound)
            cim[j] = _mm256_fmadd_pd(ai, br, _mm256_fmadd_pd(ar, bi, cim[j])); // AUDIT: waiver(j < NR tile bound)
        }
    }
    for j in 0..NR {
        // SAFETY: out slices hold >= MR*NR f64 (asserted); j*MR + MR <= MR*NR.
        unsafe {
            _mm256_storeu_pd(out_re.as_mut_ptr().add(j * MR), cre[j]); // AUDIT: waiver(j < NR tile bound)
            _mm256_storeu_pd(out_im.as_mut_ptr().add(j * MR), cim[j]); // AUDIT: waiver(j < NR tile bound)
        }
    }
}

/// `z *= ph` over an interleaved complex slice.
///
/// SIMD-lane-local: each 128-bit lane holds one complex value and computes
/// `re = zr*pr - zi*pi`, `im = zr*pi + zi*pr` as one multiply and one FMA,
/// so an odd trailing element takes the 128-bit form of the same two
/// operations and every element rounds alike wherever it sits in a run.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the vector loop touches complex values i and
// i+1 <= n - 1 per step and the tail the single value n - 1)
pub unsafe fn scale(zs: &mut [C64], ph: C64) {
    let n = zs.len();
    let pz = zs.as_mut_ptr() as *mut f64;
    // [pr, pi] against [zr, zr]; [-pi, pr] against [zi, zi].
    let p_re = _mm256_setr_pd(ph.re, ph.im, ph.re, ph.im);
    let p_im = _mm256_setr_pd(-ph.im, ph.re, -ph.im, ph.re);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: complex values i and i+1 are in bounds.
        unsafe {
            let z = _mm256_loadu_pd(pz.add(2 * i));
            let prod = _mm256_mul_pd(_mm256_movedup_pd(z), p_re);
            let out = _mm256_fmadd_pd(_mm256_unpackhi_pd(z, z), p_im, prod);
            _mm256_storeu_pd(pz.add(2 * i), out);
        }
        i += 2;
    }
    if i < n {
        // SAFETY: complex value i = n - 1 is in bounds.
        unsafe {
            let z = _mm_loadu_pd(pz.add(2 * i));
            let prod = _mm_mul_pd(_mm_movedup_pd(z), _mm256_castpd256_pd128(p_re));
            let out = _mm_fmadd_pd(_mm_unpackhi_pd(z, z), _mm256_castpd256_pd128(p_im), prod);
            _mm_storeu_pd(pz.add(2 * i), out);
        }
    }
}

/// Kinetic stencil pair rotation over two interleaved complex slices:
/// `a' = d*a + o*b`, `b' = o*a + d*b` elementwise.
///
/// SIMD-lane-local like [`scale`]: with `swap(z) = [zi, zr]` a complex product
/// is `z * c = z * [cr, cr] + swap(z) * [-ci, ci]`, so each output is one
/// multiply and three FMAs on the interleaved values and a swap per input
/// — half the shuffles of a deinterleave/reinterleave round trip, and an
/// odd trailing element takes the 128-bit form of the same operations.
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
// SAFETY: (cpu=avx2, bounds=the vector loop touches complex values i and
// i+1 <= n - 1 per step and the tail the single value n - 1,
// aliasing=a and b are disjoint &mut borrows)
pub unsafe fn pair_update<const BARE: bool>(a: &mut [C64], b: &mut [C64], d: C64, o: C64) {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let pa = a.as_mut_ptr() as *mut f64;
    let pb = b.as_mut_ptr() as *mut f64;
    let d_re = _mm256_set1_pd(d.re);
    let d_im = _mm256_setr_pd(-d.im, d.im, -d.im, d.im);
    let o_re = _mm256_set1_pd(o.re);
    let o_im = _mm256_setr_pd(-o.im, o.im, -o.im, o.im);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: complex values i and i+1 of both slices are in bounds;
        // `a` and `b` are disjoint, so each in-place update is race-free.
        unsafe {
            let u = _mm256_loadu_pd(pa.add(2 * i));
            let v = _mm256_loadu_pd(pb.add(2 * i));
            let us = _mm256_permute_pd::<0b0101>(u);
            let vs = _mm256_permute_pd::<0b0101>(v);
            // a' = d*u + o*v:
            //   re = ((dr*ur - di*ui) + or*vr) - oi*vi
            //   im = ((dr*ui + di*ur) + or*vi) + oi*vr
            // b' = o*u + d*v (same structure with d/o swapped).
            let (na, nb) = if BARE {
                (
                    _mm256_fmadd_pd(vs, o_im, _mm256_mul_pd(u, d_re)),
                    _mm256_fmadd_pd(v, d_re, _mm256_mul_pd(us, o_im)),
                )
            } else {
                let na = _mm256_fmadd_pd(us, d_im, _mm256_mul_pd(u, d_re));
                let nb = _mm256_fmadd_pd(us, o_im, _mm256_mul_pd(u, o_re));
                (
                    _mm256_fmadd_pd(vs, o_im, _mm256_fmadd_pd(v, o_re, na)),
                    _mm256_fmadd_pd(vs, d_im, _mm256_fmadd_pd(v, d_re, nb)),
                )
            };
            _mm256_storeu_pd(pa.add(2 * i), na);
            _mm256_storeu_pd(pb.add(2 * i), nb);
        }
        i += 2;
    }
    if i < n {
        let (d_re, d_im) = (_mm256_castpd256_pd128(d_re), _mm256_castpd256_pd128(d_im));
        let (o_re, o_im) = (_mm256_castpd256_pd128(o_re), _mm256_castpd256_pd128(o_im));
        // SAFETY: complex value i = n - 1 of both slices is in bounds.
        unsafe {
            let u = _mm_loadu_pd(pa.add(2 * i));
            let v = _mm_loadu_pd(pb.add(2 * i));
            let us = _mm_permute_pd::<0b01>(u);
            let vs = _mm_permute_pd::<0b01>(v);
            let (na, nb) = if BARE {
                (
                    _mm_fmadd_pd(vs, o_im, _mm_mul_pd(u, d_re)),
                    _mm_fmadd_pd(v, d_re, _mm_mul_pd(us, o_im)),
                )
            } else {
                let na = _mm_fmadd_pd(us, d_im, _mm_mul_pd(u, d_re));
                let nb = _mm_fmadd_pd(us, o_im, _mm_mul_pd(u, o_re));
                (
                    _mm_fmadd_pd(vs, o_im, _mm_fmadd_pd(v, o_re, na)),
                    _mm_fmadd_pd(vs, d_im, _mm_fmadd_pd(v, d_re, nb)),
                )
            };
            _mm_storeu_pd(pa.add(2 * i), na);
            _mm_storeu_pd(pb.add(2 * i), nb);
        }
    }
}

/// Grid points the overlap kernel sweeps with one accumulator tile held in
/// registers: 64 points x (16 + 8) complex values = 24 KiB at the paper's
/// 16-orbital, 8-reference shape, so the block every tile re-reads stays
/// in L1.
const OVERLAP_BLOCK: usize = 64;

/// One register tile of the projector overlap: for `4 * V` orbitals and
/// `U` references, `out[u][n] += sum_p t[p][n] * conj(t0[p][u])` over
/// `npts` grid points, the `2 * V * U` accumulators living in registers
/// for the whole sweep. `t`/`t0`/`out` point at the tile's first orbital /
/// reference; `norb`, `nref` are the per-point run lengths and also the
/// leading dimension of `out`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the caller keeps 4*V orbitals and U references
// inside the norb / nref runs of each of the npts points and inside the
// norb x nref output, aliasing=t and t0 are only read; out is the
// caller's exclusive partial)
unsafe fn overlap_tile<const V: usize, const U: usize>(
    t: *const f64,
    norb: usize,
    t0: *const f64,
    nref: usize,
    npts: usize,
    out: *mut f64,
) {
    let zero = _mm256_setzero_pd();
    let mut acc_re = [[zero; U]; V];
    let mut acc_im = [[zero; U]; V];
    for p in 0..npts {
        // SAFETY: p < npts, so both point runs are in bounds (contract).
        let (tp, bp) = unsafe { (t.add(2 * p * norb), t0.add(2 * p * nref)) };
        let mut tr = [zero; V];
        let mut ti = [zero; V];
        for (v, (r, i)) in tr.iter_mut().zip(ti.iter_mut()).enumerate() {
            // SAFETY: quad v < V of this tile lies inside the orbital run.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_pd(tp.add(8 * v)),
                    _mm256_loadu_pd(tp.add(8 * v + 4)),
                )
            };
            (*r, *i) = deinterleave(lo, hi);
        }
        let mut br = [zero; U];
        let mut bi = [zero; U];
        for (u, (r, i)) in br.iter_mut().zip(bi.iter_mut()).enumerate() {
            // SAFETY: reference u < U of this tile lies inside the run.
            unsafe {
                (*r, *i) = (
                    _mm256_set1_pd(*bp.add(2 * u)),
                    _mm256_set1_pd(*bp.add(2 * u + 1)),
                );
            }
        }
        let quads = acc_re.iter_mut().zip(acc_im.iter_mut());
        for ((row_re, row_im), (tr, ti)) in quads.zip(tr.iter().zip(&ti)) {
            let refs = row_re.iter_mut().zip(row_im.iter_mut());
            for ((re, im), (br, bi)) in refs.zip(br.iter().zip(&bi)) {
                // t * conj(b): re += tr*br + ti*bi, im += ti*br - tr*bi.
                *re = _mm256_fmadd_pd(*ti, *bi, _mm256_fmadd_pd(*tr, *br, *re));
                *im = _mm256_fnmadd_pd(*tr, *bi, _mm256_fmadd_pd(*ti, *br, *im));
            }
        }
    }
    for (v, (row_re, row_im)) in acc_re.iter().zip(&acc_im).enumerate() {
        for (u, (re, im)) in row_re.iter().zip(row_im).enumerate() {
            let (lo, hi) = interleave(*re, *im);
            // SAFETY: column u, quad v of the tile inside the output.
            unsafe {
                let o = out.add(2 * (u * norb + 4 * v));
                _mm256_storeu_pd(o, _mm256_add_pd(_mm256_loadu_pd(o), lo));
                _mm256_storeu_pd(o.add(4), _mm256_add_pd(_mm256_loadu_pd(o.add(4)), hi));
            }
        }
    }
}

/// Projector overlap `out[u][n] += sum_p t[p][n] * conj(t0[p][u])` for
/// the orbitals below `norb & !3` (the caller's portable body takes the
/// rest): blocks of [`OVERLAP_BLOCK`] grid points, and inside a block one
/// register tile of up to 8 orbitals x 2 references at a time.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the entry assert ties every slice to npts
// points of norb / nref values; tiles stay below norb & !3 and nref,
// aliasing=t and t0 are shared borrows and out an exclusive one)
pub unsafe fn proj_overlap(t: &[C64], norb: usize, t0: &[C64], nref: usize, out: &mut [C64]) {
    let npts = t.len().checked_div(norb).unwrap_or(0);
    // AUDIT: waiver(entry guard before the raw-pointer sweep; shape misuse must fail loudly)
    assert!(t.len() == npts * norb && t0.len() == npts * nref && out.len() == norb * nref);
    let (t, t0, out) = (
        t.as_ptr() as *const f64,
        t0.as_ptr() as *const f64,
        out.as_mut_ptr() as *mut f64,
    );
    let quads = norb / 4;
    let mut p0 = 0;
    while p0 < npts {
        let np = (npts - p0).min(OVERLAP_BLOCK);
        let mut q = 0;
        while q < quads {
            let v = (quads - q).min(2);
            let mut u = 0;
            while u < nref {
                let w = (nref - u).min(2);
                // SAFETY: p0 < npts, 4*(q + v) <= norb, u + w <= nref.
                unsafe {
                    let tt = t.add(2 * (p0 * norb + 4 * q));
                    let bt = t0.add(2 * (p0 * nref + u));
                    let ot = out.add(2 * (u * norb + 4 * q));
                    match (v, w) {
                        (2, 2) => overlap_tile::<2, 2>(tt, norb, bt, nref, np, ot),
                        (2, _) => overlap_tile::<2, 1>(tt, norb, bt, nref, np, ot),
                        (_, 2) => overlap_tile::<1, 2>(tt, norb, bt, nref, np, ot),
                        _ => overlap_tile::<1, 1>(tt, norb, bt, nref, np, ot),
                    }
                }
                u += w;
            }
            q += v;
        }
        p0 += np;
    }
}

/// One orbital tile of the projector rank update: for `2 * W` orbitals,
/// `t[p][n] += sum_u m[u][n] * t0[p][u]` at every one of `npts` grid
/// points, `P` points at a time: the tile's runs of those points stay in
/// `P * W` registers across all `nref` terms (each column of `m` is loaded
/// once for the `P` points), and `nrm[n] += |t[p][n]|^2` of the updated
/// values comes from the same pass. `im` holds `i * m`, so a complex
/// product is two FMAs on the interleaved run:
/// `m * b = m * b.re + (i m) * b.im`. Handles `npts - npts % P` points.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the caller keeps 2*W orbitals inside the norb
// run of each of the npts points and of each of the nref columns of m and
// im and inside nrm, aliasing=the coefficient and reference arrays are
// only read; t and nrm are the caller's exclusive chunk and partial)
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<const W: usize, const P: usize>(
    m: *const f64,
    im: *const f64,
    t0: *const f64,
    nref: usize,
    t: *mut f64,
    norb: usize,
    npts: usize,
    nrm: *mut f64,
) {
    let zero = _mm256_setzero_pd();
    let mut nacc = [zero; W];
    let mut p = 0;
    while p + P <= npts {
        // acc[w][k]: orbital pair w of the tile at point p + k.
        let mut acc = [[zero; P]; W];
        for (w, pair) in acc.iter_mut().enumerate() {
            for (k, a) in pair.iter_mut().enumerate() {
                // SAFETY: point p + k < npts; pair w < W of this tile lies
                // inside its orbital run.
                *a = unsafe { _mm256_loadu_pd(t.add(2 * (p + k) * norb + 4 * w)) };
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
                    (*r, *i) = (_mm256_set1_pd(*b), _mm256_set1_pd(*b.add(1)));
                }
            }
            for (w, pair) in acc.iter_mut().enumerate() {
                // SAFETY: pair w < W of this tile lies inside column u.
                let (mv, iv) = unsafe {
                    (
                        _mm256_loadu_pd(m.add(2 * u * norb + 4 * w)),
                        _mm256_loadu_pd(im.add(2 * u * norb + 4 * w)),
                    )
                };
                for (a, (br, bi)) in pair.iter_mut().zip(br.iter().zip(&bi)) {
                    *a = _mm256_fmadd_pd(iv, *bi, _mm256_fmadd_pd(mv, *br, *a));
                }
            }
        }
        for (w, (pair, n)) in acc.iter().zip(nacc.iter_mut()).enumerate() {
            for (k, a) in pair.iter().enumerate() {
                // SAFETY: as for the load above.
                unsafe { _mm256_storeu_pd(t.add(2 * (p + k) * norb + 4 * w), *a) };
                *n = _mm256_fmadd_pd(*a, *a, *n);
            }
        }
        p += P;
    }
    for (w, n) in nacc.iter().enumerate() {
        // [re0^2 + im0^2, re1^2 + im1^2] of the pair's two orbitals.
        let sums = _mm_hadd_pd(_mm256_castpd256_pd128(*n), _mm256_extractf128_pd::<1>(*n));
        // SAFETY: orbitals 2w, 2w+1 of the tile lie inside nrm (contract).
        unsafe {
            let slot = nrm.add(2 * w);
            _mm_storeu_pd(slot, _mm_add_pd(_mm_loadu_pd(slot), sums));
        }
    }
}

/// Projector rank update with fused norms, `t[p][n] += sum_u m[u][n] *
/// t0[p][u]` and `nrm[n] += sum_p |t[p][n]|^2`, for the orbitals below
/// `norb & !3` (the caller's portable body takes the rest), in tiles of 8
/// or 4 orbitals by two grid points — eight independent FMA chains, what
/// two FMA ports of latency four need.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=the entry assert ties every slice to npts
// points of norb / nref values; tiles stay below norb & !3,
// aliasing=the coefficient and reference slices are shared borrows; t and
// nrm exclusive ones)
pub unsafe fn proj_update(
    m: &[C64],
    im: &[C64],
    t0: &[C64],
    nref: usize,
    t: &mut [C64],
    norb: usize,
    nrm: &mut [f64],
) {
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
        m.as_ptr() as *const f64,
        im.as_ptr() as *const f64,
        t0.as_ptr() as *const f64,
    );
    let (t, nrm) = (t.as_mut_ptr() as *mut f64, nrm.as_mut_ptr());
    if npts == 0 {
        return;
    }
    // Points the two-at-a-time body covers; an odd last one follows alone.
    let paired = npts & !1;
    let vec_n = norb & !3;
    let mut n = 0;
    while n < vec_n {
        let wide = vec_n - n >= 8;
        // `m` and `im` are empty when nref == 0 and are then never read:
        // their tile offsets must not be in-bounds claims.
        let (mt, it) = (m.wrapping_add(2 * n), im.wrapping_add(2 * n));
        // SAFETY: the tile's orbitals [n, n + 2W) lie below vec_n <= norb,
        // inside point 0's run of the non-empty t and inside nrm.
        unsafe {
            let (tt, nt) = (t.add(2 * n), nrm.add(n));
            if wide {
                update_tile::<4, 2>(mt, it, t0, nref, tt, norb, npts, nt);
            } else {
                update_tile::<2, 2>(mt, it, t0, nref, tt, norb, npts, nt);
            }
            if npts > paired {
                // npts is odd here: point `paired` exists in t and t0.
                let (bl, tl) = (t0.add(2 * paired * nref), tt.add(2 * paired * norb));
                if wide {
                    update_tile::<4, 1>(mt, it, bl, nref, tl, norb, 1, nt);
                } else {
                    update_tile::<2, 1>(mt, it, bl, nref, tl, norb, 1, nt);
                }
            }
        }
        n += if wide { 8 } else { 4 };
    }
}

/// The kinetic line kernel: every line of `set`, one orbital block at a
/// time, takes all passes of a sweep (`E O E`, or `E O E O E` for two
/// merged half-steps) as one [`Wavefront`], the live points L1-resident.
/// Each block is a run handed to [`pair_update`] — its `BARE` form when the
/// pass is a bare rotation, whose partnerless points are left alone — or
/// [`scale`]. Their bodies are lane-local: an element rounds the same
/// wherever it sits in a run, so the block size changes no bit.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support on this CPU, that
/// `set.span()` elements are live behind `ptr`, that `set.stride >=
/// set.run` whenever a line has more than one point, and that no other
/// thread touches the set's lines during the call.
#[target_feature(enable = "avx2", enable = "fma")]
// AUDIT: no_panic
// SAFETY: (cpu=avx2, bounds=every run of len elements from
// base + nb + i*stride with i < n_axis and nb + len <= run ends at or
// below set.span() which the dispatcher checked against the allocation,
// aliasing=the caller owns the set's lines; partner runs are
// stride >= run >= len apart)
pub unsafe fn stencil_lines(ptr: *mut C64, set: &LineSet, passes: &[StencilPass<f64>]) {
    for line in 0..set.n_lines {
        let base = set.first + line * set.line_step;
        let mut nb = 0;
        while nb < set.run {
            let len = (set.run - nb).min(set.block);
            // SAFETY: see the bounds= and aliasing= claims above; each
            // slice is dropped before the next one over its elements.
            let run = |i: usize| unsafe {
                std::slice::from_raw_parts_mut(ptr.add(base + nb + i * set.stride), len)
            };
            for unit in Wavefront::new(passes, set.n_axis) {
                let (pass, at) = (unit.pass, unit.at);
                // SAFETY: same target features as this fn.
                unsafe {
                    match (pass.rotation(), unit.lone) {
                        (Some(_), true) => {}
                        (Some(_), false) => {
                            pair_update::<true>(run(at), run(at + 1), pass.d, pass.o)
                        }
                        (None, true) => scale(run(at), pass.lone),
                        (None, false) => pair_update::<false>(run(at), run(at + 1), pass.d, pass.o),
                    }
                }
            }
            nb += len;
        }
    }
}
