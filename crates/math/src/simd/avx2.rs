//! The AVX2+FMA kernel bodies, each written once over [`Lanes`] and
//! instantiated for `__m256d` (f64 x 4) and `__m256` (f32 x 8).
//!
//! Two ways of getting complex arithmetic onto real lanes:
//!
//! * [`scale`] and [`pair_update`] multiply interleaved values by a
//!   *scalar* complex coefficient, which needs no deinterleaving:
//!   `z * c = z * [cr, cr] + swap(z) * [-ci, ci]` (or, in `scale`,
//!   `[zr, zr] * [cr, ci] + [zi, zi] * [-ci, cr]`, which rounds `zr * ci`
//!   first as the scalar product does), one multiply (or FMA) and one FMA
//!   per product.
//! * [`real_gemm`] multiplies by a *real* matrix, which treats the real and
//!   the imaginary part of an interleaved value alike: a point-major complex
//!   block is a real block of twice the columns, and no lane ever meets its
//!   partner.
//!
//! Every function here is `unsafe fn` + `#[target_feature]`: the caller
//! (dispatch in `simd::mod`) has verified AVX2+FMA. Loads and stores are
//! unaligned — operands come from caller-owned slices.

use core::array::from_fn;

use super::lanes::Lanes;
use crate::complex::Complex;
use crate::real::Real;
use crate::simd::{line_units, LineSet, StencilPass};

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
