//! The vector kernel bodies, each written once over [`Lanes`], and the two
//! entry points that run one: [`on_256`] on `__m256d` / `__m256` (f64 x 4 /
//! f32 x 8) under AVX2 + FMA, [`on_512`] on `__m512d` / `__m512` (f64 x 8 /
//! f32 x 16) under AVX-512F. A body is an `#[inline(always)]` method without
//! target features, compiled whole into the entry point that runs it, so the
//! 256-bit instantiation never carries AVX-512F.
//!
//! Two ways of getting complex arithmetic onto real lanes:
//!
//! * [`Scale`] and [`Pair`] multiply interleaved values by a *scalar*
//!   complex coefficient, which needs no deinterleaving:
//!   `z * c = z * [cr, cr] + swap(z) * [-ci, ci]` (or, in `Scale`,
//!   `[zr, zr] * [cr, ci] + [zi, zi] * [-ci, cr]`, which rounds `zr * ci`
//!   first as the scalar product does), one multiply (or FMA) and one FMA
//!   per product.
//! * [`Gemm`] multiplies by a *real* matrix, which treats the real and
//!   the imaginary part of an interleaved value alike: a point-major complex
//!   block is a real block of twice the columns, and no lane ever meets its
//!   partner.
//!
//! The caller of an entry point (dispatch in `simd::mod`) has verified its
//! features. Loads and stores are unaligned — operands come from
//! caller-owned slices.

use core::array::from_fn;

use super::lanes::Lanes;
use crate::complex::Complex;
use crate::real::Real;
use crate::simd::{line_units, LineSet, StencilPass};

/// A kernel body with its operands.
pub trait Body<R: Real> {
    /// The kernel on the lanes `L`.
    ///
    /// # Safety
    ///
    /// The caller enables the target features of `L` and keeps the body's
    /// own contract.
    unsafe fn run<L: Lanes<R = R>>(self);
}

/// Runs `body` on the 256-bit lanes of `R`.
///
/// # Safety
///
/// The caller has verified AVX2 and FMA on this CPU and keeps the body's
/// contract.
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: (cpu=avx2) the caller verified AVX2 and FMA.
pub unsafe fn on_256<R: Real>(body: impl Body<R>) {
    // SAFETY: the features of `R::V256` are enabled; the rest is the caller's.
    unsafe { body.run::<R::V256>() }
}

/// Runs `body` on the 512-bit lanes of `R`.
///
/// # Safety
///
/// The caller has verified AVX-512F on this CPU and keeps the body's
/// contract.
#[target_feature(enable = "avx512f")]
// SAFETY: (cpu=avx512f) the caller verified AVX-512F.
pub unsafe fn on_512<R: Real>(body: impl Body<R>) {
    // SAFETY: the features of `R::V512` are enabled; the rest is the caller's.
    unsafe { body.run::<R::V512>() }
}

/// `z *= ph` over an interleaved complex slice.
///
/// Lane-local: every complex value computes `re = zr*pr - zi*pi`,
/// `im = zr*pi + zi*pr` as one multiply and one FMA, and the ragged end
/// takes the same two operations on a masked vector, so every element
/// rounds alike wherever it sits in a run.
pub struct Scale<'a, R>(pub &'a mut [Complex<R>], pub Complex<R>);

impl<R: Real> Body<R> for Scale<'_, R> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the vector loop touches complex values i .. i + C <= n
    // per step and the tail the 2 (n - i) reals of the values i .. n)
    unsafe fn run<L: Lanes<R = R>>(self) {
        let Scale(zs, ph) = self;
        let n = zs.len();
        let pz = zs.as_mut_ptr() as *mut R;
        // [pr, pi] against [zr, zr]; [-pi, pr] against [zi, zi].
        let p = [L::pattern(ph.re, ph.im), L::pattern(-ph.im, ph.re)];
        let mut i = 0;
        while i + L::C <= n {
            // SAFETY: complex values i .. i + C are in bounds.
            unsafe { times(L::load(pz.add(2 * i)), p).store(pz.add(2 * i)) };
            i += L::C;
        }
        if i < n {
            let m = 2 * (n - i);
            // SAFETY: the m reals of complex values i .. n are in bounds.
            unsafe { times(L::load_masked(pz.add(2 * i), m), p).store_masked(pz.add(2 * i), m) };
        }
    }
}

/// One vector of [`Scale`]. A helper over vectors is an `#[inline(always)]`
/// fn, never a closure: a closure has no target features, and one left out
/// of line passes every vector, and calls every lane operation, through memory.
#[inline(always)]
fn times<L: Lanes>(z: L, [p_re, p_im]: [L; 2]) -> L {
    z.dup_im().fmadd(p_im, z.dup_re().mul(p_re))
}

/// Kinetic stencil pair rotation over two interleaved complex slices:
/// `a' = d*a + o*b`, `b' = o*a + d*b` elementwise, `Pair(a, b, d, o)`.
///
/// Lane-local like [`Scale`]: with `swap(z) = [zi, zr]` a complex product
/// is `z * c = z * [cr, cr] + swap(z) * [-ci, ci]`, so each output is one
/// multiply and three FMAs on the interleaved values and a swap per input
/// — half the shuffles of a deinterleave/reinterleave round trip, and the
/// ragged end takes the same operations on a masked vector.
/// `BARE` is the caller's word that `d.im == 0` and `o.re == 0` (the bare
/// rotation `[[c, -is], [-is, c]]`): the two FMAs per output that then add
/// an exact zero are left out — the same bits for half the arithmetic.
pub struct Pair<'a, R, const BARE: bool>(
    pub &'a mut [Complex<R>],
    pub &'a mut [Complex<R>],
    pub Complex<R>,
    pub Complex<R>,
);

impl<R: Real, const BARE: bool> Body<R> for Pair<'_, R, BARE> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the vector loop touches complex values i .. i + C <= n
    // per step and the tail the 2 (n - i) reals of the values i .. n,
    // aliasing=a and b are disjoint &mut borrows)
    unsafe fn run<L: Lanes<R = R>>(self) {
        let Pair(a, b, d, o) = self;
        debug_assert_eq!(a.len(), b.len());
        let n = a.len().min(b.len());
        let pa = a.as_mut_ptr() as *mut R;
        let pb = b.as_mut_ptr() as *mut R;
        let (d_re, d_im) = (L::splat(d.re), L::pattern(-d.im, d.im));
        let (o_re, o_im) = (L::splat(o.re), L::pattern(-o.im, o.im));
        let k = [d_re, d_im, o_re, o_im];
        let mut i = 0;
        while i + L::C <= n {
            // SAFETY: complex values i .. i + C of both slices are in bounds;
            // `a` and `b` are disjoint, so each in-place update is race-free.
            unsafe {
                let (qa, qb) = (pa.add(2 * i), pb.add(2 * i));
                let (na, nb) = rotate::<L, BARE>(L::load(qa), L::load(qb), k);
                na.store(qa);
                nb.store(qb);
            }
            i += L::C;
        }
        if i < n {
            let m = 2 * (n - i);
            // SAFETY: the m reals of complex values i .. n of both slices are
            // in bounds.
            unsafe {
                let (qa, qb) = (pa.add(2 * i), pb.add(2 * i));
                let (na, nb) = rotate::<L, BARE>(L::load_masked(qa, m), L::load_masked(qb, m), k);
                na.store_masked(qa, m);
                nb.store_masked(qb, m);
            }
        }
    }
}

/// One vector of each run of [`Pair`], the coefficients as `[d_re, d_im,
/// o_re, o_im]`. `a' = d*u + o*v`:
///   `re = ((dr*ur - di*ui) + or*vr) - oi*vi`,
///   `im = ((dr*ui + di*ur) + or*vi) + oi*vr`;
/// `b' = o*u + d*v` (same structure with d/o swapped).
#[inline(always)]
fn rotate<L: Lanes, const BARE: bool>(u: L, v: L, [d_re, d_im, o_re, o_im]: [L; 4]) -> (L, L) {
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
}

/// The kinetic line kernel, `Lines(ptr, set, passes)`: the wavefront of
/// [`line_units`] with each run handed to [`Pair`] — its `BARE` form when the
/// pass is a bare rotation, whose partnerless points are left alone — or
/// [`Scale`]. Their bodies are lane-local: an element rounds the same
/// wherever it sits in a run, so the block size changes no bit.
///
/// Its contract: `set.span()` elements are live behind `ptr`, `set.stride >=
/// set.run` whenever a line has more than one point, and no other thread
/// touches the set's lines during the call.
pub struct Lines<'a, R>(
    pub *mut Complex<R>,
    pub &'a LineSet,
    pub &'a [StencilPass<R>],
);

impl<R: Real> Body<R> for Lines<'_, R> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the dispatcher checked set.span() against the
    // allocation; the nest keeps every run below it, aliasing=the caller owns
    // the set's lines; partner runs are stride >= run >= len apart)
    unsafe fn run<L: Lanes<R = R>>(self) {
        let Lines(ptr, set, passes) = self;
        // SAFETY: the caller's contract is the nest's, and the bodies are
        // compiled under the target features the caller enabled.
        unsafe {
            line_units(ptr, set, passes, |pass, a, b| match (pass.rotation(), b) {
                (Some(_), None) => {}
                (Some(_), Some(b)) => Pair::<R, true>(a, b, pass.d, pass.o).run::<L>(),
                (None, None) => Scale(a, pass.lone).run::<L>(),
                (None, Some(b)) => Pair::<R, false>(a, b, pass.d, pass.o).run::<L>(),
            })
        };
    }
}

/// One register tile of [`Gemm`]: `c[a][col..] += sum_q x(a, q) *
/// b[q][col..]` for the `W` vectors of columns at `cols` (`part` reals wide:
/// fewer than a vector's are one masked vector), `P` rows at a time from row
/// `a` while `P` are left below `rows` (the first row left is returned),
/// their `P * W` accumulators in registers across all `nq` terms; `x(a, q)`
/// is `x[a * sa + q * sq]`, and `b`, `c` have `ld` reals to a row. The
/// vectors of a row are all loaded before any is stored, so two of them may
/// overlap.
///
/// # Safety
///
/// The caller enables the target features of `L` and keeps every access
/// inside the bounds the contract below claims.
#[inline(always)]
// AUDIT: no_panic
// SAFETY: (bounds=the caller keeps the part reals at every one of
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

/// The real block product `c[a][j] += sum_q x[a * sa + q * sq] * b[q][j]`,
/// `Gemm(x, (sa, sq), nq, b, c, ncols)` (`c` of `ncols` reals to a row, `b`
/// of `nq` such rows). Columns go in groups of up to four vectors; where
/// `ncols` is no multiple of the vector, the last vector of the last group
/// starts early and overlaps its neighbour (both hold the same sums); a
/// width below one vector — the solver's active set at the served-job shape,
/// a quarter of its kernel work — and the few columns past a multiple of
/// four vectors are one masked vector. Rows go as many at a time as give a
/// group eight accumulators (what two FMA ports of latency four need), then
/// four, two, one.
///
/// Its contract: `c` is `rows` whole rows of `ncols` and `b` `nq` of them,
/// and `x` holds entry `(rows - 1) * sa + (nq - 1) * sq`.
pub struct Gemm<'a, R>(
    pub &'a [R],
    pub (usize, usize),
    pub usize,
    pub &'a [R],
    pub &'a mut [R],
    pub usize,
);

impl<R: Real> Body<R> for Gemm<'_, R> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the dispatcher asserted that c and b are whole rows of
    // ncols and that the strides stay inside x; every vector ends at or below
    // ncols, aliasing=x and b are shared borrows and c an exclusive one)
    unsafe fn run<L: Lanes<R = R>>(self) {
        let Gemm(x, st, nq, b, c, ncols) = self;
        let (w, rows) = (2 * L::C, c.len().checked_div(ncols).unwrap_or(0));
        let (x, b, c) = (x.as_ptr(), b.as_ptr(), c.as_mut_ptr());
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
}
