//! The kernel bodies, each written once over [`Lanes`]: every backend runs
//! the same body, the scalar one on the portable lanes (one complex value at
//! a time) and the x86 ones on the vectors of `x86.rs`, so a kernel has one
//! arithmetic and the same bits on all of them.
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
//! [`Radial`] is real: one centre against a run of partners stored as three
//! coordinate runs, its near partners left-packed into a list and a
//! caller's per-pair terms run over that on [`On`], the lanes as a [`Lane`].
//!
//! Loads and stores are unaligned — operands come from caller-owned slices.

use core::array::from_fn;

use super::lanes::Lanes;
use crate::complex::Complex;
use crate::real::Real;
use crate::simd::{
    line_units, Far, Lane, LineSet, NearTerms, PointPhases, RadialPass, StencilPass,
};

/// A kernel body with its operands.
pub trait Body<R: Real> {
    /// The kernel on the lanes `L`.
    ///
    /// # Safety
    ///
    /// The caller enables the target features of `L` (none for the portable
    /// lanes) and keeps the body's own contract.
    unsafe fn run<L: Lanes<R = R>>(self);
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

/// The kinetic line kernel, `Lines(ptr, set, passes, phases)`: the
/// wavefront of [`line_units`], its units [`Pair`] and [`Scale`] on the same
/// lanes. Their bodies are lane-local: an element rounds the same wherever it
/// sits in a run, so the block size changes no bit.
///
/// Its contract: `set.span()` elements are live behind `ptr` and have a
/// phase in the table, `set.stride >= set.run` whenever a line has more than
/// one point, and no other thread touches the set's lines during the call.
pub struct Lines<'a, R>(
    pub *mut Complex<R>,
    pub &'a LineSet,
    pub &'a [StencilPass<R>],
    pub Option<&'a PointPhases<'a, R>>,
);

impl<R: Real> Body<R> for Lines<'_, R> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the dispatcher checked set.span() against the
    // allocation; the nest keeps every run below it, aliasing=the caller owns
    // the set's lines; partner runs are stride >= run >= len apart)
    unsafe fn run<L: Lanes<R = R>>(self) {
        let Lines(ptr, set, passes, phases) = self;
        // SAFETY: the caller's contract is the nest's, and the bodies are
        // compiled under the target features the caller enabled.
        unsafe { line_units::<L>(ptr, set, passes, phases) };
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

/// Lane `i` holds `i`: which lanes of a vector lie past the end of a run.
static LANE: [f64; 8] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];

/// The radial pass, `Radial(pass, terms, list, sums, count)`: per partner
/// the displacement and `r2`, left-packed into the columns `j | dx | dy | dz
/// | r2` of `list` (`n` reals each) where the partner is near, their number
/// in `count`, and the far terms summed into `sums`; then the near pairs'
/// `terms` into the columns after those, on [`On`]. Partners go eight at a
/// time, one 512-bit, two 256-bit or four portable vectors, partner `j` into
/// slot `j % 8`, and a lane past the end of the run takes `r2 = -1`, which
/// every far term selects away (a point on the centre, `-Z/0`, is near and
/// selected away too) and the near mask leaves out: every width gives the
/// same bits.
pub struct Radial<'a, T>(
    pub &'a RadialPass<'a>,
    pub &'a T,
    pub &'a mut [f64],
    pub &'a mut [[f64; 8]; 4],
    pub &'a mut usize,
);

impl<T: NearTerms> Body<f64> for Radial<'_, T> {
    #[inline(always)]
    // AUDIT: no_panic
    // SAFETY: (bounds=the dispatcher asserted every run n long and list 8 n
    // long; each access is the m <= 2 C reals from j <= n of a run or from k
    // < count of a list column; the w <= 8 lanes of LANE or of a sum's slots;
    // or the kept k <= m reals from count <= j of a list column,
    // aliasing=list and sums and the field's cells are the only writes; the
    // partner and weight runs are only read)
    unsafe fn run<L: Lanes<R = f64>>(self) {
        let Radial(pass, terms, list, sums, count) = self;
        let RadialPass {
            centre: [cx, cy, cz],
            partners: [xs, ys, zs],
            period,
            near2,
            ref far,
        } = *pass;
        let (n, w, zero, near) = (xs.len(), 2 * L::C, L::splat(0.0), L::splat(near2));
        let (lx, ly, lz) = match period {
            Some([x, y, z]) => (Some(x), Some(y), Some(z)),
            None => (None, None, None),
        };
        let (list, mut acc, mut at) = (list.as_mut_ptr(), [[zero; 4]; 4], 0);
        // SAFETY: the first w <= 8 lanes of LANE.
        let lane = unsafe { L::load(LANE.as_ptr()) };
        while at < n {
            for (v, [e_sum, fx, fy, fz]) in acc.iter_mut().take(8 / w).enumerate() {
                let j = (at + v * w).min(n);
                let m = (n - j).min(w);
                // SAFETY: the m reals from j of each partner run.
                let (dx, dy, dz) = unsafe {
                    let (px, py, pz) = (xs.as_ptr().add(j), ys.as_ptr().add(j), zs.as_ptr().add(j));
                    (
                        displacement::<L>(px, m, cx, lx),
                        displacement::<L>(py, m, cy, ly),
                        displacement::<L>(pz, m, cz, lz),
                    )
                };
                let mut r2 = dx.mul(dx).add(dy.mul(dy)).add(dz.mul(dz));
                if m < w {
                    r2 = lane.select_le(L::splat(m as f64 - 0.5), r2, L::splat(-1.0));
                }
                let (keep, js) = (
                    r2.le_bits(near) & ((1 << m) - 1),
                    lane.add(L::splat(j as f64)),
                );
                for (k, x) in [js, dx, dy, dz, r2].into_iter().enumerate() {
                    // SAFETY: the count(keep) <= m reals from *count <= j of
                    // column k of the list.
                    unsafe { x.compress_store(keep, list.add(k * n + *count)) };
                }
                *count += keep.count_ones() as usize;
                match *far {
                    Far::None => {}
                    Far::Sums(weights, force2) => {
                        // SAFETY: the m reals from j of the weights.
                        let e = unsafe { L::load_reals(weights.as_ptr().add(j), m) }.div(r2.sqrt());
                        let g = r2.select_le(
                            near,
                            zero,
                            r2.select_le(L::splat(force2), e.div(r2), zero),
                        );
                        *e_sum = e_sum.add(r2.select_le(near, zero, e));
                        (*fx, *fy, *fz) = (fx.add(g.mul(dx)), fy.add(g.mul(dy)), fz.add(g.mul(dz)));
                    }
                    // SAFETY: the m reals from j of the field, written
                    // through its cells.
                    Far::Field(cells, scale) => unsafe {
                        let p = cells.as_ptr().cast::<f64>().cast_mut().add(j);
                        let old = L::load_reals(p, m);
                        let new = old.add(L::splat(scale).div(r2.sqrt()));
                        r2.select_le(near, old, new).store_reals(p, m);
                    },
                }
            }
            at += 8;
        }
        for (v, a) in acc.iter().take(8 / w).enumerate() {
            for (slots, x) in sums.iter_mut().zip(a) {
                // SAFETY: lanes v w .. v w + w <= 8 of the slots.
                unsafe { x.store(slots.as_mut_ptr().add(v * w)) };
            }
        }
        // The near pairs' terms, the ragged end on masked lanes (whose `j`
        // and `r2` load as zeros).
        let mut k = 0;
        while k < *count {
            let m = (*count - k).min(w);
            // SAFETY: the m reals from k of columns 0 and 4.
            let (j, r2) = unsafe {
                (
                    L::load_reals(list.add(k), m),
                    L::load_reals(list.add(4 * n + k), m),
                )
            };
            for (c, t) in terms.terms(On(j), On(r2)).into_iter().enumerate() {
                // SAFETY: the m reals from k of column 5 + c < 8.
                unsafe { t.0.store_reals(list.add((5 + c) * n + k), m) };
            }
            k += w;
        }
    }
}

/// The lanes `L` as a [`Lane`] for a caller's terms: a value of this type
/// exists only inside an entry point (it cannot be named outside this
/// module).
#[derive(Clone, Copy)]
pub struct On<L>(L);

macro_rules! on_ops {
    ($($op:ident $f:ident),*) => {$(
        impl<L: Lanes<R = f64>> core::ops::$op for On<L> {
            type Output = Self;
            #[inline(always)]
            fn $f(self, o: Self) -> Self {
                On(self.0.$f(o.0))
            }
        }
    )*};
}
on_ops!(Add add, Sub sub, Mul mul, Div div);

impl<L: Lanes<R = f64>> Lane for On<L> {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        On(L::splat(x))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        On(self.0.sqrt())
    }
    #[inline(always)]
    fn round(self) -> Self {
        On(self.0.round())
    }
    #[inline(always)]
    fn select_le(self, b: Self, x: Self, y: Self) -> Self {
        On(self.0.select_le(b.0, x.0, y.0))
    }
    #[inline(always)]
    fn gather(table: &[f64], at: Self) -> Self {
        match super::clamp(table, at) {
            // SAFETY: (bounds=every lane is clamped to an index of the table
            // no larger than i32::MAX)
            Some(at) => On(unsafe { L::gather(table.as_ptr(), at.0) }),
            None => Self::splat(f64::NAN),
        }
    }
}

/// One axis of [`Radial`]: `m` partner coordinates at `p` less the centre's
/// `c`, minimum-imaged over the period `l` if there is one.
///
/// # Safety
///
/// The caller enables the target features of `L`, and `m` reals are
/// readable at `p`.
#[inline(always)]
unsafe fn displacement<L: Lanes<R = f64>>(p: *const f64, m: usize, c: f64, l: Option<f64>) -> L {
    // SAFETY: the caller's m reals.
    let x = unsafe { L::load_reals(p, m) }.sub(L::splat(c));
    match l {
        Some(l) => x.sub(L::splat(l).mul(x.mul(L::splat(1.0 / l)).round())),
        None => x,
    }
}
