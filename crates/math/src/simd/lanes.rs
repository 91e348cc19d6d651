//! The lane trait the kernel bodies of [`super::bodies`] are written over,
//! and its portable implementation [`Scalar`]: one complex value (two reals)
//! per vector, for any [`Real`]. The four x86 implementations are in
//! `x86.rs`: `__m256d` and `__m512d` (two and four `Complex<f64>`), `__m256`
//! and `__m512` (four and eight `Complex<f32>`). A kernel body sees
//! interleaved complex values `[re, im, re, im, ..]` (or, in the radial
//! pass, plain reals) and these few operations on them; which vector it runs
//! in follows from the backend, the element type and, on x86, the width of
//! its entry point ([`super::Vectorized`]).
//!
//! What an implementation guarantees: every arithmetic operation is
//! **lane-local** (output lane `i` depends on lane `i` of the inputs alone
//! and rounds as the scalar IEEE operation does, FMAs with one rounding), and
//! shuffles, gathers and left-packs move values untouched. An element thus
//! rounds alike wherever it sits in a run, in a full vector or in the ragged
//! last one — and at every width: no body reduces across lanes, so the
//! 512-bit instantiation of a body gives the bits of the 256-bit one, and
//! those of [`Scalar`].

use crate::real::Real;

/// One vector of interleaved complex values.
///
/// Every method of an x86 implementation executes instructions of its width
/// — AVX2 and FMA at 256 bits, AVX-512F at 512 — so like the safe
/// `std::arch` intrinsics it may only be called from a function that enables
/// those features (and is `#[inline(always)]`, to compile into it: a safe
/// trait method cannot carry `#[target_feature]`); [`Scalar`] needs none.
/// The trait cannot be named outside `simd`, where its callers are the
/// kernels behind the dispatch; the pointer methods are `unsafe` for their
/// bounds on top.
pub trait Lanes: Copy {
    /// The real element type.
    type R: Real;
    /// Complex values per vector (`2 * C` reals).
    const C: usize;

    /// Load `2 * C` reals from `p`, unaligned.
    ///
    /// # Safety
    ///
    /// `2 * C` reals must be readable at `p`.
    unsafe fn load(p: *const Self::R) -> Self;
    /// Store `2 * C` reals to `p`, unaligned.
    ///
    /// # Safety
    ///
    /// `2 * C` reals must be writable at `p`.
    unsafe fn store(self, p: *mut Self::R);
    /// `[a, b, a, b, ..]`: one complex constant in every slot.
    fn pattern(a: Self::R, b: Self::R) -> Self;
    /// `self * o`, lane by lane.
    fn mul(self, o: Self) -> Self;
    /// `self * a + c`, one rounding.
    fn fmadd(self, a: Self, c: Self) -> Self;
    // `self + o`, `self - o`, `self / o` and the square root, lane by lane;
    // `round` is to the nearest integer, ties to even.
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    fn round(self) -> Self;
    /// `if self <= b { x } else { y }`, lane by lane (`y` on a NaN).
    fn select_le(self, b: Self, x: Self, y: Self) -> Self;
    /// Bit `i` set where lane `i` of `self` is `<= b` (clear on a NaN).
    fn le_bits(self, b: Self) -> u32;
    /// Lane `i` is `*p.add(k)`, `k` the whole number lane `i` of `at` holds.
    ///
    /// # Safety
    ///
    /// Every lane of `at` is a whole number in `0 ..= i32::MAX` naming a
    /// readable real behind `p`.
    unsafe fn gather(p: *const Self::R, at: Self) -> Self;
    /// Store the lanes whose bit is set in `keep`, in lane order, to `p`: the
    /// left-packed form of `self`, `keep.count_ones()` reals.
    ///
    /// # Safety
    ///
    /// `keep.count_ones()` reals must be writable at `p`.
    #[inline(always)]
    unsafe fn compress_store(self, keep: u32, p: *mut Self::R) {
        let mut lanes = [Self::R::ZERO; 16];
        // SAFETY: 2 C <= 16 reals of the array, and count(keep) at p.
        unsafe {
            self.store(lanes.as_mut_ptr());
            let kept = (0..2 * Self::C).filter(|i| keep >> i & 1 == 1);
            kept.enumerate().for_each(|(m, i)| *p.add(m) = lanes[i]);
        }
    }
    /// `[im, re, ..]`: re and im of every value exchanged.
    fn swap(self) -> Self;
    /// `[re, re, ..]`.
    fn dup_re(self) -> Self;
    /// `[im, im, ..]`.
    fn dup_im(self) -> Self;
    /// The first `n <= 2 * C` reals at `p`, zeros behind them: a masked load,
    /// which touches nothing past them.
    ///
    /// # Safety
    ///
    /// `n` reals must be readable at `p`.
    unsafe fn load_masked(p: *const Self::R, n: usize) -> Self;
    /// Store the first `n <= 2 * C` reals of `self` to `p`, nothing past them.
    ///
    /// # Safety
    ///
    /// `n` reals must be writable at `p`.
    unsafe fn store_masked(self, p: *mut Self::R, n: usize);

    /// `[x, x, ..]`.
    #[inline(always)]
    fn splat(x: Self::R) -> Self {
        Self::pattern(x, x)
    }
    /// The first `n <= 2 * C` reals at `p`: [`Self::load`] of a whole vector,
    /// [`Self::load_masked`] of less.
    ///
    /// # Safety
    ///
    /// `n` reals must be readable at `p`.
    #[inline(always)]
    unsafe fn load_reals(p: *const Self::R, n: usize) -> Self {
        // SAFETY: the n reals the caller vouches for, a whole vector or less.
        unsafe {
            if n == 2 * Self::C {
                Self::load(p)
            } else {
                Self::load_masked(p, n)
            }
        }
    }
    /// Store the first `n <= 2 * C` reals of `self` to `p`, as
    /// [`Self::load_reals`] loads them.
    ///
    /// # Safety
    ///
    /// `n` reals must be writable at `p`.
    #[inline(always)]
    unsafe fn store_reals(self, p: *mut Self::R, n: usize) {
        // SAFETY: the n reals the caller vouches for, a whole vector or less.
        unsafe {
            if n == 2 * Self::C {
                self.store(p)
            } else {
                self.store_masked(p, n)
            }
        }
    }
}

/// The portable lanes: one complex value `[re, im]`, every operation the
/// plain IEEE one on each real and `fmadd` [`Real::mul_add`], so a body run
/// here makes, value for value, the operations of its vector instantiations.
/// The scalar backend; the one a CPU without the x86 lanes runs.
#[derive(Clone, Copy, Debug)]
pub struct Scalar<R>([R; 2]);

/// Methods that are `f` of each real of `self` and the same real of the
/// other operands.
macro_rules! lanewise {
    ($($name:ident($($o:ident),*) => $f:expr;)*) => {$(
        #[inline(always)]
        fn $name(self $(, $o: Self)*) -> Self {
            let f = $f;
            Scalar([f(self.0[0] $(, $o.0[0])*), f(self.0[1] $(, $o.0[1])*)])
        }
    )*};
}

impl<R: Real> Lanes for Scalar<R> {
    type R = R;
    const C: usize = 1;

    #[inline(always)]
    unsafe fn load(p: *const R) -> Self {
        // SAFETY: two reals at p per the caller.
        unsafe { Scalar([*p, *p.add(1)]) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut R) {
        // SAFETY: as for `load`.
        unsafe { (*p, *p.add(1)) = (self.0[0], self.0[1]) };
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const R, n: usize) -> Self {
        // SAFETY: reals 0 .. n at p per the caller.
        unsafe {
            Scalar([
                if n > 0 { *p } else { R::ZERO },
                if n > 1 { *p.add(1) } else { R::ZERO },
            ])
        }
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut R, n: usize) {
        // SAFETY: reals 0 .. n at p per the caller.
        unsafe {
            if n > 0 {
                *p = self.0[0];
            }
            if n > 1 {
                *p.add(1) = self.0[1];
            }
        }
    }
    #[inline(always)]
    unsafe fn gather(p: *const R, at: Self) -> Self {
        // SAFETY: each lane names a readable real per the caller.
        let read = |k: R| unsafe { *p.add(k.to_f64() as usize) };
        Scalar([read(at.0[0]), read(at.0[1])])
    }
    #[inline(always)]
    fn pattern(a: R, b: R) -> Self {
        Scalar([a, b])
    }
    lanewise! {
        mul(o) => |x: R, y: R| x * y;
        add(o) => |x: R, y: R| x + y;
        sub(o) => |x: R, y: R| x - y;
        div(o) => |x: R, y: R| x / y;
        fmadd(a, c) => R::mul_add;
        sqrt() => R::sqrt;
        // Exact: an `f32` is an `f64`, and so is the whole number nearest it.
        round() => |x: R| R::from_f64(x.to_f64().round_ties_even());
        select_le(b, x, y) => |s: R, b: R, x: R, y: R| if s <= b { x } else { y };
    }
    #[inline(always)]
    fn le_bits(self, b: Self) -> u32 {
        u32::from(self.0[0] <= b.0[0]) | u32::from(self.0[1] <= b.0[1]) << 1
    }
    #[inline(always)]
    fn swap(self) -> Self {
        Scalar([self.0[1], self.0[0]])
    }
    #[inline(always)]
    fn dup_re(self) -> Self {
        Scalar([self.0[0]; 2])
    }
    #[inline(always)]
    fn dup_im(self) -> Self {
        Scalar([self.0[1]; 2])
    }
}
