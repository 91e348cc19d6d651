//! The lane trait the kernels of [`super::avx2`] are written over, and its
//! two implementations: `__m256d` (two `Complex<f64>`) and `__m256` (four
//! `Complex<f32>`). A kernel body sees interleaved complex values `[re, im,
//! re, im, ..]` and these few operations on them; which vector it runs in
//! follows from the element type ([`super::Vectorized::V`]).
//!
//! What an implementation guarantees: every arithmetic operation is
//! **lane-local** (output lane `i` depends on lane `i` of the inputs alone
//! and rounds as the scalar IEEE operation does, FMAs with one rounding), and
//! the shuffles move values without touching them. An element therefore
//! rounds alike wherever it sits in a run, in a full vector or in the ragged
//! last one.

use core::arch::x86_64::{
    __m256, __m256d, __m256i, _mm256_fmadd_pd, _mm256_fmadd_ps, _mm256_loadu_pd, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_maskload_pd, _mm256_maskload_ps, _mm256_maskstore_pd,
    _mm256_maskstore_ps, _mm256_movedup_pd, _mm256_movehdup_ps, _mm256_moveldup_ps, _mm256_mul_pd,
    _mm256_mul_ps, _mm256_permute_pd, _mm256_permute_ps, _mm256_setr_pd, _mm256_setr_ps,
    _mm256_storeu_pd, _mm256_storeu_ps,
};

use crate::real::Real;

/// One vector of interleaved complex values.
///
/// Every method executes AVX2 / FMA instructions, so like the safe
/// `std::arch` intrinsics it may only be called from a function that enables
/// those features (and is `#[inline(always)]`, to compile into it: a safe
/// trait method cannot carry `#[target_feature]`). The trait cannot be named
/// outside `simd`, where its callers are the kernels behind the dispatch;
/// the pointer methods are `unsafe` for their bounds on top.
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
    /// The first `n < C` values at `p`, zeros behind them: the ragged end of
    /// a run goes through the same vector operations as the rest of it.
    ///
    /// # Safety
    ///
    /// `n` complex values must be readable at `p`.
    #[inline(always)]
    unsafe fn load_head(p: *const Self::R, n: usize) -> Self {
        debug_assert!(n < Self::C);
        let mut buf = [Self::R::ZERO; 8];
        // Real by real under a constant trip count: a `memcpy` call would put
        // its frame into every call of a kernel, ragged end or not.
        for (k, slot) in buf.iter_mut().enumerate().take(2 * Self::C) {
            if k < 2 * n {
                // SAFETY: real k of the n values the caller vouches for.
                *slot = unsafe { *p.add(k) };
            }
        }
        // SAFETY: the buffer holds a whole vector.
        unsafe { Self::load(buf.as_ptr()) }
    }
    /// Store the first `n < C` values of `self` to `p`.
    ///
    /// # Safety
    ///
    /// `n` complex values must be writable at `p`.
    #[inline(always)]
    unsafe fn store_head(self, p: *mut Self::R, n: usize) {
        debug_assert!(n < Self::C);
        let mut buf = [Self::R::ZERO; 8];
        // SAFETY: the buffer holds a whole vector.
        unsafe { self.store(buf.as_mut_ptr()) };
        for (k, x) in buf.iter().enumerate().take(2 * Self::C) {
            if k < 2 * n {
                // SAFETY: real k of the n values the caller vouches for.
                unsafe { *p.add(k) = *x };
            }
        }
    }
}

/// The mask of the first `n <= 8` lanes of `T` (`i64` for `f64` lanes, `i32`
/// for `f32`): a window into eight ones followed by eight zeros.
#[inline(always)]
fn head_mask<T>(ones_then_zeros: &[T; 16], n: usize) -> __m256i {
    // SAFETY: a vector from entry 8 - n <= 8 on lies inside the 16 entries.
    unsafe { _mm256_loadu_si256(ones_then_zeros.as_ptr().add(8 - n.min(8)).cast()) }
}
const MASK_64: [i64; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
const MASK_32: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The lane-local methods that are one intrinsic each:
/// `name(args) => intrinsic` is `fn name(args) -> Self { intrinsic(args) }`.
macro_rules! forward {
    ($($name:ident($($arg:ident),*) => $intrinsic:expr;)*) => {$(
        #[inline(always)]
        fn $name($($arg: Self),*) -> Self {
            // SAFETY: AVX and FMA per the trait contract.
            unsafe { $intrinsic($($arg),*) }
        }
    )*};
}

impl Lanes for __m256d {
    type R = f64;
    const C: usize = 2;

    // SAFETY: the contract of `Lanes::load`.
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: four reals at p per the caller; AVX per the trait contract.
        unsafe { _mm256_loadu_pd(p) }
    }
    // SAFETY: the contract of `Lanes::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: four reals at p per the caller; AVX per the trait contract.
        unsafe { _mm256_storeu_pd(p, self) }
    }
    #[inline(always)]
    fn pattern(a: f64, b: f64) -> Self {
        // SAFETY: AVX per the trait contract.
        unsafe { _mm256_setr_pd(a, b, a, b) }
    }
    forward! {
        mul(self, o) => _mm256_mul_pd;
        fmadd(self, a, c) => _mm256_fmadd_pd;
        swap(self) => _mm256_permute_pd::<0b0101>;
        dup_re(self) => _mm256_movedup_pd;
        dup_im(self) => _mm256_permute_pd::<0b1111>;
    }
    // SAFETY: the contract of `Lanes::load_masked`.
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, n: usize) -> Self {
        // SAFETY: the mask admits the n reals at p the caller vouches for; AVX.
        unsafe { _mm256_maskload_pd(p, head_mask(&MASK_64, n)) }
    }
    // SAFETY: the contract of `Lanes::store_masked`.
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f64, n: usize) {
        // SAFETY: the mask admits the n reals at p the caller vouches for; AVX.
        unsafe { _mm256_maskstore_pd(p, head_mask(&MASK_64, n), self) }
    }
}

impl Lanes for __m256 {
    type R = f32;
    const C: usize = 4;

    // SAFETY: the contract of `Lanes::load`.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: eight reals at p per the caller; AVX per the trait contract.
        unsafe { _mm256_loadu_ps(p) }
    }
    // SAFETY: the contract of `Lanes::store`.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: eight reals at p per the caller; AVX per the trait contract.
        unsafe { _mm256_storeu_ps(p, self) }
    }
    #[inline(always)]
    fn pattern(a: f32, b: f32) -> Self {
        // SAFETY: AVX per the trait contract.
        unsafe { _mm256_setr_ps(a, b, a, b, a, b, a, b) }
    }
    forward! {
        mul(self, o) => _mm256_mul_ps;
        fmadd(self, a, c) => _mm256_fmadd_ps;
        swap(self) => _mm256_permute_ps::<0b10_11_00_01>;
        dup_re(self) => _mm256_moveldup_ps;
        dup_im(self) => _mm256_movehdup_ps;
    }
    // SAFETY: the contract of `Lanes::load_masked`.
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, n: usize) -> Self {
        // SAFETY: the mask admits the n reals at p the caller vouches for; AVX.
        unsafe { _mm256_maskload_ps(p, head_mask(&MASK_32, n)) }
    }
    // SAFETY: the contract of `Lanes::store_masked`.
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, n: usize) {
        // SAFETY: the mask admits the n reals at p the caller vouches for; AVX.
        unsafe { _mm256_maskstore_ps(p, head_mask(&MASK_32, n), self) }
    }
}
