//! The x86 lanes — `__m256d` / `__m256` under AVX2 + FMA, `__m512d` /
//! `__m512` under AVX-512F — and the entry points [`on_256`] and [`on_512`],
//! each of which compiles a [`Body`] whole under its own features (the
//! 256-bit instantiation never carries AVX-512F). The dispatch in `simd::mod`
//! has verified them.

use core::arch::x86_64::*;

use super::bodies::Body;
use super::lanes::Lanes;
use crate::real::Real;

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

/// The mask of the first `n <= 8` lanes of `T` (`i64` for `f64` lanes, `i32`
/// for `f32`): a window into eight ones followed by eight zeros.
#[inline(always)]
fn head_mask<T>(ones_then_zeros: &[T; 16], n: usize) -> __m256i {
    // SAFETY: a vector from entry 8 - n <= 8 on lies inside the 16 entries.
    unsafe { _mm256_loadu_si256(ones_then_zeros.as_ptr().add(8 - n.min(8)).cast()) }
}
const MASK_64: [i64; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
const MASK_32: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The mask register of the first `n <= 16` lanes.
#[inline(always)]
fn head_bits(n: usize) -> u32 {
    (1 << n.min(16)) - 1
}

/// Per 4-bit keep mask, the `_mm256_permutevar8x32_ps` indices that move the
/// kept `f64` lanes (two 32-bit halves each) to the front, in lane order.
static LEFT_PACK: [[i32; 8]; 16] = {
    let (mut table, mut keep) = ([[0; 8]; 16], 0);
    while keep < 16 {
        let (mut to, mut from) = (0, 0);
        while from < 4 {
            if keep >> from & 1 == 1 {
                (table[keep][2 * to], table[keep][2 * to + 1]) = (2 * from, 2 * from + 1);
                to += 1;
            }
            from += 1;
        }
        keep += 1;
    }
    table
};

/// One implementation, each method the one intrinsic call it is: `C`, the
/// pointer methods, `pattern`, `select_le` (a compare and a blend) and
/// `le_bits` over the argument names given, `compress_store` where the
/// width has a cheaper one than the trait's, then the lane-local methods
/// (`name(args) => intrinsic` is `fn name(args) -> Self { intrinsic(args) }`).
macro_rules! lanes {
    ($v:ty: $r:ty, $c:literal;
     load($lp:ident) => $load:expr;
     store($ss:ident, $sp:ident) => $store:expr;
     load_masked($mp:ident, $mn:ident) => $load_masked:expr;
     store_masked($ms:ident, $mq:ident, $mm:ident) => $store_masked:expr;
     gather($gp:ident, $ga:ident) => $gather:expr;
     $(compress_store($cs:ident, $ck:ident, $cp:ident) => $compress:expr;)?
     pattern($a:ident, $b:ident) => $pattern:expr;
     select_le($s:ident, $le:ident, $x:ident, $y:ident) => $select:expr;
     le_bits($bs:ident, $bb:ident) => $le_bits:expr;
     $($name:ident($($arg:ident),*) => $intrinsic:expr;)*) => {
        impl Lanes for $v {
            type R = $r;
            const C: usize = $c;
            // SAFETY: the contract of `Lanes::load`.
            #[inline(always)]
            unsafe fn load($lp: *const $r) -> Self {
                // SAFETY: 2 C reals at p per the caller; the width's features.
                unsafe { $load }
            }
            // SAFETY: the contract of `Lanes::store`.
            #[inline(always)]
            unsafe fn store($ss: Self, $sp: *mut $r) {
                // SAFETY: as for `load`.
                unsafe { $store }
            }
            // SAFETY: the contract of `Lanes::load_masked`.
            #[inline(always)]
            unsafe fn load_masked($mp: *const $r, $mn: usize) -> Self {
                // SAFETY: the mask admits the n reals at p per the caller.
                unsafe { $load_masked }
            }
            // SAFETY: the contract of `Lanes::store_masked`.
            #[inline(always)]
            unsafe fn store_masked($ms: Self, $mq: *mut $r, $mm: usize) {
                // SAFETY: as for `load_masked`.
                unsafe { $store_masked }
            }
            // SAFETY: the contract of `Lanes::gather`.
            #[inline(always)]
            unsafe fn gather($gp: *const $r, $ga: Self) -> Self {
                // SAFETY: every lane names a readable real per the caller.
                unsafe { $gather }
            }
            $(
            // SAFETY: the contract of `Lanes::compress_store`.
            #[inline(always)]
            unsafe fn compress_store($cs: Self, $ck: u32, $cp: *mut $r) {
                // SAFETY: the masked store writes the count(keep) reals the
                // caller vouches for.
                unsafe { $compress }
            }
            )?
            #[inline(always)]
            fn pattern($a: $r, $b: $r) -> Self {
                // SAFETY: the width's features per the trait contract.
                unsafe { $pattern }
            }
            #[inline(always)]
            fn select_le($s: Self, $le: Self, $x: Self, $y: Self) -> Self {
                // SAFETY: the width's features per the trait contract.
                unsafe { $select }
            }
            #[inline(always)]
            fn le_bits($bs: Self, $bb: Self) -> u32 {
                // SAFETY: the width's features per the trait contract.
                unsafe { $le_bits }
            }
            $(
                #[inline(always)]
                fn $name($($arg: Self),*) -> Self {
                    // SAFETY: the width's features per the trait contract.
                    unsafe { $intrinsic($($arg),*) }
                }
            )*
        }
    };
}

lanes! {
    __m256d: f64, 2;
    load(p) => _mm256_loadu_pd(p);
    store(self, p) => _mm256_storeu_pd(p, self);
    load_masked(p, n) => _mm256_maskload_pd(p, head_mask(&MASK_64, n));
    store_masked(self, p, n) => _mm256_maskstore_pd(p, head_mask(&MASK_64, n), self);
    gather(p, at) => _mm256_i32gather_pd::<8>(p, _mm256_cvttpd_epi32(at));
    compress_store(self, keep, p) => {
        let at = _mm256_loadu_si256(LEFT_PACK[keep as usize & 15].as_ptr().cast());
        let packed = _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(self), at));
        _mm256_maskstore_pd(p, head_mask(&MASK_64, keep.count_ones() as usize), packed)
    };
    pattern(a, b) => _mm256_setr_pd(a, b, a, b);
    select_le(self, b, x, y) => _mm256_blendv_pd(y, x, _mm256_cmp_pd::<_CMP_LE_OQ>(self, b));
    le_bits(self, b) => _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(self, b)) as u32;
    mul(self, o) => _mm256_mul_pd;
    fmadd(self, a, c) => _mm256_fmadd_pd;
    swap(self) => _mm256_permute_pd::<0b0101>;
    dup_re(self) => _mm256_movedup_pd;
    dup_im(self) => _mm256_permute_pd::<0b1111>;
    add(self, o) => _mm256_add_pd;
    sub(self, o) => _mm256_sub_pd;
    div(self, o) => _mm256_div_pd;
    sqrt(self) => _mm256_sqrt_pd;
    round(self) => _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>;
}

lanes! {
    __m256: f32, 4;
    load(p) => _mm256_loadu_ps(p);
    store(self, p) => _mm256_storeu_ps(p, self);
    load_masked(p, n) => _mm256_maskload_ps(p, head_mask(&MASK_32, n));
    store_masked(self, p, n) => _mm256_maskstore_ps(p, head_mask(&MASK_32, n), self);
    gather(p, at) => _mm256_i32gather_ps::<4>(p, _mm256_cvttps_epi32(at));
    pattern(a, b) => _mm256_setr_ps(a, b, a, b, a, b, a, b);
    select_le(self, b, x, y) => _mm256_blendv_ps(y, x, _mm256_cmp_ps::<_CMP_LE_OQ>(self, b));
    le_bits(self, b) => _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(self, b)) as u32;
    mul(self, o) => _mm256_mul_ps;
    fmadd(self, a, c) => _mm256_fmadd_ps;
    swap(self) => _mm256_permute_ps::<0b10_11_00_01>;
    dup_re(self) => _mm256_moveldup_ps;
    dup_im(self) => _mm256_movehdup_ps;
    add(self, o) => _mm256_add_ps;
    sub(self, o) => _mm256_sub_ps;
    div(self, o) => _mm256_div_ps;
    sqrt(self) => _mm256_sqrt_ps;
    round(self) => _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>;
}

lanes! {
    __m512d: f64, 4;
    load(p) => _mm512_loadu_pd(p);
    store(self, p) => _mm512_storeu_pd(p, self);
    load_masked(p, n) => _mm512_maskz_loadu_pd(head_bits(n) as __mmask8, p);
    store_masked(self, p, n) => _mm512_mask_storeu_pd(p, head_bits(n) as __mmask8, self);
    gather(p, at) => _mm512_i32gather_pd::<8>(_mm512_cvttpd_epi32(at), p);
    compress_store(self, keep, p) => _mm512_mask_storeu_pd(
        p,
        head_bits(keep.count_ones() as usize) as __mmask8,
        _mm512_maskz_compress_pd(keep as __mmask8, self),
    );
    pattern(a, b) => _mm512_setr4_pd(a, b, a, b);
    select_le(self, b, x, y) => _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LE_OQ>(self, b), y, x);
    le_bits(self, b) => _mm512_cmp_pd_mask::<_CMP_LE_OQ>(self, b) as u32;
    mul(self, o) => _mm512_mul_pd;
    fmadd(self, a, c) => _mm512_fmadd_pd;
    swap(self) => _mm512_permute_pd::<0x55>;
    dup_re(self) => _mm512_movedup_pd;
    dup_im(self) => _mm512_permute_pd::<0xFF>;
    add(self, o) => _mm512_add_pd;
    sub(self, o) => _mm512_sub_pd;
    div(self, o) => _mm512_div_pd;
    sqrt(self) => _mm512_sqrt_pd;
    round(self) => _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>;
}

lanes! {
    __m512: f32, 8;
    load(p) => _mm512_loadu_ps(p);
    store(self, p) => _mm512_storeu_ps(p, self);
    load_masked(p, n) => _mm512_maskz_loadu_ps(head_bits(n) as __mmask16, p);
    store_masked(self, p, n) => _mm512_mask_storeu_ps(p, head_bits(n) as __mmask16, self);
    gather(p, at) => _mm512_i32gather_ps::<4>(_mm512_cvttps_epi32(at), p);
    pattern(a, b) => _mm512_setr4_ps(a, b, a, b);
    select_le(self, b, x, y) => _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LE_OQ>(self, b), y, x);
    le_bits(self, b) => _mm512_cmp_ps_mask::<_CMP_LE_OQ>(self, b) as u32;
    mul(self, o) => _mm512_mul_ps;
    fmadd(self, a, c) => _mm512_fmadd_ps;
    swap(self) => _mm512_permute_ps::<0b10_11_00_01>;
    dup_re(self) => _mm512_moveldup_ps;
    dup_im(self) => _mm512_movehdup_ps;
    add(self, o) => _mm512_add_ps;
    sub(self, o) => _mm512_sub_ps;
    div(self, o) => _mm512_div_ps;
    sqrt(self) => _mm512_sqrt_ps;
    round(self) => _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>;
}
