//! A minimal complex-number type generic over [`Real`].
//!
//! The Kohn–Sham wavefunctions propagated by LFD (paper Eq. (1)) are
//! complex-valued; this type is the element of every wavefunction array,
//! propagator coefficient table, and GEMM operand in the workspace.

use crate::real::Real;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number `re + i*im` over a [`Real`] scalar.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<R> {
    /// Real part.
    pub re: R,
    /// Imaginary part.
    pub im: R,
}

// SAFETY: `Complex<R>` is `repr(C)` over two `Pod` reals (the `Real`
// supertrait), so any bit pattern is a valid value and there is no drop
// glue — exactly the arena `Pod` contract.
unsafe impl<R: Real> dcmesh_pool::arena::Pod for Complex<R> {}

/// The reals `[re0, im0, re1, im1, ..]` of a run of complex values: a
/// point-major block of `k` complex columns read as one of `2 k` real
/// columns, which is how a real matrix multiplies it.
pub fn as_reals<R: Real>(zs: &[Complex<R>]) -> &[R] {
    // SAFETY: (bounds=2 * zs.len() reals: `Complex<R>` is `repr(C)` over two
    // `R` and so has no padding, aliasing=the view borrows `zs`) the pointer
    // is aligned for `R`, the alignment of `Complex<R>`.
    unsafe { std::slice::from_raw_parts(zs.as_ptr().cast::<R>(), 2 * zs.len()) }
}

/// [`as_reals`] of a mutable run.
pub fn as_reals_mut<R: Real>(zs: &mut [Complex<R>]) -> &mut [R] {
    // SAFETY: (bounds=2 * zs.len() reals as in `as_reals`, aliasing=the view
    // holds the exclusive borrow of `zs`) every bit pattern is a valid `R`.
    unsafe { std::slice::from_raw_parts_mut(zs.as_mut_ptr().cast::<R>(), 2 * zs.len()) }
}

/// The inverse of [`as_reals`]: the complex values `[re0, im0, re1, im1, ..]`
/// of a run of reals, a trailing odd real left out.
pub fn from_reals<R: Real>(rs: &[R]) -> &[Complex<R>] {
    // SAFETY: (bounds=rs.len() / 2 complex values: `Complex<R>` is `repr(C)`
    // over two `R`, no padding, aliasing=the view borrows `rs`) the pointer
    // is aligned for `R`, the alignment of `Complex<R>`.
    unsafe { std::slice::from_raw_parts(rs.as_ptr().cast::<Complex<R>>(), rs.len() / 2) }
}

/// [`from_reals`] of a mutable run.
pub fn from_reals_mut<R: Real>(rs: &mut [R]) -> &mut [Complex<R>] {
    // SAFETY: (bounds=rs.len() / 2 complex values: `Complex<R>` is `repr(C)`
    // over two `R`, no padding, aliasing=the view holds the exclusive borrow
    // of `rs`) the pointer is aligned for `R`, the alignment of `Complex<R>`,
    // and every pair of reals is a valid value.
    unsafe { std::slice::from_raw_parts_mut(rs.as_mut_ptr().cast::<Complex<R>>(), rs.len() / 2) }
}

impl<R: Real> Complex<R> {
    /// Construct from real and imaginary parts.
    #[inline(always)]
    pub fn new(re: R, im: R) -> Self {
        Self { re, im }
    }

    /// The additive identity `0 + 0i`.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::new(R::ZERO, R::ZERO)
    }

    /// The multiplicative identity `1 + 0i`.
    #[inline(always)]
    pub fn one() -> Self {
        Self::new(R::ONE, R::ZERO)
    }

    /// The imaginary unit `i`.
    #[inline(always)]
    pub fn i() -> Self {
        Self::new(R::ZERO, R::ONE)
    }

    /// Lift a real number to the complex plane.
    #[inline(always)]
    pub fn from_real(re: R) -> Self {
        Self::new(re, R::ZERO)
    }

    /// Construct from polar representation `r * e^{i theta}`.
    #[inline(always)]
    pub fn from_polar(r: R, theta: R) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{i theta}` — the unit phase used by every potential propagator.
    ///
    /// ```
    /// use dcmesh_math::C64;
    /// let z = C64::cis(std::f64::consts::PI);
    /// assert!((z.re + 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
    /// ```
    #[inline(always)]
    pub fn cis(theta: R) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2` (no square root — hot path for densities).
    #[inline(always)]
    pub fn norm_sqr(self) -> R {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline(always)]
    pub fn abs(self) -> R {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline(always)]
    pub fn arg(self) -> R {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z = e^{re} (cos im + i sin im)`.
    #[inline(always)]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Multiplicative inverse. Panics in debug builds on zero.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let n = self.norm_sqr();
        debug_assert!(n > R::ZERO, "inverse of zero complex number");
        Self::new(self.re / n, -self.im / n)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: R) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Multiply by `-i` without a full complex multiply.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Self::new(self.im, -self.re)
    }

    /// Fused multiply-add: `self * a + b` using scalar FMAs.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::new(
            self.re.mul_add(a.re, b.re) - self.im * a.im,
            self.re.mul_add(a.im, b.im) + self.im * a.re,
        )
    }

    /// Cast to a different precision (used by the SP/DP comparison harness).
    #[inline(always)]
    pub fn cast<R2: Real>(self) -> Complex<R2> {
        Complex::new(
            R2::from_f64(self.re.to_f64()),
            R2::from_f64(self.im.to_f64()),
        )
    }

    /// True if both components are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<R: Real> Add for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<R: Real> Sub for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<R: Real> Mul for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<R: Real> Div for Complex<R> {
    type Output = Self;
    #[inline(always)]
    // Division by multiplying with the reciprocal is the intended formula.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<R: Real> Neg for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<R: Real> Mul<R> for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: R) -> Self {
        self.scale(rhs)
    }
}

impl<R: Real> Div<R> for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: R) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl<R: Real> AddAssign for Complex<R> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<R: Real> SubAssign for Complex<R> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<R: Real> MulAssign for Complex<R> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<R: Real> MulAssign<R> for Complex<R> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: R) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl<R: Real> DivAssign for Complex<R> {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<R: Real> Sum for Complex<R> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<R: Real> fmt::Display for Complex<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im < R::ZERO {
            write!(f, "{}-{}i", self.re, -self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn close(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(3.0, -4.0);
        assert_eq!(z + C64::zero(), z);
        assert_eq!(z * C64::one(), z);
        assert_eq!(z - z, C64::zero());
        assert!(close(z * z.inv(), C64::one(), 1e-14));
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn conjugate_properties() {
        let z = C64::new(1.25, 2.5);
        let w = C64::new(-0.5, 0.75);
        assert_eq!((z * w).conj(), z.conj() * w.conj());
        assert_eq!((z + w).conj(), z.conj() + w.conj());
        assert!((z * z.conj()).im.abs() < 1e-15);
    }

    #[test]
    fn mul_neg_i_shortcut() {
        let z = C64::new(2.0, 3.0);
        assert_eq!(z.mul_neg_i(), z * C64::new(0.0, -1.0));
    }

    #[test]
    fn euler_identity() {
        let z = C64::cis(std::f64::consts::PI);
        assert!(close(z, C64::new(-1.0, 0.0), 1e-15));
        // e^{i pi/2} = i
        assert!(close(
            C64::cis(std::f64::consts::FRAC_PI_2),
            C64::i(),
            1e-15
        ));
    }

    #[test]
    fn exp_matches_polar() {
        let z = C64::new(0.3, 1.2);
        let e = z.exp();
        let want = C64::from_polar(0.3f64.exp(), 1.2);
        assert!(close(e, want, 1e-14));
    }

    #[test]
    fn cis_is_unit_norm() {
        for k in 0..100 {
            let th = k as f64 * 0.1;
            assert!((C64::cis(th).abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn division() {
        let z = C64::new(1.0, 2.0);
        let w = C64::new(3.0, -1.0);
        assert!(close(z / w * w, z, 1e-14));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = C64::new(1.1, -0.2);
        let b = C64::new(0.4, 0.9);
        let c = C64::new(-2.0, 0.5);
        assert!(close(a.mul_add(b, c), a * b + c, 1e-14));
    }

    #[test]
    fn precision_cast() {
        let z = C64::new(1.0 / 3.0, 2.0 / 3.0);
        let s: Complex<f32> = z.cast();
        assert!((s.re as f64 - z.re).abs() < 1e-7);
        let back: C64 = s.cast();
        assert!((back.re - z.re).abs() < 1e-7);
    }

    #[test]
    fn sum_iterator() {
        let zs = [C64::new(1.0, 1.0), C64::new(2.0, -1.0), C64::new(-3.0, 0.5)];
        let s: C64 = zs.iter().copied().sum();
        assert!(close(s, C64::new(0.0, 0.5), 1e-15));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1+2i");
    }
}
