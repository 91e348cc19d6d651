//! Floating-point abstraction over `f32`/`f64`.
//!
//! The paper compares single-precision (SP) and double-precision (DP) builds
//! of the LFD subprogram (Table II); every numerical kernel in this workspace
//! is generic over [`Real`] so the same code path can be measured in both.

use std::fmt::{Debug, Display, LowerExp};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable in all dcmesh numerics (`f32` or `f64`).
///
/// The [`dcmesh_pool::arena::Pod`] supertrait lets every kernel borrow
/// cache-aligned scratch from the per-thread arena for `R` and
/// `Complex<R>` panels without further bounds.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + LowerExp
    + PartialOrd
    + PartialEq
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + dcmesh_pool::arena::Pod
    + crate::simd::Vectorized
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half.
    const HALF: Self;
    /// Two.
    const TWO: Self;
    /// Archimedes' constant.
    const PI: Self;
    /// Machine epsilon.
    const EPSILON: Self;
    /// Human-readable precision label used in benchmark tables ("SP"/"DP").
    const PRECISION_LABEL: &'static str;

    /// Lossy conversion from `f64` (exact for `f64`, rounded for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Conversion from `usize` (via `f64`).
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    fn sqrt(self) -> Self;
    fn exp(self) -> Self;
    fn ln(self) -> Self;
    fn sin(self) -> Self;
    fn cos(self) -> Self;
    fn tan(self) -> Self;
    fn tanh(self) -> Self;
    fn atan2(self, other: Self) -> Self;
    fn abs(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn powf(self, p: Self) -> Self;
    fn floor(self) -> Self;
    fn round(self) -> Self;
    fn is_finite(self) -> bool;
    fn max(self, other: Self) -> Self;
    fn min(self, other: Self) -> Self;
    /// Fused multiply-add `self * a + b` (maps to hardware FMA).
    fn mul_add(self, a: Self, b: Self) -> Self;
}

macro_rules! impl_real {
    ($t:ty, $label:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const TWO: Self = 2.0;
            const PI: Self = std::f64::consts::PI as $t;
            const EPSILON: Self = <$t>::EPSILON;
            const PRECISION_LABEL: &'static str = $label;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                self.ln()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn tan(self) -> Self {
                self.tan()
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                self.tanh()
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                self.atan2(other)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn powf(self, p: Self) -> Self {
                self.powf(p)
            }
            #[inline(always)]
            fn floor(self) -> Self {
                self.floor()
            }
            #[inline(always)]
            fn round(self) -> Self {
                self.round()
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
        }
    };
}

impl_real!(f32, "SP");
impl_real!(f64, "DP");

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<R: Real>() {
        let x = R::from_f64(1.5);
        assert_eq!(x.to_f64(), 1.5);
        assert_eq!(R::from_usize(7).to_f64(), 7.0);
        assert!((R::PI.to_f64() - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn roundtrip_f32_f64() {
        generic_roundtrip::<f32>();
        generic_roundtrip::<f64>();
    }

    #[test]
    fn precision_labels() {
        assert_eq!(<f32 as Real>::PRECISION_LABEL, "SP");
        assert_eq!(<f64 as Real>::PRECISION_LABEL, "DP");
    }

    #[test]
    fn basic_math_ops() {
        let x: f64 = Real::from_f64(4.0);
        assert_eq!(x.sqrt(), 2.0);
        assert!((Real::exp(1.0f64) - std::f64::consts::E).abs() < 1e-12);
        assert_eq!(Real::mul_add(2.0f64, 3.0, 1.0), 7.0);
        assert_eq!(Real::max(1.0f32, 2.0), 2.0);
    }
}
