//! Exact rational arithmetic over 128-bit integers.
//!
//! The paper's procedures ("Pushing Constraint Selections", Srivastava &
//! Ramakrishnan) rely on the fact that quantifier elimination of linear
//! arithmetic constraints can be done *exactly* (proofs of Theorems 4.2, 4.5,
//! 4.7).  Floating point would silently break those arguments, so every
//! coefficient and constant in this crate is an exact [`Rational`].
//!
//! The representation is a normalized `numer / denom` pair of `i128`s with
//! `denom > 0` and `gcd(numer, denom) == 1`.  Intermediate products reduce by
//! cross-gcd before multiplying; a genuine overflow panics with a
//! descriptive message rather than wrapping silently.  It needs values
//! around 2^127, and the paper's own Example 1.2 reaches them: fib(n) leaves
//! `i128` near n = 185, long before the default iteration cap stops an
//! evaluation of the Fibonacci program (ROADMAP item 2).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::error::{ConstraintError, Result};

/// An exact rational number `numer / denom` with `denom > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

/// Greatest common divisor of the absolute values of two integers.
///
/// Computed in `u128` so that `i128::MIN` inputs cannot wrap; the result is
/// converted back to `i128` and genuinely cannot overflow for the callers
/// below (every call site passes at least one argument that is not
/// `i128::MIN`, so the gcd is at most `2^126`), but the conversion still
/// panics descriptively rather than wrapping if that invariant is broken.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i128::try_from(a).unwrap_or_else(|_| panic!("rational gcd overflowed i128"))
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { numer: 0, denom: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { numer: 1, denom: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// Returns an error if `denom` is zero.
    pub fn new(numer: i128, denom: i128) -> Result<Self> {
        if denom == 0 {
            return Err(ConstraintError::ZeroDenominator);
        }
        Ok(Self::normalized(numer, denom))
    }

    /// Creates a rational from an integer.
    pub const fn from_int(value: i128) -> Self {
        Rational {
            numer: value,
            denom: 1,
        }
    }

    /// Creates a rational from a ratio, panicking on a zero denominator.
    ///
    /// This is a convenience for tests and program builders where the
    /// denominator is a literal.
    pub fn ratio(numer: i128, denom: i128) -> Self {
        Self::new(numer, denom).expect("non-zero denominator")
    }

    fn normalized(numer: i128, denom: i128) -> Self {
        Self::try_normalized(numer, denom)
            .unwrap_or_else(|| panic!("rational normalization of {numer}/{denom} overflowed i128"))
    }

    /// Sign- and gcd-normalizes `numer / denom`, returning `None` when the
    /// normalized numerator or denominator does not fit in `i128` (which can
    /// only happen for inputs involving `i128::MIN`).  The magnitudes are
    /// reduced in `u128`, so no intermediate step can wrap.
    fn try_normalized(numer: i128, denom: i128) -> Option<Self> {
        debug_assert!(denom != 0);
        if numer == 0 {
            return Some(Rational::ZERO);
        }
        let negative = (numer < 0) != (denom < 0);
        let (mut n, mut d) = (numer.unsigned_abs(), denom.unsigned_abs());
        let g = {
            let (mut a, mut b) = (n, d);
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        };
        n /= g;
        d /= g;
        let numer = if negative {
            // `-2^127` is representable even though `2^127` is not.
            if n == i128::MIN.unsigned_abs() {
                i128::MIN
            } else {
                -i128::try_from(n).ok()?
            }
        } else {
            i128::try_from(n).ok()?
        };
        Some(Rational {
            numer,
            denom: i128::try_from(d).ok()?,
        })
    }

    /// Numerator of the normalized representation.
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// Denominator of the normalized representation (always positive).
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` if this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// Absolute value.
    ///
    /// Panics for `i128::MIN / 1`, whose absolute value is not representable,
    /// instead of wrapping in release builds.
    pub fn abs(&self) -> Self {
        Rational {
            numer: self
                .numer
                .checked_abs()
                .unwrap_or_else(|| panic!("rational abs of {self} overflowed i128")),
            denom: self.denom,
        }
    }

    /// Multiplicative inverse. Returns an error for zero.
    pub fn recip(&self) -> Result<Self> {
        if self.numer == 0 {
            return Err(ConstraintError::ZeroDenominator);
        }
        Ok(Self::normalized(self.denom, self.numer))
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &Self) -> Option<Self> {
        // Integers (the common case in evaluation) need no gcd.
        if self.denom == 1 && other.denom == 1 {
            return Some(Rational::from_int(self.numer.checked_add(other.numer)?));
        }
        // a/b + c/d = (a*d + c*b) / (b*d); reduce b,d by their gcd first.
        let g = gcd(self.denom, other.denom);
        let lhs_den = self.denom / g;
        let rhs_den = other.denom / g;
        let numer = self
            .numer
            .checked_mul(rhs_den)?
            .checked_add(other.numer.checked_mul(lhs_den)?)?;
        let denom = self.denom.checked_mul(rhs_den)?;
        Self::try_normalized(numer, denom)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        self.checked_add(&Rational {
            numer: other.numer.checked_neg()?,
            denom: other.denom,
        })
    }

    /// Checked multiplication with cross-gcd reduction.
    pub fn checked_mul(&self, other: &Self) -> Option<Self> {
        if self.denom == 1 && other.denom == 1 {
            return Some(Rational::from_int(self.numer.checked_mul(other.numer)?));
        }
        let g1 = gcd(self.numer, other.denom).max(1);
        let g2 = gcd(other.numer, self.denom).max(1);
        let numer = (self.numer / g1).checked_mul(other.numer / g2)?;
        let denom = (self.denom / g2).checked_mul(other.denom / g1)?;
        Self::try_normalized(numer, denom)
    }

    /// Checked division.
    pub fn checked_div(&self, other: &Self) -> Option<Self> {
        if other.is_zero() {
            return None;
        }
        self.checked_mul(&Rational::try_normalized(other.denom, other.numer)?)
    }

    /// Rounds towards negative infinity to the nearest integer.
    pub fn floor(&self) -> i128 {
        self.numer.div_euclid(self.denom)
    }

    /// Rounds towards positive infinity to the nearest integer.
    pub fn ceil(&self) -> i128 {
        -((-self.numer).div_euclid(self.denom))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Self {
        Rational::from_int(value)
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from_int(value as i128)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Self {
        Rational::from_int(value as i128)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b and c/d by comparing a*d and c*b (b, d > 0).
        let lhs = self
            .numer
            .checked_mul(other.denom)
            .expect("rational comparison overflowed");
        let rhs = other
            .numer
            .checked_mul(self.denom)
            .expect("rational comparison overflowed");
        lhs.cmp(&rhs)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $checked:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs).unwrap_or_else(|| {
                    panic!(
                        "rational {} of {} and {} overflowed i128",
                        stringify!($method),
                        self,
                        rhs
                    )
                })
            }
        }
        impl $trait<&Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                self.$checked(rhs).unwrap_or_else(|| {
                    panic!(
                        "rational {} of {} and {} overflowed i128",
                        stringify!($method),
                        self,
                        rhs
                    )
                })
            }
        }
    };
}

forward_binop!(Add, add, checked_add);
forward_binop!(Sub, sub, checked_sub);
forward_binop!(Mul, mul, checked_mul);
forward_binop!(Div, div, checked_div);

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: self
                .numer
                .checked_neg()
                .unwrap_or_else(|| panic!("rational negation of {self} overflowed i128")),
            denom: self.denom,
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_reduces_and_fixes_sign() {
        let r = Rational::ratio(4, -8);
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 2);
        assert_eq!(Rational::ratio(0, -5), Rational::ZERO);
    }

    #[test]
    fn zero_denominator_is_an_error() {
        assert_eq!(
            Rational::new(1, 0).unwrap_err(),
            ConstraintError::ZeroDenominator
        );
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::ratio(1, 3);
        let b = Rational::ratio(1, 6);
        assert_eq!(a + b, Rational::ratio(1, 2));
        assert_eq!(a - a, Rational::ZERO);
        assert_eq!(a * b, Rational::ratio(1, 18));
        assert_eq!(a / b, Rational::from_int(2));
        assert_eq!(-a, Rational::ratio(-1, 3));
    }

    #[test]
    fn ordering_matches_real_ordering() {
        assert!(Rational::ratio(1, 3) < Rational::ratio(1, 2));
        assert!(Rational::from_int(-2) < Rational::ZERO);
        assert!(Rational::ratio(7, 2) > Rational::from_int(3));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::ratio(7, 2).floor(), 3);
        assert_eq!(Rational::ratio(7, 2).ceil(), 4);
        assert_eq!(Rational::ratio(-7, 2).floor(), -4);
        assert_eq!(Rational::ratio(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_int(5).floor(), 5);
        assert_eq!(Rational::from_int(5).ceil(), 5);
    }

    #[test]
    fn checked_ops_report_overflow_instead_of_wrapping() {
        let max = Rational::from_int(i128::MAX);
        let min = Rational::from_int(i128::MIN);
        assert!(max.checked_add(&Rational::ONE).is_none());
        assert!(max.checked_mul(&Rational::from_int(2)).is_none());
        assert!(Rational::ZERO.checked_sub(&min).is_none());
        // Near the edge, representable results still come out exact.
        assert_eq!(
            max.checked_sub(&Rational::ONE).unwrap(),
            Rational::from_int(i128::MAX - 1)
        );
        assert_eq!(
            min.checked_add(&Rational::ONE).unwrap(),
            Rational::from_int(i128::MIN + 1)
        );
    }

    #[test]
    fn normalization_handles_i128_min() {
        assert_eq!(
            Rational::new(i128::MIN, 1).unwrap(),
            Rational::from_int(i128::MIN)
        );
        assert_eq!(
            Rational::new(i128::MIN, 2).unwrap(),
            Rational::from_int(i128::MIN / 2)
        );
        assert_eq!(Rational::new(i128::MIN, i128::MIN).unwrap(), Rational::ONE);
    }

    #[test]
    #[should_panic(expected = "overflowed i128")]
    fn operator_overflow_panics_descriptively() {
        // The unchecked operator impls must route through the checked paths
        // and panic (not wrap, as `i128` arithmetic does in release builds).
        let _ = Rational::from_int(i128::MAX) + Rational::ONE;
    }

    #[test]
    #[should_panic(expected = "overflowed i128")]
    fn unrepresentable_normalization_panics_descriptively() {
        // -1/2^127 has no normalized representation: the positive
        // denominator 2^127 does not fit in i128.
        let _ = Rational::new(1, i128::MIN);
    }

    #[test]
    #[should_panic(expected = "overflowed i128")]
    fn negation_of_i128_min_panics_descriptively() {
        let _ = -Rational::from_int(i128::MIN);
    }

    #[test]
    fn recip_of_zero_fails() {
        assert!(Rational::ZERO.recip().is_err());
        assert_eq!(
            Rational::ratio(2, 3).recip().unwrap(),
            Rational::ratio(3, 2)
        );
    }
}
