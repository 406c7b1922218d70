//! Blessed floating-point comparison helpers.
//!
//! Raw `f64 ==`/`!=` comparisons are banned by `cargo xtask analyze` (rule
//! `float-cmp`): most of them are latent bugs that only surface once pivot
//! ordering, summation order, or compiler flags change the last few ulps of
//! a value. Every float comparison in the workspace goes through this crate
//! instead, with an explicit tolerance chosen at the call site.
//!
//! Two idioms are supported:
//!
//! - predicates ([`approx_eq`], [`approx_ge`], [`approx_le`], [`approx_zero`])
//!   for branching in algorithm code, and
//! - [`assert_approx_eq!`] for tests, which reports both values and the
//!   tolerance on failure.
//!
//! An `eps` of `0.0` is legal and means *exact* comparison — useful for
//! degenerate-input guards (e.g. "is this capacity literally zero?") where an
//! exact check is the intended semantics. Routing those through this crate
//! keeps them visible and greppable.

#![forbid(unsafe_code)]

// lint: allow(float-cmp) — this crate *implements* the blessed helpers.

/// Returns `true` when `a` and `b` differ by at most `eps`.
///
/// Comparisons are absolute, not relative: the tolerance is an additive
/// margin, matching how the solvers in this workspace use their `EPS`
/// constants. Two infinities of the same sign compare equal; any comparison
/// involving NaN is `false`.
///
/// # Examples
///
/// ```
/// use mec_num::approx_eq;
///
/// assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
/// assert!(!approx_eq(1.0, 1.1, 1e-12));
/// assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0));
/// assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    if a == b {
        // Covers exact matches and equal infinities, where `a - b` is NaN.
        return true;
    }
    (a - b).abs() <= eps
}

/// Returns `true` when `a >= b - eps` (greater-or-equal within tolerance).
///
/// # Examples
///
/// ```
/// use mec_num::approx_ge;
///
/// assert!(approx_ge(1.0, 1.0 + 1e-13, 1e-12));
/// assert!(!approx_ge(1.0, 2.0, 1e-12));
/// ```
#[inline]
pub fn approx_ge(a: f64, b: f64, eps: f64) -> bool {
    a >= b - eps
}

/// Returns `true` when `a <= b + eps` (less-or-equal within tolerance).
///
/// # Examples
///
/// ```
/// use mec_num::approx_le;
///
/// assert!(approx_le(1.0 + 1e-13, 1.0, 1e-12));
/// assert!(!approx_le(2.0, 1.0, 1e-12));
/// ```
#[inline]
pub fn approx_le(a: f64, b: f64, eps: f64) -> bool {
    a <= b + eps
}

/// Returns `true` when `|x| <= eps`.
///
/// With `eps == 0.0` this is an exact zero test (matching both `0.0` and
/// `-0.0`), the blessed form of the old `x == 0.0` guards.
///
/// # Examples
///
/// ```
/// use mec_num::approx_zero;
///
/// assert!(approx_zero(0.0, 0.0));
/// assert!(approx_zero(-0.0, 0.0));
/// assert!(approx_zero(1e-15, 1e-12));
/// assert!(!approx_zero(1e-3, 1e-12));
/// ```
#[inline]
pub fn approx_zero(x: f64, eps: f64) -> bool {
    x.abs() <= eps
}

/// Asserts that two `f64` expressions are equal within a tolerance.
///
/// `assert_approx_eq!(a, b)` uses a default tolerance of `1e-9`;
/// `assert_approx_eq!(a, b, eps)` makes it explicit. On failure the message
/// shows both values, their difference, and the tolerance.
///
/// # Examples
///
/// ```
/// mec_num::assert_approx_eq!(0.1 + 0.2, 0.3);
/// mec_num::assert_approx_eq!(1.0, 1.0 + 1e-13, 1e-12);
/// ```
#[macro_export]
macro_rules! assert_approx_eq {
    ($a:expr, $b:expr $(,)?) => {
        $crate::assert_approx_eq!($a, $b, 1e-9)
    };
    ($a:expr, $b:expr, $eps:expr $(,)?) => {{
        let (a, b, eps): (f64, f64, f64) = ($a, $b, $eps);
        assert!(
            $crate::approx_eq(a, b, eps),
            "assert_approx_eq failed: `{}` = {a:?}, `{}` = {b:?}, |diff| = {:?} > eps = {eps:?}",
            stringify!($a),
            stringify!($b),
            (a - b).abs(),
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_within_tolerance() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 5e-10, 1e-9));
        assert!(!approx_eq(1.0, 1.0 + 2e-9, 1e-9));
    }

    #[test]
    fn eq_handles_infinities_and_nan() {
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(approx_eq(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY, 1e300));
        assert!(!approx_eq(f64::NAN, 0.0, 1.0));
        assert!(!approx_eq(f64::NAN, f64::NAN, f64::INFINITY));
    }

    #[test]
    fn ge_and_le_are_one_sided() {
        assert!(approx_ge(1.0, 1.0, 0.0));
        assert!(approx_ge(0.999_999_999_9, 1.0, 1e-9));
        assert!(!approx_ge(0.9, 1.0, 1e-9));
        assert!(approx_le(1.000_000_000_1, 1.0, 1e-9));
        assert!(!approx_le(1.1, 1.0, 1e-9));
    }

    #[test]
    fn zero_test_matches_signed_zero() {
        assert!(approx_zero(0.0, 0.0));
        assert!(approx_zero(-0.0, 0.0));
        assert!(!approx_zero(f64::MIN_POSITIVE, 0.0));
    }

    #[test]
    fn assert_macro_passes_on_equal() {
        assert_approx_eq!(2.0, 2.0);
        assert_approx_eq!(2.0, 2.0 + 1e-12, 1e-9);
    }

    #[test]
    #[should_panic(expected = "assert_approx_eq failed")]
    fn assert_macro_panics_on_gap() {
        assert_approx_eq!(1.0, 2.0, 1e-9);
    }
}
