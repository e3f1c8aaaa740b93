//! Deliberate floating-point comparison and conversion helpers.
//!
//! The workspace bans raw float `==`/`!=` outside tests (mp-lint rule
//! L1) and lossy `as` casts on counts and indices (clippy's cast lints).
//! This module is the
//! sanctioned vocabulary for the cases where an exact or approximate
//! comparison *is* the right thing, so every call site names its
//! intent:
//!
//! * [`exact_zero`] / [`exact_one`] — bit-level sentinel checks used by
//!   probability short-circuits (`p == 0.0` ⇒ impossible, `p == 1.0` ⇒
//!   certain). These preserve the exact semantics of the raw
//!   comparison: no epsilon is involved, so `p = 1e-300` is *not* zero
//!   and downstream results stay bit-identical.
//! * [`approx_eq`] — symmetric absolute-tolerance comparison for
//!   configuration-style checks (e.g. "is the noise factor exactly the
//!   default 1.0?").
//! * [`canonical`] — maps `-0.0` to `+0.0` (and is the identity
//!   elsewhere) so that sign-of-zero never leaks into sort keys or
//!   serialized output.
//! * [`total_cmp_desc`] — descending total order for ranking by float
//!   score with deterministic tie handling.
//! * [`desc_key`] — the same order as one integer per value, for sorts
//!   that compute each key once instead of comparing floats.
//! * [`round_u32`] / [`round_u64`] — checked float→count conversions
//!   that make the domain error explicit instead of silently saturating
//!   through `as`.

/// True iff `x` is (positively or negatively signed) zero.
///
/// Bit-level, not epsilon-based: this is the L1-compliant spelling of
/// `x == 0.0` for probability short-circuits where only the exact
/// sentinel matters. `-0.0` is accepted because IEEE 754 `==` treats
/// the two zeros as equal and callers rely on that.
#[inline]
pub fn exact_zero(x: f64) -> bool {
    // `to_bits` comparison against both zero payloads avoids the float
    // `==` operator while matching its semantics for zeros exactly
    // (NaN payloads compare unequal to both, as with `==`).
    let b = x.to_bits();
    let pos_zero = 0.0f64.to_bits();
    let neg_zero = (-0.0f64).to_bits();
    b == pos_zero || b == neg_zero
}

/// True iff `x` is exactly `1.0` (bit-level).
///
/// The L1-compliant spelling of `x == 1.0` for certainty
/// short-circuits (`P = 1` ⇒ the event is sure).
#[inline]
pub fn exact_one(x: f64) -> bool {
    let one = 1.0f64.to_bits();
    x.to_bits() == one
}

/// True iff `x` is bit-identical to `y` after [`canonical`]
/// normalization (so `0.0` matches `-0.0`, and NaN never matches).
#[inline]
pub fn exact_eq(x: f64, y: f64) -> bool {
    if x.is_nan() || y.is_nan() {
        return false;
    }
    canonical(x).to_bits() == canonical(y).to_bits()
}

/// Symmetric absolute-tolerance comparison: `|x − y| ≤ tol`.
///
/// NaN inputs always compare unequal. Use for configuration-style
/// checks where "close enough" is intended; use [`exact_zero`] /
/// [`exact_one`] when the comparison is a sentinel test.
#[inline]
pub fn approx_eq(x: f64, y: f64, tol: f64) -> bool {
    (x - y).abs() <= tol
}

/// Maps `-0.0` to `+0.0`; identity on every other value (incl. NaN).
///
/// `f64::max(0.0)` may return either zero when the input is `-0.0`
/// (IEEE 754 leaves the sign unspecified and implementations differ),
/// so clamps that feed sort keys or serialized output canonicalize
/// through this.
#[inline]
pub fn canonical(x: f64) -> f64 {
    if exact_zero(x) {
        0.0
    } else {
        x
    }
}

/// Descending total order on floats with canonical zero handling:
/// larger values sort first, `0.0` and `-0.0` are equal, NaN sorts
/// last (after every real value).
///
/// This is the workspace's ranking comparator: pair it with an index
/// tie-break (`.then(i.cmp(&j))`) for a deterministic selection order.
#[inline]
pub fn total_cmp_desc(x: f64, y: f64) -> std::cmp::Ordering {
    // NaN is handled explicitly: under `total_cmp` a positive NaN is the
    // *maximum*, which would rank it first in a descending sort.
    match (x.is_nan(), y.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => canonical(y).total_cmp(&canonical(x)),
    }
}

/// [`total_cmp_desc`] as an integer: `desc_key(x).cmp(&desc_key(y))`
/// equals `total_cmp_desc(x, y)` for all floats, so ascending keys put
/// larger values first, `0.0` and `-0.0` on one key, and NaN last.
///
/// A sort that computes each value's key once and then orders plain
/// integers gives the comparator's order without calling it
/// `O(N log N)` times.
#[inline]
pub fn desc_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = canonical(x).to_bits();
    // Setting the sign bit of a non-negative value and flipping a
    // negative one whole gives integers that ascend with the floats;
    // the complement makes them descend.
    if bits >> 63 == 0 {
        !(bits | 1 << 63)
    } else {
        bits
    }
}

/// Rounds a non-negative float to the nearest `u32`, or `None` when the
/// input is NaN, negative (beyond rounding), or too large.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the domain is checked first: `r` is integer-valued and in 0..=u32::MAX"
)]
pub fn round_u32(x: f64) -> Option<u32> {
    if !x.is_finite() {
        return None;
    }
    let r = x.round();
    if r < 0.0 || r > f64::from(u32::MAX) {
        return None;
    }
    Some(r as u32)
}

/// Rounds a non-negative float to the nearest `u64`, or `None` when the
/// input is NaN, negative (beyond rounding), or too large.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the domain is checked first: `r` is integer-valued and in 0..2^64"
)]
pub fn round_u64(x: f64) -> Option<u64> {
    if !x.is_finite() {
        return None;
    }
    let r = x.round();
    // 2^64 as f64; values at or above it do not fit.
    if !(0.0..18_446_744_073_709_551_616.0).contains(&r) {
        return None;
    }
    Some(r as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    #[test]
    fn exact_zero_matches_both_signs_only() {
        assert!(exact_zero(0.0));
        assert!(exact_zero(-0.0));
        assert!(!exact_zero(1e-300));
        assert!(!exact_zero(-1e-300));
        assert!(!exact_zero(f64::NAN));
        assert!(!exact_zero(f64::MIN_POSITIVE));
    }

    #[test]
    fn exact_one_is_bit_exact() {
        assert!(exact_one(1.0));
        assert!(!exact_one(1.0 + f64::EPSILON));
        assert!(!exact_one(1.0 - f64::EPSILON / 2.0));
        assert!(!exact_one(f64::NAN));
    }

    #[test]
    fn exact_eq_handles_zeros_and_nan() {
        assert!(exact_eq(0.0, -0.0));
        assert!(exact_eq(2.5, 2.5));
        // `1.5 + EPSILON` is the next representable value after `1.5`
        // (at 2.5 the same sum would round back to 2.5 exactly).
        assert!(!exact_eq(1.5, 1.5 + f64::EPSILON));
        assert!(!exact_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-9));
    }

    #[test]
    fn canonical_folds_negative_zero() {
        assert_eq!(canonical(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(canonical(3.0), 3.0);
        assert_eq!(canonical(-3.0), -3.0);
        assert!(canonical(f64::NAN).is_nan());
    }

    #[test]
    fn total_cmp_desc_orders_and_breaks_ties() {
        assert_eq!(total_cmp_desc(2.0, 1.0), Ordering::Less); // 2.0 first
        assert_eq!(total_cmp_desc(1.0, 2.0), Ordering::Greater);
        assert_eq!(total_cmp_desc(1.0, 1.0), Ordering::Equal);
        assert_eq!(total_cmp_desc(0.0, -0.0), Ordering::Equal);
        // NaN sorts after every real value in a descending sort.
        assert_eq!(total_cmp_desc(f64::NAN, -1e308), Ordering::Greater);
    }

    #[test]
    fn desc_key_orders_the_edge_values() {
        let tiny = f64::from_bits(1);
        let descending = [f64::INFINITY, f64::MAX, 1.0, f64::MIN_POSITIVE, tiny, 0.0];
        for w in descending.windows(2) {
            assert!(desc_key(w[0]) < desc_key(w[1]), "{} before {}", w[0], w[1]);
            assert!(
                desc_key(-w[1]) < desc_key(-w[0]),
                "{} before {}",
                -w[1],
                -w[0]
            );
        }
        assert_eq!(desc_key(0.0), desc_key(-0.0));
        assert!(desc_key(-tiny) > desc_key(0.0));
        assert!(desc_key(f64::NEG_INFINITY) < desc_key(f64::NAN));
        assert_eq!(desc_key(f64::NAN), desc_key(-f64::NAN));
    }

    /// A float drawn to hit the edges often: raw bit patterns (NaNs
    /// included), signed zeros and infinities, subnormals of either
    /// sign, and small integers that tie.
    fn edge_float() -> impl Strategy<Value = f64> {
        (0u8..4, 0u64..=u64::MAX).prop_map(|(kind, bits)| match kind {
            0 => f64::from_bits(bits),
            1 => [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
            ][(bits % 6) as usize],
            2 => {
                let subnormal = f64::from_bits(bits & 0x000F_FFFF_FFFF_FFFF);
                if bits >> 63 == 0 {
                    subnormal
                } else {
                    -subnormal
                }
            }
            _ => (bits % 7) as f64 - 3.0,
        })
    }

    proptest! {
        #[test]
        fn prop_desc_key_is_total_cmp_desc(x in edge_float(), y in edge_float()) {
            prop_assert_eq!(desc_key(x).cmp(&desc_key(y)), total_cmp_desc(x, y));
        }
    }

    #[test]
    fn round_u32_checks_domain() {
        assert_eq!(round_u32(3.6), Some(4));
        assert_eq!(round_u32(0.4), Some(0));
        assert_eq!(round_u32(-0.4), Some(0));
        assert_eq!(round_u32(-1.0), None);
        assert_eq!(round_u32(f64::NAN), None);
        assert_eq!(round_u32(f64::INFINITY), None);
        assert_eq!(round_u32(4_294_967_295.0), Some(u32::MAX));
        assert_eq!(round_u32(4_294_967_296.0), None);
    }

    #[test]
    fn round_u64_checks_domain() {
        assert_eq!(round_u64(3.6), Some(4));
        assert_eq!(round_u64(-1.0), None);
        assert_eq!(round_u64(f64::NAN), None);
        assert_eq!(round_u64(18_446_744_073_709_551_616.0), None);
        assert_eq!(round_u64(1e18), Some(1_000_000_000_000_000_000));
    }
}
