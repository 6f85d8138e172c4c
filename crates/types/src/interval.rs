//! Closed real intervals: the range `ρ(V)` of a multiset of values.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Error, Result, Value};

/// Checks that `[lo, hi]` is a range values can be drawn from and measured
/// in: `lo <= hi` with a finite width `hi - lo` (a NaN or infinite end
/// fails both).
///
/// # Errors
///
/// [`Error::InvalidParameter`] naming `what` and the range.
///
/// # Example
///
/// ```
/// use mbaa_types::check_range;
///
/// assert!(check_range("range", -1.0, 1.0).is_ok());
/// assert!(check_range("range", 1.0, -1.0).is_err());
/// assert!(check_range("range", -1e308, 1e308).is_err()); // the width overflows
/// ```
pub fn check_range(what: &str, lo: f64, hi: f64) -> Result<()> {
    if lo <= hi && (hi - lo).is_finite() {
        Ok(())
    } else {
        Err(Error::InvalidParameter(format!(
            "{what} [{lo:?}, {hi:?}] needs lo <= hi and a finite width"
        )))
    }
}

/// A closed interval `[lo, hi]` of real values.
///
/// The paper writes `ρ(V) = [min(V), max(V)]` for the range of a multiset
/// `V` and uses containment in `ρ(U)` (the range of correct values) as the
/// validity condition of approximate agreement.
///
/// # Example
///
/// ```
/// use mbaa_types::{Interval, Value};
///
/// let range = Interval::new(Value::new(0.0), Value::new(1.0));
/// assert!(range.contains(Value::new(0.5)));
/// assert_eq!(range.diameter(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    lo: Value,
    hi: Value,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: Value, hi: Value) -> Self {
        assert!(lo <= hi, "interval requires lo <= hi");
        Interval { lo, hi }
    }

    /// Creates the degenerate interval `[v, v]`.
    #[must_use]
    pub fn point(v: Value) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Creates the smallest interval containing every value of the iterator,
    /// or `None` when the iterator is empty.
    ///
    /// One pass of branch-free selects: `lo` moves only to a strictly
    /// smaller value and `hi` only to a strictly larger one, so among equal
    /// values (`-0.0` and `0.0`) each endpoint keeps the earliest, bit for
    /// bit, as a fold of [`Value::min`] and [`Value::max`] does.
    pub fn hull<I: IntoIterator<Item = Value>>(values: I) -> Option<Self> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            lo = if v.get() < lo.get() { v } else { lo };
            hi = if v.get() > hi.get() { v } else { hi };
        }
        Some(Interval { lo, hi })
    }

    /// The lower endpoint.
    #[must_use]
    pub fn lo(&self) -> Value {
        self.lo
    }

    /// The upper endpoint.
    #[must_use]
    pub fn hi(&self) -> Value {
        self.hi
    }

    /// The diameter `hi - lo` (written `δ` in the paper).
    #[must_use]
    pub fn diameter(&self) -> f64 {
        self.hi.get() - self.lo.get()
    }

    /// The midpoint of the interval.
    #[must_use]
    pub fn midpoint(&self) -> Value {
        self.lo.midpoint(self.hi)
    }

    /// Returns `true` when `v ∈ [lo, hi]`.
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Returns `true` when `other ⊆ self`.
    #[must_use]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns the smallest interval containing both `self` and `other`.
    #[must_use]
    pub fn union(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Returns the intersection of `self` and `other`, or `None` when they
    /// are disjoint.
    #[must_use]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Grows the interval by `margin` on both sides.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative or not finite.
    #[must_use]
    pub fn expanded(&self, margin: f64) -> Interval {
        assert!(
            margin.is_finite() && margin >= 0.0,
            "margin must be finite and >= 0"
        );
        Interval {
            lo: Value::new(self.lo.get() - margin),
            hi: Value::new(self.hi.get() + margin),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(Value::new(lo), Value::new(hi))
    }

    #[test]
    fn construction_and_accessors() {
        let i = iv(-1.0, 3.0);
        assert_eq!(i.lo(), Value::new(-1.0));
        assert_eq!(i.hi(), Value::new(3.0));
        assert_eq!(i.diameter(), 4.0);
        assert_eq!(i.midpoint(), Value::new(1.0));
    }

    #[test]
    fn hull_keeps_the_min_max_fold_bit_for_bit() {
        // The fold the one-pass hull replaced.
        let fold = |values: &[f64]| {
            let mut it = values.iter().map(|&v| Value::new(v));
            let first = it.next()?;
            let (mut lo, mut hi) = (first, first);
            for v in it {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            Some((lo.get().to_bits(), hi.get().to_bits()))
        };
        let hull = |values: &[f64]| {
            Interval::hull(values.iter().map(|&v| Value::new(v)))
                .map(|h| (h.lo().get().to_bits(), h.hi().get().to_bits()))
        };
        let zeros: (u64, u64) = (0.0f64.to_bits(), (-0.0f64).to_bits());
        // Of equal endpoints, both keep the earliest.
        assert_eq!(hull(&[0.0, -0.0]), Some((zeros.0, zeros.0)));
        assert_eq!(hull(&[-0.0, 0.0]), Some((zeros.1, zeros.1)));
        assert_eq!(
            hull(&[1.0, -0.0, 0.0, -1.0]),
            Some(((-1.0f64).to_bits(), 1.0f64.to_bits()))
        );
        let cases: &[&[f64]] = &[
            &[],
            &[-0.0],
            &[0.0, -0.0, 0.0],
            &[-0.0, 0.0, -0.0],
            &[-0.0, 1.0, 0.0, -1.0, -0.0],
            &[2.0, -0.0, 0.0, 2.0],
            &[-3.5, 0.0, 3.5, -0.0, -3.5, 3.5],
            &[-1.0, -2.0, -0.0, 0.0, -2.0],
            &[0.0, 1e-308, -1e-308, -0.0],
            &[f64::MAX, -f64::MAX, 0.0, -0.0],
        ];
        for values in cases {
            assert_eq!(hull(values), fold(values), "{values:?}");
        }
        // Every ordering of a small signed palette.
        let palette = [-0.0, 0.0, 1.0, -1.0, 0.0, -0.0];
        for code in 0..6usize.pow(5) {
            let values: Vec<f64> = (0..5).map(|k| palette[code / 6usize.pow(k) % 6]).collect();
            assert_eq!(hull(&values), fold(&values), "{values:?}");
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_bounds_panic() {
        let _ = iv(1.0, 0.0);
    }

    #[test]
    fn point_interval_has_zero_diameter() {
        let p = Interval::point(Value::new(2.0));
        assert_eq!(p.diameter(), 0.0);
        assert!(p.contains(Value::new(2.0)));
        assert!(!p.contains(Value::new(2.1)));
    }

    #[test]
    fn hull_of_values() {
        let hull = Interval::hull([3.0, -2.0, 0.5].into_iter().map(Value::new)).unwrap();
        assert_eq!(hull, iv(-2.0, 3.0));
        assert!(Interval::hull(std::iter::empty()).is_none());
    }

    #[test]
    fn containment() {
        let outer = iv(0.0, 10.0);
        let inner = iv(2.0, 3.0);
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.contains(Value::new(0.0)));
        assert!(outer.contains(Value::new(10.0)));
        assert!(!outer.contains(Value::new(10.000001)));
    }

    #[test]
    fn union_and_intersection() {
        let a = iv(0.0, 2.0);
        let b = iv(1.0, 5.0);
        assert_eq!(a.union(&b), iv(0.0, 5.0));
        assert_eq!(a.intersection(&b), Some(iv(1.0, 2.0)));

        let c = iv(10.0, 11.0);
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.union(&c), iv(0.0, 11.0));
    }

    #[test]
    fn expansion() {
        let a = iv(0.0, 1.0);
        assert_eq!(a.expanded(0.5), iv(-0.5, 1.5));
        assert_eq!(a.expanded(0.0), a);
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn negative_margin_panics() {
        let _ = iv(0.0, 1.0).expanded(-0.1);
    }

    #[test]
    fn display() {
        assert_eq!(iv(0.0, 1.5).to_string(), "[0, 1.5]");
    }
}
