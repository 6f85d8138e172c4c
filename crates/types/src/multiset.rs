//! Multisets of values, the object every voting round manipulates.

use std::fmt;
use std::iter::FromIterator;

use serde::{Deserialize, Serialize};

use crate::{Interval, Value};

/// A multiset of [`Value`]s, kept sorted in non-decreasing order.
///
/// The paper manipulates the multiset `N_i` of values a non-faulty process
/// `p_i` receives in a round, with the operators `min`, `max`, the range
/// `ρ(V)`, and the diameter `δ(V)`. MSR algorithms also need order-based
/// reductions (dropping the `τ` smallest and largest elements), selection of
/// subsequences, and means — all of which this type provides.
///
/// # Example
///
/// ```
/// use mbaa_types::{Value, ValueMultiset};
///
/// let votes: ValueMultiset = [5.0, 1.0, 3.0, 100.0, -2.0]
///     .iter()
///     .copied()
///     .map(Value::new)
///     .collect();
///
/// assert_eq!(votes.len(), 5);
/// assert_eq!(votes.min(), Some(Value::new(-2.0)));
/// assert_eq!(votes.max(), Some(Value::new(100.0)));
///
/// // Drop the single smallest and largest element (τ = 1).
/// let reduced = votes.trimmed(1);
/// assert_eq!(reduced.as_slice(), &[Value::new(1.0), Value::new(3.0), Value::new(5.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValueMultiset {
    // Invariant: always sorted in non-decreasing order.
    values: Vec<Value>,
}

impl ValueMultiset {
    /// Creates an empty multiset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty multiset with room for `capacity` values.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ValueMultiset {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Creates a multiset from an unsorted vector of values.
    #[must_use]
    pub fn from_values(mut values: Vec<Value>) -> Self {
        // Values are totally ordered finite floats: an unstable comparator
        // sort is enough (equal values are interchangeable) and never
        // allocates, unlike the stable `sort_by` merge.
        values.sort_unstable_by(Value::cmp);
        ValueMultiset { values }
    }

    /// Empties the multiset, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Replaces the contents with the values of `iter`, reusing the existing
    /// allocation: `clear` + `extend` + in-place unstable sort. This is the
    /// zero-allocation refill path of a per-round multiset scratch (the
    /// static simulator's receive buffer) — once the buffer has grown to
    /// the universe size, refilling it performs no heap allocation at all.
    ///
    /// The result is bit-identical to building a fresh multiset with
    /// [`ValueMultiset::from_values`] over the same values.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa_types::{Value, ValueMultiset};
    ///
    /// let mut scratch = ValueMultiset::with_capacity(4);
    /// scratch.refill([3.0, 1.0, 2.0].map(Value::new));
    /// assert_eq!(scratch.as_slice(), &[Value::new(1.0), Value::new(2.0), Value::new(3.0)]);
    /// scratch.refill([5.0, 4.0].map(Value::new));
    /// assert_eq!(scratch.len(), 2);
    /// ```
    pub fn refill<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        self.values.clear();
        self.values.extend(iter);
        self.values.sort_unstable_by(Value::cmp);
    }

    /// Number of values (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the multiset holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Inserts a value, keeping the multiset sorted.
    pub fn insert(&mut self, v: Value) {
        let idx = self.values.partition_point(|&x| x <= v);
        self.values.insert(idx, v);
    }

    /// Number of occurrences of `v`.
    #[must_use]
    pub fn count(&self, v: Value) -> usize {
        let start = self.values.partition_point(|&x| x < v);
        let end = self.values.partition_point(|&x| x <= v);
        end - start
    }

    /// The sorted values as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the sorted values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.values.iter().copied()
    }

    /// The minimum value, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<Value> {
        self.values.first().copied()
    }

    /// The maximum value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<Value> {
        self.values.last().copied()
    }

    /// The range `ρ(V) = [min(V), max(V)]`, or `None` when empty.
    #[must_use]
    pub fn range(&self) -> Option<Interval> {
        Some(Interval::new(self.min()?, self.max()?))
    }

    /// The diameter `δ(V) = max(V) - min(V)`; `0.0` when empty.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) => hi.get() - lo.get(),
            _ => 0.0,
        }
    }

    /// The arithmetic mean, or `None` when empty. Each term is divided by
    /// the count (to stay finite even for very large magnitudes), and the
    /// quotients are summed in ascending order from an explicit `+0.0`, so
    /// a multiset of `-0.0`s has mean `+0.0`.
    #[must_use]
    pub fn mean(&self) -> Option<Value> {
        if self.values.is_empty() {
            return None;
        }
        let n = self.values.len() as f64;
        let mean = self.values.iter().fold(0.0, |sum, v| sum + v.get() / n);
        Some(Value::new(mean))
    }

    /// The median (midpoint of the two central elements for even sizes), or
    /// `None` when empty. See [`median_of_sorted`].
    #[must_use]
    pub fn median(&self) -> Option<Value> {
        median_of_sorted(&self.values)
    }

    /// The `k`-th smallest value (0-based), or `None` when out of range.
    #[must_use]
    pub fn kth(&self, k: usize) -> Option<Value> {
        self.values.get(k).copied()
    }

    /// Returns a new multiset with the `tau` smallest and `tau` largest
    /// values removed (the *Reduce* step of MSR algorithms).
    ///
    /// When `2 * tau >= len`, the result is empty.
    #[must_use]
    pub fn trimmed(&self, tau: usize) -> ValueMultiset {
        if 2 * tau >= self.values.len() {
            return ValueMultiset::new();
        }
        ValueMultiset {
            values: self.values[tau..self.values.len() - tau].to_vec(),
        }
    }

    /// Returns a new multiset keeping every `step`-th value starting from the
    /// first (the *Select* step of MSR algorithms). `step` must be at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    #[must_use]
    pub fn selected(&self, step: usize) -> ValueMultiset {
        assert!(step >= 1, "selection step must be >= 1");
        ValueMultiset {
            values: self.values.iter().copied().step_by(step).collect(),
        }
    }

    /// Returns the sub-multiset of values contained in `interval`.
    #[must_use]
    pub fn restricted_to(&self, interval: &Interval) -> ValueMultiset {
        ValueMultiset {
            values: self
                .values
                .iter()
                .copied()
                .filter(|v| interval.contains(*v))
                .collect(),
        }
    }

    /// Merges two multisets.
    #[must_use]
    pub fn merged(&self, other: &ValueMultiset) -> ValueMultiset {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        ValueMultiset::from_values(values)
    }
}

/// The median of an **ascending** slice: its central value, or the
/// midpoint of the two central values for even lengths; `None` when empty.
#[must_use]
pub fn median_of_sorted(sorted: &[Value]) -> Option<Value> {
    let m = sorted.len();
    if m == 0 {
        None
    } else if m % 2 == 1 {
        Some(sorted[m / 2])
    } else {
        Some(sorted[m / 2 - 1].midpoint(sorted[m / 2]))
    }
}

impl FromIterator<Value> for ValueMultiset {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        ValueMultiset::from_values(iter.into_iter().collect())
    }
}

impl Extend<Value> for ValueMultiset {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        self.values.extend(iter);
        self.values.sort_unstable_by(Value::cmp);
    }
}

impl IntoIterator for ValueMultiset {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<'a> IntoIterator for &'a ValueMultiset {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl fmt::Display for ValueMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(vals: &[f64]) -> ValueMultiset {
        vals.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn construction_sorts_values() {
        let m = ms(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(
            m.as_slice(),
            &[
                Value::new(1.0),
                Value::new(1.0),
                Value::new(2.0),
                Value::new(3.0)
            ]
        );
    }

    #[test]
    fn insert_keeps_sorted_and_counts_multiplicity() {
        let mut m = ms(&[1.0, 3.0]);
        m.insert(Value::new(2.0));
        m.insert(Value::new(2.0));
        assert_eq!(m.len(), 4);
        assert_eq!(m.count(Value::new(2.0)), 2);
        assert_eq!(m.count(Value::new(5.0)), 0);
        assert!(m.as_slice().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn min_max_range_diameter() {
        let m = ms(&[2.0, -1.0, 7.0]);
        assert_eq!(m.min(), Some(Value::new(-1.0)));
        assert_eq!(m.max(), Some(Value::new(7.0)));
        assert_eq!(m.diameter(), 8.0);
        let r = m.range().unwrap();
        assert_eq!(r.lo(), Value::new(-1.0));
        assert_eq!(r.hi(), Value::new(7.0));

        let empty = ValueMultiset::new();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.range(), None);
        assert_eq!(empty.diameter(), 0.0);
    }

    #[test]
    fn mean_and_median() {
        let m = ms(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(m.mean(), Some(Value::new(4.0)));
        assert_eq!(m.median(), Some(Value::new(2.5)));

        let odd = ms(&[5.0, 1.0, 3.0]);
        assert_eq!(odd.median(), Some(Value::new(3.0)));

        assert_eq!(ValueMultiset::new().mean(), None);
        assert_eq!(ValueMultiset::new().median(), None);
    }

    #[test]
    fn mean_of_negative_zeros_is_positive_zero() {
        let m = ms(&[-0.0, -0.0, -0.0]);
        assert_eq!(m.mean().map(|v| v.get().to_bits()), Some(0));
        assert_eq!(
            m.median().map(|v| v.get().to_bits()),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn mean_is_stable_for_large_values() {
        let m = ms(&[f64::MAX / 2.0, f64::MAX / 2.0]);
        assert_eq!(m.mean(), Some(Value::new(f64::MAX / 2.0)));
    }

    #[test]
    fn trimming_drops_extremes() {
        let m = ms(&[0.0, 1.0, 2.0, 3.0, 100.0]);
        assert_eq!(m.trimmed(1).as_slice(), ms(&[1.0, 2.0, 3.0]).as_slice());
        assert_eq!(m.trimmed(2).as_slice(), ms(&[2.0]).as_slice());
        assert!(m.trimmed(3).is_empty());
        assert_eq!(m.trimmed(0), m);
    }

    #[test]
    fn selection_takes_every_step() {
        let m = ms(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.selected(2).as_slice(), ms(&[0.0, 2.0, 4.0]).as_slice());
        assert_eq!(m.selected(1), m);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn selection_step_zero_panics() {
        let _ = ms(&[1.0]).selected(0);
    }

    #[test]
    fn restriction_and_merge() {
        let m = ms(&[0.0, 1.0, 2.0, 3.0]);
        let iv = Interval::new(Value::new(1.0), Value::new(2.5));
        assert_eq!(m.restricted_to(&iv).as_slice(), ms(&[1.0, 2.0]).as_slice());

        let merged = ms(&[0.0, 2.0]).merged(&ms(&[1.0, 3.0]));
        assert_eq!(merged.as_slice(), ms(&[0.0, 1.0, 2.0, 3.0]).as_slice());
    }

    #[test]
    fn kth_accessor() {
        let m = ms(&[4.0, 1.0, 3.0]);
        assert_eq!(m.kth(0), Some(Value::new(1.0)));
        assert_eq!(m.kth(2), Some(Value::new(4.0)));
        assert_eq!(m.kth(3), None);
    }

    #[test]
    fn extend_and_iterators() {
        let mut m = ms(&[2.0]);
        m.extend([Value::new(1.0), Value::new(3.0)]);
        assert_eq!(m.as_slice(), ms(&[1.0, 2.0, 3.0]).as_slice());

        let collected: Vec<Value> = m.iter().collect();
        assert_eq!(collected.len(), 3);
        let owned: Vec<Value> = m.clone().into_iter().collect();
        assert_eq!(owned, collected);
        let borrowed: Vec<&Value> = (&m).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
    }

    #[test]
    fn display_formats_as_braced_list() {
        assert_eq!(ms(&[2.0, 1.0]).to_string(), "{1, 2}");
        assert_eq!(ValueMultiset::new().to_string(), "{}");
    }

    #[test]
    fn refill_reuses_the_buffer_and_matches_from_values() {
        let mut scratch = ValueMultiset::with_capacity(8);
        scratch.refill([4.0, 2.0, 4.0].map(Value::new));
        assert_eq!(scratch, ms(&[2.0, 4.0, 4.0]));
        // A shorter refill fully replaces the previous contents.
        scratch.refill([9.0].map(Value::new));
        assert_eq!(scratch, ms(&[9.0]));
        scratch.refill(std::iter::empty());
        assert!(scratch.is_empty());
        scratch.clear();
        assert!(scratch.is_empty());
    }

    /// Property battery (seeded random cases, proptest-style): the unstable
    /// comparator sort used by `from_values` and `refill` preserves exactly
    /// the sorted order and per-value multiplicity a stable reference sort
    /// produces.
    #[test]
    fn unstable_sort_preserves_order_and_multiplicity() {
        // SplitMix64: deterministic case generation without a dev-dependency.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut scratch = ValueMultiset::new();
        for case in 0..200 {
            let len = (next() % 64) as usize;
            // A coarse value grid on purpose: ties are the interesting case
            // for sort stability.
            let values: Vec<Value> = (0..len)
                .map(|_| Value::new((next() % 16) as f64 - 8.0))
                .collect();

            let mut reference = values.clone();
            // mbaa: allow(determinism/stable-sort, intentional stable reference the battery checks unstable refill against)
            reference.sort_by(Value::cmp);

            let built = ValueMultiset::from_values(values.clone());
            assert_eq!(built.as_slice(), reference.as_slice(), "case {case}");
            scratch.refill(values.iter().copied());
            assert_eq!(scratch.as_slice(), reference.as_slice(), "case {case}");
            for &v in &reference {
                assert_eq!(
                    built.count(v),
                    reference.iter().filter(|&&r| r == v).count(),
                    "case {case}: multiplicity of {v}"
                );
            }
        }
    }
}
