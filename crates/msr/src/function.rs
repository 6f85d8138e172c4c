//! Assembled voting functions: `F_MSR(N) = mean(Sel(Red(N)))`.

use std::fmt;

use serde::{Deserialize, Serialize};

use mbaa_types::{median_of_sorted, FaultCounts, Value, ValueMultiset};

use crate::{Reduction, Selection};

/// A voting function applied during the computation phase of each round.
///
/// The trait is object-safe so the protocol engine can run MSR instances and
/// non-MSR baselines (e.g. [`MedianVoting`](crate::MedianVoting))
/// interchangeably. [`VotingFunction::apply_sorted`] is its one evaluation;
/// [`VotingFunction::apply`] feeds it a multiset's sorted values.
pub trait VotingFunction: fmt::Debug + Send + Sync {
    /// Computes the next vote from the **ascending** values a receiver
    /// heard, or `None` when there are too few to produce a value.
    ///
    /// The result must be a pure function of the multiset: no state, no
    /// randomness, no dependence on which process or how many processes
    /// receive it, nor on the order of equal values. The engine calls it
    /// once per distinct delivered row and hands that vote to every
    /// receiver that heard the same values. A mean sums from an explicit
    /// `+0.0` in ascending order, so terms that are all `-0.0` vote `+0.0`
    /// on every toolchain.
    fn apply_sorted(&self, sorted: &[Value]) -> Option<Value>;

    /// Computes the next vote from the multiset of received values:
    /// [`VotingFunction::apply_sorted`] over its sorted slice.
    fn apply(&self, received: &ValueMultiset) -> Option<Value> {
        self.apply_sorted(received.as_slice())
    }

    /// A short human-readable name used in reports and benchmark labels.
    fn name(&self) -> String;

    /// The smallest multiset size for which [`VotingFunction::apply`]
    /// returns a value.
    fn min_input_len(&self) -> usize {
        1
    }

    /// How many values survive the reduction step for a multiset of
    /// `input_len` received values (before any selection). Functions with
    /// no reduction step keep every value. Observability reports use this
    /// as the per-round MSR reduction width.
    fn reduced_width(&self, input_len: usize) -> usize {
        input_len
    }
}

/// A concrete member of the MSR family: a [`Reduction`] followed by a
/// [`Selection`] followed by the arithmetic mean.
///
/// # Example
///
/// ```
/// use mbaa_msr::{MsrFunction, Reduction, Selection, VotingFunction};
/// use mbaa_types::{Value, ValueMultiset};
///
/// let f = MsrFunction::new(Reduction::trim(1), Selection::All);
/// let votes: ValueMultiset = [0.0, 0.5, 1.0, 100.0]
///     .iter().copied().map(Value::new).collect();
/// assert_eq!(f.apply(&votes), Some(Value::new(0.75)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MsrFunction {
    reduction: Reduction,
    selection: Selection,
}

impl MsrFunction {
    /// Assembles an MSR function from its reduction and selection steps.
    #[must_use]
    pub fn new(reduction: Reduction, selection: Selection) -> Self {
        MsrFunction {
            reduction,
            selection,
        }
    }

    /// The classic trimmed-mean algorithm of Dolev et al.: drop `tau` values
    /// from each end, average everything that survives.
    #[must_use]
    pub fn dolev_mean(tau: usize) -> Self {
        Self::new(Reduction::trim(tau), Selection::All)
    }

    /// The Fault-Tolerant Midpoint algorithm: drop `tau` values from each
    /// end, average the smallest and largest survivors.
    #[must_use]
    pub fn fault_tolerant_midpoint(tau: usize) -> Self {
        Self::new(Reduction::trim(tau), Selection::Extremes)
    }

    /// A reduced-median algorithm: drop `tau` values from each end, vote the
    /// median of the survivors.
    #[must_use]
    pub fn reduced_median(tau: usize) -> Self {
        Self::new(Reduction::trim(tau), Selection::MedianOnly)
    }

    /// The MSR instance sized for a mixed-mode fault configuration: the
    /// reduction parameter is `τ = a + s` (benign faults are detected and
    /// never enter the multiset).
    #[must_use]
    pub fn for_fault_counts(counts: FaultCounts) -> Self {
        Self::dolev_mean(counts.reduction_tau())
    }

    /// The reduction step.
    #[must_use]
    pub fn reduction(&self) -> Reduction {
        self.reduction
    }

    /// The selection step.
    #[must_use]
    pub fn selection(&self) -> Selection {
        self.selection
    }
}

impl VotingFunction for MsrFunction {
    /// Computes `mean(Sel(Red(N)))` directly over the ascending slice: the
    /// reduction is a sub-slice, the selection an iterator over it, and the
    /// mean divides each term before summing, like [`ValueMultiset::mean`]
    /// over the materialized [`Reduction::apply`] / [`Selection::apply`]
    /// steps. No intermediate multiset, no heap allocation.
    // mbaa: alloc-free
    fn apply_sorted(&self, sorted: &[Value]) -> Option<Value> {
        let tau = self.reduction.tau();
        if sorted.len() < self.reduction.min_input_len() {
            // The reduction would leave nothing (or the input is empty):
            // the materialized path's mean of an empty multiset.
            return None;
        }
        let reduced = &sorted[tau..sorted.len() - tau];
        match self.selection {
            Selection::All => mean_of_sorted(reduced.iter().copied(), reduced.len()),
            Selection::EveryKth { k } => {
                assert!(k >= 1, "selection step must be >= 1");
                mean_of_sorted(
                    reduced.iter().copied().step_by(k),
                    reduced.len().div_ceil(k),
                )
            }
            // The Fault-Tolerant Midpoint keeps {min, max} (a singleton
            // keeps its value twice): the mean is v/2 + v/2 either way.
            Selection::Extremes => {
                mean_of_sorted([reduced[0], reduced[reduced.len() - 1]].into_iter(), 2)
            }
            Selection::MedianOnly => mean_of_sorted(median_of_sorted(reduced).into_iter(), 1),
        }
    }

    fn name(&self) -> String {
        format!("MSR[{} ∘ {} ∘ mean]", self.reduction, self.selection)
    }

    fn min_input_len(&self) -> usize {
        self.reduction.min_input_len()
    }

    /// The reduction discards the `tau` lowest and `tau` highest values.
    fn reduced_width(&self, input_len: usize) -> usize {
        input_len.saturating_sub(2 * self.reduction.tau())
    }
}

/// The arithmetic mean of `count` ascending values: each term is divided by
/// the count, then the quotients are summed in order from an explicit
/// `+0.0` — the summation [`ValueMultiset::mean`] performs, so slice-based
/// and materialized MSR evaluation agree bit for bit. (`Iterator::sum`
/// would start from `-0.0` on recent toolchains, so all-`-0.0` terms would
/// vote `-0.0`.)
fn mean_of_sorted<I: Iterator<Item = Value>>(values: I, count: usize) -> Option<Value> {
    if count == 0 {
        return None;
    }
    let n = count as f64;
    Some(Value::new(values.fold(0.0, |sum, v| sum + v.get() / n)))
}

impl Default for MsrFunction {
    fn default() -> Self {
        MsrFunction::dolev_mean(0)
    }
}

impl fmt::Display for MsrFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&VotingFunction::name(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(vals: &[f64]) -> ValueMultiset {
        vals.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn dolev_mean_trims_then_averages() {
        let f = MsrFunction::dolev_mean(1);
        let votes = ms(&[-1000.0, 1.0, 2.0, 3.0, 1000.0]);
        assert_eq!(f.apply(&votes), Some(Value::new(2.0)));
        assert_eq!(f.min_input_len(), 3);
    }

    #[test]
    fn fault_tolerant_midpoint_averages_extremes() {
        let f = MsrFunction::fault_tolerant_midpoint(1);
        let votes = ms(&[-1000.0, 1.0, 2.0, 7.0, 1000.0]);
        assert_eq!(f.apply(&votes), Some(Value::new(4.0)));
    }

    #[test]
    fn reduced_median_votes_the_median() {
        let f = MsrFunction::reduced_median(1);
        let votes = ms(&[-1000.0, 1.0, 2.0, 7.0, 1000.0]);
        assert_eq!(f.apply(&votes), Some(Value::new(2.0)));
    }

    #[test]
    fn for_fault_counts_uses_tau_a_plus_s() {
        let f = MsrFunction::for_fault_counts(FaultCounts::new(1, 2, 5));
        assert_eq!(f.reduction(), Reduction::trim(3));
        assert_eq!(f.selection(), Selection::All);
    }

    #[test]
    fn returns_none_on_undersized_input() {
        let f = MsrFunction::dolev_mean(2);
        assert_eq!(f.apply(&ms(&[1.0, 2.0, 3.0, 4.0])), None);
        assert_eq!(f.apply(&ValueMultiset::new()), None);
    }

    #[test]
    fn result_stays_within_input_range() {
        let f = MsrFunction::dolev_mean(1);
        let votes = ms(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        let out = f.apply(&votes).unwrap();
        assert!(votes.range().unwrap().contains(out));
    }

    #[test]
    fn default_is_plain_mean() {
        let f = MsrFunction::default();
        assert_eq!(f.apply(&ms(&[1.0, 3.0])), Some(Value::new(2.0)));
    }

    #[test]
    fn names_are_descriptive() {
        let f = MsrFunction::dolev_mean(2);
        let name = VotingFunction::name(&f);
        assert!(name.contains("trim"));
        assert!(name.contains("mean"));
        assert_eq!(f.to_string(), name);
    }

    #[test]
    fn trait_object_usable() {
        let f: Box<dyn VotingFunction> = Box::new(MsrFunction::dolev_mean(1));
        assert!(f.apply(&ms(&[1.0, 2.0, 3.0])).is_some());
    }

    /// Every mean sums from an explicit `+0.0`: rows whose selected terms
    /// are all `-0.0` vote `+0.0` through `apply_sorted` and `apply`, for
    /// every selection. In the second row the smallest negative subnormal's
    /// quotient underflows to `-0.0`.
    #[test]
    fn negative_zero_terms_vote_positive_zero() {
        let tiny = -f64::from_bits(1);
        let rows = [[-1.0, -0.0, -0.0, -0.0, 1.0], [-1.0, tiny, -0.0, -0.0, 1.0]];
        let selections = [
            Selection::All,
            Selection::EveryKth { k: 2 },
            Selection::Extremes,
            Selection::MedianOnly,
        ];
        for row in rows {
            let sorted: Vec<Value> = row.into_iter().map(Value::new).collect();
            for selection in selections {
                let f = MsrFunction::new(Reduction::trim(1), selection);
                for vote in [f.apply_sorted(&sorted), f.apply(&ms(&row))] {
                    assert_eq!(
                        vote.map(|v| v.get().to_bits()),
                        Some(0),
                        "{selection} over {row:?}"
                    );
                }
            }
        }
    }

    /// The slice-based `apply` must agree bit for bit with materializing the
    /// reduction and selection steps and taking the multiset mean — the
    /// path it replaced.
    #[test]
    fn slice_apply_matches_materialized_pipeline() {
        let selections = [
            Selection::All,
            Selection::EveryKth { k: 2 },
            Selection::EveryKth { k: 3 },
            Selection::Extremes,
            Selection::MedianOnly,
        ];
        let mut state = 41_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..100 {
            let len = (next() % 12) as usize;
            let votes: ValueMultiset = (0..len)
                .map(|_| Value::new((next() % 1000) as f64 / 10.0 - 50.0))
                .collect();
            for tau in 0..3 {
                for selection in selections {
                    let f = MsrFunction::new(Reduction::trim(tau), selection);
                    let materialized = selection.apply(&Reduction::trim(tau).apply(&votes)).mean();
                    assert_eq!(
                        f.apply(&votes),
                        materialized,
                        "case {case}: tau={tau} {selection} over {votes}"
                    );
                }
            }
        }
    }
}
