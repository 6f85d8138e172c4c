//! Assembled voting functions: `F_MSR(N) = mean(Sel(Red(N)))`.

use std::fmt;

use serde::{Deserialize, Serialize};

use mbaa_types::{FaultCounts, Value, ValueMultiset};

use crate::{Reduction, Selection};

/// A voting function applied during the computation phase of each round.
///
/// The trait is object-safe so the protocol engine can run MSR instances and
/// non-MSR baselines (e.g. [`MedianVoting`](crate::MedianVoting))
/// interchangeably.
pub trait VotingFunction: fmt::Debug + Send + Sync {
    /// Computes the next vote from the multiset of received values, or
    /// `None` when the multiset is too small to produce a value.
    ///
    /// The result must be a pure function of the multiset: no state, no
    /// randomness, no dependence on which process or how many processes
    /// receive it. The engine calls it once per distinct delivered row and
    /// hands that vote to every receiver that heard the same values.
    fn apply(&self, received: &ValueMultiset) -> Option<Value>;

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

    /// Computes `mean(Sel(Red(N)))` directly over an **ascending** slice of
    /// values — no intermediate multisets, no heap allocation. This is the
    /// whole evaluation of [`VotingFunction::apply`], factored out so the
    /// batch engine can feed it lanes of a flat sorted buffer without
    /// materializing a [`ValueMultiset`] per lane; the two entry points are
    /// bit-identical by construction (`apply` delegates here).
    ///
    /// The caller must pass values in ascending order — a
    /// [`ValueMultiset`]'s slice qualifies, as does any `sort_unstable`d
    /// buffer of the same multiset (equal values are interchangeable in
    /// every selection).
    // mbaa: alloc-free
    #[must_use]
    pub fn apply_sorted(&self, sorted: &[Value]) -> Option<Value> {
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
                let lo = reduced[0];
                let hi = reduced[reduced.len() - 1];
                mean_of_sorted([lo, hi].into_iter(), 2)
            }
            Selection::MedianOnly => {
                let m = reduced.len();
                let median = if m % 2 == 1 {
                    reduced[m / 2]
                } else {
                    reduced[m / 2 - 1].midpoint(reduced[m / 2])
                };
                mean_of_sorted(std::iter::once(median), 1)
            }
        }
    }

    /// The k-wide form of [`MsrFunction::apply_sorted`]: folds
    /// `mean(Sel(Red(N)))` over `k = lanes.len() / lane_len` sorted lanes of
    /// one flat buffer in a single pass, writing lane `i`'s vote into
    /// `out[i]`. Lanes are stored **lane-major**: lane `i` occupies
    /// `lanes[i * lane_len .. (i + 1) * lane_len]` and must be ascending,
    /// exactly as `apply_sorted` requires. A lane too small for the
    /// reduction writes `None`, matching the scalar path.
    ///
    /// Because every lane shares one `lane_len`, the selection decomposes
    /// into one *shape* (which reduced indices are selected, what divisor
    /// the mean carries) applied to every lane: the fold runs
    /// `FOLD_LANES` (8) lanes abreast on independent accumulators, breaking
    /// the per-lane add-chain dependency the one-lane-at-a-time delegation
    /// serialized on. Each accumulator still adds its lane's terms in the
    /// exact order (and from the same `0.0` start) the scalar
    /// [`MsrFunction::apply_sorted`] mean uses, so the two entry points
    /// stay bit-identical; the method never allocates.
    ///
    /// # Panics
    ///
    /// Panics when `lane_len` does not evenly tile `lanes` into exactly
    /// `out.len()` lanes (ragged input would silently misattribute votes).
    // mbaa: alloc-free
    pub fn apply_sorted_lanes(&self, lanes: &[Value], lane_len: usize, out: &mut [Option<Value>]) {
        if lane_len == 0 {
            assert!(
                lanes.is_empty(),
                "lane_len = 0 cannot tile a non-empty buffer"
            );
            out.fill(None);
            return;
        }
        assert_eq!(
            lanes.len(),
            lane_len * out.len(),
            "flat buffer must hold exactly out.len() lanes of lane_len values"
        );
        if lane_len < self.reduction.min_input_len() {
            // Every lane is too small for the reduction — the scalar
            // path's `None`, uniformly.
            out.fill(None);
            return;
        }
        let tau = self.reduction.tau();
        let reduced_len = lane_len - 2 * tau;
        match self.selection {
            Selection::All => {
                fold_stepped(lanes, lane_len, tau, reduced_len, 1, reduced_len, out);
            }
            Selection::EveryKth { k } => {
                assert!(k >= 1, "selection step must be >= 1");
                fold_stepped(
                    lanes,
                    lane_len,
                    tau,
                    reduced_len,
                    k,
                    reduced_len.div_ceil(k),
                    out,
                );
            }
            Selection::Extremes => {
                // mean({lo, hi}) summed exactly as the scalar fold:
                // 0.0 + lo/2 + hi/2, in that order.
                for (i, slot) in out.iter_mut().enumerate() {
                    let base = i * lane_len + tau;
                    let mut acc = 0.0f64;
                    acc += lanes[base].get() / 2.0;
                    acc += lanes[base + reduced_len - 1].get() / 2.0;
                    *slot = Some(Value::new(acc));
                }
            }
            Selection::MedianOnly => {
                for (i, slot) in out.iter_mut().enumerate() {
                    let base = i * lane_len + tau;
                    let median = if reduced_len % 2 == 1 {
                        lanes[base + reduced_len / 2]
                    } else {
                        lanes[base + reduced_len / 2 - 1].midpoint(lanes[base + reduced_len / 2])
                    };
                    // The scalar path's mean of a 1-element selection:
                    // 0.0 + median/1.
                    *slot = Some(Value::new(0.0 + median.get() / 1.0));
                }
            }
        }
    }
}

/// How many lanes the vectorized MSR fold advances abreast: enough
/// independent accumulators to hide the floating-point add latency, small
/// enough that they stay in registers.
const FOLD_LANES: usize = 8;

/// The shortest reduced lane worth blocking: below this, the blocked
/// loop's strided loads cost more than the add-chain it hides, so the
/// fold stays on the sequential per-lane loop.
const FOLD_BLOCK_MIN_LEN: usize = 24;

/// The vectorized stepped-mean fold behind
/// [`MsrFunction::apply_sorted_lanes`]: for each lane, averages the
/// reduced values at indices `tau, tau + step, …` (strictly below
/// `tau + reduced_len`) over divisor `count`, running [`FOLD_LANES`] lanes
/// on independent accumulators. Per lane, terms are divided before summing
/// and added in ascending-index order from `0.0` — the exact
/// [`ValueMultiset::mean`] summation — so the result is bit-identical to
/// the scalar delegation it replaces.
// mbaa: alloc-free
#[allow(clippy::too_many_arguments)]
fn fold_stepped(
    lanes: &[Value],
    lane_len: usize,
    tau: usize,
    reduced_len: usize,
    step: usize,
    count: usize,
    out: &mut [Option<Value>],
) {
    let divisor = count as f64;
    let k = out.len();
    let mut base = 0;
    // Blocking pays for its strided access only once each lane folds
    // enough terms to hide the add latency; short lanes (small universes)
    // go straight to the sequential remainder loop below. Both layouts
    // add each lane's terms in the same order, so the choice is invisible
    // in the output.
    while reduced_len >= FOLD_BLOCK_MIN_LEN && base + FOLD_LANES <= k {
        let mut acc = [0.0f64; FOLD_LANES];
        let mut idx = 0;
        while idx < reduced_len {
            for (j, slot) in acc.iter_mut().enumerate() {
                *slot += lanes[(base + j) * lane_len + tau + idx].get() / divisor;
            }
            idx += step;
        }
        for (j, &sum) in acc.iter().enumerate() {
            out[base + j] = Some(Value::new(sum));
        }
        base += FOLD_LANES;
    }
    for (i, slot) in out.iter_mut().enumerate().skip(base) {
        let mut acc = 0.0f64;
        let mut idx = 0;
        while idx < reduced_len {
            acc += lanes[i * lane_len + tau + idx].get() / divisor;
            idx += step;
        }
        *slot = Some(Value::new(acc));
    }
}

impl VotingFunction for MsrFunction {
    /// Computes `mean(Sel(Red(N)))` directly over the sorted slice of the
    /// received multiset — no intermediate multisets, no heap allocation.
    /// Bit-identical to materializing [`Reduction::apply`] /
    /// [`Selection::apply`] and taking [`ValueMultiset::mean`]: the
    /// reduction is a sub-slice, the selection an iterator over it, and the
    /// mean divides each term before summing exactly like the multiset
    /// does. Delegates to [`MsrFunction::apply_sorted`].
    // mbaa: alloc-free
    fn apply(&self, received: &ValueMultiset) -> Option<Value> {
        self.apply_sorted(received.as_slice())
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

/// The arithmetic mean of `count` ascending values, dividing each term by
/// the count before summing — the exact summation
/// [`ValueMultiset::mean`] performs, so slice-based and materialized MSR
/// evaluation agree bit for bit.
fn mean_of_sorted<I: Iterator<Item = Value>>(values: I, count: usize) -> Option<Value> {
    if count == 0 {
        return None;
    }
    let n = count as f64;
    Some(Value::new(values.map(|v| v.get() / n).sum::<f64>()))
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

    /// The k-wide lane fold must agree bit for bit with applying the scalar
    /// path to each lane individually, for every selection.
    #[test]
    fn lane_apply_matches_scalar_per_lane() {
        let selections = [
            Selection::All,
            Selection::EveryKth { k: 2 },
            Selection::Extremes,
            Selection::MedianOnly,
        ];
        for tau in 0..3 {
            for selection in selections {
                let f = MsrFunction::new(Reduction::trim(tau), selection);
                for lane_len in 1..8 {
                    let k = 5;
                    let mut flat = Vec::new();
                    for lane in 0..k {
                        let mut values: Vec<Value> = (0..lane_len)
                            .map(|i| Value::new(((lane * 7 + i * 3) % 11) as f64 - 5.0))
                            .collect();
                        values.sort_unstable();
                        flat.extend(values);
                    }
                    let mut out = vec![None; k];
                    f.apply_sorted_lanes(&flat, lane_len, &mut out);
                    for (lane, got) in out.iter().enumerate() {
                        let expected =
                            f.apply_sorted(&flat[lane * lane_len..(lane + 1) * lane_len]);
                        assert_eq!(*got, expected, "tau={tau} {selection} lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_apply_handles_empty_lanes() {
        let f = MsrFunction::dolev_mean(0);
        let mut out = vec![Some(Value::new(1.0)); 3];
        f.apply_sorted_lanes(&[], 0, &mut out);
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    #[should_panic(expected = "exactly out.len() lanes")]
    fn lane_apply_rejects_ragged_buffers() {
        let f = MsrFunction::dolev_mean(0);
        let mut out = vec![None; 2];
        f.apply_sorted_lanes(&[Value::new(1.0); 5], 2, &mut out);
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
