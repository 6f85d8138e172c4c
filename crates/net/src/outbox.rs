//! The send-phase output of a single process.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use mbaa_types::{ProcessId, Value};

/// What one process hands to the network during the send phase of a round.
///
/// There is one slot per destination process. `Some(v)` means "send `v` to
/// that destination"; `None` means "send nothing" (an omission, which in a
/// synchronous system every receiver detects).
///
/// * A **correct** process fills every slot with the same value
///   ([`Outbox::broadcast`]).
/// * A cured process in Garay's model stays **silent**
///   ([`Outbox::silent`]).
/// * A **Byzantine** process may fill the slots arbitrarily
///   ([`Outbox::per_receiver`], or in place with [`Outbox::fill_runs`] and
///   [`Outbox::fill_with`]).
///
/// The slots are stored as *runs*: ranges of receivers in ascending order
/// that get the same slot, where neighbouring runs differ bit for bit
/// (`None` from `Some`, −0.0 from 0.0). A broadcast or a silent outbox is
/// one run and the split attack two, so writing and reading them costs
/// O(runs), not O(n); an outbox that gives every receiver its own value is
/// `n` runs. [`Outbox::fill_runs`] writes them in order and
/// [`Outbox::runs`] walks them; [`Outbox::get`] reads a receiver's slot
/// directly from one, two or `n` runs and by binary search otherwise.
/// Capacity for `n` runs is reserved when an outbox is made, so rewriting
/// a reused outbox never allocates.
/// Equality compares slot by slot, so −0.0 equals 0.0 as it does for
/// [`Value`].
///
/// # Example
///
/// ```
/// use mbaa_net::Outbox;
/// use mbaa_types::{ProcessId, Value};
///
/// let sender = ProcessId::new(1);
/// let mut outbox = Outbox::broadcast(4, sender, Value::new(0.5));
/// // Receivers 0..3 keep 0.5, receiver 3 gets 99.
/// outbox.fill_runs([(3, Some(Value::new(0.5))), (4, Some(Value::new(99.0)))]);
/// assert!(!outbox.is_uniform());
/// assert_eq!(outbox.runs().count(), 2);
/// assert_eq!(outbox.get(ProcessId::new(3)), Some(Value::new(99.0)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outbox {
    sender: ProcessId,
    runs: Vec<Run>,
}

/// One run of an [`Outbox`]: the receivers from the previous run's `end`
/// (0 for the first run) up to `end`, all sent `value`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct Run {
    pub(crate) end: usize,
    pub(crate) value: Option<Value>,
}

/// Whether two slots are the same bit for bit: `None` differs from every
/// `Some`, and −0.0 from 0.0.
#[inline]
fn same_bits(a: Option<Value>, b: Option<Value>) -> bool {
    a.map(|v| v.get().to_bits()) == b.map(|v| v.get().to_bits())
}

impl Outbox {
    /// An outbox over `n` receivers that sends `value` to every one of
    /// them, with room for `n` runs.
    fn uniform(n: usize, sender: ProcessId, value: Option<Value>) -> Self {
        let mut runs = Vec::with_capacity(n);
        if n > 0 {
            runs.push(Run { end: n, value });
        }
        Outbox { sender, runs }
    }

    /// Creates an outbox that sends `value` to all `n` processes
    /// (including the sender itself, as in the paper's all-to-all exchange).
    #[must_use]
    pub fn broadcast(n: usize, sender: ProcessId, value: Value) -> Self {
        Outbox::uniform(n, sender, Some(value))
    }

    /// Creates an outbox that sends nothing to anyone (Garay-style cured
    /// silence, or a crashed process).
    #[must_use]
    pub fn silent(n: usize, sender: ProcessId) -> Self {
        Outbox::uniform(n, sender, None)
    }

    /// Creates an outbox with an explicit per-receiver slot vector, stored
    /// as its runs.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    #[must_use]
    pub fn per_receiver(sender: ProcessId, slots: Vec<Option<Value>>) -> Self {
        assert!(!slots.is_empty(), "outbox must cover at least one receiver");
        let mut outbox = Outbox::silent(slots.len(), sender);
        outbox.fill_with(|receiver| slots[receiver]);
        outbox
    }

    /// The sending process.
    #[must_use]
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The number of destination slots (the system size `n`).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.runs.last().map_or(0, |run| run.end)
    }

    /// The value destined to `receiver`, or `None` for an omission.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    #[inline]
    pub fn get(&self, receiver: ProcessId) -> Option<Value> {
        let r = receiver.index();
        let runs = &self.runs[..];
        let i = match runs.len() {
            // A broadcast, silence or the split attack.
            1 | 2 => usize::from(r >= runs[0].end),
            // `n` runs over `n` receivers are one run per receiver.
            len if len == self.universe() => r,
            _ => runs.partition_point(|run| run.end <= r),
        };
        let run = runs[i];
        assert!(r < run.end, "receiver {r} outside the universe");
        run.value
    }

    /// Rewrites this outbox in place into the broadcast of `value` — the
    /// zero-allocation counterpart of [`Outbox::broadcast`] for a reused
    /// send buffer. The universe is unchanged.
    pub fn fill_broadcast(&mut self, value: Value) {
        self.fill_runs([(self.universe(), Some(value))]);
    }

    /// Rewrites this outbox in place into silence — the zero-allocation
    /// counterpart of [`Outbox::silent`]. The universe is unchanged.
    pub fn fill_silent(&mut self) {
        self.fill_runs([(self.universe(), None)]);
    }

    /// Rewrites every slot in place from `(end, slot)` pairs in ascending
    /// order: each sends `slot` to the receivers from the previous pair's
    /// `end` (0 for the first) up to its own. Empty ranges are skipped and
    /// equal neighbours merged, so any cover of the universe is accepted;
    /// this never allocates.
    ///
    /// # Panics
    ///
    /// Panics if the ends decrease or do not finish at the universe.
    // mbaa: alloc-free
    pub fn fill_runs(&mut self, runs: impl IntoIterator<Item = (usize, Option<Value>)>) {
        let n = self.universe();
        self.runs.clear();
        let mut start = 0;
        for (end, value) in runs {
            assert!(start <= end, "run ends must ascend: {end} after {start}");
            if start == end {
                continue;
            }
            match self.runs.last_mut() {
                Some(run) if same_bits(run.value, value) => run.end = end,
                // mbaa: allow(hot-path/vec-growth, at most n runs, within the n reserved at construction)
                _ => self.runs.push(Run { end, value }),
            }
            start = end;
        }
        assert_eq!(start, n, "runs must cover the universe of {n} receivers");
    }

    /// Rewrites every slot in place, receiver by receiver in ascending
    /// order, with `slot(receiver)`: a strategy drawing a value per
    /// receiver draws in receiver order. Never allocates.
    pub fn fill_with(&mut self, mut slot: impl FnMut(usize) -> Option<Value>) {
        let n = self.universe();
        self.fill_runs((0..n).map(|receiver| (receiver + 1, slot(receiver))));
    }

    /// Reassigns the sender of this (reused) outbox.
    pub fn set_sender(&mut self, sender: ProcessId) {
        self.sender = sender;
    }

    /// The runs in receiver order: each range of receivers with the slot
    /// all of them get. Neighbouring runs differ bit for bit.
    pub fn runs(&self) -> impl Iterator<Item = (Range<usize>, Option<Value>)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |run| {
            let receivers = start..run.end;
            start = run.end;
            (receivers, run.value)
        })
    }

    /// The runs as stored, for the exchange's walks.
    pub(crate) fn run_slice(&self) -> &[Run] {
        &self.runs
    }

    /// Iterates over `(receiver, slot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Option<Value>)> + '_ {
        self.runs().flat_map(|(receivers, value)| {
            receivers.map(move |receiver| (ProcessId::new(receiver), value))
        })
    }

    /// Returns `true` when every slot is an omission.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.runs.iter().all(|run| run.value.is_none())
    }

    /// Returns `true` when every slot carries the *same* value (no
    /// omissions, no disagreement) — the signature of correct or symmetric
    /// behaviour.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        match self.runs.first().and_then(|run| run.value) {
            None => false,
            Some(first) => self.runs.iter().all(|run| run.value == Some(first)),
        }
    }
}

impl PartialEq for Outbox {
    fn eq(&self, other: &Self) -> bool {
        self.sender == other.sender
            && self.universe() == other.universe()
            && self.iter().zip(other.iter()).all(|(a, b)| a.1 == b.1)
    }
}

impl fmt::Display for Outbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> [", self.sender)?;
        for (i, (_, slot)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match slot {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "-")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

    #[test]
    fn broadcast_fills_every_slot() {
        let o = Outbox::broadcast(3, ProcessId::new(0), Value::new(1.5));
        assert_eq!(o.universe(), 3);
        assert!(o.is_uniform());
        assert!(!o.is_silent());
        for i in 0..3 {
            assert_eq!(o.get(ProcessId::new(i)), Some(Value::new(1.5)));
        }
    }

    #[test]
    fn silent_outbox() {
        let o = Outbox::silent(4, ProcessId::new(2));
        assert!(o.is_silent());
        assert!(!o.is_uniform());
    }

    #[test]
    fn per_receiver_slots_and_mutation() {
        let mut o = Outbox::per_receiver(
            ProcessId::new(1),
            vec![Some(Value::new(0.0)), None, Some(Value::new(1.0))],
        );
        assert_eq!(o.sender(), ProcessId::new(1));
        assert_eq!(o.get(ProcessId::new(1)), None);
        assert!(!o.is_uniform());

        o.fill_with(|_| Some(Value::new(0.0)));
        assert!(o.is_uniform());
        assert_eq!(o.runs().count(), 1);

        o.fill_runs([(1, Some(Value::new(0.0))), (2, None), (3, None)]);
        let runs: Vec<_> = o.runs().collect();
        assert_eq!(runs, vec![(0..1, Some(Value::new(0.0))), (1..3, None)]);
    }

    #[test]
    #[should_panic(expected = "at least one receiver")]
    fn empty_slots_panic() {
        let _ = Outbox::per_receiver(ProcessId::new(0), vec![]);
    }

    #[test]
    fn uniform_requires_no_omissions() {
        let o = Outbox::per_receiver(
            ProcessId::new(0),
            vec![Some(Value::new(1.0)), None, Some(Value::new(1.0))],
        );
        assert!(!o.is_uniform());
    }

    #[test]
    fn iteration_and_display() {
        let o = Outbox::per_receiver(ProcessId::new(0), vec![Some(Value::new(2.0)), None]);
        let pairs: Vec<_> = o.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (ProcessId::new(0), Some(Value::new(2.0))));
        assert_eq!(pairs[1], (ProcessId::new(1), None));
        assert_eq!(o.to_string(), "p0 -> [2, -]");
    }

    #[test]
    #[should_panic(expected = "cover the universe")]
    fn fill_runs_past_the_universe_panics() {
        Outbox::silent(3, ProcessId::new(0)).fill_runs([(2, None), (4, None)]);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn get_past_the_universe_panics() {
        let split = Outbox::per_receiver(ProcessId::new(0), vec![None, Some(Value::ONE)]);
        let _ = split.get(ProcessId::new(2));
    }

    #[test]
    #[should_panic(expected = "cover the universe")]
    fn fill_runs_short_of_the_universe_panics() {
        Outbox::silent(3, ProcessId::new(0)).fill_runs([(2, None)]);
    }

    /// The slot palette of the property battery: zeros of both signs next
    /// to each other, `None` next to `Some`, and two other values.
    const PALETTE: [Option<f64>; 5] = [Some(-0.0), Some(0.0), None, Some(1.0), Some(-2.5)];

    fn draw_slot(rng: &mut StdRng) -> Option<Value> {
        PALETTE[rng.random_range(0..PALETTE.len())].map(Value::new)
    }

    fn bits(slot: Option<Value>) -> Option<u64> {
        slot.map(|v| v.get().to_bits())
    }

    /// One random mutation, applied to the outbox and its dense reference.
    fn mutate(rng: &mut StdRng, outbox: &mut Outbox, dense: &mut [Option<Value>]) {
        let n = dense.len();
        match rng.random_range(0..4usize) {
            0 => {
                let value = Value::new(PALETTE[rng.random_range(0..2usize)].unwrap());
                outbox.fill_broadcast(value);
                dense.fill(Some(value));
            }
            1 => {
                outbox.fill_silent();
                dense.fill(None);
            }
            2 => {
                // Ascending ends, some repeated (empty runs), the last at n.
                let mut ends: Vec<usize> = (0..rng.random_range(0..4usize))
                    .map(|_| rng.random_range(0..=n))
                    .collect();
                ends.sort_unstable();
                ends.push(n);
                let runs: Vec<(usize, Option<Value>)> =
                    ends.iter().map(|&end| (end, draw_slot(rng))).collect();
                outbox.fill_runs(runs.iter().copied());
                let mut start = 0;
                for (end, slot) in runs {
                    dense[start..end].fill(slot);
                    start = end;
                }
            }
            _ => {
                let drawn: Vec<Option<Value>> = (0..n).map(|_| draw_slot(rng)).collect();
                let mut seen = 0;
                outbox.fill_with(|r| {
                    assert_eq!(r, seen, "fill_with visits receivers in order");
                    seen += 1;
                    drawn[r]
                });
                dense.copy_from_slice(&drawn);
            }
        }
    }

    /// Every accessor of `outbox` agrees with the dense slot vector the
    /// same steps produced, as the dense representation computed it.
    fn assert_agrees(outbox: &Outbox, dense: &[Option<Value>]) {
        let n = dense.len();
        assert_eq!(outbox.universe(), n);
        for (r, &slot) in dense.iter().enumerate() {
            assert_eq!(bits(outbox.get(ProcessId::new(r))), bits(slot), "get({r})");
        }
        let iterated: Vec<Option<u64>> = outbox.iter().map(|(_, slot)| bits(slot)).collect();
        assert_eq!(iterated, dense.iter().map(|&s| bits(s)).collect::<Vec<_>>());
        // The runs tile 0..n, and a boundary falls exactly where two
        // neighbouring slots differ in bits.
        let mut next = 0;
        for (receivers, slot) in outbox.runs() {
            assert_eq!(receivers.start, next, "runs are contiguous");
            assert!(receivers.end > receivers.start, "runs are never empty");
            for r in receivers.clone() {
                assert_eq!(bits(dense[r]), bits(slot), "slot {r} of its run");
            }
            next = receivers.end;
        }
        assert_eq!(next, n);
        let boundaries = dense
            .windows(2)
            .filter(|pair| bits(pair[0]) != bits(pair[1]))
            .count();
        assert_eq!(outbox.runs().count(), boundaries + 1);
        assert_eq!(outbox.is_silent(), dense.iter().all(Option::is_none));
        let uniform = match dense[0] {
            None => false,
            Some(first) => dense.iter().all(|s| *s == Some(first)),
        };
        assert_eq!(outbox.is_uniform(), uniform);
        let shown: Vec<String> = dense
            .iter()
            .map(|slot| slot.map_or_else(|| "-".to_string(), |v| v.to_string()))
            .collect();
        assert_eq!(
            outbox.to_string(),
            format!("{} -> [{}]", outbox.sender(), shown.join(", "))
        );
        assert_eq!(
            *outbox,
            Outbox::per_receiver(outbox.sender(), dense.to_vec()),
            "compression keeps every slot"
        );
    }

    #[test]
    fn runs_agree_with_a_dense_slot_vector() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in 1..=12 {
            for _ in 0..40 {
                let sender = ProcessId::new(0);
                let (mut a, mut b) = (Outbox::silent(n, sender), Outbox::silent(n, sender));
                let (mut dense_a, mut dense_b) = (vec![None; n], vec![None; n]);
                for _ in 0..30 {
                    mutate(&mut rng, &mut a, &mut dense_a);
                    assert_agrees(&a, &dense_a);
                    // A second outbox steps less often, so the two are
                    // sometimes equal and sometimes not.
                    if rng.random_range(0..3usize) == 0 {
                        mutate(&mut rng, &mut b, &mut dense_b);
                        assert_agrees(&b, &dense_b);
                    }
                    assert_eq!(a == b, dense_a == dense_b);
                    // Equality compares values, so −0.0 equals 0.0.
                    let flipped: Vec<Option<Value>> = dense_a
                        .iter()
                        .map(|slot| {
                            slot.map(|v| {
                                Value::new(if v.get() == 0.0 { -v.get() } else { v.get() })
                            })
                        })
                        .collect();
                    assert_eq!(a, Outbox::per_receiver(sender, flipped));
                    // The runs never outgrow the reserved capacity.
                    assert!(a.runs.capacity() <= n);
                }
            }
        }
    }
}
