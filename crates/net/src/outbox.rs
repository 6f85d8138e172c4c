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
///   ([`Outbox::per_receiver`] or the slot mutators).
///
/// # Example
///
/// ```
/// use mbaa_net::Outbox;
/// use mbaa_types::{ProcessId, Value};
///
/// let sender = ProcessId::new(1);
/// let mut outbox = Outbox::broadcast(4, sender, Value::new(0.5));
/// outbox.set(ProcessId::new(3), Some(Value::new(99.0)));
/// assert!(!outbox.is_uniform());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outbox {
    sender: ProcessId,
    slots: Vec<Option<Value>>,
}

impl Outbox {
    /// Creates an outbox that sends `value` to all `n` processes
    /// (including the sender itself, as in the paper's all-to-all exchange).
    #[must_use]
    pub fn broadcast(n: usize, sender: ProcessId, value: Value) -> Self {
        Outbox {
            sender,
            slots: vec![Some(value); n],
        }
    }

    /// Creates an outbox that sends nothing to anyone (Garay-style cured
    /// silence, or a crashed process).
    #[must_use]
    pub fn silent(n: usize, sender: ProcessId) -> Self {
        Outbox {
            sender,
            slots: vec![None; n],
        }
    }

    /// Creates an outbox with an explicit per-receiver slot vector.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    #[must_use]
    pub fn per_receiver(sender: ProcessId, slots: Vec<Option<Value>>) -> Self {
        assert!(!slots.is_empty(), "outbox must cover at least one receiver");
        Outbox { sender, slots }
    }

    /// The sending process.
    #[must_use]
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The number of destination slots (the system size `n`).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.slots.len()
    }

    /// The value destined to `receiver`, or `None` for an omission.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    pub fn get(&self, receiver: ProcessId) -> Option<Value> {
        self.slots[receiver.index()]
    }

    /// Overwrites the slot destined to `receiver`.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    pub fn set(&mut self, receiver: ProcessId, value: Option<Value>) {
        self.slots[receiver.index()] = value;
    }

    /// Rewrites this outbox in place into the broadcast of `value` — the
    /// zero-allocation counterpart of [`Outbox::broadcast`] for a reused
    /// send buffer. The universe is unchanged.
    pub fn fill_broadcast(&mut self, value: Value) {
        self.slots.fill(Some(value));
    }

    /// Rewrites this outbox in place into silence — the zero-allocation
    /// counterpart of [`Outbox::silent`]. The universe is unchanged.
    pub fn fill_silent(&mut self) {
        self.slots.fill(None);
    }

    /// Overwrites the slots destined to the `receivers` range with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches outside the universe.
    pub fn fill_range(&mut self, receivers: Range<usize>, value: Option<Value>) {
        self.slots[receivers].fill(value);
    }

    /// Reassigns the sender of this (reused) outbox.
    pub fn set_sender(&mut self, sender: ProcessId) {
        self.sender = sender;
    }

    /// Every slot, indexed by receiver.
    #[must_use]
    pub fn slots(&self) -> &[Option<Value>] {
        &self.slots
    }

    /// Iterates over `(receiver, slot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Option<Value>)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, v)| (ProcessId::new(i), *v))
    }

    /// Returns `true` when every slot is an omission.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Returns `true` when every slot carries the *same* value (no
    /// omissions, no disagreement) — the signature of correct or symmetric
    /// behaviour.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        match self.slots.first().copied().flatten() {
            None => false,
            Some(first) => self.slots.iter().all(|s| *s == Some(first)),
        }
    }

    /// The set of distinct values present in the slots (omissions excluded).
    #[must_use]
    pub fn distinct_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self.slots.iter().filter_map(|s| *s).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

impl fmt::Display for Outbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> [", self.sender)?;
        for (i, slot) in self.slots.iter().enumerate() {
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
        assert!(o.distinct_values().is_empty());
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
        assert_eq!(o.distinct_values(), vec![Value::new(0.0), Value::new(1.0)]);

        o.set(ProcessId::new(1), Some(Value::new(0.0)));
        o.set(ProcessId::new(2), Some(Value::new(0.0)));
        assert!(o.is_uniform());

        o.fill_range(1..3, None);
        assert_eq!(o.slots(), &[Some(Value::new(0.0)), None, None]);
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
}
