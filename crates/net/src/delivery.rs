//! The receive-phase output of a round.

use mbaa_types::{ProcessId, Value};

/// Everything every process receives during the receive phase of a round:
/// a flat, reusable `n × n` buffer holding slot `[receiver][sender]`,
/// stored receiver-major in one contiguous allocation.
///
/// `Some(v)` means "the (authenticated) sender delivered `v` to this
/// receiver this round"; `None` means the sender omitted its message —
/// which in a synchronous system is immediately detected and treated as a
/// benign fault — or that no link carried it. Filled by
/// [`SyncNetwork::exchange_into`](crate::SyncNetwork::exchange_into): a
/// run allocates one matrix and every exchange overwrites it, so
/// steady-state rounds perform no heap allocation at all.
///
/// # Example
///
/// ```
/// use mbaa_net::{DeliveryMatrix, Outbox, SyncNetwork};
/// use mbaa_types::{ProcessId, Round, Value};
///
/// let mut net = SyncNetwork::new(2);
/// let mut matrix = DeliveryMatrix::new(2);
/// let outboxes = vec![
///     Outbox::broadcast(2, ProcessId::new(0), Value::new(0.25)),
///     Outbox::silent(2, ProcessId::new(1)),
/// ];
/// net.exchange_into(Round::ZERO, &outboxes, &mut matrix)?;
/// assert_eq!(matrix.from_sender(ProcessId::new(1), ProcessId::new(0)), Some(Value::new(0.25)));
/// assert_eq!(matrix.from_sender(ProcessId::new(0), ProcessId::new(1)), None);
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryMatrix {
    n: usize,
    /// Receiver-major: the slot of sender `s` to receiver `r` is
    /// `slots[r * n + s]`. Invariant: `slots.len() == n * n`.
    slots: Vec<Option<Value>>,
}

impl DeliveryMatrix {
    /// Creates a matrix for a universe of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "delivery matrix needs at least one process");
        DeliveryMatrix {
            n,
            slots: vec![None; n * n],
        }
    }

    /// The number of processes covered.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Re-targets the matrix to a universe of `n` processes, reusing the
    /// allocation when the size is unchanged (the steady-state case).
    /// Slot contents are unspecified until the next exchange overwrites
    /// them.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.slots.clear();
            self.slots.resize(n * n, None);
        }
    }

    /// The per-sender slots of one receiver, in sender order.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    pub fn received(&self, receiver: ProcessId) -> &[Option<Value>] {
        let r = receiver.index();
        &self.slots[r * self.n..(r + 1) * self.n]
    }

    /// Mutable access to one receiver's slot row.
    pub(crate) fn row_mut(&mut self, receiver: usize) -> &mut [Option<Value>] {
        &mut self.slots[receiver * self.n..(receiver + 1) * self.n]
    }

    /// The value `receiver` got from `sender`, or `None` for an omission or
    /// structural non-delivery.
    ///
    /// # Panics
    ///
    /// Panics if either process is outside the universe.
    #[must_use]
    pub fn from_sender(&self, receiver: ProcessId, sender: ProcessId) -> Option<Value> {
        self.received(receiver)[sender.index()]
    }

    /// Iterates over the values actually delivered to `receiver` in
    /// ascending sender order — the contents of the multiset `N_i`.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    pub fn delivered_to(&self, receiver: ProcessId) -> impl Iterator<Item = Value> + '_ {
        self.received(receiver).iter().filter_map(|s| *s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::ValueMultiset;

    /// Receiver 2's row holds `[1, -, 2, 1]`; every other row is empty.
    fn delivery() -> DeliveryMatrix {
        let mut matrix = DeliveryMatrix::new(4);
        matrix.row_mut(2).copy_from_slice(&[
            Some(Value::new(1.0)),
            None,
            Some(Value::new(2.0)),
            Some(Value::new(1.0)),
        ]);
        matrix
    }

    #[test]
    fn accessors() {
        let d = delivery();
        let p = ProcessId::new;
        assert_eq!(d.universe(), 4);
        assert_eq!(d.received(p(2)).len(), 4);
        assert_eq!(d.from_sender(p(2), p(0)), Some(Value::new(1.0)));
        assert_eq!(d.from_sender(p(2), p(1)), None);
        assert_eq!(d.delivered_to(p(2)).count(), 3);
        assert_eq!(d.delivered_to(p(0)).count(), 0);
    }

    #[test]
    fn received_multiset_excludes_omissions_keeps_multiplicity() {
        let m: ValueMultiset = delivery().delivered_to(ProcessId::new(2)).collect();
        assert_eq!(m.len(), 3);
        assert_eq!(m.count(Value::new(1.0)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_slots_panic() {
        let _ = DeliveryMatrix::new(0);
    }
}
