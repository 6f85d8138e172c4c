//! Message accounting for the synchronous network.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Counters describing the traffic of one run's exchanges
/// ([`SharedRealization::exchange_rows`](crate::SharedRealization::exchange_rows)).
///
/// # Example
///
/// ```
/// use mbaa_net::{
///     DeliveryRows, DisconnectionPolicy, LaneSend, LinkFaultPlan, NetworkStats, Outbox,
///     SharedRealization, Topology,
/// };
/// use mbaa_types::{Round, Value};
///
/// let plan = LinkFaultPlan::new();
/// let mut net =
///     SharedRealization::build(2, &Topology::Complete, None, &plan, DisconnectionPolicy::Record, 0)?;
/// let mut lane = net.lane(0);
/// let sends = [LaneSend::Broadcast(Value::new(1.0)), LaneSend::Silent];
/// let (mut rows, mut stats) = (DeliveryRows::new(2), NetworkStats::new());
/// let no_outbox = |_: usize| -> &Outbox { unreachable!("no per-receiver sender") };
/// net.exchange_rows(&mut lane, Round::ZERO, &sends, no_outbox, &[true; 2], &mut rows, &mut stats)?;
/// assert_eq!(stats.rounds, 1);
/// assert_eq!(stats.messages_delivered, 2);
/// assert_eq!(stats.omissions, 2);
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Number of rounds exchanged.
    pub rounds: u64,
    /// Number of point-to-point messages actually delivered.
    pub messages_delivered: u64,
    /// Number of omitted (never sent) point-to-point messages between
    /// *neighbours* — detected benign faults, attributable to the sender.
    pub omissions: u64,
    /// Number of sender/receiver slots with no link between the pair —
    /// structural non-deliveries on a partial
    /// [`Topology`](crate::Topology), **not** faults. Always zero on a
    /// fully connected network.
    pub unreachable: u64,
    /// Number of messages lost to a per-link omission fault
    /// ([`LinkFaultPlan`](crate::LinkFaultPlan)) — infrastructure faults
    /// attributable to the *link*, counted separately from the
    /// sender-attributable [`omissions`](NetworkStats::omissions).
    pub link_omissions: u64,
    /// Number of delivered messages that arrived at least one round after
    /// they were sent (a delayed link's in-order buffer handed them over
    /// late). A subset of
    /// [`messages_delivered`](NetworkStats::messages_delivered).
    pub link_delayed: u64,
    /// Number of receiver slots still empty because the link's delay
    /// buffer has not delivered yet (the message — or the send-phase
    /// outcome — is in flight). Slots in flight when a run terminates are
    /// never counted anywhere else.
    pub link_pending: u64,
    /// Number of rounds whose realized communication graph was
    /// disconnected, under the
    /// [`DisconnectionPolicy::Record`](crate::DisconnectionPolicy) policy
    /// of a dynamic [`TopologySchedule`](crate::TopologySchedule).
    pub disconnected_rounds: u64,
}

impl NetworkStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of sender/receiver slots processed: delivered, omitted
    /// (by the sender or by a faulty link), structurally unreachable, or
    /// still pending in a delay buffer.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.messages_delivered
            + self.omissions
            + self.unreachable
            + self.link_omissions
            + self.link_pending
    }

    /// Average number of messages delivered per round, or `0.0` before the
    /// first round.
    #[must_use]
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages_delivered as f64 / self.rounds as f64
        }
    }

    /// Merges counters from another stats record.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.rounds += other.rounds;
        self.messages_delivered += other.messages_delivered;
        self.omissions += other.omissions;
        self.unreachable += other.unreachable;
        self.link_omissions += other.link_omissions;
        self.link_delayed += other.link_delayed;
        self.link_pending += other.link_pending;
        self.disconnected_rounds += other.disconnected_rounds;
    }

    /// Returns `true` when any counter attributable to the link-fault
    /// subsystem is non-zero.
    #[must_use]
    pub fn has_link_faults(&self) -> bool {
        self.link_omissions > 0
            || self.link_delayed > 0
            || self.link_pending > 0
            || self.disconnected_rounds > 0
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} messages delivered, {} omissions, {} unreachable",
            self.rounds, self.messages_delivered, self.omissions, self.unreachable
        )?;
        if self.has_link_faults() {
            write!(
                f,
                ", {} link-omitted, {} delayed, {} pending, {} disconnected rounds",
                self.link_omissions, self.link_delayed, self.link_pending, self.disconnected_rounds
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let s = NetworkStats::new();
        assert_eq!(s.rounds, 0);
        assert_eq!(s.total_slots(), 0);
        assert_eq!(s.messages_per_round(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = NetworkStats {
            rounds: 2,
            messages_delivered: 10,
            omissions: 1,
            unreachable: 4,
            link_omissions: 2,
            link_delayed: 1,
            link_pending: 3,
            disconnected_rounds: 1,
        };
        let b = NetworkStats {
            rounds: 3,
            messages_delivered: 5,
            omissions: 2,
            unreachable: 1,
            link_omissions: 1,
            link_delayed: 2,
            link_pending: 0,
            disconnected_rounds: 0,
        };
        a.merge(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages_delivered, 15);
        assert_eq!(a.omissions, 3);
        assert_eq!(a.unreachable, 5);
        assert_eq!(a.link_omissions, 3);
        assert_eq!(a.link_delayed, 3);
        assert_eq!(a.link_pending, 3);
        assert_eq!(a.disconnected_rounds, 1);
        assert_eq!(a.total_slots(), 29);
        assert_eq!(a.messages_per_round(), 3.0);
        assert!(a.has_link_faults());
    }

    #[test]
    fn display() {
        let s = NetworkStats {
            rounds: 1,
            messages_delivered: 4,
            omissions: 0,
            unreachable: 2,
            ..NetworkStats::default()
        };
        assert!(!s.has_link_faults());
        assert_eq!(
            s.to_string(),
            "1 rounds, 4 messages delivered, 0 omissions, 2 unreachable"
        );
        let faulted = NetworkStats {
            link_omissions: 3,
            link_delayed: 1,
            link_pending: 2,
            disconnected_rounds: 1,
            ..s
        };
        assert_eq!(
            faulted.to_string(),
            "1 rounds, 4 messages delivered, 0 omissions, 2 unreachable, \
             3 link-omitted, 1 delayed, 2 pending, 1 disconnected rounds"
        );
    }
}
