//! Observation traces: what every receiver saw from every sender.
//!
//! Traces exist for two reasons. First, they are the raw material of the
//! **Table 1 reproduction**: by looking at what one sender delivered to the
//! different receivers in one round, we can classify its *observed*
//! behaviour as benign (omitted everywhere), symmetric (same value
//! everywhere) or asymmetric (different values to different receivers).
//! Second, they feed the network statistics used by the benchmarks.

use std::fmt;

use serde::{Deserialize, Serialize};

use mbaa_types::{ProcessId, Round, Value};

/// The behaviour of a sender in one round, as perceived by the receivers.
///
/// This is the *observable* counterpart of
/// [`MixedFaultClass`](mbaa_types::MixedFaultClass): a correct broadcast is
/// indistinguishable from a symmetric fault by looking at one round alone, so
/// the classification carries a separate `CorrectBroadcast` variant for
/// senders whose uniform value matches their expected correct vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObservedBehavior {
    /// The sender omitted its message to every receiver (self-incriminating,
    /// i.e. benign).
    Benign,
    /// The sender delivered the same value to every receiver, and it equals
    /// the vote a correct process would have sent.
    CorrectBroadcast,
    /// The sender delivered the same (unexpected) value to every receiver.
    Symmetric,
    /// The sender delivered different values (or a mix of values and
    /// omissions) to different receivers.
    Asymmetric,
}

impl fmt::Display for ObservedBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ObservedBehavior::Benign => "benign",
            ObservedBehavior::CorrectBroadcast => "correct",
            ObservedBehavior::Symmetric => "symmetric",
            ObservedBehavior::Asymmetric => "asymmetric",
        };
        f.write_str(name)
    }
}

/// What one sender delivered to each receiver in one round, together with
/// which receivers the sender could structurally reach at all.
///
/// On a partial [`Topology`](crate::Topology) a non-neighbour's slot is
/// always empty — that is a property of the graph, not of the sender's
/// behaviour, so [`classify`](SenderObservation::classify) only looks at
/// the reachable slots and unreachable receivers are flagged separately
/// (see [`reaches`](SenderObservation::reaches)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SenderObservation {
    sender: ProcessId,
    delivered: Vec<Option<Value>>,
    /// `reachable[r]` is `false` when the sender shares no link with `r`
    /// (all `true` on a fully connected network).
    reachable: Vec<bool>,
    /// `link_faulted[r]` is `true` when the slot to `r` was governed by a
    /// per-link fault this round (the link omitted the message, or a delay
    /// buffer shifted it to a later round) — a property of the *link*, not
    /// of the sender, so classification skips these slots. All `false` on a
    /// fault-free network.
    link_faulted: Vec<bool>,
}

impl SenderObservation {
    /// The observed sender.
    #[must_use]
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// What the given receiver got from this sender (`None` for both
    /// omissions and structurally unreachable receivers; disambiguate with
    /// [`reaches`](SenderObservation::reaches)).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    pub fn delivered_to(&self, receiver: ProcessId) -> Option<Value> {
        self.delivered[receiver.index()]
    }

    /// Returns `true` when the sender shares a link with `receiver` (always
    /// `true` on a fully connected network).
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    pub fn reaches(&self, receiver: ProcessId) -> bool {
        self.reachable[receiver.index()]
    }

    /// Returns `true` when the slot to `receiver` was governed by a
    /// per-link fault this round (omitted by the link or shifted by a delay
    /// buffer) — always `false` on a fault-free network. A link with a
    /// fixed delay is flagged in *every* round, not just during warm-up:
    /// its slot always carries another round's value, so classification
    /// abstains on it for the run's duration rather than judging a sender
    /// across rounds.
    ///
    /// # Panics
    ///
    /// Panics if `receiver` is outside the universe.
    #[must_use]
    pub fn link_faulted(&self, receiver: ProcessId) -> bool {
        self.link_faulted[receiver.index()]
    }

    /// The receivers the sender shares no link with, in ascending order
    /// (empty on a fully connected network).
    #[must_use]
    pub fn unreachable_receivers(&self) -> Vec<ProcessId> {
        self.reachable
            .iter()
            .enumerate()
            .filter_map(|(i, &linked)| (!linked).then_some(ProcessId::new(i)))
            .collect()
    }

    /// Classifies the sender's behaviour this round, considering only the
    /// receivers it can structurally reach over link-fault-free slots: a
    /// message the *link* dropped or delayed says nothing about the sender,
    /// so those slots are skipped exactly like unreachable ones.
    ///
    /// `expected` is the vote a correct process in the sender's position
    /// would have broadcast (when known); it separates
    /// [`ObservedBehavior::CorrectBroadcast`] from
    /// [`ObservedBehavior::Symmetric`]. Pass `None` when no expectation is
    /// available, in which case any uniform broadcast is reported as
    /// `CorrectBroadcast`.
    #[must_use]
    pub fn classify(&self, expected: Option<Value>) -> ObservedBehavior {
        let mut slots = self
            .delivered
            .iter()
            .zip(self.reachable.iter().zip(&self.link_faulted))
            .filter_map(|(slot, (&linked, &faulted))| (linked && !faulted).then_some(*slot));
        let Some(first) = slots.next() else {
            // No reachable receiver at all (an isolated sender): nothing
            // observable beyond silence.
            return ObservedBehavior::Benign;
        };
        if !slots.all(|d| d == first) {
            return ObservedBehavior::Asymmetric;
        }
        // Uniform: either omitted everywhere it reaches (benign) or the
        // same value everywhere it reaches.
        let Some(value) = first else {
            return ObservedBehavior::Benign;
        };
        match expected {
            Some(e) if e != value => ObservedBehavior::Symmetric,
            _ => ObservedBehavior::CorrectBroadcast,
        }
    }
}

/// All sender observations of a single round.
///
/// Internally the round is four flat, sender-major slot arrays (`senders`,
/// plus `n × n` `delivered` / `reachable` / `link_faulted` grids) rather
/// than one heap object per sender: recording a round costs a **fixed
/// number** of buffer allocations no matter how large the universe is,
/// which keeps `Observe::Full` runs allocation-flat. The per-sender
/// [`SenderObservation`] view is assembled on demand by
/// [`observation`](RoundTrace::observation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    round: Round,
    universe: usize,
    senders: Vec<ProcessId>,
    /// `delivered[s * n + r]` is what receiver `r` got from sender `s`.
    delivered: Vec<Option<Value>>,
    /// `reachable[s * n + r]` is `false` when `s` shares no link with `r`.
    reachable: Vec<bool>,
    /// `link_faulted[s * n + r]` flags slots governed by a per-link fault.
    link_faulted: Vec<bool>,
}

/// One slot of a [`RoundTrace`]: what a sender put on its link to one
/// receiver, and the state of that link in the round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSlot {
    /// What the sender's send phase put on the link (`None` for an
    /// omission).
    pub sent: Option<Value>,
    /// Whether the pair shared a link in the round's graph.
    pub reachable: bool,
    /// Whether a per-link fault governed the slot (the link omitted the
    /// message, or a delay buffer shifted it to another round).
    pub link_faulted: bool,
}

impl RoundTrace {
    /// Records a round of `n` senders from `slot(sender, receiver)`. A slot
    /// is delivered only when it is reachable and not link-faulted; the
    /// flat grids are the only allocations, whatever `n` is.
    #[must_use]
    pub fn from_slots(
        round: Round,
        n: usize,
        mut slot: impl FnMut(usize, usize) -> TraceSlot,
    ) -> Self {
        let mut trace = RoundTrace {
            round,
            universe: n,
            senders: (0..n).map(ProcessId::new).collect(),
            delivered: vec![None; n * n],
            reachable: vec![true; n * n],
            link_faulted: vec![false; n * n],
        };
        // mbaa: alloc-free
        for s in 0..n {
            for r in 0..n {
                let TraceSlot {
                    sent,
                    reachable,
                    link_faulted,
                } = slot(s, r);
                let i = s * n + r;
                trace.reachable[i] = reachable;
                trace.link_faulted[i] = link_faulted;
                trace.delivered[i] = if reachable && !link_faulted {
                    sent
                } else {
                    None
                };
            }
        }
        trace
    }

    /// The round this trace describes.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The observation of the given sender, assembled from the flat slot
    /// grids. This is the inspection API — it allocates the per-sender
    /// view, so classification loops should hoist it out of per-receiver
    /// code; the recording side never builds these.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the universe.
    #[must_use]
    pub fn observation(&self, sender: ProcessId) -> SenderObservation {
        let n = self.universe;
        let s = sender.index();
        SenderObservation {
            sender: self.senders[s],
            delivered: self.delivered[s * n..(s + 1) * n].to_vec(),
            reachable: self.reachable[s * n..(s + 1) * n].to_vec(),
            link_faulted: self.link_faulted[s * n..(s + 1) * n].to_vec(),
        }
    }

    /// Iterates over all sender observations (assembled per sender, see
    /// [`observation`](RoundTrace::observation)).
    pub fn iter(&self) -> impl Iterator<Item = SenderObservation> + '_ {
        (0..self.universe).map(|s| self.observation(ProcessId::new(s)))
    }

    /// Number of senders covered.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }
}

/// The accumulated traces of a whole execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkTrace {
    rounds: Vec<RoundTrace>,
}

impl NetworkTrace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the trace of one round.
    pub fn push(&mut self, round_trace: RoundTrace) {
        self.rounds.push(round_trace);
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` when no round has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The trace of the given recorded round (by position, not round index).
    #[must_use]
    pub fn get(&self, position: usize) -> Option<&RoundTrace> {
        self.rounds.get(position)
    }

    /// Iterates over all recorded rounds.
    pub fn iter(&self) -> impl Iterator<Item = &RoundTrace> {
        self.rounds.iter()
    }

    /// The most recent round trace, if any.
    #[must_use]
    pub fn last(&self) -> Option<&RoundTrace> {
        self.rounds.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adjacency, Outbox};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The observation of `outbox`'s sender in a round where its slot to
    /// `r` crosses a link when `linked(r)` and is link-faulted when
    /// `faulted(r)`.
    fn observe(
        outbox: &Outbox,
        linked: impl Fn(usize) -> bool,
        faulted: impl Fn(usize) -> bool,
    ) -> SenderObservation {
        let sender = outbox.sender();
        let ours = |s: usize| s == sender.index();
        RoundTrace::from_slots(Round::ZERO, outbox.universe(), |s, r| TraceSlot {
            sent: if ours(s) { outbox.get(pid(r)) } else { None },
            reachable: !ours(s) || linked(r),
            link_faulted: ours(s) && faulted(r),
        })
        .observation(sender)
    }

    /// The observation of `outbox` on a fault-free complete network.
    fn plain(outbox: &Outbox) -> SenderObservation {
        observe(outbox, |_| true, |_| false)
    }

    /// The observation of `outbox` whose slot to `r` crosses a link only
    /// when `linked(r)`.
    fn masked(outbox: &Outbox, linked: impl Fn(usize) -> bool) -> SenderObservation {
        observe(outbox, linked, |_| false)
    }

    /// The fault-free round trace of `outboxes`, masked by `linked(s, r)`.
    fn trace_of(
        round: Round,
        outboxes: &[Outbox],
        linked: impl Fn(usize, usize) -> bool,
    ) -> RoundTrace {
        RoundTrace::from_slots(round, outboxes.len(), |s, r| TraceSlot {
            sent: outboxes[s].get(pid(r)),
            reachable: linked(s, r),
            link_faulted: false,
        })
    }

    #[test]
    fn benign_classification_for_silence() {
        let outbox = Outbox::silent(3, pid(0));
        let obs = plain(&outbox);
        assert_eq!(
            obs.classify(Some(Value::new(1.0))),
            ObservedBehavior::Benign
        );
        assert_eq!(obs.classify(None), ObservedBehavior::Benign);
    }

    #[test]
    fn correct_broadcast_matches_expectation() {
        let outbox = Outbox::broadcast(3, pid(1), Value::new(2.0));
        let obs = plain(&outbox);
        assert_eq!(
            obs.classify(Some(Value::new(2.0))),
            ObservedBehavior::CorrectBroadcast
        );
        assert_eq!(obs.classify(None), ObservedBehavior::CorrectBroadcast);
    }

    #[test]
    fn symmetric_when_uniform_but_wrong() {
        let outbox = Outbox::broadcast(3, pid(1), Value::new(42.0));
        let obs = plain(&outbox);
        assert_eq!(
            obs.classify(Some(Value::new(2.0))),
            ObservedBehavior::Symmetric
        );
    }

    #[test]
    fn asymmetric_when_values_differ() {
        let outbox = Outbox::per_receiver(
            pid(0),
            vec![
                Some(Value::new(0.0)),
                Some(Value::new(1.0)),
                Some(Value::new(0.0)),
            ],
        );
        let obs = plain(&outbox);
        assert_eq!(obs.classify(None), ObservedBehavior::Asymmetric);
    }

    #[test]
    fn partial_omission_is_asymmetric() {
        let outbox = Outbox::per_receiver(pid(0), vec![Some(Value::new(0.0)), None]);
        let obs = plain(&outbox);
        assert_eq!(obs.classify(None), ObservedBehavior::Asymmetric);
    }

    #[test]
    fn observation_delivered_to() {
        let outbox = Outbox::per_receiver(pid(1), vec![Some(Value::new(5.0)), None]);
        let obs = plain(&outbox);
        assert_eq!(obs.sender(), pid(1));
        assert_eq!(obs.delivered_to(pid(0)), Some(Value::new(5.0)));
        assert_eq!(obs.delivered_to(pid(1)), None);
    }

    #[test]
    fn round_trace_collects_all_senders() {
        let outboxes = vec![
            Outbox::broadcast(2, pid(0), Value::new(1.0)),
            Outbox::silent(2, pid(1)),
        ];
        let trace = trace_of(Round::new(7), &outboxes, |_, _| true);
        assert_eq!(trace.round(), Round::new(7));
        assert_eq!(trace.universe(), 2);
        assert_eq!(
            trace.observation(pid(1)).classify(None),
            ObservedBehavior::Benign
        );
        assert_eq!(trace.iter().count(), 2);
    }

    #[test]
    fn network_trace_accumulates_rounds() {
        let mut trace = NetworkTrace::new();
        assert!(trace.is_empty());
        let outboxes = vec![Outbox::broadcast(1, pid(0), Value::new(0.0))];
        trace.push(trace_of(Round::ZERO, &outboxes, |_, _| true));
        trace.push(trace_of(Round::new(1), &outboxes, |_, _| true));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.get(0).unwrap().round(), Round::ZERO);
        assert_eq!(trace.last().unwrap().round(), Round::new(1));
        assert_eq!(trace.iter().count(), 2);
    }

    #[test]
    fn masked_observation_ignores_unreachable_slots() {
        // 0 — 1 linked, 2 unreachable from 0.
        let adjacency = Adjacency::from_edges(3, [(0, 1)]).unwrap();
        let outbox = Outbox::broadcast(3, pid(0), Value::new(1.0));
        let obs = masked(&outbox, |r| adjacency.connected(pid(0), pid(r)));
        // The masked slot reads as None but is flagged structural…
        assert_eq!(obs.delivered_to(pid(2)), None);
        assert!(!obs.reaches(pid(2)));
        assert!(obs.reaches(pid(1)));
        assert_eq!(obs.unreachable_receivers(), vec![pid(2)]);
        // …and the classification only judges the reachable audience: a
        // uniform broadcast stays a broadcast, not an asymmetric fault.
        assert_eq!(
            obs.classify(Some(Value::new(1.0))),
            ObservedBehavior::CorrectBroadcast
        );
        assert_eq!(
            obs.classify(Some(Value::new(2.0))),
            ObservedBehavior::Symmetric
        );
    }

    #[test]
    fn masked_silence_is_benign_and_masked_mixture_is_asymmetric() {
        let adjacency = Adjacency::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let linked = |r| adjacency.connected(pid(0), pid(r));
        let silent = masked(&Outbox::silent(3, pid(0)), linked);
        assert_eq!(silent.classify(None), ObservedBehavior::Benign);

        let mixed = masked(
            &Outbox::per_receiver(
                pid(0),
                vec![Some(Value::new(0.0)), Some(Value::new(1.0)), None],
            ),
            linked,
        );
        assert_eq!(mixed.classify(None), ObservedBehavior::Asymmetric);
    }

    #[test]
    fn fully_connected_observation_reaches_everyone() {
        let outbox = Outbox::broadcast(2, pid(0), Value::new(1.0));
        let obs = plain(&outbox);
        assert!(obs.reaches(pid(0)) && obs.reaches(pid(1)));
        assert!(obs.unreachable_receivers().is_empty());
    }

    #[test]
    fn masked_round_trace_carries_reachability() {
        let adjacency = Adjacency::from_edges(2, []).unwrap();
        let outboxes = vec![
            Outbox::broadcast(2, pid(0), Value::new(1.0)),
            Outbox::broadcast(2, pid(1), Value::new(2.0)),
        ];
        let trace = trace_of(Round::ZERO, &outboxes, |s, r| {
            adjacency.connected(pid(s), pid(r))
        });
        assert!(!trace.observation(pid(0)).reaches(pid(1)));
        assert!(trace.observation(pid(0)).reaches(pid(0)));
    }

    #[test]
    fn from_slots_delivers_only_reachable_fault_free_slots() {
        let sent = Some(Value::new(4.0));
        let trace = RoundTrace::from_slots(Round::new(2), 2, |s, r| TraceSlot {
            sent,
            reachable: s == r || s == 0,
            link_faulted: s == 0 && r == 1,
        });
        assert_eq!(trace.round(), Round::new(2));
        let p0 = trace.observation(pid(0));
        assert_eq!(p0.sender(), pid(0));
        assert_eq!(p0.delivered_to(pid(0)), sent);
        // Reachable but link-faulted: not delivered, flagged as the link's.
        assert_eq!(p0.delivered_to(pid(1)), None);
        assert!(p0.reaches(pid(1)) && p0.link_faulted(pid(1)));
        // Unreachable: not delivered, flagged as structure.
        let p1 = trace.observation(pid(1));
        assert_eq!(p1.delivered_to(pid(0)), None);
        assert!(!p1.reaches(pid(0)) && !p1.link_faulted(pid(0)));
        assert_eq!(p1.delivered_to(pid(1)), sent);
    }

    #[test]
    fn link_faulted_slots_are_excluded_from_classification() {
        // A correct broadcast whose slot to p2 was eaten by the link: still
        // a correct broadcast, not an asymmetric fault.
        let outbox = Outbox::broadcast(3, pid(0), Value::new(1.0));
        let obs = observe(&outbox, |_| true, |r| r == 2);
        assert!(obs.link_faulted(pid(2)));
        assert!(!obs.link_faulted(pid(1)));
        assert!(obs.reaches(pid(2)));
        assert_eq!(obs.delivered_to(pid(2)), None);
        assert_eq!(
            obs.classify(Some(Value::new(1.0))),
            ObservedBehavior::CorrectBroadcast
        );
        // Every judgeable slot gone: nothing observable beyond silence.
        let dark = observe(&outbox, |_| true, |_| true);
        assert_eq!(dark.classify(None), ObservedBehavior::Benign);
    }

    #[test]
    fn directed_observation_uses_out_reachability() {
        // The one-way link 0 -> 1: p0 reaches p1 and itself, p1 only itself.
        let outbox = Outbox::broadcast(3, pid(0), Value::new(2.0));
        let obs = masked(&outbox, |r| r <= 1);
        assert!(obs.reaches(pid(1)));
        assert!(!obs.reaches(pid(2)));
        assert_eq!(obs.classify(None), ObservedBehavior::CorrectBroadcast);
        // p1 cannot reach anyone but itself.
        let back = masked(&Outbox::broadcast(3, pid(1), Value::new(3.0)), |r| r == 1);
        assert!(!back.reaches(pid(0)));
        assert_eq!(back.unreachable_receivers(), vec![pid(0), pid(2)]);
    }

    #[test]
    fn observed_behavior_display() {
        assert_eq!(ObservedBehavior::Benign.to_string(), "benign");
        assert_eq!(ObservedBehavior::CorrectBroadcast.to_string(), "correct");
        assert_eq!(ObservedBehavior::Symmetric.to_string(), "symmetric");
        assert_eq!(ObservedBehavior::Asymmetric.to_string(), "asymmetric");
    }
}
