//! The synchronous exchange engine.

use std::collections::VecDeque;

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::omission_lost;
use crate::{
    Adjacency, CompiledLinkFaults, DeliveryMatrix, DirectedAdjacency, DisconnectionPolicy,
    LinkFaultPlan, NetworkStats, NetworkTrace, Outbox, RealizedSchedule, RoundTrace,
};

/// An authenticated, reliable synchronous network of `n` processes — fully
/// connected by default, or mediated by a partial [`Adjacency`] when built
/// [`with_topology`](SyncNetwork::with_topology).
///
/// One call to [`SyncNetwork::exchange_into`] performs the send and
/// receive phases of a round: it takes one [`Outbox`] per process and
/// fills one [`DeliveryMatrix`] row per receiving process, guaranteeing
/// that
///
/// * every non-omitted slot between neighbours is delivered exactly once
///   (*reliability*),
/// * a delivered value is attributed to its true sender (*authentication*),
/// * no value is delivered that was not sent (*no creation*),
/// * nothing crosses a missing link: non-neighbour slots are *structural*
///   `None`s, counted in [`NetworkStats::unreachable`] (never as omission
///   faults) and flagged per receiver in the trace.
///
/// The engine also keeps a [`NetworkTrace`] of everything that was delivered
/// (used by the Table 1 behaviour classification) and running
/// [`NetworkStats`].
///
/// # Example
///
/// ```
/// use mbaa_net::{DeliveryMatrix, Outbox, SyncNetwork};
/// use mbaa_types::{ProcessId, Round, Value};
///
/// let mut net = SyncNetwork::new(2);
/// let mut deliveries = DeliveryMatrix::new(2);
/// let outboxes = vec![
///     Outbox::broadcast(2, ProcessId::new(0), Value::new(0.25)),
///     Outbox::broadcast(2, ProcessId::new(1), Value::new(0.75)),
/// ];
/// net.exchange_into(Round::ZERO, &outboxes, &mut deliveries)?;
/// assert_eq!(
///     deliveries.from_sender(ProcessId::new(1), ProcessId::new(0)),
///     Some(Value::new(0.25))
/// );
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SyncNetwork {
    n: usize,
    /// `None` means fully connected (the legacy fast path, bit-identical to
    /// the pre-topology engine); `Some` masks delivery by adjacency.
    topology: Option<Adjacency>,
    /// `Some` masks delivery by a *directed* graph — one-way links deliver
    /// one way only. Mutually exclusive with `topology` and `dynamics`.
    directed: Option<DirectedAdjacency>,
    /// `Some` routes every exchange through the dynamic path: per-round
    /// realized graphs and per-link omission/delay faults. A static
    /// schedule with a clean fault plan lowers onto the legacy fields
    /// instead, so this is only populated when genuinely needed.
    dynamics: Option<Dynamics>,
    stats: NetworkStats,
    trace: NetworkTrace,
    record_trace: bool,
}

/// The machinery of a dynamic, link-faulted exchange.
#[derive(Debug, Clone)]
struct Dynamics {
    schedule: RealizedSchedule,
    faults: CompiledLinkFaults,
    policy: DisconnectionPolicy,
    /// Seed of every omission draw (decorrelated from the schedule's own
    /// stream inside the draw functions).
    seed: u64,
    /// One in-order delivery buffer per directed link, indexed
    /// `from * n + to`; only links with a positive delay ever hold
    /// entries. A message pushed in round `r` on a `delay = d` link is
    /// popped in round `r + d`, behind every earlier message on that link.
    pipes: Vec<VecDeque<SendOutcome>>,
    /// The round the next exchange must carry. The pipes advance once per
    /// exchange while draws and realized graphs key on the caller's round
    /// index, so the dynamic path only stays coherent when rounds arrive
    /// in order from zero — enforced, not assumed.
    next_round: u64,
    /// Reused per-round scratch: `link_flags[s * n + r]` marks the slot of
    /// sender `s` to receiver `r` as governed by a link fault this round,
    /// `reach_flags` records the round's structural mask. Kept here so the
    /// dynamic path, like the static ones, allocates nothing per round.
    link_flags: Vec<bool>,
    /// See [`Dynamics::link_flags`].
    reach_flags: Vec<bool>,
}

/// What the send phase put on one directed link in one round — classified
/// at send time, accounted at delivery time. Crate-visible so the shared
/// batch realization's delay pipes buffer the identical classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SendOutcome {
    /// A value was sent and survived the link.
    Value(Value),
    /// The sender omitted (an adversary/benign fault, attributable to the
    /// sender).
    SenderOmitted,
    /// The pair shared no link in the send round (structural).
    Unreachable,
    /// The link's omission draw lost the message (a link fault).
    LinkOmitted,
}

impl SyncNetwork {
    /// Creates a fully connected network of `n` processes, with tracing
    /// enabled.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a network needs at least one process");
        SyncNetwork {
            n,
            topology: None,
            directed: None,
            dynamics: None,
            stats: NetworkStats::new(),
            trace: NetworkTrace::new(),
            record_trace: true,
        }
    }

    /// Creates a network that does not record per-round traces (cheaper for
    /// long benchmark runs).
    #[must_use]
    pub fn without_trace(n: usize) -> Self {
        Self::new(n).with_trace_recording(false)
    }

    /// Enables or disables per-round trace recording on any network form —
    /// the knob the engine's `Observe` level lowers onto. With recording
    /// off, [`trace`](SyncNetwork::trace) stays empty and exchanges never
    /// allocate observation records; delivery and statistics are
    /// unaffected.
    #[must_use]
    pub fn with_trace_recording(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Creates a network whose delivery is masked by the given adjacency:
    /// slots between non-neighbours are structurally undeliverable. A
    /// complete adjacency is recognized and lowered to the unmasked fast
    /// path, so `with_topology(Adjacency::complete(n))` behaves
    /// bit-identically to [`SyncNetwork::new`].
    #[must_use]
    pub fn with_topology(adjacency: Adjacency) -> Self {
        let mut net = Self::new(adjacency.n());
        if !adjacency.is_complete() {
            net.topology = Some(adjacency);
        }
        net
    }

    /// Creates a network whose delivery is masked by a **directed** graph:
    /// a message crosses `a -> b` only when the arc exists, so one-way
    /// links deliver one way only. A symmetric directed graph is lowered
    /// to the equivalent [`with_topology`](SyncNetwork::with_topology)
    /// mask (and a complete one all the way to the unmasked fast path), so
    /// `with_directed_topology(DirectedAdjacency::from_symmetric(&a))`
    /// behaves bit-identically to `with_topology(a)`.
    #[must_use]
    pub fn with_directed_topology(directed: DirectedAdjacency) -> Self {
        if let Ok(symmetric) = directed.to_symmetric() {
            return Self::with_topology(symmetric);
        }
        let mut net = Self::new(directed.n());
        net.directed = Some(directed);
        net
    }

    /// Creates a network with a per-round topology schedule and a per-link
    /// fault plan — the fully dynamic form. A schedule whose per-round
    /// graphs cannot differ (static, frozen churn, constant periodic —
    /// [`RealizedSchedule::is_dynamic`] is `false`) with a clean plan
    /// lowers onto the corresponding static path ([`SyncNetwork::new`] for
    /// the complete graph, [`with_topology`](SyncNetwork::with_topology)
    /// otherwise), staying bit-identical to it; anything else routes every
    /// exchange through the dynamic path: the round's realized graph masks
    /// delivery, link omission draws (deterministic in
    /// `(seed, round, link)`) lose messages, and delayed links buffer them
    /// in order. The dynamic path requires rounds to be exchanged in
    /// order, starting at [`Round::ZERO`] — the delay buffers advance once
    /// per round.
    ///
    /// Disconnected *per-round* graphs are handled per `policy`; a static
    /// disconnected graph is the configuration layer's concern, exactly as
    /// with [`with_topology`](SyncNetwork::with_topology).
    ///
    /// # Errors
    ///
    /// Propagates [`LinkFaultPlan::compile`] validation errors.
    pub fn with_dynamics(
        schedule: RealizedSchedule,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        seed: u64,
    ) -> Result<Self> {
        let n = schedule.n();
        let faults = link_faults.compile(n)?;
        if faults.is_clean() && !schedule.is_dynamic() {
            // Every round realizes the same graph: round 0 describes the
            // whole run, and the static machinery is both cheaper and
            // proven bit-identical.
            return Ok(Self::with_topology(
                schedule.adjacency_at(Round::ZERO).into_owned(),
            ));
        }
        let mut net = Self::new(n);
        net.dynamics = Some(Dynamics {
            schedule,
            faults,
            policy,
            seed,
            pipes: vec![VecDeque::new(); n * n],
            next_round: 0,
            link_flags: vec![false; n * n],
            reach_flags: vec![false; n * n],
        });
        Ok(net)
    }

    /// The number of connected processes.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The symmetric adjacency masking delivery, or `None` for a fully
    /// connected network, a directed mask, or a dynamic schedule.
    #[must_use]
    pub fn topology(&self) -> Option<&Adjacency> {
        self.topology.as_ref()
    }

    /// The directed graph masking delivery, or `None` when the mask is
    /// symmetric (or absent, or dynamic).
    #[must_use]
    pub fn directed_topology(&self) -> Option<&DirectedAdjacency> {
        self.directed.as_ref()
    }

    /// Returns `true` when exchanges run through the dynamic path
    /// (a genuinely dynamic schedule or a non-clean link-fault plan).
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        self.dynamics.is_some()
    }

    /// The accumulated traffic statistics.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// The recorded trace (empty when tracing is disabled).
    #[must_use]
    pub fn trace(&self) -> &NetworkTrace {
        &self.trace
    }

    /// Consumes the network, returning the recorded trace and the final
    /// statistics **by move**. This is how a finished run hands its trace
    /// to the outcome without cloning the n²-per-round observation records.
    #[must_use]
    pub fn into_parts(self) -> (NetworkTrace, NetworkStats) {
        (self.trace, self.stats)
    }

    /// Performs the send + receive phases of `round`, writing every
    /// `[receiver][sender]` slot into `out`. On the static paths (complete,
    /// masked, or directed graph) a steady-state exchange performs **no
    /// heap allocation**: the caller reuses one [`DeliveryMatrix`] across
    /// rounds and trace recording, if enabled, is the only remaining
    /// per-round allocation.
    ///
    /// `outboxes` must contain exactly one outbox per process, ordered by
    /// process index, each covering the full universe.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when the number of outboxes is not
    /// `n`, [`Error::InvalidParameter`] when an outbox is mis-ordered
    /// (authentication would be violated), covers the wrong universe, or a
    /// dynamic network's rounds arrive out of order (the delay buffers
    /// advance once per round, so a dynamic exchange must run `r0, r1, …`
    /// sequentially), and [`Error::DisconnectedRound`] when a dynamic
    /// schedule realizes a disconnected graph under the
    /// [`DisconnectionPolicy::Reject`] policy.
    // mbaa: alloc-free
    pub fn exchange_into(
        &mut self,
        round: Round,
        outboxes: &[Outbox],
        out: &mut DeliveryMatrix,
    ) -> Result<()> {
        if outboxes.len() != self.n {
            return Err(Error::WrongInputCount {
                provided: outboxes.len(),
                expected: self.n,
            });
        }
        for (i, outbox) in outboxes.iter().enumerate() {
            if outbox.sender() != ProcessId::new(i) {
                // mbaa: allow(hot-path/allocation, cold validation error path)
                return Err(Error::InvalidParameter(format!(
                    "outbox at position {i} claims sender {} (authentication violation)",
                    outbox.sender()
                )));
            }
            if outbox.universe() != self.n {
                // mbaa: allow(hot-path/allocation, cold validation error path)
                return Err(Error::InvalidParameter(format!(
                    "outbox of {} covers {} receivers, expected {}",
                    outbox.sender(),
                    outbox.universe(),
                    self.n
                )));
            }
        }
        out.reset(self.n);
        if self.dynamics.is_some() {
            return self.exchange_dynamic(round, outboxes, out);
        }
        if self.directed.is_some() {
            return self.exchange_directed(round, outboxes, out);
        }

        // Receive phase: transpose the outbox matrix. Slot [receiver][sender]
        // of the delivery matrix is slot [sender][receiver] of the outboxes,
        // masked to a structural None when the pair shares no link.
        // Bookkeeping rides along: undeliverable slots are structural, not
        // faults — they go to `unreachable`, never to `omissions`.
        self.stats.rounds += 1;
        for r in 0..self.n {
            let receiver = ProcessId::new(r);
            let row = out.row_mut(r);
            let mut delivered = 0u64;
            match &self.topology {
                None => {
                    for (slot, outbox) in row.iter_mut().zip(outboxes) {
                        *slot = outbox.get(receiver);
                        delivered += u64::from(slot.is_some());
                    }
                }
                Some(adjacency) => {
                    for (slot, outbox) in row.iter_mut().zip(outboxes) {
                        *slot = adjacency
                            .connected(outbox.sender(), receiver)
                            .then(|| outbox.get(receiver))
                            .flatten();
                        delivered += u64::from(slot.is_some());
                    }
                }
            }
            let reachable = match &self.topology {
                None => self.n as u64,
                // The closed neighbourhood: the receiver always hears itself.
                Some(adjacency) => adjacency.degree(receiver) as u64 + 1,
            };
            self.stats.messages_delivered += delivered;
            self.stats.omissions += reachable - delivered;
            self.stats.unreachable += self.n as u64 - reachable;
        }
        if self.record_trace {
            let round_trace = match &self.topology {
                None => RoundTrace::from_outboxes(round, outboxes),
                Some(adjacency) => RoundTrace::from_outboxes_masked(round, outboxes, adjacency),
            };
            // mbaa: allow(hot-path/vec-growth, trace recording is opt-in observability off the Summary hot path)
            self.trace.push(round_trace);
        }

        Ok(())
    }

    /// The receive phase of a directed-topology exchange: a slot delivers
    /// only when the sender's arc to the receiver exists. Structural
    /// non-deliveries count as `unreachable`, exactly like the symmetric
    /// mask.
    fn exchange_directed(
        &mut self,
        round: Round,
        outboxes: &[Outbox],
        out: &mut DeliveryMatrix,
    ) -> Result<()> {
        let directed = self.directed.as_ref().expect("directed mask present");
        self.stats.rounds += 1;
        for r in 0..self.n {
            let receiver = ProcessId::new(r);
            let row = out.row_mut(r);
            let mut delivered = 0u64;
            for (slot, outbox) in row.iter_mut().zip(outboxes) {
                *slot = directed
                    .delivers(outbox.sender(), receiver)
                    .then(|| outbox.get(receiver))
                    .flatten();
                delivered += u64::from(slot.is_some());
            }
            // The closed in-neighbourhood: the receiver always hears itself.
            let reachable = directed.in_degree(receiver) as u64 + 1;
            self.stats.messages_delivered += delivered;
            self.stats.omissions += reachable - delivered;
            self.stats.unreachable += self.n as u64 - reachable;
        }
        if self.record_trace {
            self.trace.push(RoundTrace::from_outboxes_directed(
                round, outboxes, directed,
            ));
        }
        Ok(())
    }

    /// The receive phase of a dynamic, link-faulted exchange: the round's
    /// realized graph masks delivery, omission draws lose messages, and
    /// delayed links serve their in-order buffers. Each slot's outcome is
    /// classified at *send* time and accounted at *delivery* time, so a
    /// sender omission travelling a delayed link is still charged to the
    /// sender in the round it surfaces, never to the link.
    fn exchange_dynamic(
        &mut self,
        round: Round,
        outboxes: &[Outbox],
        out: &mut DeliveryMatrix,
    ) -> Result<()> {
        let n = self.n;
        let Dynamics {
            schedule,
            faults,
            policy,
            seed,
            pipes,
            next_round,
            link_flags,
            reach_flags,
        } = self.dynamics.as_mut().expect("dynamics present");
        if round.index() != *next_round {
            return Err(Error::InvalidParameter(format!(
                "a dynamic network exchanges rounds in order: expected r{}, got {round} \
                 (delay buffers advance once per round)",
                *next_round
            )));
        }
        *next_round += 1;
        let seed = *seed;
        let adjacency = schedule.adjacency_at(round);

        if !adjacency.is_connected() {
            match policy {
                DisconnectionPolicy::Reject => {
                    return Err(Error::DisconnectedRound {
                        round,
                        components: adjacency.component_count(),
                    });
                }
                DisconnectionPolicy::Record => self.stats.disconnected_rounds += 1,
            }
        }

        // The flag scratch is filled during the delivery loop so the trace
        // below never re-scans the adjacency: every `reach_flags` slot is
        // overwritten, `link_flags` only gets set on fault paths and must
        // start clean.
        link_flags.fill(false);
        for r in 0..n {
            let receiver = ProcessId::new(r);
            let row = out.row_mut(r);
            for (s, outbox) in outboxes.iter().enumerate() {
                let sender = ProcessId::new(s);
                let delay = faults.delay_at(s, r);
                let probability = faults.omit_at(s, r);
                let reachable = adjacency.connected(sender, receiver);
                reach_flags[s * n + r] = reachable;
                let sent = if !reachable {
                    SendOutcome::Unreachable
                } else {
                    match outbox.get(receiver) {
                        None => SendOutcome::SenderOmitted,
                        Some(value) => {
                            if omission_lost(seed, round.index(), s, r, probability) {
                                link_flags[s * n + r] = true;
                                SendOutcome::LinkOmitted
                            } else {
                                SendOutcome::Value(value)
                            }
                        }
                    }
                };
                let arrived = if delay == 0 {
                    Some(sent)
                } else {
                    link_flags[s * n + r] = true;
                    let pipe = &mut pipes[s * n + r];
                    pipe.push_back(sent);
                    if pipe.len() > delay {
                        Some(pipe.pop_front().expect("pipe holds > delay entries"))
                    } else {
                        None
                    }
                };
                row[s] = match arrived {
                    Some(SendOutcome::Value(value)) => {
                        self.stats.messages_delivered += 1;
                        if delay > 0 {
                            self.stats.link_delayed += 1;
                        }
                        Some(value)
                    }
                    Some(SendOutcome::SenderOmitted) => {
                        self.stats.omissions += 1;
                        None
                    }
                    Some(SendOutcome::Unreachable) => {
                        self.stats.unreachable += 1;
                        None
                    }
                    Some(SendOutcome::LinkOmitted) => {
                        self.stats.link_omissions += 1;
                        None
                    }
                    None => {
                        self.stats.link_pending += 1;
                        None
                    }
                };
            }
        }
        self.stats.rounds += 1;

        if self.record_trace {
            // The flag scratch is handed to the trace wholesale: the round
            // record copies the flat n × n grids directly, so recording
            // performs a fixed number of allocations regardless of n.
            self.trace.push(RoundTrace::from_outboxes_with_flags(
                round,
                outboxes,
                reach_flags,
                link_flags,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::Value;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// One exchange into a fresh delivery matrix.
    fn exchange(
        net: &mut SyncNetwork,
        round: Round,
        outboxes: &[Outbox],
    ) -> Result<DeliveryMatrix> {
        let mut deliveries = DeliveryMatrix::new(net.universe());
        net.exchange_into(round, outboxes, &mut deliveries)?;
        Ok(deliveries)
    }

    #[test]
    fn exchange_transposes_outboxes() {
        let mut net = SyncNetwork::new(3);
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::per_receiver(
                pid(1),
                vec![
                    Some(Value::new(10.0)),
                    Some(Value::new(11.0)),
                    Some(Value::new(12.0)),
                ],
            ),
            Outbox::silent(3, pid(2)),
        ];
        let deliveries = exchange(&mut net, Round::ZERO, &outboxes).unwrap();
        assert_eq!(deliveries.universe(), 3);

        // Receiver 0: hears 0.0 from p0, 10.0 from p1, nothing from p2.
        assert_eq!(
            deliveries.from_sender(pid(0), pid(0)),
            Some(Value::new(0.0))
        );
        assert_eq!(
            deliveries.from_sender(pid(0), pid(1)),
            Some(Value::new(10.0))
        );
        assert_eq!(deliveries.from_sender(pid(0), pid(2)), None);

        // Receiver 2 hears the asymmetric sender's third slot.
        assert_eq!(
            deliveries.from_sender(pid(2), pid(1)),
            Some(Value::new(12.0))
        );
    }

    #[test]
    fn exchange_rejects_wrong_count() {
        let mut net = SyncNetwork::new(3);
        let outboxes = vec![Outbox::broadcast(3, pid(0), Value::new(0.0))];
        let err = exchange(&mut net, Round::ZERO, &outboxes).unwrap_err();
        assert!(matches!(
            err,
            Error::WrongInputCount {
                provided: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn exchange_rejects_forged_sender() {
        let mut net = SyncNetwork::new(2);
        // Position 0 claims to be p1: identity forging is impossible in the
        // authenticated model, so the engine rejects it.
        let outboxes = vec![
            Outbox::broadcast(2, pid(1), Value::new(0.0)),
            Outbox::broadcast(2, pid(1), Value::new(0.0)),
        ];
        let err = exchange(&mut net, Round::ZERO, &outboxes).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn exchange_rejects_wrong_universe() {
        let mut net = SyncNetwork::new(2);
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(2, pid(1), Value::new(0.0)),
        ];
        let err = exchange(&mut net, Round::ZERO, &outboxes).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn stats_accumulate() {
        let mut net = SyncNetwork::new(2);
        let round_outboxes = || {
            vec![
                Outbox::broadcast(2, pid(0), Value::new(1.0)),
                Outbox::silent(2, pid(1)),
            ]
        };
        exchange(&mut net, Round::ZERO, &round_outboxes()).unwrap();
        exchange(&mut net, Round::new(1), &round_outboxes()).unwrap();
        let stats = net.stats();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.messages_delivered, 4);
        assert_eq!(stats.omissions, 4);
        assert_eq!(stats.messages_per_round(), 2.0);
    }

    #[test]
    fn trace_records_rounds_unless_disabled() {
        let outboxes = || vec![Outbox::broadcast(1, pid(0), Value::new(1.0))];

        let mut traced = SyncNetwork::new(1);
        exchange(&mut traced, Round::ZERO, &outboxes()).unwrap();
        assert_eq!(traced.trace().len(), 1);

        let mut untraced = SyncNetwork::without_trace(1);
        exchange(&mut untraced, Round::ZERO, &outboxes()).unwrap();
        assert!(untraced.trace().is_empty());
        assert_eq!(untraced.stats().rounds, 1);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_network_panics() {
        let _ = SyncNetwork::new(0);
    }

    #[test]
    fn partial_topology_masks_non_neighbour_slots() {
        // A path 0 — 1 — 2: the ends share no link.
        let path = crate::Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut net = SyncNetwork::with_topology(path);
        assert!(net.topology().is_some());
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            Outbox::broadcast(3, pid(2), Value::new(2.0)),
        ];
        let deliveries = exchange(&mut net, Round::ZERO, &outboxes).unwrap();
        // The middle hears everyone; the ends hear themselves, the middle,
        // and a structural None from each other.
        assert_eq!(deliveries.delivered_to(pid(1)).count(), 3);
        assert_eq!(deliveries.from_sender(pid(0), pid(2)), None);
        assert_eq!(deliveries.from_sender(pid(2), pid(0)), None);
        assert_eq!(
            deliveries.from_sender(pid(0), pid(0)),
            Some(Value::new(0.0))
        );
        assert_eq!(
            deliveries.from_sender(pid(0), pid(1)),
            Some(Value::new(1.0))
        );
    }

    #[test]
    fn structural_non_delivery_is_not_an_omission() {
        let path = crate::Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut net = SyncNetwork::with_topology(path);
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            // A genuine omission fault, distinct from the missing 0—2 link.
            Outbox::silent(3, pid(2)),
        ];
        exchange(&mut net, Round::ZERO, &outboxes).unwrap();
        let stats = net.stats();
        // Reachable slots: 2 + 3 + 2 = 7. p2's silence omits to its
        // reachable audience (itself and p1); the 0—2 slots are structural.
        assert_eq!(stats.unreachable, 2);
        assert_eq!(stats.omissions, 2);
        assert_eq!(stats.messages_delivered, 5);
        assert_eq!(stats.total_slots(), 9);
    }

    #[test]
    fn complete_topology_lowers_to_the_unmasked_fast_path() {
        let mut masked = SyncNetwork::with_topology(crate::Adjacency::complete(3));
        assert!(masked.topology().is_none());
        let mut plain = SyncNetwork::new(3);
        let outboxes = || {
            vec![
                Outbox::broadcast(3, pid(0), Value::new(0.5)),
                Outbox::silent(3, pid(1)),
                Outbox::broadcast(3, pid(2), Value::new(1.5)),
            ]
        };
        let a = exchange(&mut masked, Round::ZERO, &outboxes()).unwrap();
        let b = exchange(&mut plain, Round::ZERO, &outboxes()).unwrap();
        assert_eq!(a, b);
        assert_eq!(masked.stats(), plain.stats());
        assert_eq!(masked.trace(), plain.trace());
        assert_eq!(masked.stats().unreachable, 0);
    }

    #[test]
    fn directed_topology_delivers_one_way() {
        // p0 -> p1 exists, p1 -> p0 does not; p2 is symmetric with both.
        let directed =
            crate::DirectedAdjacency::from_arcs(3, [(0, 1), (0, 2), (2, 0), (1, 2), (2, 1)])
                .unwrap();
        let mut net = SyncNetwork::with_directed_topology(directed);
        assert!(net.directed_topology().is_some());
        assert!(net.topology().is_none());
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            Outbox::broadcast(3, pid(2), Value::new(2.0)),
        ];
        let deliveries = exchange(&mut net, Round::ZERO, &outboxes).unwrap();
        // p1 hears p0; p0 does not hear p1.
        assert_eq!(
            deliveries.from_sender(pid(1), pid(0)),
            Some(Value::new(0.0))
        );
        assert_eq!(deliveries.from_sender(pid(0), pid(1)), None);
        // The one-way gap is structural, not an omission.
        let stats = net.stats();
        assert_eq!(stats.unreachable, 1);
        assert_eq!(stats.omissions, 0);
        assert_eq!(stats.messages_delivered, 8);
        // The trace knows p1 cannot reach p0.
        let obs = net.trace().get(0).unwrap().observation(pid(1));
        assert!(!obs.reaches(pid(0)));
        assert_eq!(
            obs.classify(Some(Value::new(1.0))),
            crate::ObservedBehavior::CorrectBroadcast
        );
    }

    #[test]
    fn symmetric_directed_topology_lowers_to_the_symmetric_mask() {
        let path = crate::Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let via_directed =
            SyncNetwork::with_directed_topology(crate::DirectedAdjacency::from_symmetric(&path));
        assert!(via_directed.directed_topology().is_none());
        assert_eq!(via_directed.topology(), Some(&path));
        // And a complete directed graph all the way to the fast path.
        let complete = SyncNetwork::with_directed_topology(crate::DirectedAdjacency::complete(3));
        assert!(complete.topology().is_none() && complete.directed_topology().is_none());
    }

    #[test]
    fn masked_trace_flags_unreachable_receivers() {
        let path = crate::Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut net = SyncNetwork::with_topology(path);
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            Outbox::broadcast(3, pid(2), Value::new(2.0)),
        ];
        exchange(&mut net, Round::ZERO, &outboxes).unwrap();
        let trace = net.trace();
        let obs = trace.get(0).unwrap().observation(pid(0));
        assert!(obs.reaches(pid(1)));
        assert!(!obs.reaches(pid(2)));
        // A masked uniform broadcast still classifies as a broadcast, not
        // as an asymmetric fault.
        assert_eq!(
            obs.classify(Some(Value::new(0.0))),
            crate::ObservedBehavior::CorrectBroadcast
        );
    }

    fn dynamic_net(plan: &LinkFaultPlan, seed: u64) -> SyncNetwork {
        let schedule = crate::TopologySchedule::Static(crate::Topology::Complete)
            .realize(3, seed)
            .unwrap();
        SyncNetwork::with_dynamics(schedule, plan, DisconnectionPolicy::Record, seed).unwrap()
    }

    fn broadcasts() -> Vec<Outbox> {
        (0..3)
            .map(|i| Outbox::broadcast(3, pid(i), Value::new(i as f64)))
            .collect()
    }

    #[test]
    fn clean_static_dynamics_lower_to_the_static_paths() {
        let net = dynamic_net(&LinkFaultPlan::new(), 0);
        assert!(!net.is_dynamic());
        assert!(net.topology().is_none());
        let ringed = SyncNetwork::with_dynamics(
            crate::TopologySchedule::Static(crate::Topology::Ring { k: 1 })
                .realize(5, 0)
                .unwrap(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            0,
        )
        .unwrap();
        assert!(!ringed.is_dynamic());
        assert!(ringed.topology().is_some());
    }

    #[test]
    fn deterministic_link_cut_is_a_link_omission_not_an_adversary_omission() {
        let plan = LinkFaultPlan::new().cut(0, 1);
        let mut net = dynamic_net(&plan, 9);
        assert!(net.is_dynamic());
        let deliveries = exchange(&mut net, Round::ZERO, &broadcasts()).unwrap();
        assert_eq!(deliveries.from_sender(pid(1), pid(0)), None);
        assert_eq!(
            deliveries.from_sender(pid(1), pid(2)),
            Some(Value::new(2.0))
        );
        let stats = net.stats();
        assert_eq!(stats.link_omissions, 1);
        assert_eq!(stats.omissions, 0);
        assert_eq!(stats.unreachable, 0);
        assert_eq!(stats.messages_delivered, 8);
        assert_eq!(stats.total_slots(), 9);
        // The trace blames the link, so the broadcast stays correct.
        let obs = net.trace().get(0).unwrap().observation(pid(0));
        assert!(obs.link_faulted(pid(1)));
        assert_eq!(
            obs.classify(Some(Value::new(0.0))),
            crate::ObservedBehavior::CorrectBroadcast
        );
    }

    #[test]
    fn delayed_link_buffers_in_order_and_accounts_separately() {
        let plan = LinkFaultPlan::new().delay(0, 1, 2);
        let mut net = dynamic_net(&plan, 4);
        let send = |value: f64| {
            vec![
                Outbox::broadcast(3, pid(0), Value::new(value)),
                Outbox::broadcast(3, pid(1), Value::new(10.0)),
                Outbox::broadcast(3, pid(2), Value::new(20.0)),
            ]
        };
        // Rounds 0 and 1: the 0 -> 1 slot is still in the pipe.
        let d0 = exchange(&mut net, Round::ZERO, &send(0.5)).unwrap();
        assert_eq!(d0.from_sender(pid(1), pid(0)), None);
        let d1 = exchange(&mut net, Round::new(1), &send(1.5)).unwrap();
        assert_eq!(d1.from_sender(pid(1), pid(0)), None);
        assert_eq!(net.stats().link_pending, 2);
        // Round 2 delivers round 0's value; round 3 delivers round 1's —
        // in order, two rounds late.
        let d2 = exchange(&mut net, Round::new(2), &send(2.5)).unwrap();
        assert_eq!(d2.from_sender(pid(1), pid(0)), Some(Value::new(0.5)));
        let d3 = exchange(&mut net, Round::new(3), &send(3.5)).unwrap();
        assert_eq!(d3.from_sender(pid(1), pid(0)), Some(Value::new(1.5)));
        let stats = net.stats();
        assert_eq!(stats.link_delayed, 2);
        assert_eq!(stats.link_pending, 2);
        assert_eq!(stats.omissions, 0);
        // Every other slot was unaffected.
        assert_eq!(d3.from_sender(pid(2), pid(0)), Some(Value::new(3.5)));
    }

    #[test]
    fn sender_omission_on_a_delayed_link_is_still_charged_to_the_sender() {
        let plan = LinkFaultPlan::new().delay(0, 1, 1);
        let mut net = dynamic_net(&plan, 4);
        let silent_then_loud = vec![
            Outbox::silent(3, pid(0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            Outbox::broadcast(3, pid(2), Value::new(2.0)),
        ];
        exchange(&mut net, Round::ZERO, &silent_then_loud).unwrap();
        // Round 1 surfaces round 0's omission on the delayed link.
        exchange(&mut net, Round::new(1), &broadcasts()).unwrap();
        let stats = net.stats();
        // p0 omitted to itself and p2 directly in round 0 (2 omissions) and
        // to p1 through the pipe, surfacing in round 1 (1 more).
        assert_eq!(stats.omissions, 3);
        assert_eq!(stats.link_omissions, 0);
        assert_eq!(stats.link_pending, 1);
    }

    #[test]
    fn dynamic_rounds_must_arrive_in_order() {
        let plan = LinkFaultPlan::new().delay(0, 1, 2);
        let mut net = dynamic_net(&plan, 0);
        // Starting anywhere but round 0 is rejected…
        let err = exchange(&mut net, Round::new(3), &broadcasts()).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        // …and so is repeating or skipping a round mid-run.
        exchange(&mut net, Round::ZERO, &broadcasts()).unwrap();
        assert!(exchange(&mut net, Round::ZERO, &broadcasts()).is_err());
        assert!(exchange(&mut net, Round::new(2), &broadcasts()).is_err());
        assert!(exchange(&mut net, Round::new(1), &broadcasts()).is_ok());
    }

    #[test]
    fn non_dynamic_schedules_lower_to_the_static_paths() {
        // Frozen churn and constant periodic schedules realize the same
        // graph every round: they take the static machinery, agreeing with
        // RealizedSchedule::is_dynamic.
        let frozen = SyncNetwork::with_dynamics(
            crate::TopologySchedule::SeededChurn {
                base: crate::Topology::Ring { k: 1 },
                flip_rate: 0.0,
            }
            .realize(5, 0)
            .unwrap(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            0,
        )
        .unwrap();
        assert!(!frozen.is_dynamic());
        assert!(frozen.topology().is_some());

        let constant = SyncNetwork::with_dynamics(
            crate::TopologySchedule::Periodic {
                phases: vec![crate::Topology::Complete, crate::Topology::Complete],
            }
            .realize(4, 0)
            .unwrap(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            0,
        )
        .unwrap();
        assert!(!constant.is_dynamic());
        assert!(constant.topology().is_none());
    }

    #[test]
    fn seeded_random_omissions_are_deterministic_per_seed() {
        let plan = LinkFaultPlan::new().omit_all(0.5);
        let run = |seed: u64| {
            let mut net = dynamic_net(&plan, seed);
            let mut all = Vec::new();
            for round in 0..20 {
                all.push(exchange(&mut net, Round::new(round), &broadcasts()).unwrap());
            }
            (all, net.stats())
        };
        let (a, stats_a) = run(7);
        let (b, stats_b) = run(7);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.link_omissions > 0, "p=0.5 never lost a message");
        assert!(stats_a.messages_delivered > 0, "p=0.5 lost everything");
        // Self-delivery is never drawn against.
        for round in &a {
            for i in 0..3 {
                assert_eq!(
                    round.from_sender(pid(i), pid(i)),
                    Some(Value::new(i as f64)),
                    "self-delivery was link-faulted"
                );
            }
        }
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds should lose different messages");
    }

    #[test]
    fn churn_disconnection_policies_record_or_reject() {
        let schedule = crate::TopologySchedule::SeededChurn {
            base: crate::Topology::Complete,
            flip_rate: 1.0,
        };
        let mut recording = SyncNetwork::with_dynamics(
            schedule.realize(3, 0).unwrap(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            0,
        )
        .unwrap();
        exchange(&mut recording, Round::ZERO, &broadcasts()).unwrap();
        let stats = recording.stats();
        assert_eq!(stats.disconnected_rounds, 1);
        // Only self-delivery survives a fully dark round; the rest is
        // structural.
        assert_eq!(stats.messages_delivered, 3);
        assert_eq!(stats.unreachable, 6);

        let mut rejecting = SyncNetwork::with_dynamics(
            schedule.realize(3, 0).unwrap(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Reject,
            0,
        )
        .unwrap();
        let err = exchange(&mut rejecting, Round::ZERO, &broadcasts()).unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedRound { components: 3, .. }
        ));
    }

    #[test]
    fn churned_round_masks_by_the_rounds_realized_graph() {
        let schedule = crate::TopologySchedule::SeededChurn {
            base: crate::Topology::Complete,
            flip_rate: 0.5,
        };
        let realized = schedule.realize(3, 11).unwrap();
        let mut net = SyncNetwork::with_dynamics(
            realized.clone(),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            11,
        )
        .unwrap();
        for round in 0..10 {
            let round = Round::new(round);
            let graph = realized.adjacency_at(round).into_owned();
            let deliveries = exchange(&mut net, round, &broadcasts()).unwrap();
            for r in 0..3 {
                for s in 0..3 {
                    let expected = graph
                        .connected(pid(s), pid(r))
                        .then_some(Value::new(s as f64));
                    assert_eq!(deliveries.from_sender(pid(r), pid(s)), expected);
                }
            }
        }
        assert!(net.stats().unreachable > 0, "flip 0.5 never dropped a link");
    }
}
