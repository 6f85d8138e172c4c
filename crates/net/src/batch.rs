//! What one lane round hands to the exchange and gets back from it.
//!
//! [`LaneSend`] is the send phase in classified form: a broadcasting
//! sender hands over one value, not `n` outbox slots. [`DeliveryRows`] is
//! the receive phase in packed form: the delivered values of each run of
//! receivers that heard the same values, ascending, back to back in one
//! arena that the MSR phase reads row by row. The exchange between
//! them is
//! [`SharedRealization::exchange_rows`](crate::SharedRealization::exchange_rows).

use std::ops::Range;

use mbaa_types::{ProcessId, Value};

use crate::Outbox;

/// What one sender hands to the exchange — the send phase in classified
/// form, so broadcasting senders never materialize `n` outbox slots.
///
/// `Broadcast(v)` stands for an [`Outbox::broadcast`] of `v` (every slot
/// `Some(v)`, self included), `Silent` for an [`Outbox::silent`] one, and
/// `PerReceiver` defers to the sender's own outbox for the few genuinely
/// per-receiver senders (adversary outboxes, poisoned queues), looked up
/// through the `outbox_of` accessor passed to
/// [`SharedRealization::exchange_rows`](crate::SharedRealization::exchange_rows).
#[derive(Debug, Clone, Copy)]
pub enum LaneSend {
    /// The sender broadcasts one value to every receiver (itself included).
    Broadcast(Value),
    /// The sender omits to every receiver.
    Silent,
    /// The sender's slots come from its own outbox.
    PerReceiver,
}

impl LaneSend {
    /// The value `sender` puts on its link to `receiver`.
    #[inline]
    pub(crate) fn slot<'o>(
        self,
        outbox_of: &impl Fn(usize) -> &'o Outbox,
        sender: usize,
        receiver: ProcessId,
    ) -> Option<Value> {
        match self {
            LaneSend::Broadcast(value) => Some(value),
            LaneSend::Silent => None,
            LaneSend::PerReceiver => outbox_of(sender).get(receiver),
        }
    }
}

/// Packed delivery rows of one lane round: each row holds the values
/// delivered to a run of receivers in ascending order, back to back in one
/// flat buffer sized once at `n²`.
///
/// Row `i` serves the *active* receivers in [`DeliveryRows::receivers`]`(i)`,
/// which all heard the same values. The general walk stores one row per
/// active receiver; the complete-graph merge stores one per run of
/// receivers whose per-receiver slots agree bit for bit. Rows are collected
/// in receiver order, and the engine evaluates its voting function once
/// per row.
#[derive(Debug)]
pub struct DeliveryRows {
    /// The row arena; rows are written in place by the exchange.
    pub(crate) merged: Vec<Value>,
    /// `firsts[i]..ends[i]`: the receivers row `i` serves.
    firsts: Vec<usize>,
    ends: Vec<usize>,
    offsets: Vec<usize>,
    lens: Vec<usize>,
    rows: usize,
    /// Where the next row starts in `merged`.
    pub(crate) total: usize,
}

impl DeliveryRows {
    /// Pre-sizes the row arena for a universe of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DeliveryRows {
            merged: vec![Value::new(0.0); n * n],
            firsts: vec![0; n],
            ends: vec![0; n],
            offsets: vec![0; n],
            lens: vec![0; n],
            rows: 0,
            total: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.rows = 0;
        self.total = 0;
    }

    /// Records `merged[start..start + len]` as the next row, serving
    /// `receiver`; the slice must already be ascending.
    pub(crate) fn push_row(&mut self, receiver: usize, start: usize, len: usize) {
        self.firsts[self.rows] = receiver;
        self.ends[self.rows] = receiver + 1;
        self.offsets[self.rows] = start;
        self.lens[self.rows] = len;
        self.rows += 1;
        self.total = start + len;
    }

    /// Lets the last row serve every receiver up to `receiver` too.
    pub(crate) fn extend_row(&mut self, receiver: usize) {
        self.ends[self.rows - 1] = receiver + 1;
    }

    /// The number of rows collected this round.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The receivers the `row`-th row serves: the active ones in this
    /// range, which starts at an active receiver.
    #[must_use]
    pub fn receivers(&self, row: usize) -> Range<usize> {
        self.firsts[row]..self.ends[row]
    }

    /// The values delivered to the receivers of the `row`-th row,
    /// ascending.
    #[must_use]
    pub fn row(&self, row: usize) -> &[Value] {
        &self.merged[self.offsets[row]..self.offsets[row] + self.lens[row]]
    }

    /// The width of the smallest collected row (the round's minimum
    /// multiset size), or `None` when no receiver was active.
    #[must_use]
    pub fn min_len(&self) -> Option<usize> {
        self.lens[..self.rows].iter().copied().min()
    }

    /// Each receiver's row, `None` for receivers that no row serves: the
    /// rows spread back out over the universe, for comparisons with a
    /// per-receiver reference.
    #[cfg(test)]
    pub(crate) fn by_receiver(&self, active: &[bool]) -> Vec<Option<&[Value]>> {
        let mut rows = vec![None; active.len()];
        for row in 0..self.rows {
            for r in self.receivers(row).filter(|&r| active[r]) {
                assert!(rows[r].is_none(), "receiver {r} is served twice");
                rows[r] = Some(self.row(row));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use mbaa_types::{Error, Result, Round};

    use super::*;
    use crate::faults::{omission_lost, CompiledLinkFaults};
    use crate::network::RANKED_DELAYS;
    use crate::{
        DisconnectionPolicy, LinkFaultPlan, LinkFaultRule, NetworkStats, RealizedSchedule,
        SharedRealization, Topology, TopologySchedule,
    };

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A send phase with every classification: senders 0 and 2 have
    /// genuinely per-receiver outboxes (sender 0 reaches even receivers
    /// only, sender 2 sends a value that falls as the receiver index
    /// rises, so the two slots arrive in either order), sender 1 is
    /// silent, and every other sender broadcasts a value in −2..=2 that
    /// collides with the per-receiver slots, so rows need real merging and
    /// ranks span both signs. Returns the classified sends and the
    /// equivalent outboxes.
    fn mixed_send_phase(n: usize) -> (Vec<LaneSend>, Vec<Outbox>) {
        let value = |i: usize| Value::new((i % 5) as f64 - 2.0);
        let sends = (0..n)
            .map(|i| match i {
                0 | 2 => LaneSend::PerReceiver,
                1 => LaneSend::Silent,
                _ => LaneSend::Broadcast(value(i)),
            })
            .collect();
        let outboxes = (0..n)
            .map(|i| match i {
                0 => Outbox::per_receiver(
                    pid(0),
                    (0..n)
                        .map(|r| (r % 2 == 0).then(|| Value::new(r as f64 / 2.0)))
                        .collect(),
                ),
                1 => Outbox::silent(n, pid(1)),
                2 => Outbox::per_receiver(
                    pid(2),
                    (0..n).map(|r| Some(Value::new((n - r) as f64))).collect(),
                ),
                _ => Outbox::broadcast(n, pid(i), value(i)),
            })
            .collect();
        (sends, outboxes)
    }

    /// A send phase in which every value compares equal: broadcasters send
    /// −0.0 and 0.0 alternately, the per-receiver senders 0 and 2 send the
    /// same zeros, and every sender `i ≡ 1 (mod 5)` is silent, so silent
    /// senders sit inside every ring neighbourhood. Ties are all the walk
    /// has to order.
    fn zero_send_phase(n: usize) -> (Vec<LaneSend>, Vec<Outbox>) {
        let zero = |i: usize| Value::new(if i.is_multiple_of(2) { -0.0 } else { 0.0 });
        let sends = (0..n)
            .map(|i| match i {
                0 | 2 => LaneSend::PerReceiver,
                _ if i % 5 == 1 => LaneSend::Silent,
                _ => LaneSend::Broadcast(zero(i)),
            })
            .collect();
        let outboxes = (0..n)
            .map(|i| match i {
                0 => Outbox::per_receiver(
                    pid(0),
                    (0..n).map(|r| (r % 2 == 0).then(|| zero(r / 2))).collect(),
                ),
                2 => Outbox::per_receiver(pid(2), (0..n).map(|r| Some(zero(r + 1))).collect()),
                _ if i % 5 == 1 => Outbox::silent(n, pid(i)),
                _ => Outbox::broadcast(n, pid(i), zero(i)),
            })
            .collect();
        (sends, outboxes)
    }

    /// A send phase whose per-receiver senders are constant over blocks of
    /// receivers, so the complete-graph merge can share rows between
    /// neighbours. Sender 0 sends −0.0 below `n / 3`, 0.0 up to `n / 2`
    /// and nothing from there on: the only boundaries at `n / 3` and
    /// `n / 2` are a sign of zero and `Some` against `None`. Sender 2 sends
    /// 0.5 to everyone, sender 3 splits its values at `2n / 3`, sender 1 is
    /// silent, and every other sender broadcasts −1.0, 0.0 or 1.0.
    fn block_send_phase(n: usize) -> (Vec<LaneSend>, Vec<Outbox>) {
        let value = |i: usize| Value::new((i % 3) as f64 - 1.0);
        let sends = (0..n)
            .map(|i| match i {
                0 | 2 | 3 => LaneSend::PerReceiver,
                1 => LaneSend::Silent,
                _ => LaneSend::Broadcast(value(i)),
            })
            .collect();
        let per_receiver = |s: usize, slot: &dyn Fn(usize) -> Option<f64>| {
            Outbox::per_receiver(pid(s), (0..n).map(|r| slot(r).map(Value::new)).collect())
        };
        let outboxes = (0..n)
            .map(|i| match i {
                0 => per_receiver(0, &|r| match r {
                    _ if r < n / 3 => Some(-0.0),
                    _ if r < n / 2 => Some(0.0),
                    _ => None,
                }),
                1 => Outbox::silent(n, pid(1)),
                2 => per_receiver(2, &|_| Some(0.5)),
                3 => per_receiver(3, &|r| Some(if r < 2 * n / 3 { -3.0 } else { 3.0 })),
                _ => Outbox::broadcast(n, pid(i), value(i)),
            })
            .collect();
        (sends, outboxes)
    }

    /// The send phases every comparison runs.
    fn send_phases(n: usize) -> [(Vec<LaneSend>, Vec<Outbox>); 3] {
        [mixed_send_phase(n), zero_send_phase(n), block_send_phase(n)]
    }

    /// The activity patterns every comparison runs: everyone, and everyone
    /// but receiver 0 and the block boundary at `n / 3`.
    fn activity_patterns(n: usize) -> [Vec<bool>; 2] {
        let mut idle = vec![true; n];
        idle[0] = false;
        idle[n / 3] = false;
        [vec![true; n], idle]
    }

    /// A row's values as bit patterns, sorted: equal for two rows only
    /// when they hold the same values with the same signs of zero.
    fn row_bits(row: &[Value]) -> Vec<u64> {
        let mut bits: Vec<u64> = row.iter().map(|v| v.get().to_bits()).collect();
        bits.sort_unstable();
        bits
    }

    fn build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        plan: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        seed: u64,
    ) -> SharedRealization {
        SharedRealization::build(n, topology, schedule, plan, policy, seed)
            .expect("description builds")
    }

    /// What one link carried in the reference exchange.
    #[derive(Debug, Clone, Copy)]
    enum Sent {
        Value(Value),
        Omitted,
        Unreachable,
        Lost,
    }

    /// The scalar reference exchange: the round's graph straight from the
    /// realized schedule, and every `(receiver, sender)` slot visited one
    /// by one through its omission draw and delay pipe. Each receiver's
    /// values are collected in sender order and sorted.
    struct ScalarReference {
        n: usize,
        schedule: RealizedSchedule,
        faults: CompiledLinkFaults,
        policy: DisconnectionPolicy,
        seed: u64,
        pipes: Vec<VecDeque<Sent>>,
        stats: NetworkStats,
    }

    impl ScalarReference {
        fn new(
            topology: &Topology,
            schedule: Option<&TopologySchedule>,
            plan: &LinkFaultPlan,
            policy: DisconnectionPolicy,
            n: usize,
            seed: u64,
        ) -> Self {
            let desc = schedule
                .cloned()
                .unwrap_or_else(|| TopologySchedule::Static(topology.clone()));
            ScalarReference {
                n,
                schedule: desc.realize(n, seed).unwrap(),
                faults: plan.compile(n).unwrap(),
                policy,
                seed,
                pipes: vec![VecDeque::new(); n * n],
                stats: NetworkStats::new(),
            }
        }

        fn exchange(&mut self, round: Round, outboxes: &[Outbox]) -> Result<Vec<Vec<Value>>> {
            let n = self.n;
            let graph = self.schedule.adjacency_at(round);
            if !graph.is_connected() {
                match self.policy {
                    DisconnectionPolicy::Reject => {
                        return Err(Error::DisconnectedRound {
                            round,
                            components: graph.component_count(),
                        })
                    }
                    DisconnectionPolicy::Record => self.stats.disconnected_rounds += 1,
                }
            }
            let mut rows = vec![Vec::new(); n];
            for (r, row) in rows.iter_mut().enumerate() {
                for (s, outbox) in outboxes.iter().enumerate() {
                    let sent = if !graph.connected(pid(s), pid(r)) {
                        Sent::Unreachable
                    } else {
                        match outbox.get(pid(r)) {
                            None => Sent::Omitted,
                            Some(_)
                                if omission_lost(
                                    self.seed,
                                    round.index(),
                                    s,
                                    r,
                                    self.faults.omit_at(s, r),
                                ) =>
                            {
                                Sent::Lost
                            }
                            Some(value) => Sent::Value(value),
                        }
                    };
                    let delay = self.faults.delay_at(s, r);
                    let arrived = if delay == 0 {
                        Some(sent)
                    } else {
                        let pipe = &mut self.pipes[s * n + r];
                        pipe.push_back(sent);
                        (pipe.len() > delay).then(|| pipe.pop_front().unwrap())
                    };
                    match arrived {
                        Some(Sent::Value(value)) => {
                            self.stats.messages_delivered += 1;
                            self.stats.link_delayed += u64::from(delay > 0);
                            row.push(value);
                        }
                        Some(Sent::Omitted) => self.stats.omissions += 1,
                        Some(Sent::Unreachable) => self.stats.unreachable += 1,
                        Some(Sent::Lost) => self.stats.link_omissions += 1,
                        None => self.stats.link_pending += 1,
                    }
                }
                row.sort_unstable();
            }
            self.stats.rounds += 1;
            Ok(rows)
        }
    }

    /// Runs `rounds` rounds under each activity pattern through both the
    /// scalar reference and the shared realization, round `t` sending send
    /// phase `(t + first) mod 3` for each `first`, and asserts that every
    /// active receiver, and no other, gets its scalar multiset (down to the
    /// sign of zero), and identical stats. The phase changes every round, so
    /// a delayed arrival filed against another round's send phase differs.
    fn assert_matches_scalar(
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        plan: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        n: usize,
        seed: u64,
        rounds: u64,
    ) {
        let phases = send_phases(n);
        for first in 0..phases.len() {
            for active in activity_patterns(n) {
                let mut scalar = ScalarReference::new(topology, schedule, plan, policy, n, seed);
                let shared = build(n, topology, schedule, plan, policy, seed);
                let mut lane = shared.lane(seed);
                let mut rows = DeliveryRows::new(n);
                let mut stats = NetworkStats::new();
                for round in 0..rounds {
                    let (sends, outboxes) = &phases[(round as usize + first) % phases.len()];
                    let round = Round::new(round);
                    let scalar_rows = scalar.exchange(round, outboxes).unwrap();
                    shared
                        .exchange_rows(
                            &mut lane,
                            round,
                            sends,
                            |s| &outboxes[s],
                            &active,
                            &mut rows,
                            &mut stats,
                        )
                        .unwrap();
                    for (r, row) in rows.by_receiver(&active).into_iter().enumerate() {
                        let label = format!("{topology} n={n} {round} receiver {r} from {first}");
                        let Some(row) = row else {
                            assert!(!active[r], "{label} got no row");
                            continue;
                        };
                        assert!(active[r], "{label} is inactive but got a row");
                        assert_eq!(row, &scalar_rows[r][..], "{label}");
                        assert_eq!(row_bits(row), row_bits(&scalar_rows[r]), "{label}");
                    }
                }
                assert_eq!(stats, scalar.stats);
            }
        }
    }

    #[test]
    fn trace_round_agrees_with_the_delivered_rows() {
        // On every walk input without delays, what the trace says a
        // receiver got from each sender is exactly the row it was handed.
        let churn = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.3,
        };
        let periodic = TopologySchedule::Periodic {
            phases: vec![Topology::Ring { k: 1 }, Topology::Complete],
        };
        let lossy = LinkFaultPlan::new().omit_all(0.3);
        let clean = LinkFaultPlan::new();
        // n = 8, and both sides of the heard sets' 64-bit word boundaries.
        for n in [8, 63, 64, 65, 129] {
            let cases = [
                (Topology::Complete, None, &clean),
                (Topology::Ring { k: 2 }, None, &clean),
                (Topology::Complete, Some(&churn), &clean),
                (Topology::Ring { k: 3 }, None, &lossy),
                (Topology::Complete, Some(&periodic), &clean),
                (Topology::Complete, Some(&churn), &lossy),
                (Topology::Complete, None, &lossy),
                // An odd degree needs an even universe.
                (Topology::RandomRegular { degree: 3 + n % 2 }, None, &clean),
            ];
            for (topology, schedule, plan) in &cases {
                for (sends, outboxes) in send_phases(n) {
                    let policy = DisconnectionPolicy::Record;
                    let shared = build(n, topology, *schedule, plan, policy, 5);
                    let mut lane = shared.lane(5);
                    let mut rows = DeliveryRows::new(n);
                    let mut stats = NetworkStats::new();
                    let active = vec![true; n];
                    for round in 0..6 {
                        let round = Round::new(round);
                        shared
                            .exchange_rows(
                                &mut lane,
                                round,
                                &sends,
                                |s| &outboxes[s],
                                &active,
                                &mut rows,
                                &mut stats,
                            )
                            .unwrap();
                        let trace = shared.trace_round(&lane, round, &sends, |s| &outboxes[s]);
                        assert_eq!(trace.round(), round);
                        let rows = rows.by_receiver(&active);
                        for (r, row) in rows.into_iter().enumerate() {
                            let row = row.expect("every receiver is active");
                            let heard: Vec<Value> = trace
                                .iter()
                                .filter_map(|obs| obs.delivered_to(pid(r)))
                                .collect();
                            let mut sorted = heard.clone();
                            sorted.sort_unstable();
                            let label = format!("{topology} n={n} {round} receiver {r}");
                            assert_eq!(row, &sorted[..], "{label}");
                            assert_eq!(row_bits(row), row_bits(&heard), "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn static_masked_delivery_matches_scalar() {
        // n = 9, and both sides of the heard sets' 64-bit word boundaries.
        for n in [9, 63, 64, 65, 129] {
            assert_matches_scalar(
                &Topology::Ring { k: 2 },
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                n,
                3,
                5,
            );
        }
    }

    #[test]
    fn complete_delivery_matches_scalar() {
        // The plain complete graph and rings wide enough to normalize to it
        // all take the complete-graph merge; from n = 10 on, the receiver
        // after the idle block boundary shares its block with an active one.
        for (topology, n) in [
            (Topology::Complete, 7),
            (Topology::Ring { k: 6 }, 7),
            (Topology::Complete, 12),
            (Topology::Ring { k: 6 }, 12),
            (Topology::Complete, 65),
        ] {
            assert_matches_scalar(
                &topology,
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                n,
                1,
                4,
            );
        }
    }

    #[test]
    fn complete_merge_stores_one_row_per_run_of_equal_slots() {
        // Agent 0 splits the receivers at n / 2 (−1.0 below, 1.0 above);
        // agent 1 sends one value to all (one run), the same split, or
        // every receiver its own value (n runs).
        let n = 10;
        let split = Outbox::per_receiver(
            pid(0),
            (0..n)
                .map(|r| Some(Value::new(if r < n / 2 { -1.0 } else { 1.0 })))
                .collect(),
        );
        let one_run = Outbox::broadcast(n, pid(1), Value::new(7.0));
        let n_runs =
            Outbox::per_receiver(pid(1), (0..n).map(|r| Some(Value::new(r as f64))).collect());
        assert_eq!(
            [&split, &one_run, &n_runs].map(|outbox| outbox.runs().count()),
            [2, 1, n]
        );
        let sends: Vec<LaneSend> = (0..n)
            .map(|i| match i {
                0 | 1 => LaneSend::PerReceiver,
                _ => LaneSend::Broadcast(Value::new(i as f64 / 10.0)),
            })
            .collect();
        let shared = build(
            n,
            &Topology::Complete,
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            0,
        );
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(n);
        let mut stats = NetworkStats::new();
        let mut receivers_of = |second: &Outbox, active: &[bool]| {
            shared
                .exchange_rows(
                    &mut lane,
                    Round::ZERO,
                    &sends,
                    |s| if s == 0 { &split } else { second },
                    active,
                    &mut rows,
                    &mut stats,
                )
                .unwrap();
            (0..rows.rows())
                .map(|row| {
                    // Each row holds what its first receiver was sent.
                    let first = rows.receivers(row).start;
                    let mut expected: Vec<Value> = (0..n)
                        .filter_map(|s| {
                            sends[s].slot(&|s| if s == 0 { &split } else { second }, s, pid(first))
                        })
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(rows.row(row), &expected[..], "row {row}");
                    rows.receivers(row)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(receivers_of(&split, &[true; 10]), [0..5, 5..10]);
        assert_eq!(receivers_of(&one_run, &[true; 10]), [0..5, 5..10]);
        assert_eq!(
            receivers_of(&n_runs, &[true; 10]),
            (0..n).map(|r| r..r + 1).collect::<Vec<_>>()
        );
        // An idle receiver inside a block leaves the row whole; idle ones
        // at the ends trim it.
        let mut active = [true; 10];
        active[2] = false;
        active[5] = false;
        active[9] = false;
        assert_eq!(receivers_of(&split, &active), [0..5, 6..9]);
        assert_eq!(receivers_of(&one_run, &active), [0..5, 6..9]);
        assert_eq!(
            receivers_of(&n_runs, &active),
            [0..1, 1..2, 3..4, 4..5, 6..7, 7..8, 8..9]
        );
        // Every slot of the six rounds was delivered: all n² per round.
        assert_eq!(stats.messages_delivered, 6 * (n * n) as u64);
        assert_eq!(stats.omissions, 0);
    }

    #[test]
    fn churned_delivery_replays_the_lane_draw_stream() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.4,
        };
        for (n, seed) in [
            (8, 2),
            (8, 9),
            (8, 40),
            (63, 2),
            (64, 9),
            (65, 40),
            (129, 2),
        ] {
            assert_matches_scalar(
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                n,
                seed,
                12,
            );
        }
    }

    #[test]
    fn periodic_phases_match_scalar() {
        let schedule = TopologySchedule::Periodic {
            phases: vec![Topology::Ring { k: 2 }, Topology::Complete],
        };
        assert_matches_scalar(
            &Topology::Complete,
            Some(&schedule),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            9,
            5,
            6,
        );
    }

    #[test]
    fn lossy_and_delayed_links_match_scalar() {
        let plan = LinkFaultPlan::new().omit_all(0.3).delay(0, 1, 2);
        // A ring buffers unreachable slots on its delayed links, and its
        // per-receiver senders 0 and 2 send over delays of 1, 2 and 3;
        // churn draws its mask and sends the outcomes through the ring.
        let ring_delays = LinkFaultPlan::new()
            .delay(0, 1, 2)
            .delay(0, 3, 1)
            .delay(2, 3, 3)
            .delay(2, 1, 1);
        let churn = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.3,
        };
        for seed in [7, 11] {
            assert_matches_scalar(
                &Topology::Complete,
                None,
                &plan,
                DisconnectionPolicy::Record,
                6,
                seed,
                10,
            );
            assert_matches_scalar(
                &Topology::Ring { k: 1 },
                None,
                &ring_delays,
                DisconnectionPolicy::Record,
                6,
                seed,
                10,
            );
            assert_matches_scalar(
                &Topology::Complete,
                Some(&churn),
                &plan,
                DisconnectionPolicy::Record,
                6,
                seed,
                10,
            );
        }
        // Delays across the heard sets' word boundaries.
        for n in [63, 64, 65, 129] {
            assert_matches_scalar(
                &Topology::Ring { k: 3 },
                None,
                &ring_delays.clone().delay(n - 1, 0, 3),
                DisconnectionPolicy::Record,
                n,
                5,
                8,
            );
        }
        // One link outlasts the run while others deliver within it: one at
        // the longest delay the rank history keeps, and one just past it,
        // whose broadcasts arrive as values.
        assert_matches_scalar(
            &Topology::Ring { k: 2 },
            None,
            &LinkFaultPlan::new()
                .delay(0, 1, 1000)
                .delay(2, 1, 1)
                .delay(255, 0, 3)
                .delay(4, 3, RANKED_DELAYS)
                .delay(5, 4, RANKED_DELAYS + 1),
            DisconnectionPolicy::Record,
            256,
            3,
            RANKED_DELAYS as u64 + 3,
        );
    }

    /// Every link of `plan` from one of `senders` set to `delay`.
    fn slow_senders(plan: LinkFaultPlan, senders: &[usize], delay: usize) -> LinkFaultPlan {
        senders.iter().fold(plan, |plan, &from| {
            plan.with_rule(LinkFaultRule {
                from: Some(from),
                delay: Some(delay),
                ..LinkFaultRule::default()
            })
        })
    }

    #[test]
    fn mixed_delays_match_scalar() {
        // Delays 1–3 with 5% omissions under churn: every link one round
        // late, senders 2 and 4 two rounds, links into receiver 3 three
        // rounds and one link on time, so a row merges up to four streams.
        let churn = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        };
        let mixed = slow_senders(LinkFaultPlan::new().omit_all(0.05).delay_all(1), &[2, 4], 2)
            .with_rule(LinkFaultRule {
                to: Some(3),
                delay: Some(3),
                ..LinkFaultRule::default()
            })
            .delay(5, 6, 0);
        for (n, seed) in [(9, 2), (9, 13), (65, 2)] {
            assert_matches_scalar(
                &Topology::Complete,
                Some(&churn),
                &mixed,
                DisconnectionPolicy::Record,
                n,
                seed,
                12,
            );
        }
        // The shape of the benchmark's delayed points: every link one round
        // late and four senders (a silent, a per-receiver and two
        // broadcasting ones) two rounds late, on the complete graph and on
        // a wide ring.
        for n in [65, 129] {
            let plan = slow_senders(LinkFaultPlan::new().delay_all(1), &[1, 2, n / 2, n - 1], 2);
            for topology in [Topology::Complete, Topology::Ring { k: 3 * n / 8 }] {
                assert_matches_scalar(&topology, None, &plan, DisconnectionPolicy::Record, n, 4, 7);
            }
        }
    }

    #[test]
    fn random_regular_realizes_per_seed() {
        let random = Topology::RandomRegular { degree: 4 };
        let churned = TopologySchedule::SeededChurn {
            base: random.clone(),
            flip_rate: 0.2,
        };
        let periodic = TopologySchedule::Periodic {
            phases: vec![Topology::Complete, random.clone()],
        };
        assert!(SharedRealization::realizes_per_seed(&random, None));
        assert!(SharedRealization::realizes_per_seed(
            &Topology::Complete,
            Some(&churned)
        ));
        assert!(SharedRealization::realizes_per_seed(
            &Topology::Complete,
            Some(&periodic)
        ));
        assert!(!SharedRealization::realizes_per_seed(
            &Topology::Ring { k: 2 },
            None
        ));
        // Each seed's realization replays that seed's scalar reference.
        for seed in [3, 4] {
            assert_matches_scalar(
                &random,
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                10,
                seed,
                3,
            );
            assert_matches_scalar(
                &Topology::Complete,
                Some(&churned),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                10,
                seed,
                5,
            );
        }
    }

    #[test]
    fn build_fails_with_the_scalar_realization_error() {
        // An odd degree on an odd universe has no regular realization.
        let infeasible = Topology::RandomRegular { degree: 3 };
        let expected = infeasible.realize(7, 1).unwrap_err();
        let err = SharedRealization::build(
            7,
            &infeasible,
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            1,
        )
        .unwrap_err();
        assert_eq!(err, expected);
    }

    #[test]
    fn rejecting_policy_fails_disconnected_rounds_like_scalar() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 1.0,
        };
        let shared = build(
            3,
            &Topology::Complete,
            Some(&schedule),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Reject,
            0,
        );
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(3);
        let mut stats = NetworkStats::new();
        let (sends, outboxes) = mixed_send_phase(3);
        let err = shared
            .exchange_rows(
                &mut lane,
                Round::ZERO,
                &sends,
                |s| &outboxes[s],
                &[true; 3],
                &mut rows,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedRound { components: 3, .. }
        ));
    }

    #[test]
    fn dynamic_rounds_must_arrive_in_order() {
        let plan = LinkFaultPlan::new().delay(0, 1, 1);
        let shared = build(
            3,
            &Topology::Complete,
            None,
            &plan,
            DisconnectionPolicy::Record,
            0,
        );
        let mut lane = shared.lane(0);
        let mut rows = DeliveryRows::new(3);
        let mut stats = NetworkStats::new();
        let (sends, outboxes) = mixed_send_phase(3);
        let err = shared
            .exchange_rows(
                &mut lane,
                Round::new(2),
                &sends,
                |s| &outboxes[s],
                &[true; 3],
                &mut rows,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn inactive_receivers_are_accounted_but_not_collected() {
        let (sends, outboxes) = mixed_send_phase(4);
        let exchange = |topology: &Topology, active: &[bool]| {
            let policy = DisconnectionPolicy::Record;
            let shared = build(4, topology, None, &LinkFaultPlan::new(), policy, 0);
            let mut lane = shared.lane(0);
            let mut rows = DeliveryRows::new(4);
            let mut stats = NetworkStats::new();
            shared
                .exchange_rows(
                    &mut lane,
                    Round::ZERO,
                    &sends,
                    |s| &outboxes[s],
                    active,
                    &mut rows,
                    &mut stats,
                )
                .unwrap();
            let rows: Vec<Option<Vec<Value>>> = rows
                .by_receiver(active)
                .into_iter()
                .map(|row| row.map(<[Value]>::to_vec))
                .collect();
            (rows, stats)
        };
        for topology in [Topology::Complete, Topology::Ring { k: 1 }] {
            let (everyone, _) = exchange(&topology, &[true; 4]);
            // Receiver 1 hears no broadcaster on the ring; receiver 0
            // hears broadcaster 3.
            for idle in [1, 0] {
                let mut active = [true; 4];
                active[idle] = false;
                let (rows, stats) = exchange(&topology, &active);
                // The idle receiver gets no row; the others get what an
                // all-active round hands them.
                for (r, row) in rows.iter().enumerate() {
                    let expected = (r != idle).then(|| everyone[r].clone().unwrap());
                    assert_eq!(row, &expected, "{topology} receiver {r}");
                }
                // All 16 slots are accounted regardless of who computes.
                assert_eq!(
                    stats.messages_delivered + stats.omissions + stats.unreachable,
                    16,
                    "{topology}"
                );
            }
        }
    }
}
