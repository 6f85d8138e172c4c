//! The synchronous exchange: one realized network description serving
//! every lane (seed) of a pack.
//!
//! A network bundles three things per run: the *structure* (realized
//! graphs, compiled link-fault matrices, connectivity precomputation), the
//! *per-seed draw streams* (churn and omission draws keyed on the run
//! seed), and the *per-run delivery state* (delay pipes, round cursor,
//! statistics). Only the first is shared across the lanes of a pack — and
//! it is by far the most expensive to build and the only part that costs
//! per-round allocations on the churn path.
//!
//! [`SharedRealization`] holds the structure once per pack plus reusable
//! round scratch, while each lane carries only a tiny [`LaneDelivery`]
//! (seed, round cursor, delay pipes when the plan needs them). A lane
//! round is served by [`SharedRealization::exchange_rows`], which
//! classifies and accounts every slot — delivered values, sender
//! omissions, structural non-deliveries, link omissions and delays — and
//! collects each active receiver's delivered values directly into packed,
//! ascending [`DeliveryRows`], skipping the quadratic outbox
//! materialization for broadcasting senders via [`LaneSend`]
//! classification. [`SharedRealization::trace_round`] records the same
//! round as a [`RoundTrace`] for the runs that ask for one.
//!
//! The exchange guarantees that every non-omitted slot between neighbours
//! is delivered exactly once (*reliability*), to the receiver the sender
//! addressed (*authentication*), and that nothing is delivered that was
//! not sent (*no creation*). Nothing crosses a missing link: non-neighbour
//! slots are *structural* non-deliveries, counted in
//! [`NetworkStats::unreachable`] and never as omission faults.
//!
//! The realization comes in three kinds, chosen at build:
//!
//! * **complete** — the unmasked complete graph under a clean plan. Every
//!   receiver hears every broadcaster, so the broadcast values are sorted
//!   once per lane round and each receiver's row is that common buffer
//!   merged with its ≤ 2f per-receiver slots; traffic is accounted in
//!   closed form. This replaces `n` row sorts with one sort and `n` merges.
//! * **static** — any other fixed graph under a clean plan, walked through
//!   precomputed closed in-neighbourhood lists.
//! * **dynamic** — per-round graphs (periodic phases, seeded churn) and/or
//!   per-link omissions and delays.
//!
//! A [`Topology::RandomRegular`] graph realizes differently per seed
//! (anywhere — as the static graph, a periodic phase, or a churn base), so
//! such descriptions are built once per lane seed
//! ([`SharedRealization::realizes_per_seed`]); every other description is
//! seed-invariant and built once per pack. Seeded churn is shared: the
//! base graph is realized once and the per-`(seed, round, link)`
//! down-draws are replayed per lane against the crate-internal draw
//! primitive, so the realized per-round graphs match
//! [`RealizedSchedule::adjacency_at`](crate::RealizedSchedule::adjacency_at)
//! bit for bit.

use std::collections::VecDeque;

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::{churn_link_down, omission_lost, RealizedKind};
use crate::{
    Adjacency, CompiledLinkFaults, DeliveryRows, DisconnectionPolicy, LaneSend, LinkFaultPlan,
    NetworkStats, Outbox, RoundTrace, Topology, TopologySchedule, TraceSlot,
};

/// What the send phase put on one directed link in one round — classified
/// at send time, accounted at delivery time, so a delay pipe buffers the
/// classification rather than the raw slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SendOutcome {
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

/// The per-lane slice of a dynamic exchange: everything keyed on the lane
/// seed or advancing per lane round. Created by
/// [`SharedRealization::lane`]; static realizations carry no state at all
/// beyond the seed.
#[derive(Debug, Clone)]
pub struct LaneDelivery {
    seed: u64,
    /// The round the next exchange must carry (dynamic realizations only —
    /// the delay pipes and draw streams advance once per round).
    next_round: u64,
    /// In-order delay buffers, indexed `from * n + to`; allocated only when
    /// the compiled plan has a positive maximum delay.
    pipes: Vec<VecDeque<SendOutcome>>,
}

/// One static graph with its precomputed closed in-neighbourhood lists:
/// `neighbors[offsets[r]..offsets[r + 1]]` are the senders receiver `r`
/// hears (itself included), ascending.
#[derive(Debug)]
struct StaticGraph {
    neighbors: Vec<u32>,
    offsets: Vec<u32>,
}

impl StaticGraph {
    fn new(adjacency: &Adjacency) -> Self {
        let n = adjacency.n();
        let mut neighbors = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for r in 0..n {
            for (s, &linked) in adjacency.row(ProcessId::new(r)).iter().enumerate() {
                if linked {
                    neighbors.push(s as u32);
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        StaticGraph { neighbors, offsets }
    }

    fn closed_neighborhood(&self, r: usize) -> &[u32] {
        &self.neighbors[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Whether receiver `r` hears sender `s` (the lists are ascending).
    fn hears(&self, r: usize, s: usize) -> bool {
        self.closed_neighborhood(r)
            .binary_search(&(s as u32))
            .is_ok()
    }
}

/// One phase of a dynamic schedule, with its connectivity precomputed once
/// per batch instead of once per lane round.
#[derive(Debug)]
struct PhaseGraph {
    adjacency: Adjacency,
    graph: StaticGraph,
    connected: bool,
    components: usize,
}

impl PhaseGraph {
    fn new(adjacency: Adjacency) -> Self {
        let graph = StaticGraph::new(&adjacency);
        let connected = adjacency.is_connected();
        let components = adjacency.component_count();
        PhaseGraph {
            adjacency,
            graph,
            connected,
            components,
        }
    }
}

/// The per-round graph rule of a shared dynamic realization.
#[derive(Debug)]
enum DynGraphs {
    /// Round `r` uses `phases[r % phases.len()]` — static graphs are the
    /// single-phase case.
    Phases(Vec<PhaseGraph>),
    /// Round-indexed churn over a shared base; the per-`(seed, round,
    /// link)` down-draws are replayed per lane.
    Churn { base: Adjacency, flip_rate: f64 },
}

/// Reusable per-round scratch of the dynamic path (only the churn rule
/// uses it): the round's realized link mask and the BFS state of its
/// connectivity check. Shared across lanes — each lane round overwrites it
/// completely.
#[derive(Debug)]
struct DynScratch {
    /// `mask[a * n + b]`: the churned round graph, diagonal always set.
    mask: Vec<bool>,
    visited: Vec<bool>,
    stack: Vec<u32>,
}

/// Reusable per-round scratch of the complete kind, shared across lanes:
/// the sorted broadcast values, the per-receiver senders, and one
/// receiver's slots from them.
#[derive(Debug)]
struct CompleteScratch {
    common: Vec<Value>,
    specials: Vec<usize>,
    extra: Vec<Value>,
}

#[derive(Debug)]
enum SharedKind {
    /// The unmasked complete graph under a clean fault plan: one sort of
    /// the broadcasters, a merge per receiver, closed-form accounting.
    Complete(CompleteScratch),
    /// Any other static graph under a clean fault plan: the closed-form
    /// static exchange, one accounting line per receiver.
    Static(StaticGraph),
    /// The dynamic path: per-round graphs and/or per-link faults.
    Dynamic {
        graphs: DynGraphs,
        faults: CompiledLinkFaults,
        policy: DisconnectionPolicy,
        /// The largest compiled delay; 0 skips the pipe machinery entirely.
        max_delay: usize,
        scratch: DynScratch,
    },
}

impl SharedKind {
    /// The static kind of a fixed graph: a complete adjacency lowers onto
    /// the unmasked complete kind.
    fn fixed(n: usize, adjacency: &Adjacency) -> Self {
        if adjacency.is_complete() {
            Self::complete(n)
        } else {
            SharedKind::Static(StaticGraph::new(adjacency))
        }
    }

    fn complete(n: usize) -> Self {
        SharedKind::Complete(CompleteScratch {
            common: vec![Value::new(0.0); n],
            specials: vec![0; n],
            extra: vec![Value::new(0.0); n],
        })
    }
}

/// The seed-invariant structure of one network description — or, for a
/// description that [realizes per seed](SharedRealization::realizes_per_seed),
/// the structure of one lane seed — realized once and shared by every lane
/// of its group. The module documentation above spells out what is shared
/// and what stays lane-local.
#[derive(Debug)]
pub struct SharedRealization {
    n: usize,
    kind: SharedKind,
}

/// Seed-dependence of a topology description: only
/// [`Topology::RandomRegular`] realizes to a different graph per seed.
fn topology_per_seed(topology: &Topology) -> bool {
    matches!(topology, Topology::RandomRegular { .. })
}

/// Counts the connected components of a flat link mask (diagonal set), the
/// allocation-free equivalent of [`Adjacency::component_count`] on the
/// churned round graph.
fn mask_components(mask: &[bool], n: usize, visited: &mut [bool], stack: &mut Vec<u32>) -> usize {
    visited.fill(false);
    let mut components = 0;
    for start in 0..n {
        if visited[start] {
            continue;
        }
        components += 1;
        visited[start] = true;
        stack.push(start as u32);
        while let Some(node) = stack.pop() {
            let row = &mask[node as usize * n..(node as usize + 1) * n];
            for (next, &linked) in row.iter().enumerate() {
                if linked && !visited[next] {
                    visited[next] = true;
                    stack.push(next as u32);
                }
            }
        }
    }
    components
}

/// Merges two ascending slices into `out` (exactly `a.len() + b.len()`
/// long), preserving order — the classic two-pointer merge, allocation
/// free.
// mbaa: alloc-free
fn merge_sorted(a: &[Value], b: &[Value], out: &mut [Value]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

impl SharedRealization {
    /// Whether the description realizes to a different structure per seed
    /// — a [`Topology::RandomRegular`] graph as the static topology, a
    /// periodic phase, or a churn base. Such descriptions need one
    /// realization per lane seed; all others share one per batch.
    #[must_use]
    pub fn realizes_per_seed(topology: &Topology, schedule: Option<&TopologySchedule>) -> bool {
        match schedule {
            None => topology_per_seed(topology),
            Some(TopologySchedule::Static(scheduled)) => topology_per_seed(scheduled),
            Some(TopologySchedule::Periodic { phases }) => phases.iter().any(topology_per_seed),
            Some(TopologySchedule::SeededChurn { base, .. }) => topology_per_seed(base),
        }
    }

    /// Builds the structure for one network description under one seed:
    /// no schedule and a clean plan realize a fixed graph (the complete kind
    /// for the complete graph, the static kind otherwise); a schedule whose
    /// per-round graphs cannot differ under a clean compiled plan lowers
    /// onto the same fixed form; everything else takes the dynamic form.
    ///
    /// The seed only matters for descriptions that
    /// [realize per seed](SharedRealization::realizes_per_seed); churn and
    /// omission draws key on each lane's own seed at exchange time.
    ///
    /// # Errors
    ///
    /// A failed graph realization, or a link-fault plan that does not
    /// compile.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        seed: u64,
    ) -> Result<SharedRealization> {
        assert!(n > 0, "a network needs at least one process");
        if schedule.is_none() && link_faults.is_clean() {
            let kind = match topology {
                Topology::Complete => SharedKind::complete(n),
                partial => SharedKind::fixed(n, &partial.realize(n, seed)?),
            };
            return Ok(SharedRealization { n, kind });
        }
        let implied;
        let schedule = match schedule {
            Some(schedule) => schedule,
            None => {
                implied = TopologySchedule::Static(topology.clone());
                &implied
            }
        };
        let realized = schedule.realize(n, seed)?;
        let faults = link_faults.compile(n)?;
        if faults.is_clean() && !realized.is_dynamic() {
            return Ok(SharedRealization {
                n,
                kind: SharedKind::fixed(n, &realized.adjacency_at(Round::ZERO)),
            });
        }
        let max_delay = faults.compiled_max_delay();
        let (graphs, churns) = match realized.kind() {
            RealizedKind::Static(adjacency) => (
                DynGraphs::Phases(vec![PhaseGraph::new(adjacency.clone())]),
                false,
            ),
            RealizedKind::Periodic(phases) => (
                DynGraphs::Phases(phases.iter().cloned().map(PhaseGraph::new).collect()),
                false,
            ),
            RealizedKind::Churn { base, flip_rate } => {
                if *flip_rate == 0.0 {
                    // Frozen churn realizes the base every round.
                    (
                        DynGraphs::Phases(vec![PhaseGraph::new(base.clone())]),
                        false,
                    )
                } else {
                    (
                        DynGraphs::Churn {
                            base: base.clone(),
                            flip_rate: *flip_rate,
                        },
                        true,
                    )
                }
            }
        };
        let scratch = DynScratch {
            mask: if churns {
                vec![false; n * n]
            } else {
                Vec::new()
            },
            visited: if churns { vec![false; n] } else { Vec::new() },
            stack: if churns {
                Vec::with_capacity(n)
            } else {
                Vec::new()
            },
        };
        Ok(SharedRealization {
            n,
            kind: SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
                scratch,
            },
        })
    }

    /// Creates the per-lane delivery state for one lane seed.
    #[must_use]
    pub fn lane(&self, seed: u64) -> LaneDelivery {
        let pipes = match &self.kind {
            SharedKind::Dynamic { max_delay, .. } if *max_delay > 0 => {
                vec![VecDeque::new(); self.n * self.n]
            }
            _ => Vec::new(),
        };
        LaneDelivery {
            seed,
            next_round: 0,
            pipes,
        }
    }

    /// Performs the send + receive phases of one lane's round, collecting
    /// the values delivered to every receiver whose `active` flag is set
    /// into `rows` (ascending per row) and accounting **all** `n²` slots
    /// into `stats` — delivered values, sender omissions, structural
    /// non-deliveries, link omissions/delays. Each slot's outcome is
    /// classified at *send* time and accounted at *delivery* time, so a
    /// sender omission travelling a delayed link is still charged to the
    /// sender in the round it surfaces, never to the link.
    ///
    /// `sends` classifies every sender; `outbox_of(s)` is read, in place,
    /// only for senders classified [`LaneSend::PerReceiver`].
    ///
    /// # Errors
    ///
    /// Dynamic realizations exchange rounds in order from
    /// [`Round::ZERO`] — the delay pipes advance once per round — so
    /// out-of-order rounds are rejected ([`Error::InvalidParameter`]) and a disconnected round
    /// under [`DisconnectionPolicy::Reject`] fails with
    /// [`Error::DisconnectedRound`]. Fixed-graph realizations never fail.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `active` do not cover the universe.
    // The loops below walk receiver/sender indices into several parallel
    // flat n²-strided arrays at once; iterator zips would obscure which
    // slot each counter accounts.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    // mbaa: alloc-free
    pub fn exchange_rows<'o>(
        &mut self,
        lane: &mut LaneDelivery,
        round: Round,
        sends: &[LaneSend],
        outbox_of: impl Fn(usize) -> &'o Outbox,
        active: &[bool],
        rows: &mut DeliveryRows,
        stats: &mut NetworkStats,
    ) -> Result<()> {
        let n = self.n;
        assert_eq!(sends.len(), n, "one send classification per process");
        assert_eq!(active.len(), n, "one active flag per process");
        rows.reset();
        match &mut self.kind {
            SharedKind::Complete(CompleteScratch {
                common,
                specials,
                extra,
            }) => {
                // Broadcasters feed one common buffer, sorted once; the
                // ≤ 2f per-receiver senders are kept aside.
                let mut common_len = 0;
                let mut specials_len = 0;
                for (s, &send) in sends.iter().enumerate() {
                    match send {
                        LaneSend::Broadcast(value) => {
                            common[common_len] = value;
                            common_len += 1;
                        }
                        LaneSend::Silent => {}
                        LaneSend::PerReceiver => {
                            specials[specials_len] = s;
                            specials_len += 1;
                        }
                    }
                }
                common[..common_len].sort_unstable();
                let common = &common[..common_len];
                let specials = &specials[..specials_len];

                // Closed-form traffic accounting: a broadcast delivers to
                // all n receivers, a per-receiver outbox to its Some slots,
                // and every other slot is a sender omission — the unmasked
                // complete graph has no structural drops.
                let mut delivered = (common_len * n) as u64;
                for &s in specials {
                    delivered += outbox_of(s)
                        .iter()
                        .filter(|(_, slot)| slot.is_some())
                        .count() as u64;
                }
                stats.rounds += 1;
                stats.messages_delivered += delivered;
                stats.omissions += (n * n) as u64 - delivered;

                // Each active receiver's row is the common buffer merged
                // with its special slots — the same ascending array the
                // per-row sort would produce.
                for r in 0..n {
                    if !active[r] {
                        continue;
                    }
                    let receiver = ProcessId::new(r);
                    let mut extra_len = 0;
                    for &s in specials {
                        if let Some(value) = outbox_of(s).get(receiver) {
                            extra[extra_len] = value;
                            extra_len += 1;
                        }
                    }
                    extra[..extra_len].sort_unstable();
                    let start = rows.total;
                    let len = common_len + extra_len;
                    merge_sorted(
                        common,
                        &extra[..extra_len],
                        &mut rows.merged[start..start + len],
                    );
                    rows.push_row(r, start, len);
                }
                Ok(())
            }
            SharedKind::Static(graph) => {
                stats.rounds += 1;
                for r in 0..n {
                    let receiver = ProcessId::new(r);
                    let hood = graph.closed_neighborhood(r);
                    let reachable = hood.len() as u64;
                    let mut delivered = 0u64;
                    if active[r] {
                        let start = rows.total;
                        let mut len = 0usize;
                        for &s in hood {
                            let s = s as usize;
                            if let Some(value) = sends[s].slot(&outbox_of, s, receiver) {
                                rows.merged[start + len] = value;
                                len += 1;
                            }
                        }
                        delivered = len as u64;
                        rows.sort_and_push_row(r, start, len);
                    } else {
                        for &s in hood {
                            let s = s as usize;
                            delivered +=
                                u64::from(sends[s].slot(&outbox_of, s, receiver).is_some());
                        }
                    }
                    stats.messages_delivered += delivered;
                    stats.omissions += reachable - delivered;
                    stats.unreachable += n as u64 - reachable;
                }
                Ok(())
            }
            SharedKind::Dynamic {
                graphs,
                faults,
                policy,
                max_delay,
                scratch,
            } => {
                if round.index() != lane.next_round {
                    // mbaa: allow(hot-path/allocation, cold misuse error path)
                    return Err(Error::InvalidParameter(format!(
                        "a dynamic network exchanges rounds in order: expected r{}, got {round} \
                         (delay buffers advance once per round)",
                        lane.next_round
                    )));
                }
                lane.next_round += 1;
                let seed = lane.seed;

                // Resolve the round's graph and its connectivity. Phases
                // were precomputed at build; churn redraws its mask from
                // the lane seed, the same draws `adjacency_at` makes.
                let phase: Option<&PhaseGraph> = match graphs {
                    DynGraphs::Phases(phases) => {
                        Some(&phases[(round.index() % phases.len() as u64) as usize])
                    }
                    DynGraphs::Churn { base, flip_rate } => {
                        let mask = &mut scratch.mask;
                        mask.fill(false);
                        for a in 0..n {
                            mask[a * n + a] = true;
                            for b in a + 1..n {
                                if base.connected(ProcessId::new(a), ProcessId::new(b))
                                    && !churn_link_down(seed, round.index(), a, b, *flip_rate)
                                {
                                    mask[a * n + b] = true;
                                    mask[b * n + a] = true;
                                }
                            }
                        }
                        None
                    }
                };
                let (connected, components) = match phase {
                    Some(phase) => (phase.connected, phase.components),
                    None => {
                        let components = mask_components(
                            &scratch.mask,
                            n,
                            &mut scratch.visited,
                            &mut scratch.stack,
                        );
                        (components == 1, components)
                    }
                };
                if !connected {
                    match policy {
                        DisconnectionPolicy::Reject => {
                            return Err(Error::DisconnectedRound { round, components });
                        }
                        DisconnectionPolicy::Record => stats.disconnected_rounds += 1,
                    }
                }

                if *max_delay == 0 {
                    // No link ever buffers: classify and account each slot
                    // immediately, walking only the reachable senders.
                    for r in 0..n {
                        let receiver = ProcessId::new(r);
                        let row_active = active[r];
                        let start = rows.total;
                        let mut len = 0usize;
                        let mut deliver =
                            |s: usize, rows: &mut DeliveryRows, stats: &mut NetworkStats| {
                                match sends[s].slot(&outbox_of, s, receiver) {
                                    None => stats.omissions += 1,
                                    Some(value) => {
                                        if omission_lost(
                                            seed,
                                            round.index(),
                                            s,
                                            r,
                                            faults.omit_at(s, r),
                                        ) {
                                            stats.link_omissions += 1;
                                        } else {
                                            stats.messages_delivered += 1;
                                            if row_active {
                                                rows.merged[start + len] = value;
                                                len += 1;
                                            }
                                        }
                                    }
                                }
                            };
                        match phase {
                            Some(phase) => {
                                let hood = phase.graph.closed_neighborhood(r);
                                stats.unreachable += (n - hood.len()) as u64;
                                for &s in hood {
                                    deliver(s as usize, rows, stats);
                                }
                            }
                            None => {
                                let mask_row = &scratch.mask[r * n..(r + 1) * n];
                                for (s, &reachable) in mask_row.iter().enumerate() {
                                    if reachable {
                                        deliver(s, rows, stats);
                                    } else {
                                        stats.unreachable += 1;
                                    }
                                }
                            }
                        }
                        if row_active {
                            rows.sort_and_push_row(r, start, len);
                        }
                    }
                } else {
                    // Delayed links buffer every outcome — even structural
                    // ones — so all n² slots must be visited.
                    for r in 0..n {
                        let receiver = ProcessId::new(r);
                        let row_active = active[r];
                        let start = rows.total;
                        let mut len = 0usize;
                        for s in 0..n {
                            let delay = faults.delay_at(s, r);
                            let reachable = match phase {
                                Some(phase) => {
                                    phase.adjacency.connected(ProcessId::new(s), receiver)
                                }
                                None => scratch.mask[s * n + r],
                            };
                            let sent = if !reachable {
                                SendOutcome::Unreachable
                            } else {
                                match sends[s].slot(&outbox_of, s, receiver) {
                                    None => SendOutcome::SenderOmitted,
                                    Some(value) => {
                                        if omission_lost(
                                            seed,
                                            round.index(),
                                            s,
                                            r,
                                            faults.omit_at(s, r),
                                        ) {
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
                                let pipe = &mut lane.pipes[s * n + r];
                                // mbaa: allow(hot-path/vec-growth, the pipe is popped whenever len > delay, so it holds at most delay + 1 entries after the first delay rounds)
                                pipe.push_back(sent);
                                if pipe.len() > delay {
                                    Some(pipe.pop_front().expect("pipe holds > delay entries"))
                                } else {
                                    None
                                }
                            };
                            match arrived {
                                Some(SendOutcome::Value(value)) => {
                                    stats.messages_delivered += 1;
                                    if delay > 0 {
                                        stats.link_delayed += 1;
                                    }
                                    if row_active {
                                        rows.merged[start + len] = value;
                                        len += 1;
                                    }
                                }
                                Some(SendOutcome::SenderOmitted) => stats.omissions += 1,
                                Some(SendOutcome::Unreachable) => stats.unreachable += 1,
                                Some(SendOutcome::LinkOmitted) => stats.link_omissions += 1,
                                None => stats.link_pending += 1,
                            }
                        }
                        if row_active {
                            rows.sort_and_push_row(r, start, len);
                        }
                    }
                }
                stats.rounds += 1;
                Ok(())
            }
        }
    }

    /// Records one lane's round as a [`RoundTrace`]: what every sender put
    /// on every link, which links the round's graph had, and which slots a
    /// link fault governed (an omission draw lost the message, or the link
    /// delays). Call it right after the lane's
    /// [`exchange_rows`](SharedRealization::exchange_rows) for `round`,
    /// with the same `sends`: churn reads the round's mask from the shared
    /// scratch, which the next lane's exchange overwrites.
    #[must_use]
    pub fn trace_round<'o>(
        &self,
        lane: &LaneDelivery,
        round: Round,
        sends: &[LaneSend],
        outbox_of: impl Fn(usize) -> &'o Outbox,
    ) -> RoundTrace {
        let n = self.n;
        RoundTrace::from_slots(round, n, |s, r| {
            let sent = sends[s].slot(&outbox_of, s, ProcessId::new(r));
            let (reachable, link_faulted) = match &self.kind {
                SharedKind::Complete(_) => (true, false),
                SharedKind::Static(graph) => (graph.hears(r, s), false),
                SharedKind::Dynamic {
                    graphs,
                    faults,
                    scratch,
                    ..
                } => {
                    let reachable = match graphs {
                        DynGraphs::Phases(phases) => phases
                            [(round.index() % phases.len() as u64) as usize]
                            .graph
                            .hears(r, s),
                        DynGraphs::Churn { .. } => scratch.mask[s * n + r],
                    };
                    let lost = reachable
                        && sent.is_some()
                        && omission_lost(lane.seed, round.index(), s, r, faults.omit_at(s, r));
                    (reachable, lost || faults.delay_at(s, r) > 0)
                }
            };
            TraceSlot {
                sent,
                reachable,
                link_faulted,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn values(vs: &[f64]) -> Vec<Value> {
        vs.iter().copied().map(Value::new).collect()
    }

    /// One lane of a realized network, with its traffic counters.
    struct Net {
        shared: SharedRealization,
        lane: LaneDelivery,
        stats: NetworkStats,
    }

    impl Net {
        fn new(
            n: usize,
            topology: &Topology,
            schedule: Option<&TopologySchedule>,
            plan: &LinkFaultPlan,
            policy: DisconnectionPolicy,
            seed: u64,
        ) -> Self {
            let shared = SharedRealization::build(n, topology, schedule, plan, policy, seed)
                .expect("description builds");
            let lane = shared.lane(seed);
            Net {
                shared,
                lane,
                stats: NetworkStats::new(),
            }
        }

        fn complete(n: usize) -> Self {
            Self::fixed(n, &Topology::Complete)
        }

        fn fixed(n: usize, topology: &Topology) -> Self {
            let plan = LinkFaultPlan::new();
            Self::new(n, topology, None, &plan, DisconnectionPolicy::Record, 0)
        }

        fn faulty(plan: &LinkFaultPlan, seed: u64) -> Self {
            Self::new(
                3,
                &Topology::Complete,
                None,
                plan,
                DisconnectionPolicy::Record,
                seed,
            )
        }

        /// One exchange of per-receiver outboxes: every receiver's
        /// delivered values, ascending.
        fn exchange(&mut self, round: Round, outboxes: &[Outbox]) -> Result<Vec<Vec<Value>>> {
            let n = outboxes.len();
            let mut rows = DeliveryRows::new(n);
            self.shared.exchange_rows(
                &mut self.lane,
                round,
                &vec![LaneSend::PerReceiver; n],
                |s| &outboxes[s],
                &vec![true; n],
                &mut rows,
                &mut self.stats,
            )?;
            Ok((0..n).map(|r| rows.row(r).to_vec()).collect())
        }

        /// The trace of the round just exchanged.
        fn trace(&self, round: Round, outboxes: &[Outbox]) -> RoundTrace {
            let sends = vec![LaneSend::PerReceiver; outboxes.len()];
            self.shared
                .trace_round(&self.lane, round, &sends, |s| &outboxes[s])
        }
    }

    fn broadcasts() -> Vec<Outbox> {
        (0..3)
            .map(|i| Outbox::broadcast(3, pid(i), Value::new(i as f64)))
            .collect()
    }

    fn path() -> Topology {
        Topology::Custom(Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap())
    }

    #[test]
    fn exchange_transposes_outboxes() {
        let mut net = Net::complete(3);
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
        let rows = net.exchange(Round::ZERO, &outboxes).unwrap();
        // Receiver 0 hears 0.0 from p0, 10.0 from p1, nothing from p2;
        // receiver 2 hears the asymmetric sender's third slot.
        assert_eq!(rows[0], values(&[0.0, 10.0]));
        assert_eq!(rows[2], values(&[0.0, 12.0]));
        // The trace attributes every slot to its sender.
        let trace = net.trace(Round::ZERO, &outboxes);
        assert_eq!(
            trace.observation(pid(1)).delivered_to(pid(2)),
            Some(Value::new(12.0))
        );
        assert_eq!(trace.observation(pid(2)).delivered_to(pid(0)), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Net::complete(2);
        let outboxes = vec![
            Outbox::broadcast(2, pid(0), Value::new(1.0)),
            Outbox::silent(2, pid(1)),
        ];
        net.exchange(Round::ZERO, &outboxes).unwrap();
        net.exchange(Round::new(1), &outboxes).unwrap();
        assert_eq!(net.stats.rounds, 2);
        assert_eq!(net.stats.messages_delivered, 4);
        assert_eq!(net.stats.omissions, 4);
        assert_eq!(net.stats.messages_per_round(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_process_network_panics() {
        let _ = Net::complete(0);
    }

    #[test]
    fn partial_topology_masks_non_neighbour_slots() {
        // A path 0 — 1 — 2: the ends share no link.
        let mut net = Net::fixed(3, &path());
        assert!(matches!(net.shared.kind, SharedKind::Static(_)));
        let rows = net.exchange(Round::ZERO, &broadcasts()).unwrap();
        // The middle hears everyone; the ends hear themselves and the
        // middle, never each other.
        assert_eq!(rows[1], values(&[0.0, 1.0, 2.0]));
        assert_eq!(rows[0], values(&[0.0, 1.0]));
        assert_eq!(rows[2], values(&[1.0, 2.0]));
    }

    #[test]
    fn structural_non_delivery_is_not_an_omission() {
        let mut net = Net::fixed(3, &path());
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            // A genuine omission fault, distinct from the missing 0—2 link.
            Outbox::silent(3, pid(2)),
        ];
        net.exchange(Round::ZERO, &outboxes).unwrap();
        // Reachable slots: 2 + 3 + 2 = 7. p2's silence omits to its
        // reachable audience (itself and p1); the 0—2 slots are structural.
        assert_eq!(net.stats.unreachable, 2);
        assert_eq!(net.stats.omissions, 2);
        assert_eq!(net.stats.messages_delivered, 5);
        assert_eq!(net.stats.total_slots(), 9);
    }

    #[test]
    fn complete_topology_lowers_to_the_unmasked_fast_path() {
        let mut custom = Net::fixed(3, &Topology::Custom(Adjacency::complete(3)));
        assert!(matches!(custom.shared.kind, SharedKind::Complete(_)));
        let mut plain = Net::complete(3);
        let outboxes = vec![
            Outbox::broadcast(3, pid(0), Value::new(0.5)),
            Outbox::silent(3, pid(1)),
            Outbox::broadcast(3, pid(2), Value::new(1.5)),
        ];
        let a = custom.exchange(Round::ZERO, &outboxes).unwrap();
        let b = plain.exchange(Round::ZERO, &outboxes).unwrap();
        assert_eq!(a, b);
        assert_eq!(custom.stats, plain.stats);
        assert_eq!(
            custom.trace(Round::ZERO, &outboxes),
            plain.trace(Round::ZERO, &outboxes)
        );
        assert_eq!(custom.stats.unreachable, 0);
    }

    #[test]
    fn masked_trace_flags_unreachable_receivers() {
        let mut net = Net::fixed(3, &path());
        net.exchange(Round::ZERO, &broadcasts()).unwrap();
        let trace = net.trace(Round::ZERO, &broadcasts());
        let obs = trace.observation(pid(0));
        assert!(obs.reaches(pid(1)));
        assert!(!obs.reaches(pid(2)));
        assert_eq!(obs.delivered_to(pid(2)), None);
        // A masked uniform broadcast still classifies as a broadcast, not
        // as an asymmetric fault.
        assert_eq!(
            obs.classify(Some(Value::new(0.0))),
            crate::ObservedBehavior::CorrectBroadcast
        );
    }

    #[test]
    fn clean_static_dynamics_lower_to_the_static_paths() {
        let clean = LinkFaultPlan::new();
        let complete = Net::new(
            3,
            &Topology::Complete,
            Some(&TopologySchedule::Static(Topology::Complete)),
            &clean,
            DisconnectionPolicy::Record,
            0,
        );
        assert!(matches!(complete.shared.kind, SharedKind::Complete(_)));
        let ringed = Net::new(
            5,
            &Topology::Complete,
            Some(&TopologySchedule::Static(Topology::Ring { k: 1 })),
            &clean,
            DisconnectionPolicy::Record,
            0,
        );
        assert!(matches!(ringed.shared.kind, SharedKind::Static(_)));
    }

    #[test]
    fn deterministic_link_cut_is_a_link_omission_not_an_adversary_omission() {
        let mut net = Net::faulty(&LinkFaultPlan::new().cut(0, 1), 9);
        assert!(matches!(net.shared.kind, SharedKind::Dynamic { .. }));
        let rows = net.exchange(Round::ZERO, &broadcasts()).unwrap();
        // Receiver 1 lost p0's value to the link, nothing else.
        assert_eq!(rows[1], values(&[1.0, 2.0]));
        assert_eq!(net.stats.link_omissions, 1);
        assert_eq!(net.stats.omissions, 0);
        assert_eq!(net.stats.unreachable, 0);
        assert_eq!(net.stats.messages_delivered, 8);
        assert_eq!(net.stats.total_slots(), 9);
        // The trace blames the link, so the broadcast stays correct.
        let obs = net.trace(Round::ZERO, &broadcasts()).observation(pid(0));
        assert!(obs.link_faulted(pid(1)));
        assert_eq!(
            obs.classify(Some(Value::new(0.0))),
            crate::ObservedBehavior::CorrectBroadcast
        );
    }

    #[test]
    fn delayed_link_buffers_in_order_and_accounts_separately() {
        let mut net = Net::faulty(&LinkFaultPlan::new().delay(0, 1, 2), 4);
        let send = |value: f64| {
            vec![
                Outbox::broadcast(3, pid(0), Value::new(value)),
                Outbox::broadcast(3, pid(1), Value::new(10.0)),
                Outbox::broadcast(3, pid(2), Value::new(20.0)),
            ]
        };
        // Rounds 0 and 1: the 0 -> 1 slot is still in the pipe.
        let d0 = net.exchange(Round::ZERO, &send(0.5)).unwrap();
        assert_eq!(d0[1], values(&[10.0, 20.0]));
        let d1 = net.exchange(Round::new(1), &send(1.5)).unwrap();
        assert_eq!(d1[1], values(&[10.0, 20.0]));
        assert_eq!(net.stats.link_pending, 2);
        // Round 2 delivers round 0's value; round 3 delivers round 1's —
        // in order, two rounds late.
        let d2 = net.exchange(Round::new(2), &send(2.5)).unwrap();
        assert_eq!(d2[1], values(&[0.5, 10.0, 20.0]));
        let d3 = net.exchange(Round::new(3), &send(3.5)).unwrap();
        assert_eq!(d3[1], values(&[1.5, 10.0, 20.0]));
        assert_eq!(net.stats.link_delayed, 2);
        assert_eq!(net.stats.link_pending, 2);
        assert_eq!(net.stats.omissions, 0);
        // Every other slot was unaffected.
        assert_eq!(d3[2], values(&[3.5, 10.0, 20.0]));
        // A delayed link is link-faulted in every round of the trace.
        let obs = net.trace(Round::new(3), &send(3.5)).observation(pid(0));
        assert!(obs.link_faulted(pid(1)) && !obs.link_faulted(pid(2)));
    }

    #[test]
    fn sender_omission_on_a_delayed_link_is_still_charged_to_the_sender() {
        let mut net = Net::faulty(&LinkFaultPlan::new().delay(0, 1, 1), 4);
        let silent_then_loud = vec![
            Outbox::silent(3, pid(0)),
            Outbox::broadcast(3, pid(1), Value::new(1.0)),
            Outbox::broadcast(3, pid(2), Value::new(2.0)),
        ];
        net.exchange(Round::ZERO, &silent_then_loud).unwrap();
        // Round 1 surfaces round 0's omission on the delayed link.
        net.exchange(Round::new(1), &broadcasts()).unwrap();
        // p0 omitted to itself and p2 directly in round 0 (2 omissions) and
        // to p1 through the pipe, surfacing in round 1 (1 more).
        assert_eq!(net.stats.omissions, 3);
        assert_eq!(net.stats.link_omissions, 0);
        assert_eq!(net.stats.link_pending, 1);
    }

    #[test]
    fn dynamic_rounds_must_arrive_in_order() {
        let mut net = Net::faulty(&LinkFaultPlan::new().delay(0, 1, 2), 0);
        // Starting anywhere but round 0 is rejected…
        let err = net.exchange(Round::new(3), &broadcasts()).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        // …and so is repeating or skipping a round mid-run.
        net.exchange(Round::ZERO, &broadcasts()).unwrap();
        assert!(net.exchange(Round::ZERO, &broadcasts()).is_err());
        assert!(net.exchange(Round::new(2), &broadcasts()).is_err());
        assert!(net.exchange(Round::new(1), &broadcasts()).is_ok());
    }

    #[test]
    fn non_dynamic_schedules_lower_to_the_static_paths() {
        // Frozen churn and constant periodic schedules realize the same
        // graph every round: they take the fixed kinds, agreeing with
        // RealizedSchedule::is_dynamic.
        let clean = LinkFaultPlan::new();
        let frozen = Net::new(
            5,
            &Topology::Complete,
            Some(&TopologySchedule::SeededChurn {
                base: Topology::Ring { k: 1 },
                flip_rate: 0.0,
            }),
            &clean,
            DisconnectionPolicy::Record,
            0,
        );
        assert!(matches!(frozen.shared.kind, SharedKind::Static(_)));
        let constant = Net::new(
            4,
            &Topology::Complete,
            Some(&TopologySchedule::Periodic {
                phases: vec![Topology::Complete, Topology::Complete],
            }),
            &clean,
            DisconnectionPolicy::Record,
            0,
        );
        assert!(matches!(constant.shared.kind, SharedKind::Complete(_)));
    }

    #[test]
    fn seeded_random_omissions_are_deterministic_per_seed() {
        let plan = LinkFaultPlan::new().omit_all(0.5);
        let run = |seed: u64| {
            let mut net = Net::faulty(&plan, seed);
            let rounds: Vec<Vec<Vec<Value>>> = (0..20)
                .map(|round| net.exchange(Round::new(round), &broadcasts()).unwrap())
                .collect();
            (rounds, net.stats)
        };
        let (a, stats_a) = run(7);
        let (b, stats_b) = run(7);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.link_omissions > 0, "p=0.5 never lost a message");
        assert!(stats_a.messages_delivered > 0, "p=0.5 lost everything");
        // Self-delivery is never drawn against.
        for round in &a {
            for (i, row) in round.iter().enumerate() {
                assert!(
                    row.contains(&Value::new(i as f64)),
                    "self-delivery was link-faulted"
                );
            }
        }
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds should lose different messages");
    }

    #[test]
    fn churn_disconnection_policies_record_or_reject() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 1.0,
        };
        let churned = |policy| {
            Net::new(
                3,
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                policy,
                0,
            )
        };
        let mut recording = churned(DisconnectionPolicy::Record);
        recording.exchange(Round::ZERO, &broadcasts()).unwrap();
        assert_eq!(recording.stats.disconnected_rounds, 1);
        // Only self-delivery survives a fully dark round; the rest is
        // structural.
        assert_eq!(recording.stats.messages_delivered, 3);
        assert_eq!(recording.stats.unreachable, 6);

        let err = churned(DisconnectionPolicy::Reject)
            .exchange(Round::ZERO, &broadcasts())
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedRound { components: 3, .. }
        ));
    }

    #[test]
    fn churned_round_masks_by_the_rounds_realized_graph() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.5,
        };
        let realized = schedule.realize(3, 11).unwrap();
        let mut net = Net::new(
            3,
            &Topology::Complete,
            Some(&schedule),
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            11,
        );
        for round in 0..10 {
            let round = Round::new(round);
            let graph = realized.adjacency_at(round).into_owned();
            let rows = net.exchange(round, &broadcasts()).unwrap();
            let trace = net.trace(round, &broadcasts());
            for (r, row) in rows.iter().enumerate() {
                let expected: Vec<Value> = (0..3)
                    .filter(|&s| graph.connected(pid(s), pid(r)))
                    .map(|s| Value::new(s as f64))
                    .collect();
                assert_eq!(row, &expected);
                for s in 0..3 {
                    assert_eq!(
                        trace.observation(pid(s)).reaches(pid(r)),
                        graph.connected(pid(s), pid(r))
                    );
                }
            }
        }
        assert!(net.stats.unreachable > 0, "flip 0.5 never dropped a link");
    }
}
