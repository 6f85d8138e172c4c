//! Shared-realization batch delivery: one structural network realization
//! serving many lanes (seeds) of the same configuration shape.
//!
//! The scalar [`SyncNetwork`](crate::SyncNetwork) bundles three things per
//! run: the *structure* (realized graphs, compiled link-fault matrices,
//! connectivity precomputation), the *per-seed draw streams* (churn and
//! omission draws keyed on the run seed), and the *per-run delivery state*
//! (delay pipes, round cursor, statistics). Only the first is shared across
//! the lanes of a batch — and it is by far the most expensive to build and
//! the only part that costs per-round allocations on the churn path.
//!
//! [`SharedRealization`] splits the bundle: it holds the structure once per
//! batch plus reusable round scratch, while each lane carries only a tiny
//! [`LaneDelivery`] (seed, round cursor, delay pipes when the plan needs
//! them). A lane round is served by [`SharedRealization::exchange_rows`],
//! which classifies and accounts every slot exactly as the scalar exchange
//! would — same statistics counters, same omission/churn draw streams, same
//! delay buffering — but collects each active receiver's delivered values
//! directly into packed, ascending [`DeliveryRows`] instead of an `n × n`
//! slot matrix, skipping the quadratic outbox materialization for
//! broadcasting senders via [`LaneSend`] classification.
//!
//! The realization comes in three kinds, chosen at build exactly as the
//! scalar network lowers the same description:
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
//! seed-invariant and built once per batch. Seeded churn is shared: the
//! base graph is realized once and the per-`(seed, round, link)`
//! down-draws are replayed per lane against the crate-internal draw
//! primitive, so the realized per-round graphs match the scalar path bit
//! for bit.

use std::collections::VecDeque;

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::{churn_link_down, omission_lost, RealizedKind};
use crate::network::SendOutcome;
use crate::{
    Adjacency, CompiledLinkFaults, DisconnectionPolicy, LinkFaultPlan, NetworkStats, Outbox,
    Topology, TopologySchedule,
};

/// What one sender hands to a batched exchange — the send phase in
/// classified form, so broadcasting senders never materialize `n` outbox
/// slots.
///
/// The classification must match what
/// [`Outbox`]es the scalar engine would build: `Broadcast(v)` stands for a
/// `fill_broadcast(v)` outbox (every slot `Some(v)`, self included),
/// `Silent` for a `fill_silent` one, and `PerReceiver` defers to the
/// sender's own outbox for the few genuinely per-receiver senders
/// (adversary outboxes, poisoned queues), looked up through the
/// `outbox_of` accessor passed to [`SharedRealization::exchange_rows`].
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
    fn slot<'o>(
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

/// Packed per-receiver delivery rows of one lane round: row `i` holds the
/// values delivered to the `i`-th *active* receiver in ascending order,
/// back to back in one flat buffer sized once at `n²`.
///
/// Rows are collected in receiver order. When every row has the same
/// width the engine feeds the whole flat buffer to the k-wide MSR fold in
/// one call.
#[derive(Debug)]
pub struct DeliveryRows {
    merged: Vec<Value>,
    receivers: Vec<usize>,
    offsets: Vec<usize>,
    lens: Vec<usize>,
    rows: usize,
    total: usize,
    uniform: bool,
}

impl DeliveryRows {
    /// Pre-sizes the row arena for a universe of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DeliveryRows {
            merged: vec![Value::new(0.0); n * n],
            receivers: vec![0; n],
            offsets: vec![0; n],
            lens: vec![0; n],
            rows: 0,
            total: 0,
            uniform: true,
        }
    }

    fn reset(&mut self) {
        self.rows = 0;
        self.total = 0;
        self.uniform = true;
    }

    /// Records `merged[start..start + len]` as the next row; the slice must
    /// already be ascending.
    fn push_row(&mut self, receiver: usize, start: usize, len: usize) {
        if self.rows > 0 && len != self.lens[0] {
            self.uniform = false;
        }
        self.receivers[self.rows] = receiver;
        self.offsets[self.rows] = start;
        self.lens[self.rows] = len;
        self.rows += 1;
        self.total = start + len;
    }

    /// Sorts a row collected in ascending-sender order — the same unstable
    /// sort, over the same input order, that the scalar multiset refill
    /// performs — and records it.
    fn sort_and_push_row(&mut self, receiver: usize, start: usize, len: usize) {
        self.merged[start..start + len].sort_unstable();
        self.push_row(receiver, start, len);
    }

    /// The number of active receivers collected this round.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The process index of the `row`-th active receiver.
    #[must_use]
    pub fn receiver(&self, row: usize) -> usize {
        self.receivers[row]
    }

    /// The values delivered to the `row`-th active receiver, ascending.
    #[must_use]
    pub fn row(&self, row: usize) -> &[Value] {
        &self.merged[self.offsets[row]..self.offsets[row] + self.lens[row]]
    }

    /// `Some(len)` when at least one row was collected and every row has
    /// the same width — the precondition of the k-wide MSR fold over
    /// [`DeliveryRows::flat`].
    #[must_use]
    pub fn uniform_len(&self) -> Option<usize> {
        (self.uniform && self.rows > 0).then(|| self.lens[0])
    }

    /// The packed flat buffer holding every collected row back to back.
    #[must_use]
    pub fn flat(&self) -> &[Value] {
        &self.merged[..self.total]
    }

    /// The width of the smallest collected row (the round's minimum
    /// multiset size), or `None` when no receiver was active.
    #[must_use]
    pub fn min_len(&self) -> Option<usize> {
        self.lens[..self.rows].iter().copied().min()
    }
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

impl LaneDelivery {
    /// The lane seed driving this lane's churn and omission draws.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
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
    /// the complete kind, as [`SyncNetwork::with_topology`](crate::SyncNetwork::with_topology)
    /// lowers it onto the unmasked path.
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

    /// Builds the structure for one network description under one seed,
    /// mirroring the lowering decisions of the scalar engine exactly: no
    /// schedule and a clean plan realize a fixed graph (the complete kind
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
    /// Exactly the errors the scalar engine raises when it builds the
    /// network for the same configuration and seed: a failed graph
    /// realization, or a link-fault plan that does not compile.
    pub fn build(
        n: usize,
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        link_faults: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        seed: u64,
    ) -> Result<SharedRealization> {
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
    /// non-deliveries, link omissions/delays — with the exact counter
    /// semantics of the scalar [`SyncNetwork`](crate::SyncNetwork) exchange
    /// for the same lane-seeded configuration.
    ///
    /// `sends` classifies every sender; `outbox_of(s)` is read, in place,
    /// only for senders classified [`LaneSend::PerReceiver`].
    ///
    /// # Errors
    ///
    /// Exactly as the scalar dynamic exchange: out-of-order rounds are
    /// rejected ([`Error::InvalidParameter`]) and a disconnected round
    /// under [`DisconnectionPolicy::Reject`] fails with
    /// [`Error::DisconnectedRound`]. Fixed-graph realizations never fail.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `active` do not cover the universe.
    // The loops below walk receiver/sender indices into several parallel
    // flat n²-strided arrays at once; iterator zips would obscure the
    // statement-for-statement mirror of the scalar exchange.
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
                // scalar multiset refill produces.
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
                // the lane seed, exactly the scalar draw stream.
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
                    // ones — so all n² slots must be visited, mirroring the
                    // scalar dynamic loop statement for statement.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeliveryMatrix, SyncNetwork};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A send phase with every classification: senders 0 and 2 have
    /// genuinely per-receiver outboxes (sender 0 reaches even receivers
    /// only, sender 2 sends a value that falls as the receiver index
    /// rises, so the two slots arrive in either order), sender 1 is
    /// silent, and every other sender broadcasts a value that collides
    /// with the per-receiver slots, so rows need real merging. Returns the
    /// classified sends and the equivalent scalar outboxes.
    fn mixed_send_phase(n: usize) -> (Vec<LaneSend>, Vec<Outbox>) {
        let value = |i: usize| Value::new((i % 4) as f64);
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

    /// Runs `rounds` rounds through both the scalar network and the shared
    /// realization and asserts identical per-receiver multisets (the
    /// scalar rows sorted, the shared rows as delivered) and stats.
    fn assert_matches_scalar(
        topology: &Topology,
        schedule: Option<&TopologySchedule>,
        plan: &LinkFaultPlan,
        policy: DisconnectionPolicy,
        n: usize,
        seed: u64,
        rounds: u64,
    ) {
        let mut scalar = if schedule.is_none() && plan.is_clean() {
            SyncNetwork::with_topology(topology.realize(n, seed).unwrap())
        } else {
            let desc = schedule
                .cloned()
                .unwrap_or_else(|| TopologySchedule::Static(topology.clone()));
            SyncNetwork::with_dynamics(desc.realize(n, seed).unwrap(), plan, policy, seed).unwrap()
        }
        .with_trace_recording(false);
        let mut shared = build(n, topology, schedule, plan, policy, seed);
        let mut lane = shared.lane(seed);
        let mut rows = DeliveryRows::new(n);
        let mut stats = NetworkStats::new();
        let (sends, outboxes) = mixed_send_phase(n);
        let active = vec![true; n];
        let mut deliveries = DeliveryMatrix::new(n);
        for round in 0..rounds {
            let round = Round::new(round);
            scalar
                .exchange_into(round, &outboxes, &mut deliveries)
                .unwrap();
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
            assert_eq!(rows.rows(), n);
            for row in 0..rows.rows() {
                let r = rows.receiver(row);
                let mut scalar_row: Vec<Value> =
                    deliveries.delivered_to(ProcessId::new(r)).collect();
                scalar_row.sort_unstable();
                assert_eq!(rows.row(row), &scalar_row[..], "round {round} receiver {r}");
            }
        }
        assert_eq!(stats, scalar.stats());
    }

    #[test]
    fn static_masked_delivery_matches_scalar() {
        assert_matches_scalar(
            &Topology::Ring { k: 2 },
            None,
            &LinkFaultPlan::new(),
            DisconnectionPolicy::Record,
            9,
            3,
            5,
        );
    }

    #[test]
    fn complete_delivery_matches_scalar() {
        // The plain complete graph and a ring wide enough to normalize to
        // it both take the complete kind.
        for topology in [Topology::Complete, Topology::Ring { k: 6 }] {
            assert_matches_scalar(
                &topology,
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                7,
                1,
                4,
            );
        }
    }

    #[test]
    fn churned_delivery_replays_the_lane_draw_stream() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.4,
        };
        for seed in [2, 9, 40] {
            assert_matches_scalar(
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                8,
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
        // Each seed's realization replays that seed's scalar network.
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
        let mut shared = build(
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
        let mut shared = build(
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
        for topology in [Topology::Complete, Topology::Ring { k: 1 }] {
            let mut shared = build(
                4,
                &topology,
                None,
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                0,
            );
            let mut lane = shared.lane(0);
            let mut rows = DeliveryRows::new(4);
            let mut stats = NetworkStats::new();
            let (sends, outboxes) = mixed_send_phase(4);
            let mut active = vec![true; 4];
            active[1] = false;
            shared
                .exchange_rows(
                    &mut lane,
                    Round::ZERO,
                    &sends,
                    |s| &outboxes[s],
                    &active,
                    &mut rows,
                    &mut stats,
                )
                .unwrap();
            assert_eq!(
                (0..rows.rows())
                    .map(|i| rows.receiver(i))
                    .collect::<Vec<_>>(),
                vec![0, 2, 3],
                "{topology}"
            );
            // All 16 slots are accounted regardless of who computes.
            assert_eq!(
                stats.messages_delivered + stats.omissions + stats.unreachable,
                16,
                "{topology}"
            );
        }
    }
}
