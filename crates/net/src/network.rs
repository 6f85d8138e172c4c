//! The synchronous exchange: one realized network description serving
//! every lane (seed) of a pack.
//!
//! [`SharedRealization`] is read-only structure, built once per pack
//! (realized graphs, compiled link faults, connectivity, delay classes).
//! Everything a walk writes lives in the lane's [`LaneDelivery`]: its seed,
//! which keys its churn and omission draws, its round cursor, the walk's
//! scratch (the merge's buffers, or the general walk's rank history and,
//! under churn, the lane's drawn round graph) and, when the plan delays,
//! its delay ring. Lanes of one realization may therefore exchange and
//! trace in any order.
//!
//! Every slot — what sender `s` put on its link to receiver `r` in one
//! round — is decided by one classifier: a delivered value, a *sender
//! omission* (charged to the sender), a *structural* non-delivery (no
//! `s — r` link in the round's graph; counted in
//! [`NetworkStats::unreachable`], never as an omission fault), or a *link
//! omission* (the link's seeded draw lost the message).
//! [`SharedRealization::exchange_rows`] accounts the outcomes and collects
//! the active receivers' delivered values into ascending
//! [`DeliveryRows`]; [`SharedRealization::trace_round`] records the same
//! outcomes as a [`RoundTrace`], so the trace the Table 1 mapping reads
//! cannot drift from the rows the MSR fold reads. Every non-omitted slot
//! between neighbours is delivered exactly once (*reliability*), to the
//! receiver the sender addressed (*authentication*), and nothing is
//! delivered that was not sent (*no creation*).
//!
//! The rows come from one of two walks, chosen at build:
//!
//! * **The complete-graph merge**, for the unmasked complete graph under a
//!   clean plan: the broadcast values ([`LaneSend`]) are sorted once per
//!   lane round, and a receiver's row is that buffer merged with its ≤ 2f
//!   per-receiver slots. A per-receiver [`Outbox`] is stored as runs of
//!   receivers that get the same slot, so its deliveries are counted per
//!   run (traffic is accounted in closed form), and each run boundary marks
//!   a *cut*: a receiver whose slot differs from its predecessor's bit for
//!   bit (`None` from `Some`, −0.0 from 0.0). Receivers between two cuts
//!   heard the same values, so only the first active one after a cut
//!   builds a row, which every later active receiver up to the next cut
//!   shares; it gathers its special slots with one forward run cursor per
//!   sender. An adversary that splits the receivers into a few groups, like
//!   the split attack, costs O(runs) per sender and a few rows per round,
//!   not O(n) and `n` rows.
//! * **The general receiver walk**, for everything else: partial graphs,
//!   periodic phases, seeded churn, link omissions and delays. A round's
//!   graph is an [`Adjacency`], one row of `u64` words per receiver: one
//!   per phase (a fixed graph is the one-phase case), or under churn one
//!   that [`Adjacency::churn_into`] redraws per lane round before a
//!   word-parallel search counts its components. Each receiver visits the
//!   set bits of its row in ascending order, and every other sender is
//!   unreachable; when some link delays, it visits all `n` senders, testing
//!   each one's bit, since a link of delay `d` delivers
//!   in round `t` what was sent in round `t − d`, kept in the lane's delay
//!   ring, where the link owns `d` slots. Rows come out in *rank order*:
//!   the broadcasters are sorted once per lane round into the lane's *rank
//!   history*, which keeps the sorted broadcasts of the last `H` rounds
//!   (`H − 1` the longest delay up to `RANKED_DELAYS`, 8). A broadcast
//!   travels a link of delay `d ≤ RANKED_DELAYS` as its rank in round `t`'s
//!   order, so when it arrives in round `t + d` the receiver marks that rank
//!   in an `n`-bit set of the send round, as it marks the undelayed
//!   broadcasts it hears in the set of round `t + d` itself. A row is the
//!   merge of these rank-ordered streams, at most one per distinct delay,
//!   with the receiver's other arrivals (per-receiver slots and links
//!   delayed longer), which alone are sorted per row. Each delay's ring
//!   offset and history slot are computed once per lane round.
//!
//! Rows are ascending. Values that compare equal differ in bits only as
//! −0.0 and 0.0, and they come in one fixed order: the undelayed
//! broadcasts by sender, then each delayed send round's broadcasts by
//! sender, the shortest delay first, then the other arrivals in the order
//! an unstable sort leaves them.
//!
//! A [`Topology::RandomRegular`] graph realizes differently per seed, so
//! such descriptions are built once per lane seed
//! ([`SharedRealization::realizes_per_seed`]), all others once per pack.
//! Churn replays each lane's per-`(seed, round, link)` down-draws against
//! the shared base through the draw
//! [`RealizedSchedule::adjacency_at`](crate::RealizedSchedule::adjacency_at)
//! makes, so its round graphs match that one bit for bit.

use mbaa_types::{Error, ProcessId, Result, Round, Value};

use crate::faults::{omission_lost, CompiledLinkFaults, RealizedKind};
use crate::topology::Reach;
use crate::{
    Adjacency, DeliveryRows, DisconnectionPolicy, LaneSend, LinkFaultPlan, NetworkStats, Outbox,
    RoundTrace, Topology, TopologySchedule, TraceSlot,
};

/// The longest delay whose broadcasts arrive through the rank history: a
/// lane keeps the sorted broadcasts of at most `RANKED_DELAYS + 1` rounds.
/// Broadcasts over longer links arrive as values and are sorted per row.
pub(crate) const RANKED_DELAYS: usize = 8;

/// What one slot carried: classified at send time and accounted at
/// delivery time, so the delay ring buffers the classification.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SendOutcome {
    /// A value was sent and survived the link.
    Value(Value),
    /// A broadcast that survived a link of delay `1..=RANKED_DELAYS`: its
    /// rank in the send round's order.
    Ranked(u32),
    /// The sender omitted (an adversary or benign fault).
    SenderOmitted,
    /// The pair shared no link in the send round (structural).
    Unreachable,
    /// The link's omission draw lost the message (a link fault).
    LinkOmitted,
    /// A delay-ring slot whose link's delay has not elapsed yet.
    Pending,
}

impl SendOutcome {
    /// Accounts an outcome that delivered nothing as it arrives; the walk
    /// counts the deliveries as it files them.
    #[inline(always)]
    fn account(self, stats: &mut NetworkStats) {
        match self {
            SendOutcome::Value(_) | SendOutcome::Ranked(_) => {}
            SendOutcome::SenderOmitted => stats.omissions += 1,
            SendOutcome::Unreachable => stats.unreachable += 1,
            SendOutcome::LinkOmitted => stats.link_omissions += 1,
            SendOutcome::Pending => stats.link_pending += 1,
        }
    }
}

/// The per-lane slice of an exchange: everything keyed on the lane seed,
/// advancing per lane round, or written by a walk. Created by
/// [`SharedRealization::lane`], sized for that realization's walk.
#[derive(Debug)]
pub struct LaneDelivery {
    seed: u64,
    /// The round the next exchange must carry (unless the graph is fixed).
    next_round: u64,
    /// The delay ring: a link of delay `d` owns `d` slots, slot `t % d` holding
    /// what it carried in round `t`; empty unless the plan delays.
    ring: Vec<SendOutcome>,
    /// This lane round's ring offset `t % d` of each delay class.
    offsets: Vec<u32>,
    /// This lane round's heard set for each ranked delay class: the word of
    /// [`RankScratch`]'s `heard` where the set of rank-history slot
    /// `(t − d) mod H` starts.
    sets: Vec<u32>,
    /// The complete-graph merge's scratch; empty for the general walk.
    merge: MergeScratch,
    /// The general walk's scratch and rank history; empty for the merge.
    ranks: RankScratch,
    /// Under churn, the graph the lane's latest exchange drew and the
    /// search that counts its components.
    churn: Option<(Adjacency, Reach)>,
}

/// The scratch of the complete-graph merge: the sorted broadcast values,
/// the per-receiver senders with a run cursor each, one receiver's slots
/// from them, and the receivers whose slots differ from their
/// predecessor's.
#[derive(Debug)]
struct MergeScratch {
    common: Vec<Value>,
    specials: Vec<usize>,
    cursors: Vec<usize>,
    extra: Vec<Value>,
    cuts: Vec<bool>,
}

impl MergeScratch {
    fn new(n: usize) -> Self {
        MergeScratch {
            common: vec![Value::new(0.0); n],
            specials: vec![0; n],
            cursors: vec![0; n],
            extra: vec![Value::new(0.0); n],
            cuts: vec![false; n],
        }
    }

    /// The complete-graph merge walk (see the module documentation).
    // mbaa: alloc-free
    fn walk<'o>(
        &mut self,
        sends: &[LaneSend],
        outbox_of: &impl Fn(usize) -> &'o Outbox,
        active: &[bool],
        rows: &mut DeliveryRows,
        stats: &mut NetworkStats,
    ) {
        let n = sends.len();
        // Broadcasters feed one common buffer, sorted once; the ≤ 2f
        // per-receiver senders are kept aside.
        let mut common_len = 0;
        let mut specials_len = 0;
        for (s, &send) in sends.iter().enumerate() {
            match send {
                LaneSend::Broadcast(value) => {
                    self.common[common_len] = value;
                    common_len += 1;
                }
                LaneSend::Silent => {}
                LaneSend::PerReceiver => {
                    self.specials[specials_len] = s;
                    specials_len += 1;
                }
            }
        }
        self.common[..common_len].sort_unstable();
        let common = &self.common[..common_len];
        let specials = &self.specials[..specials_len];

        // Each per-receiver outbox's runs count its Some slots and cut
        // before every receiver whose slot differs, bit for bit, from its
        // predecessor's: a run boundary. Traffic is accounted in closed
        // form: a broadcast delivers to all n receivers, a per-receiver
        // outbox to its Some slots, and every other slot is a sender
        // omission — the unmasked complete graph has no structural drops.
        let cuts = &mut self.cuts[..n];
        cuts.fill(false);
        let mut delivered = (common_len * n) as u64;
        for &s in specials {
            for (receivers, value) in outbox_of(s).runs() {
                if value.is_some() {
                    delivered += receivers.len() as u64;
                }
                cuts[receivers.start] = true;
            }
        }
        stats.rounds += 1;
        stats.messages_delivered += delivered;
        stats.omissions += (n * n) as u64 - delivered;

        // Between cuts every receiver hears the same values, so only the
        // first active receiver after a cut builds a row: the common buffer
        // merged with its special slots, the same ascending array a per-row
        // sort would produce. Later active receivers join that row. Rows
        // are built in ascending receiver order, so each special's run
        // cursor only moves forward.
        let cursors = &mut self.cursors[..specials_len];
        cursors.fill(0);
        let mut built = false;
        for (r, &on) in active.iter().enumerate() {
            built &= !cuts[r];
            if !on {
                continue;
            }
            if built {
                rows.extend_row(r);
                continue;
            }
            let mut extra_len = 0;
            for (&s, cursor) in specials.iter().zip(cursors.iter_mut()) {
                let runs = outbox_of(s).run_slice();
                while runs[*cursor].end <= r {
                    *cursor += 1;
                }
                if let Some(value) = runs[*cursor].value {
                    self.extra[extra_len] = value;
                    extra_len += 1;
                }
            }
            self.extra[..extra_len].sort_unstable();
            let start = rows.total;
            let len = common_len + extra_len;
            merge_sorted(
                common,
                &self.extra[..extra_len],
                &mut rows.merged[start..start + len],
            );
            rows.push_row(r, start, len);
            built = true;
        }
    }
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

/// The scratch of the general walk: the lane round's broadcasters in
/// ascending `order`, each one's `rank` there, the lane's rank `history`,
/// and one receiver's arrivals — the ranks it `heard`, one `n`-bit set per
/// rank-history slot, and its `extra` (per-receiver or long-delayed)
/// values, which alone are sorted.
#[derive(Debug)]
struct RankScratch {
    order: Vec<(u128, Value)>,
    rank: Vec<u32>,
    /// The rank history's length `H`: the longest ranked delay plus one.
    depth: usize,
    /// The lane round's rank-history slot.
    now: usize,
    /// `H` slots of `n` values, slot `t % H` holding round `t`'s broadcast
    /// values in rank order.
    history: Vec<Value>,
    /// 64-bit words per heard set.
    words: usize,
    heard: Vec<u64>,
    extra: Vec<Value>,
    extra_len: usize,
    /// One delayed stream's values, gathered before it is merged in.
    stream: Vec<Value>,
}

impl RankScratch {
    fn new(n: usize, depth: usize) -> Self {
        let words = n.div_ceil(64);
        RankScratch {
            order: vec![(0, Value::new(0.0)); n],
            rank: vec![0; n],
            depth,
            now: 0,
            history: vec![Value::new(0.0); depth * n],
            words,
            heard: vec![0; depth * words],
            extra: vec![Value::new(0.0); n],
            extra_len: 0,
            stream: vec![Value::new(0.0); n],
        }
    }

    /// Sorts lane round `t`'s broadcasters once by `bits << 32 | sender`, where `bits` orders like
    /// the value (−0.0 folded into 0.0, so equal values go by sender), records their ranks, and
    /// writes their values in rank order into the round's slot of the rank `history`.
    // mbaa: alloc-free
    fn rank(&mut self, sends: &[LaneSend], t: usize) {
        let n = sends.len();
        self.now = t % self.depth;
        let sorted = &mut self.history[self.now * n..(self.now + 1) * n];
        let mut len = 0;
        for (s, &send) in sends.iter().enumerate() {
            if let LaneSend::Broadcast(value) = send {
                let bits = (value.get() + 0.0).to_bits();
                let bits = bits ^ ((bits as i64 >> 63) as u64 | 1 << 63);
                self.order[len] = (u128::from(bits) << 32 | s as u128, value);
                len += 1;
            }
        }
        self.order[..len].sort_unstable_by_key(|&(key, _)| key);
        for (k, &(key, value)) in self.order[..len].iter().enumerate() {
            self.rank[key as u32 as usize] = k as u32;
            sorted[k] = value;
        }
    }

    /// Marks rank `k` of a send round as heard, in that round's set, which
    /// starts at word `set`.
    #[inline(always)]
    fn hear(&mut self, set: usize, k: u32) {
        let k = k as usize;
        self.heard[set + k / 64] |= 1 << (k % 64);
    }

    /// Adds an arrival that is not filed by rank.
    #[inline(always)]
    fn add_extra(&mut self, value: Value) {
        self.extra[self.extra_len] = value;
        self.extra_len += 1;
    }

    /// Forgets one receiver's arrivals.
    fn clear(&mut self) {
        self.extra_len = 0;
        self.heard.fill(0);
    }

    /// Emits the row into `out` and forgets the arrivals: the heard streams
    /// of the rank `history`, one per send round, merged with the
    /// sorted extras. Equal values come in stream order, the lane round's
    /// stream first, then ever older send rounds, then the extras (see the
    /// module documentation). The fullest stream is gathered first and the
    /// others merged into it; the extras merge into it as it is gathered
    /// unless an older stream follows it. Returns the row's length.
    // mbaa: alloc-free
    fn emit(&mut self, out: &mut [Value]) -> usize {
        let extra = &mut self.extra[..std::mem::take(&mut self.extra_len)];
        extra.sort_unstable();
        let history = &self.history;
        if self.depth == 1 {
            // The lane round's stream is the only one: skip choosing a base
            // among streams, which costs small undelayed rows several percent.
            return gather(&mut self.heard, history, extra, out);
        }
        let (n, words, depth) = (self.rank.len(), self.words, self.depth);
        // Stream `d` (0 for the lane round, `d` for `d` rounds earlier)
        // lives in rank-history slot `(now − d) mod H`.
        let slot = |d: usize| {
            let slot = self.now + depth - d;
            if slot >= depth {
                slot - depth
            } else {
                slot
            }
        };
        // The base is the fullest stream.
        let (mut base, mut fullest, mut oldest) = (0, 0, 0);
        for d in 0..depth {
            let set = slot(d) * words;
            let heard: u32 = self.heard[set..set + words]
                .iter()
                .map(|word| word.count_ones())
                .sum();
            if heard > fullest {
                (base, fullest) = (d, heard);
            }
            if heard > 0 {
                oldest = d;
            }
        }
        let (with_base, at_end) = if oldest > base {
            (&[][..], &extra[..])
        } else {
            (&extra[..], &[][..])
        };
        let (set, values) = (slot(base) * words, slot(base) * n);
        let heard = &mut self.heard[set..set + words];
        let mut len = gather(heard, &history[values..values + n], with_base, out);
        // Each older stream (`d > base`), and then the extras, goes behind
        // the equal values in the row so far; each more recent one, from
        // `base − 1` down to the lane round's, ahead of them.
        for d in (base + 1..oldest + 1).chain((0..base).rev()) {
            let (set, values) = (slot(d) * words, slot(d) * n);
            let heard = &mut self.heard[set..set + words];
            let added = gather(heard, &history[values..values + n], &[], &mut self.stream);
            merge_tail(out, len, &self.stream[..added], d < base);
            len += added;
        }
        merge_tail(out, len, at_end, false);
        len + at_end.len()
    }
}

/// Writes the values whose ranks `heard` marks into `out` in rank order,
/// merged with the ascending `extra`, each behind the values equal to it;
/// clears `heard` and returns the length written.
// mbaa: alloc-free
#[inline(always)]
fn gather(heard: &mut [u64], values: &[Value], extra: &[Value], out: &mut [Value]) -> usize {
    let (mut h, mut j) = (0, 0);
    for (w, word) in heard.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let value = values[w * 64 + bits.trailing_zeros() as usize];
            bits &= bits - 1;
            while j < extra.len() && extra[j] < value {
                out[h + j] = extra[j];
                j += 1;
            }
            out[h + j] = value;
            h += 1;
        }
    }
    out[h + j..h + extra.len()].copy_from_slice(&extra[j..]);
    h + extra.len()
}

/// Merges the ascending `add` into the ascending `out[..len]`, so that
/// `out[..len + add.len()]` ascends with the added values `ahead` of the
/// equal values already there, or else behind them. It works from the
/// back: each added value finds its place by binary search, and the values
/// above it move up as one block, so a few values merge into a long row in
/// a few block moves.
// mbaa: alloc-free
fn merge_tail(out: &mut [Value], len: usize, add: &[Value], ahead: bool) {
    let mut end = len;
    for (j, &value) in add.iter().enumerate().rev() {
        let at = out[..end].partition_point(|&v| v < value || (!ahead && v == value));
        out.copy_within(at..end, at + j + 1);
        out[at + j] = value;
        end = at;
    }
}

/// A delaying plan's links grouped by distinct delay, with the lane ring's
/// layout. Each delay's ring offset and rank-history slot are taken once
/// per lane round rather than divided out per slot.
#[derive(Debug)]
struct DelayRing {
    /// Where each link's ring slots start, receiver-major, then the ring's
    /// length ([`CompiledLinkFaults::delay_ring`]).
    at: Vec<u32>,
    /// `class[r * n + s]`: the index in `delays` of link `s → r`'s delay.
    class: Vec<u16>,
    /// The distinct delays, ascending; `delays[0] == 0`, the self-links'.
    delays: Vec<usize>,
    /// The classes below `ranked` (delays up to `RANKED_DELAYS`) arrive
    /// through the rank history.
    ranked: usize,
}

impl DelayRing {
    /// The layout of `faults` over `n` processes, or `None` when no link
    /// delays.
    fn new(faults: &CompiledLinkFaults, n: usize) -> Option<DelayRing> {
        let at = faults.delay_ring();
        if at.is_empty() {
            return None;
        }
        // Receiver-major, like the ring. Self-links never delay, so 0 is
        // among the delays.
        let link_delays = || (0..n).flat_map(|r| (0..n).map(move |s| faults.delay_at(s, r)));
        let mut delays = vec![0];
        let mut last = 0;
        for d in link_delays() {
            if d != last {
                if let Err(i) = delays.binary_search(&d) {
                    delays.insert(i, d);
                }
                last = d;
            }
        }
        // The 2^24 ring limit admits fewer than 6000 distinct delays.
        let class_of = |d: usize| delays.binary_search(&d).expect("listed above") as u16;
        let mut last = (0, 0);
        let class = link_delays()
            .map(|d| {
                if d != last.0 {
                    last = (d, class_of(d));
                }
                last.1
            })
            .collect();
        let ranked = delays.partition_point(|&d| d <= RANKED_DELAYS);
        Some(DelayRing {
            at,
            class,
            delays,
            ranked,
        })
    }

    /// The rank history's length `H`: the longest ranked delay plus one.
    fn depth(&self) -> usize {
        self.delays[self.ranked - 1] + 1
    }

    /// Writes each class's ring offset and heard set for lane round `t`
    /// into a lane's `offsets` and `sets`, heard sets being `words` long.
    // mbaa: alloc-free
    fn advance(&self, t: usize, depth: usize, words: usize, offsets: &mut [u32], sets: &mut [u32]) {
        for (offset, &d) in offsets.iter_mut().zip(&self.delays).skip(1) {
            *offset = (t % d) as u32;
        }
        for (set, &d) in sets.iter_mut().zip(&self.delays) {
            *set = ((t + depth - d) % depth * words) as u32;
        }
    }
}

/// The round graphs of a realization, which also pick its walk.
#[derive(Debug)]
enum Graphs {
    /// The unmasked complete graph under a clean plan: the merge walk.
    Complete,
    /// Round `r` uses `phases[r % phases.len()]`, each with its component
    /// count; a fixed graph is the one-phase case.
    Phases(Vec<(Adjacency, usize)>),
    /// Seeded churn over a shared base, which each lane redraws per lane
    /// round and searches for its components.
    Churn { base: Adjacency, flip_rate: f64 },
}

/// The phase, graph and component count, that `round` uses.
fn phase_at(phases: &[(Adjacency, usize)], round: Round) -> &(Adjacency, usize) {
    &phases[(round.index() % phases.len() as u64) as usize]
}

/// One lane round as the slot classifier sees it.
struct Slots<'a, F> {
    seed: u64,
    round: u64,
    faults: Option<&'a CompiledLinkFaults>,
    sends: &'a [LaneSend],
    outbox_of: &'a F,
}

// Left to the inliner, the classifier stayed an out-of-line call per slot
// in the walk, costing fixed-graph runs about 10%: hence `inline(always)`.
impl<'o, F: Fn(usize) -> &'o Outbox> Slots<'_, F> {
    /// What sender `s` put on its link to receiver `r` this round, if the
    /// round's graph links them.
    #[inline(always)]
    fn classify(&self, s: usize, r: usize) -> SendOutcome {
        let Some(value) = self.sends[s].slot(self.outbox_of, s, ProcessId::new(r)) else {
            return SendOutcome::SenderOmitted;
        };
        match self.faults {
            Some(faults) if omission_lost(self.seed, self.round, s, r, faults.omit_at(s, r)) => {
                SendOutcome::LinkOmitted
            }
            _ => SendOutcome::Value(value),
        }
    }

    fn delay(&self, s: usize, r: usize) -> usize {
        self.faults.map_or(0, |faults| faults.delay_at(s, r))
    }
}

/// The seed-invariant structure of one network description — or, for a
/// description that [realizes per seed](SharedRealization::realizes_per_seed),
/// the structure of one lane seed — realized once and shared, read-only, by
/// every lane of its group.
#[derive(Debug)]
pub struct SharedRealization {
    n: usize,
    graphs: Graphs,
    /// The compiled link faults; `None` for a clean plan, which draws no
    /// omissions.
    faults: Option<CompiledLinkFaults>,
    policy: DisconnectionPolicy,
    /// A lane's delay-ring layout; `None` when nothing delays, which walks
    /// only in-neighbourhoods.
    ring: Option<DelayRing>,
}

/// Seed-dependence of a topology description: only
/// [`Topology::RandomRegular`] realizes to a different graph per seed.
fn topology_per_seed(topology: &Topology) -> bool {
    matches!(topology, Topology::RandomRegular { .. })
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
    /// its schedule (or static `topology`) realized, its plan compiled. A
    /// schedule whose round graphs cannot differ (frozen churn, identical
    /// phases) lowers onto one fixed graph, and the complete graph under a
    /// clean plan onto the merge walk. The seed matters only for
    /// descriptions that [realize per seed](SharedRealization::realizes_per_seed);
    /// churn and omission draws key on each lane's own seed.
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
        let realized = match schedule {
            Some(schedule) => schedule.realize(n, seed)?,
            None => TopologySchedule::Static(topology.clone()).realize(n, seed)?,
        };
        let faults = if link_faults.is_clean() {
            None
        } else {
            Some(link_faults.compile(n)?).filter(|faults| !faults.is_clean())
        };
        let graphs = match realized.kind() {
            RealizedKind::Periodic(phases) if realized.is_dynamic() => Graphs::Phases(
                phases
                    .iter()
                    .map(|phase| (phase.clone(), phase.component_count()))
                    .collect(),
            ),
            RealizedKind::Churn { base, flip_rate } if realized.is_dynamic() => Graphs::Churn {
                base: base.clone(),
                flip_rate: *flip_rate,
            },
            _ => {
                let graph = realized.adjacency_at(Round::ZERO);
                if faults.is_none() && graph.is_complete() {
                    Graphs::Complete
                } else {
                    let components = graph.component_count();
                    Graphs::Phases(vec![(graph.into_owned(), components)])
                }
            }
        };
        let ring = faults.as_ref().and_then(|faults| DelayRing::new(faults, n));
        Ok(SharedRealization {
            n,
            graphs,
            faults,
            policy,
            ring,
        })
    }

    /// Creates the per-lane delivery state for one lane seed, with the
    /// scratch of this realization's walk.
    #[must_use]
    pub fn lane(&self, seed: u64) -> LaneDelivery {
        let n = self.n;
        let (merged, walked) = match self.graphs {
            Graphs::Complete => (n, 0),
            _ => (0, n),
        };
        let ring = self.ring.as_ref();
        LaneDelivery {
            seed,
            next_round: 0,
            ring: vec![SendOutcome::Pending; ring.map_or(0, |ring| ring.at[n * n]) as usize],
            offsets: vec![0; ring.map_or(0, |ring| ring.delays.len())],
            sets: vec![0; ring.map_or(0, |ring| ring.ranked)],
            merge: MergeScratch::new(merged),
            ranks: RankScratch::new(walked, ring.map_or(1, DelayRing::depth)),
            churn: match &self.graphs {
                Graphs::Churn { base, .. } => Some((base.clone(), Reach::new(n))),
                _ => None,
            },
        }
    }

    /// Whether every round exchanges the same graph under a clean plan:
    /// such a realization keeps no round cursor and never fails.
    fn is_fixed(&self) -> bool {
        self.faults.is_none()
            && match &self.graphs {
                Graphs::Complete => true,
                Graphs::Phases(phases) => phases.len() == 1,
                Graphs::Churn { .. } => false,
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
    /// Realizations with per-round graphs or link faults take rounds in
    /// order from [`Round::ZERO`] and reject others
    /// ([`Error::InvalidParameter`]); under [`DisconnectionPolicy::Reject`]
    /// they fail a disconnected round with [`Error::DisconnectedRound`]. A
    /// fixed graph under a clean plan never fails.
    ///
    /// # Panics
    ///
    /// Panics if `sends` or `active` do not cover the universe.
    #[allow(clippy::too_many_arguments)]
    // mbaa: alloc-free
    pub fn exchange_rows<'o>(
        &self,
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
        let fixed = self.is_fixed();
        if !fixed {
            if round.index() != lane.next_round {
                // mbaa: allow(hot-path/allocation, cold misuse error path)
                return Err(Error::InvalidParameter(format!(
                    "a dynamic network exchanges rounds in order: expected r{}, got {round} \
                     (delay buffers advance once per round)",
                    lane.next_round
                )));
            }
            lane.next_round += 1;
        }
        let LaneDelivery {
            seed,
            ring: pipe,
            offsets,
            sets,
            merge,
            ranks,
            churn,
            ..
        } = lane;
        let (graph, components) = match &self.graphs {
            Graphs::Complete => {
                merge.walk(sends, &outbox_of, active, rows, stats);
                return Ok(());
            }
            Graphs::Phases(phases) => {
                let (graph, components) = phase_at(phases, round);
                (graph, *components)
            }
            Graphs::Churn { base, flip_rate } => {
                let (drawn, reach) = churn.as_mut().expect("a churn lane draws its graphs");
                // The draws `RealizedSchedule::adjacency_at` makes.
                base.churn_into(*seed, round.index(), *flip_rate, drawn);
                let components = reach.components(drawn);
                (&*drawn, components)
            }
        };
        if !fixed && components != 1 {
            match self.policy {
                DisconnectionPolicy::Reject => {
                    return Err(Error::DisconnectedRound { round, components });
                }
                DisconnectionPolicy::Record => stats.disconnected_rounds += 1,
            }
        }
        stats.rounds += 1;

        // The general walk, in rank order (see the module documentation).
        // The round's counts stay in a local tally until the walk ends.
        let t = round.index() as usize;
        let mut tally = NetworkStats::new();
        let slots = Slots {
            seed: *seed,
            round: round.index(),
            faults: self.faults.as_ref().filter(|faults| faults.omits()),
            sends,
            outbox_of: &outbox_of,
        };
        ranks.rank(sends, t);
        if let Some(ring) = &self.ring {
            ring.advance(t, ranks.depth, ranks.words, offsets, sets);
        }
        // Files an undelayed arrival: a broadcast by its rank, any other
        // value as extra.
        let now_set = ranks.now * ranks.words;
        let arrive = |ranks: &mut RankScratch, s: usize, value: Value| match sends[s] {
            LaneSend::Broadcast(_) => ranks.hear(now_set, ranks.rank[s]),
            _ => ranks.add_extra(value),
        };
        for (r, &row_active) in active.iter().enumerate() {
            match &self.ring {
                None => {
                    // No delay ring: only the in-neighbourhood can deliver,
                    // and the senders outside it are unreachable. The words
                    // are walked by hand: through an iterator, sparse rings
                    // ran about 20% slower.
                    tally.unreachable += n as u64;
                    for (w, &word) in graph.row_words(r).iter().enumerate() {
                        let mut bits = word;
                        while bits != 0 {
                            let s = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            tally.unreachable -= 1;
                            match slots.classify(s, r) {
                                SendOutcome::Value(value) => {
                                    tally.messages_delivered += 1;
                                    arrive(ranks, s, value);
                                }
                                lost => lost.account(&mut tally),
                            }
                        }
                    }
                }
                Some(ring) => {
                    // The delay ring buffers every outcome, so visit all n
                    // senders, testing each one's bit in the receiver's row.
                    let (row, mut bits) = (graph.row_words(r), 0);
                    let (classes, ats) = (&ring.class[r * n..], &ring.at[r * n..(r + 1) * n]);
                    for (s, (&class, &at)) in classes.iter().zip(ats).enumerate() {
                        let class = class as usize;
                        if s % 64 == 0 {
                            bits = row[s / 64];
                        }
                        let linked = bits & 1 != 0;
                        bits >>= 1;
                        let mut sent = if linked {
                            slots.classify(s, r)
                        } else {
                            SendOutcome::Unreachable
                        };
                        // A broadcast over a ranked link travels as its rank.
                        if class < ring.ranked
                            && matches!(sent, SendOutcome::Value(_))
                            && matches!(sends[s], LaneSend::Broadcast(_))
                        {
                            sent = SendOutcome::Ranked(ranks.rank[s]);
                        }
                        let arrived = if class == 0 {
                            sent
                        } else {
                            // The link's slot for round t holds round t − delay's
                            // outcome (pending before round `delay`) until now.
                            let at = (at + offsets[class]) as usize;
                            std::mem::replace(&mut pipe[at], sent)
                        };
                        match arrived {
                            SendOutcome::Ranked(k) => ranks.hear(sets[class] as usize, k),
                            SendOutcome::Value(value) => ranks.add_extra(value),
                            lost => {
                                lost.account(&mut tally);
                                continue;
                            }
                        }
                        tally.messages_delivered += 1;
                        tally.link_delayed += u64::from(class > 0);
                    }
                }
            }
            if row_active {
                let start = rows.total;
                let len = ranks.emit(&mut rows.merged[start..]);
                rows.push_row(r, start, len);
            } else {
                ranks.clear();
            }
        }
        stats.merge(&tally);
        Ok(())
    }

    /// Records one lane's round as a [`RoundTrace`] through the classifier
    /// [`exchange_rows`](SharedRealization::exchange_rows) uses: what every
    /// sender put on every link, which links the round's graph had, and
    /// which slots a link fault governed (lost or delayed). Call it after
    /// the lane's exchange for `round` and before its next one, with the
    /// same `sends`: under churn it reads the graph that exchange drew into
    /// the lane, whatever other lanes exchanged since.
    #[must_use]
    pub fn trace_round<'o>(
        &self,
        lane: &LaneDelivery,
        round: Round,
        sends: &[LaneSend],
        outbox_of: impl Fn(usize) -> &'o Outbox,
    ) -> RoundTrace {
        let slots = Slots {
            seed: lane.seed,
            round: round.index(),
            faults: self.faults.as_ref(),
            sends,
            outbox_of: &outbox_of,
        };
        let graph = match &self.graphs {
            Graphs::Complete => None,
            Graphs::Phases(phases) => Some(&phase_at(phases, round).0),
            Graphs::Churn { .. } => lane.churn.as_ref().map(|(drawn, _)| drawn),
        };
        RoundTrace::from_slots(round, self.n, |s, r| {
            let outcome = match graph {
                Some(graph) if !graph.connected(ProcessId::new(r), ProcessId::new(s)) => {
                    SendOutcome::Unreachable
                }
                _ => slots.classify(s, r),
            };
            TraceSlot {
                sent: match outcome {
                    SendOutcome::Value(value) => Some(value),
                    _ => None,
                },
                reachable: outcome != SendOutcome::Unreachable,
                link_faulted: outcome == SendOutcome::LinkOmitted || slots.delay(s, r) > 0,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::churn_link_down;

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
            let active = vec![true; n];
            self.shared.exchange_rows(
                &mut self.lane,
                round,
                &vec![LaneSend::PerReceiver; n],
                |s| &outboxes[s],
                &active,
                &mut rows,
                &mut self.stats,
            )?;
            Ok(rows
                .by_receiver(&active)
                .into_iter()
                .map(|row| row.expect("every receiver is active").to_vec())
                .collect())
        }

        /// The trace of the round just exchanged.
        fn trace(&self, round: Round, outboxes: &[Outbox]) -> RoundTrace {
            let sends = vec![LaneSend::PerReceiver; outboxes.len()];
            self.shared
                .trace_round(&self.lane, round, &sends, |s| &outboxes[s])
        }
    }

    /// Whether the realization takes the complete-graph merge.
    fn merges(shared: &SharedRealization) -> bool {
        matches!(shared.graphs, Graphs::Complete)
    }

    /// Whether the realization walks one fixed partial graph under a
    /// clean plan.
    fn walks_fixed_graph(shared: &SharedRealization) -> bool {
        shared.is_fixed() && matches!(&shared.graphs, Graphs::Phases(phases) if phases.len() == 1)
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
        assert!(walks_fixed_graph(&net.shared));
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
        assert!(merges(&custom.shared));
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
        assert!(merges(&complete.shared));
        let ringed = Net::new(
            5,
            &Topology::Complete,
            Some(&TopologySchedule::Static(Topology::Ring { k: 1 })),
            &clean,
            DisconnectionPolicy::Record,
            0,
        );
        assert!(walks_fixed_graph(&ringed.shared));
    }

    #[test]
    fn deterministic_link_cut_is_a_link_omission_not_an_adversary_omission() {
        let mut net = Net::faulty(&LinkFaultPlan::new().cut(0, 1), 9);
        // The general walk over the complete graph, drawing link omissions.
        assert!(net.shared.faults.is_some() && !merges(&net.shared));
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
    fn the_delay_ring_holds_only_the_delayed_links_slots() {
        let ring_len = |plan: &LinkFaultPlan, n| {
            let net = Net::new(
                n,
                &Topology::Complete,
                None,
                plan,
                DisconnectionPolicy::Record,
                0,
            );
            net.lane.ring.len()
        };
        // One slow link costs its own delay, however large the universe.
        assert_eq!(ring_len(&LinkFaultPlan::new().delay(0, 1, 1000), 256), 1000);
        let all_but_one = LinkFaultPlan::new().delay_all(1).delay(0, 1, 1000);
        assert_eq!(ring_len(&all_but_one, 256), 256 * 255 - 1 + 1000);
        assert_eq!(ring_len(&LinkFaultPlan::new().omit_all(0.5), 256), 0);
    }

    /// The signs of receiver 0's row after `rounds` rounds over `plan` at
    /// n = 5, where p0–p3 broadcast zeros, negative as `negative` says, and
    /// p4 sends every receiver −0.0 in a per-receiver slot.
    fn zero_row_signs(plan: &LinkFaultPlan, negative: [bool; 4], rounds: u64) -> Vec<bool> {
        let mut net = Net::new(
            5,
            &Topology::Complete,
            None,
            plan,
            DisconnectionPolicy::Record,
            0,
        );
        let zero = |negative: bool| Value::new(if negative { -0.0 } else { 0.0 });
        let sends: Vec<LaneSend> = negative
            .into_iter()
            .map(|negative| LaneSend::Broadcast(zero(negative)))
            .chain([LaneSend::PerReceiver])
            .collect();
        let special = Outbox::broadcast(5, pid(4), zero(true));
        let active = [true; 5];
        let mut rows = DeliveryRows::new(5);
        for round in 0..rounds {
            net.shared
                .exchange_rows(
                    &mut net.lane,
                    Round::new(round),
                    &sends,
                    |_| &special,
                    &active,
                    &mut rows,
                    &mut net.stats,
                )
                .unwrap();
        }
        rows.by_receiver(&active)[0]
            .unwrap()
            .iter()
            .map(|value| value.get().is_sign_negative())
            .collect()
    }

    #[test]
    fn equal_values_keep_the_documented_tie_order() {
        // By stream, shortest delay first, each by sender; extras last.
        // Receiver 0 hears undelayed broadcasts from itself (0.0) and p3
        // (−0.0), p1's broadcast (−0.0) one round late, p2's (0.0) two
        // rounds late, and p4's per-receiver −0.0 on time. The undelayed
        // stream is the fullest, so the delayed ones merge in behind it.
        let plan = LinkFaultPlan::new().delay(1, 0, 1).delay(2, 0, 2);
        let signs = zero_row_signs(&plan, [false, true, false, true], 3);
        assert_eq!(signs, [false, true, true, false, true]);
        // Every other link one round late: receiver 0 hears itself (−0.0)
        // on time and p1–p3 (0.0, −0.0, 0.0) and p4's −0.0 a round late.
        // The delayed stream is the fullest, so the undelayed one merges in
        // ahead of it.
        let plan = LinkFaultPlan::new().delay_all(1);
        let signs = zero_row_signs(&plan, [true, false, true, false], 2);
        assert_eq!(signs, [true, false, true, false, true]);
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
        // graph every round: they lower to one fixed graph, agreeing with
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
        assert!(walks_fixed_graph(&frozen.shared));
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
        assert!(merges(&constant.shared));
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
        // Word boundaries on both sides; n = 3 falls apart most rounds.
        for n in [3usize, 64, 65, 129] {
            let mut net = Net::new(
                n,
                &Topology::Complete,
                Some(&schedule),
                &LinkFaultPlan::new(),
                DisconnectionPolicy::Record,
                11,
            );
            let outboxes: Vec<Outbox> = (0..n)
                .map(|i| Outbox::broadcast(n, pid(i), Value::new(i as f64)))
                .collect();
            let mut disconnected = 0;
            for round in 0..10 {
                // The round's links, pair by pair from the churn draw itself.
                let linked = |a: usize, b: usize| {
                    a == b || !churn_link_down(11, round, a.min(b), a.max(b), 0.5)
                };
                let round = Round::new(round);
                let rows = net.exchange(round, &outboxes).unwrap();
                let trace = net.trace(round, &outboxes);
                for (r, row) in rows.iter().enumerate() {
                    let expected: Vec<Value> = (0..n)
                        .filter(|&s| linked(s, r))
                        .map(|s| Value::new(s as f64))
                        .collect();
                    assert_eq!(row, &expected, "n={n} {round} receiver {r}");
                    for s in 0..n {
                        assert_eq!(trace.observation(pid(s)).reaches(pid(r)), linked(s, r));
                    }
                }
                // Components by flooding from each unlabelled process.
                let mut label = vec![usize::MAX; n];
                let mut components = 0;
                for start in 0..n {
                    if label[start] != usize::MAX {
                        continue;
                    }
                    let mut stack = vec![start];
                    label[start] = components;
                    while let Some(a) = stack.pop() {
                        for (b, slot) in label.iter_mut().enumerate() {
                            if *slot == usize::MAX && linked(a, b) {
                                *slot = components;
                                stack.push(b);
                            }
                        }
                    }
                    components += 1;
                }
                disconnected += u64::from(components != 1);
            }
            assert_eq!(net.stats.disconnected_rounds, disconnected, "n={n}");
            assert!(n > 3 || disconnected > 0, "n = 3 never fell apart");
            assert!(net.stats.unreachable > 0, "flip 0.5 never dropped a link");
        }
    }

    #[test]
    fn a_lanes_trace_keeps_its_churned_graph_while_another_lane_exchanges() {
        // Two lanes of one churn realization whose round-0 graphs differ.
        let (n, seeds) = (16, [1, 2]);
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.3,
        };
        let [graph_a, graph_b] = seeds.map(|seed| {
            let realized = schedule.realize(n, seed).unwrap();
            realized.adjacency_at(Round::ZERO).into_owned()
        });
        assert_ne!(graph_a, graph_b, "the seeds drew the same round-0 graph");
        let plan = LinkFaultPlan::new();
        let policy = DisconnectionPolicy::Record;
        let shared =
            SharedRealization::build(n, &Topology::Complete, Some(&schedule), &plan, policy, 1)
                .unwrap();
        let [mut lane_a, mut lane_b] = seeds.map(|seed| shared.lane(seed));
        let outboxes: Vec<Outbox> = (0..n)
            .map(|i| Outbox::broadcast(n, pid(i), Value::new(i as f64)))
            .collect();
        let sends = vec![LaneSend::PerReceiver; n];
        let (active, mut rows, mut stats) =
            (vec![true; n], DeliveryRows::new(n), NetworkStats::new());
        let round = Round::ZERO;

        // Lane A's trace straight after its own exchange follows its graph.
        shared
            .exchange_rows(
                &mut lane_a,
                round,
                &sends,
                |s| &outboxes[s],
                &active,
                &mut rows,
                &mut stats,
            )
            .unwrap();
        let own = shared.trace_round(&lane_a, round, &sends, |s| &outboxes[s]);
        for (s, r) in (0..n).flat_map(|s| (0..n).map(move |r| (s, r))) {
            assert_eq!(
                own.observation(pid(s)).reaches(pid(r)),
                graph_a.connected(pid(s), pid(r))
            );
        }
        // Lane B exchanges the same round over its own graph; lane A's
        // trace of that round does not change.
        shared
            .exchange_rows(
                &mut lane_b,
                round,
                &sends,
                |s| &outboxes[s],
                &active,
                &mut rows,
                &mut stats,
            )
            .unwrap();
        assert_eq!(
            shared.trace_round(&lane_a, round, &sends, |s| &outboxes[s]),
            own
        );
        assert_ne!(
            shared.trace_round(&lane_b, round, &sends, |s| &outboxes[s]),
            own
        );
    }
}
