//! Link faults and dynamic topologies: per-link omission and delay, and
//! round-indexed churn.
//!
//! The paper's mobile Byzantine adversary moves between *processes*; this
//! module makes the *network itself* mobile, in the style of Li–Hurfin–Wang
//! (arXiv:1206.0089) and of agreement on evolving graphs (arXiv:1706.06789):
//!
//! * [`LinkFaultPlan`] — per-link behaviours layered on the structural
//!   mask: deterministic or seeded-random omission probability, and fixed
//!   delays in rounds served by an in-order delivery buffer inside
//!   [`SharedRealization::exchange_rows`](crate::SharedRealization::exchange_rows).
//!   An omission of probability 1 is a one-way cut; the configuration
//!   layer removes [`severed_arcs`](LinkFaultPlan::severed_arcs) from the
//!   realized graph before checking it
//!   ([`Adjacency::cut_connectivity`](crate::Adjacency::cut_connectivity)).
//! * [`TopologySchedule`] — a (possibly different) realized communication
//!   graph per round: [`Static`](TopologySchedule::Static),
//!   [`Periodic`](TopologySchedule::Periodic) (rotating graph phases), and
//!   [`SeededChurn`](TopologySchedule::SeededChurn) (every base link is
//!   down each round with a seeded probability).
//! * [`DisconnectionPolicy`] — what a dynamic exchange does when the
//!   realized graph of some round is disconnected: record it in
//!   [`NetworkStats`](crate::NetworkStats) or reject the round with the
//!   typed [`Error::DisconnectedRound`].
//!
//! Everything here is deterministic in `(description, n, seed)`: the same
//! schedule realizes to the same per-round graphs and the same omission
//! draws no matter which worker, batch, or streaming path executes the run.
//!
//! # Example
//!
//! ```
//! use mbaa_net::{LinkFaultPlan, Topology, TopologySchedule};
//! use mbaa_types::Round;
//!
//! // A churn schedule: each link of the complete graph is down 30% of the
//! // time, deterministically per (seed, round, link).
//! let schedule = TopologySchedule::SeededChurn {
//!     base: Topology::Complete,
//!     flip_rate: 0.3,
//! };
//! let realized = schedule.realize(9, 7)?;
//! assert_eq!(
//!     realized.adjacency_at(Round::new(3)),
//!     realized.adjacency_at(Round::new(3)),
//! );
//!
//! // A link-fault plan: cut p1 -> p0 one way, drop p0 -> p1 half the time,
//! // delay p2 -> p3 by two rounds.
//! let plan = LinkFaultPlan::new().cut(1, 0).omit(0, 1, 0.5).delay(2, 3, 2);
//! assert!(!plan.is_clean());
//! assert_eq!(plan.severed_arcs(4)?, vec![(1, 0)]);
//! # Ok::<(), mbaa_types::Error>(())
//! ```

use std::borrow::Cow;
use std::fmt;

use serde::{Deserialize, Serialize};

use mbaa_types::{Error, ProcessId, Result, Round};

use crate::{Adjacency, Topology};

/// Stream constant decorrelating churn draws from the omission draws that
/// consume the same run seed.
const CHURN_STREAM: u64 = 0x5DEE_CE66_D1A4_F8B5;

/// Stream constant for per-link omission draws.
const OMIT_STREAM: u64 = 0xA24B_AED4_963E_E407;

/// One SplitMix64 step (Steele–Lea–Flood 2014) folding `v` into the running
/// hash `h` — the primitive behind every deterministic per-(round, link)
/// draw here. Inlined rather than routed through `rand` so the draw stream
/// is pinned to this algorithm no matter which `rand` implementation the
/// workspace links (swapping the vendored shim for the real crate must not
/// silently re-randomize every seeded network).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from 53 hashed mantissa bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The deterministic churn draw: returns `true` when the base link
/// `a — b` is *down* in `round` under `flip_rate`. One function makes
/// these draws, for [`RealizedSchedule::adjacency_at`] and the exchange
/// alike: [`Adjacency::churn_into`].
pub(crate) fn churn_link_down(seed: u64, round: u64, a: usize, b: usize, flip_rate: f64) -> bool {
    let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
    let h = mix(mix(mix(seed ^ CHURN_STREAM, round), lo), hi);
    unit(h) < flip_rate
}

/// The deterministic omission draw: returns `true` when the message sent on
/// the directed link `from -> to` in `round` is lost under `probability`.
pub(crate) fn omission_lost(
    seed: u64,
    round: u64,
    from: usize,
    to: usize,
    probability: f64,
) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    let h = mix(mix(mix(seed ^ OMIT_STREAM, round), from as u64), to as u64);
    unit(h) < probability
}

/// What a dynamic exchange does when the realized communication graph of a
/// round is disconnected.
///
/// Only dynamic schedules consult this: a *static* disconnected topology is
/// always rejected at configuration time (agreement is meaningless across
/// permanent components), but a churning graph may be transiently
/// disconnected while its union over a window still carries information.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisconnectionPolicy {
    /// Count the round in
    /// [`NetworkStats::disconnected_rounds`](crate::NetworkStats) and carry
    /// on — the Li–Hurfin–Wang evolving-graph reading, where only the union
    /// over a window needs connectivity.
    #[default]
    Record,
    /// Fail the exchange with the typed
    /// [`Error::DisconnectedRound`], treating any transient partition as a
    /// configuration error.
    Reject,
}

impl fmt::Display for DisconnectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DisconnectionPolicy::Record => "record",
            DisconnectionPolicy::Reject => "reject",
        })
    }
}

/// One rule of a [`LinkFaultPlan`]: a (possibly wildcarded) directed-link
/// selector together with the omission probability and/or delay it sets.
///
/// Rules are ordered: later rules override the fields they set on the
/// links they match. [`LinkFaultPlan::rules`] walks a plan's rules in
/// application order and [`LinkFaultPlan::with_rule`] appends one, so a
/// plan round-trips losslessly through this form — the scenario-file
/// (de)serializer in `mbaa-json` is built on exactly that pair.
///
/// # Example
///
/// ```
/// use mbaa_net::{LinkFaultPlan, LinkFaultRule};
///
/// let plan = LinkFaultPlan::new().omit_all(0.05).delay(1, 2, 3);
/// let rules: Vec<LinkFaultRule> = plan.rules().collect();
/// assert_eq!(rules.len(), 2);
/// assert_eq!(rules[0].omit, Some(0.05));
/// assert_eq!((rules[1].from, rules[1].delay), (Some(1), Some(3)));
///
/// let rebuilt = rules
///     .into_iter()
///     .fold(LinkFaultPlan::new(), LinkFaultPlan::with_rule);
/// assert_eq!(rebuilt, plan);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultRule {
    /// Sending endpoint, or `None` for every sender.
    pub from: Option<usize>,
    /// Receiving endpoint, or `None` for every receiver.
    pub to: Option<usize>,
    /// Omission probability to set, if any.
    pub omit: Option<f64>,
    /// Delivery delay (in rounds) to set, if any.
    pub delay: Option<usize>,
}

impl LinkFaultRule {
    fn matches(&self, from: usize, to: usize) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// Per-link fault behaviours layered on the structural topology mask:
/// seeded-random (or, at probability 1, deterministic) message omission and
/// fixed delivery delays with in-order buffering.
///
/// A plan is *scenario-level plain data*: rules name directed links (or
/// wildcards) and are applied in order, later rules overriding the field
/// they set on the links they match. It is validated and compiled against a
/// concrete universe when the network is built. Self-links are never
/// faulted — self-delivery stays structural, as in the paper.
///
/// Omission draws are deterministic in `(seed, round, link)`, so two runs of
/// the same configuration lose exactly the same messages. Delayed links
/// deliver in order: a message sent on a `delay = d` link in round `r`
/// arrives in round `r + d`, behind every earlier message on that link.
/// Lost or delayed messages are accounted in the dedicated
/// [`NetworkStats`](crate::NetworkStats) fields — never as adversary
/// omissions.
///
/// # Example
///
/// ```
/// use mbaa_net::LinkFaultPlan;
///
/// let plan = LinkFaultPlan::new()
///     .omit_all(0.05)      // a lossy fabric: every link drops 5%
///     .cut(0, 3)           // p0 -> p3 severed outright (one-way cut)
///     .delay(1, 2, 3);     // p1 -> p2 delivers three rounds late
/// assert!(!plan.is_clean());
/// assert_eq!(plan.severed_arcs(5)?, vec![(0, 3)]);
/// assert!(plan.validate(2).is_err()); // p3 is outside a 2-process universe
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultPlan {
    rules: Vec<LinkFaultRule>,
}

impl LinkFaultPlan {
    /// The clean plan: every link delivers immediately and losslessly.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the omission probability of the directed link `from -> to`.
    /// `1.0` severs the link deterministically; values in `(0, 1)` lose
    /// each message independently with that probability, seeded by the run.
    #[must_use]
    pub fn omit(self, from: usize, to: usize, probability: f64) -> Self {
        self.with_rule(LinkFaultRule {
            from: Some(from),
            to: Some(to),
            omit: Some(probability),
            delay: None,
        })
    }

    /// Sets the omission probability of **every** link at once.
    #[must_use]
    pub fn omit_all(self, probability: f64) -> Self {
        self.with_rule(LinkFaultRule {
            omit: Some(probability),
            ..LinkFaultRule::default()
        })
    }

    /// Severs the directed link `from -> to` outright (sugar for
    /// [`omit`](LinkFaultPlan::omit) at probability 1): together with the
    /// intact reverse direction this expresses a one-way link.
    #[must_use]
    pub fn cut(self, from: usize, to: usize) -> Self {
        self.omit(from, to, 1.0)
    }

    /// Sets the fixed delivery delay (in rounds) of the directed link
    /// `from -> to`. Delay 0 restores immediate delivery.
    ///
    /// A delayed link surfaces round `r`'s value in round `r + d`, so its
    /// slot never reflects the sender's *current* round: the trace flags
    /// it `link_faulted` every round and behaviour classification
    /// deliberately abstains on it for the whole run (judging round-`r`
    /// behaviour against round-`r + d` expectations would mis-attribute
    /// across rounds). Keep the links feeding a Table 1-style
    /// classification delay-free.
    #[must_use]
    pub fn delay(self, from: usize, to: usize, rounds: usize) -> Self {
        self.with_rule(LinkFaultRule {
            from: Some(from),
            to: Some(to),
            omit: None,
            delay: Some(rounds),
        })
    }

    /// Sets the fixed delivery delay of **every** link at once.
    #[must_use]
    pub fn delay_all(self, rounds: usize) -> Self {
        self.with_rule(LinkFaultRule {
            delay: Some(rounds),
            ..LinkFaultRule::default()
        })
    }

    /// Returns `true` when the plan holds no rules at all — the network
    /// lowers onto the fault-free fast path.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rules.is_empty()
    }

    /// Walks the plan's rules in application order. Together with
    /// [`with_rule`](LinkFaultPlan::with_rule) this makes a plan
    /// losslessly inspectable and reconstructible — the scenario-file
    /// serializer relies on it.
    pub fn rules(&self) -> impl Iterator<Item = LinkFaultRule> + '_ {
        self.rules.iter().copied()
    }

    /// Appends one rule — the general constructor behind
    /// [`omit`](LinkFaultPlan::omit) / [`omit_all`](LinkFaultPlan::omit_all) /
    /// [`delay`](LinkFaultPlan::delay) / [`delay_all`](LinkFaultPlan::delay_all),
    /// used to rebuild a plan from its serialized rules.
    #[must_use]
    pub fn with_rule(mut self, rule: LinkFaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Checks every rule against a universe of `n` processes.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownProcess`] when a rule names an endpoint outside
    ///   `[0, n)`.
    /// * [`Error::InvalidParameter`] when an omission probability is not a
    ///   finite value in `[0, 1]`.
    pub fn validate(&self, n: usize) -> Result<()> {
        for rule in &self.rules {
            for endpoint in [rule.from, rule.to].into_iter().flatten() {
                if endpoint >= n {
                    return Err(Error::UnknownProcess {
                        process: ProcessId::new(endpoint),
                        n,
                    });
                }
            }
            if let Some(p) = rule.omit {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(Error::InvalidParameter(format!(
                        "link omission probability must be a finite value in [0, 1], got {p}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The directed links this plan severs outright over `n` processes —
    /// omission probability 1 once every rule applies — as `(from, to)`
    /// pairs in ascending order. These are structural one-way cuts in
    /// link-fault clothing: the configuration layer removes them from the
    /// realized graph before its connectivity and resilience checks
    /// ([`Adjacency::cut_connectivity`]), so a plan cannot smuggle in a
    /// permanent partition that an equivalent [`Topology::Custom`] would be
    /// rejected for.
    ///
    /// # Errors
    ///
    /// Propagates [`validate`](LinkFaultPlan::validate);
    /// [`Error::InvalidParameter`] when the links' delays sum past 2^24
    /// rounds, more than a run buffers.
    pub fn severed_arcs(&self, n: usize) -> Result<Vec<(usize, usize)>> {
        if self.is_clean() {
            return Ok(Vec::new());
        }
        let faults = self.compile(n)?;
        Ok((0..n)
            .flat_map(|from| (0..n).map(move |to| (from, to)))
            .filter(|&(from, to)| from != to && faults.omit_at(from, to) >= 1.0)
            .collect())
    }

    /// Compiles the plan into per-link omission/delay matrices over `n`
    /// processes. Self-links stay clean regardless of wildcards.
    ///
    /// # Errors
    ///
    /// Propagates [`validate`](LinkFaultPlan::validate); [`Error::InvalidParameter`]
    /// when the links' delays sum past 2^24 rounds, more than a run buffers.
    pub(crate) fn compile(&self, n: usize) -> Result<CompiledLinkFaults> {
        self.validate(n)?;
        let mut omit = vec![0.0f64; n * n];
        let mut delay = vec![0usize; n * n];
        for rule in &self.rules {
            for to in 0..n {
                for from in 0..n {
                    if from == to || !rule.matches(from, to) {
                        continue;
                    }
                    if let Some(p) = rule.omit {
                        omit[to * n + from] = p;
                    }
                    if let Some(d) = rule.delay {
                        delay[to * n + from] = d;
                    }
                }
            }
        }
        // Each lane's delay ring holds one message per link and round of delay.
        const MAX_BUFFERED: usize = 1 << 24;
        let buffered = delay.iter().try_fold(0usize, |sum, &d| sum.checked_add(d));
        if buffered.is_none_or(|sum| sum > MAX_BUFFERED) {
            return Err(Error::InvalidParameter(format!(
                "link delays must sum to at most {MAX_BUFFERED} rounds over all links"
            )));
        }
        let omits = omit.iter().any(|&p| p > 0.0);
        Ok(CompiledLinkFaults {
            n,
            omit,
            omits,
            delay,
        })
    }
}

impl fmt::Display for LinkFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        write!(f, "{} link-fault rule(s)", self.rules.len())
    }
}

/// A [`LinkFaultPlan`] compiled against a concrete universe: one omission
/// probability and one delay per directed link, stored receiver-major as
/// the exchange walks them.
#[derive(Debug, Clone)]
pub(crate) struct CompiledLinkFaults {
    n: usize,
    omit: Vec<f64>,
    /// Whether some link may lose messages.
    omits: bool,
    delay: Vec<usize>,
}

impl CompiledLinkFaults {
    /// Returns `true` when no link carries any fault — the compiled form of
    /// an (effectively) clean plan.
    pub(crate) fn is_clean(&self) -> bool {
        !self.omits && self.delay.iter().all(|&d| d == 0)
    }

    /// Whether some link may lose messages.
    pub(crate) fn omits(&self) -> bool {
        self.omits
    }

    pub(crate) fn omit_at(&self, from: usize, to: usize) -> f64 {
        self.omit[to * self.n + from]
    }

    pub(crate) fn delay_at(&self, from: usize, to: usize) -> usize {
        self.delay[to * self.n + from]
    }

    /// Where each link's delay-ring slots start, receiver-major, then the
    /// ring's length: a link of delay `d` owns `d` slots. Empty without delays.
    pub(crate) fn delay_ring(&self) -> Vec<u32> {
        if self.delay.iter().all(|&d| d == 0) {
            return Vec::new();
        }
        let mut ring_at = Vec::with_capacity(self.n * self.n + 1);
        let mut len = 0;
        for to in 0..self.n {
            for from in 0..self.n {
                ring_at.push(len);
                len += self.delay_at(from, to) as u32;
            }
        }
        ring_at.push(len);
        ring_at
    }
}

/// A description of how the communication graph evolves over rounds.
///
/// Like [`Topology`], a schedule is scenario-level plain data: it does not
/// know the system size until [`realize`](TopologySchedule::realize)d, and
/// realization is deterministic in `(n, seed)` — the per-round graphs are a
/// pure function of the round index, independent of execution order, worker
/// count, or batch/stream path.
///
/// # Example
///
/// ```
/// use mbaa_net::{Topology, TopologySchedule};
/// use mbaa_types::Round;
///
/// // Alternate between two half-rings; their union is the k=2 ring.
/// let schedule = TopologySchedule::Periodic {
///     phases: vec![Topology::Ring { k: 1 }, Topology::Ring { k: 2 }],
/// };
/// let realized = schedule.realize(9, 0)?;
/// assert_eq!(realized.adjacency_at(Round::new(0)).min_degree(), 2);
/// assert_eq!(realized.adjacency_at(Round::new(1)).min_degree(), 4);
/// // Period 2: round 2 repeats round 0.
/// assert_eq!(
///     realized.adjacency_at(Round::new(2)),
///     realized.adjacency_at(Round::new(0)),
/// );
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TopologySchedule {
    /// The same graph every round — the degenerate schedule, equivalent to
    /// the plain [`Topology`] axis and lowered onto the same fast paths.
    Static(Topology),
    /// A rotating cycle of graph phases: round `r` uses
    /// `phases[r % phases.len()]`. Each phase is realized once, with a
    /// per-phase seed, so rotating random-regular phases yields *different*
    /// regular graphs.
    Periodic {
        /// The graph families cycled through, one per round.
        phases: Vec<Topology>,
    },
    /// Round-indexed churn: every link of the realized `base` graph is
    /// independently **down** each round with probability `flip_rate`,
    /// deterministically in `(seed, round, link)`. The union of the
    /// realized graphs over a window of `w` rounds misses a base link with
    /// probability `flip_rate^w` — the evolving-graph regime where the
    /// union, not any single round, meets the degree bound.
    SeededChurn {
        /// The graph being churned.
        base: Topology,
        /// Per-round, per-link down-probability in `[0, 1]`.
        flip_rate: f64,
    },
}

impl Default for TopologySchedule {
    fn default() -> Self {
        TopologySchedule::Static(Topology::Complete)
    }
}

impl fmt::Display for TopologySchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySchedule::Static(topology) => write!(f, "static({topology})"),
            TopologySchedule::Periodic { phases } => {
                write!(f, "periodic(")?;
                for (i, phase) in phases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{phase}")?;
                }
                write!(f, ")")
            }
            TopologySchedule::SeededChurn { base, flip_rate } => {
                write!(f, "churn({base}, flip_rate={flip_rate})")
            }
        }
    }
}

impl TopologySchedule {
    /// Realizes the schedule over `n` processes. Every phase (and the churn
    /// base) is realized exactly once;
    /// [`SeededChurn`](TopologySchedule::SeededChurn) derives its per-round
    /// drops lazily from `(seed, round, link)`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when a phase cannot be realized, when
    ///   a periodic schedule has no phases, or when a churn `flip_rate` is
    ///   not a finite value in `[0, 1]`.
    ///
    /// Like [`Topology::realize`], this does **not** reject disconnected
    /// graphs; the protocol configuration layer does, honouring the
    /// [`DisconnectionPolicy`].
    pub fn realize(&self, n: usize, seed: u64) -> Result<RealizedSchedule> {
        let kind = match self {
            TopologySchedule::Static(topology) => RealizedKind::Static(topology.realize(n, seed)?),
            TopologySchedule::Periodic { phases } => {
                if phases.is_empty() {
                    return Err(Error::InvalidParameter(
                        "a periodic schedule needs at least one phase".into(),
                    ));
                }
                let realized = phases
                    .iter()
                    .enumerate()
                    .map(|(i, phase)| phase.realize(n, mix(seed, i as u64)))
                    .collect::<Result<Vec<_>>>()?;
                RealizedKind::Periodic(realized)
            }
            TopologySchedule::SeededChurn { base, flip_rate } => {
                if !flip_rate.is_finite() || !(0.0..=1.0).contains(flip_rate) {
                    return Err(Error::InvalidParameter(format!(
                        "churn flip_rate must be a finite value in [0, 1], got {flip_rate}"
                    )));
                }
                RealizedKind::Churn {
                    base: base.realize(n, seed)?,
                    flip_rate: *flip_rate,
                }
            }
        };
        Ok(RealizedSchedule { n, seed, kind })
    }
}

/// The realized forms behind a [`RealizedSchedule`]. Crate-visible so the
/// shared batch realization can mirror the per-round graph rule without
/// re-deriving it from the description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum RealizedKind {
    Static(Adjacency),
    Periodic(Vec<Adjacency>),
    Churn { base: Adjacency, flip_rate: f64 },
}

/// A [`TopologySchedule`] realized over a concrete universe: a pure,
/// deterministic mapping from round index to communication graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealizedSchedule {
    n: usize,
    seed: u64,
    kind: RealizedKind,
}

impl RealizedSchedule {
    /// The communication graph of `round`. Static and periodic schedules
    /// hand back their pre-realized phases; churn builds the round's
    /// subgraph of the base on demand (borrowed vs. owned is an
    /// implementation detail the [`Cow`] hides).
    #[must_use]
    pub fn adjacency_at(&self, round: Round) -> Cow<'_, Adjacency> {
        match &self.kind {
            RealizedKind::Static(adjacency) => Cow::Borrowed(adjacency),
            RealizedKind::Periodic(phases) => {
                Cow::Borrowed(&phases[(round.index() % phases.len() as u64) as usize])
            }
            RealizedKind::Churn { base, flip_rate } => {
                if *flip_rate == 0.0 {
                    return Cow::Borrowed(base);
                }
                let mut drawn = base.clone();
                base.churn_into(self.seed, round.index(), *flip_rate, &mut drawn);
                Cow::Owned(drawn)
            }
        }
    }

    /// The graphs configuration-time validation inspects: the static graph,
    /// every periodic phase, or the churn base.
    #[must_use]
    pub fn validation_graphs(&self) -> &[Adjacency] {
        match &self.kind {
            RealizedKind::Static(adjacency) => std::slice::from_ref(adjacency),
            RealizedKind::Periodic(phases) => phases,
            RealizedKind::Churn { base, .. } => std::slice::from_ref(base),
        }
    }

    /// The realized kind, for the shared batch realization.
    pub(crate) fn kind(&self) -> &RealizedKind {
        &self.kind
    }

    /// Returns `true` when per-round graphs can differ from one another
    /// (periodic with more than one distinct phase, or churn with a
    /// positive flip rate).
    #[must_use]
    pub fn is_dynamic(&self) -> bool {
        match &self.kind {
            RealizedKind::Static(_) => false,
            RealizedKind::Periodic(phases) => phases.iter().any(|p| p != &phases[0]),
            RealizedKind::Churn { flip_rate, .. } => *flip_rate > 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn one_way_arcs_break_symmetry_and_strong_connectivity() {
        // The path 0 — 1 — 2 is one strong component whose ends hear one
        // neighbour each.
        let path = Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(path.cut_connectivity(&[]), (1, 2));
        // Cutting 1 -> 0 and 2 -> 1 leaves only 0 -> 1 -> 2: nothing
        // reaches 0, and every process is its own strong component.
        let severed = LinkFaultPlan::new()
            .cut(2, 1)
            .cut(1, 0)
            .omit(0, 1, 0.5)
            .severed_arcs(3)
            .unwrap();
        assert_eq!(severed, vec![(1, 0), (2, 1)]);
        assert_eq!(path.cut_connectivity(&severed), (3, 1));
        // One cut keeps a triangle strongly connected (0 -> 2 -> 1 -> 0).
        assert_eq!(Adjacency::complete(3).cut_connectivity(&[(0, 1)]), (1, 2));
        // A later rule restores a cut link.
        let restored = LinkFaultPlan::new().cut(0, 1).omit(0, 1, 0.5);
        assert_eq!(restored.severed_arcs(3).unwrap(), vec![]);
    }

    #[test]
    fn link_fault_plan_compiles_rules_in_order() {
        let plan = LinkFaultPlan::new()
            .omit_all(0.1)
            .omit(0, 1, 0.9)
            .delay(1, 0, 2);
        let compiled = plan.compile(3).unwrap();
        assert_eq!(compiled.omit_at(0, 1), 0.9);
        assert_eq!(compiled.omit_at(0, 2), 0.1);
        assert_eq!(compiled.delay_at(1, 0), 2);
        assert_eq!(compiled.delay_at(0, 1), 0);
        // Self-links are never faulted, wildcards notwithstanding.
        assert_eq!(compiled.omit_at(1, 1), 0.0);
        assert!(!compiled.is_clean());
        assert!(LinkFaultPlan::new().compile(3).unwrap().is_clean());
    }

    #[test]
    fn link_fault_plan_validates_probabilities_and_endpoints() {
        assert!(LinkFaultPlan::new().omit(0, 1, 1.5).validate(3).is_err());
        assert!(LinkFaultPlan::new()
            .omit(0, 1, f64::NAN)
            .validate(3)
            .is_err());
        assert!(matches!(
            LinkFaultPlan::new().delay(0, 7, 1).validate(3),
            Err(Error::UnknownProcess { n: 3, .. })
        ));
        assert!(LinkFaultPlan::new().cut(0, 1).validate(2).is_ok());
    }

    #[test]
    fn delays_beyond_what_a_run_buffers_fail_to_compile() {
        let compiled = |plan: LinkFaultPlan, n| plan.compile(n).map(|faults| faults.delay_ring());
        // Receiver-major: link 0 -> 1 is slot 2 of 4; up to 2^24 slots in all.
        let ring = compiled(LinkFaultPlan::new().delay(0, 1, 1 << 24), 2).unwrap();
        assert_eq!(ring, vec![0, 0, 0, 1 << 24, 1 << 24]);
        for (plan, n) in [
            (LinkFaultPlan::new().delay(0, 1, (1 << 24) + 1), 2),
            (LinkFaultPlan::new().delay_all(1 << 23), 3),
            // The sum overflows usize.
            (
                LinkFaultPlan::new().delay(0, 1, usize::MAX).delay(1, 0, 1),
                2,
            ),
        ] {
            assert!(
                matches!(compiled(plan, n), Err(Error::InvalidParameter(_))),
                "n={n}"
            );
        }
    }

    #[test]
    fn omission_draw_is_deterministic_and_respects_extremes() {
        assert!(!omission_lost(7, 3, 0, 1, 0.0));
        assert!(omission_lost(7, 3, 0, 1, 1.0));
        for round in 0..50 {
            assert_eq!(
                omission_lost(7, round, 0, 1, 0.5),
                omission_lost(7, round, 0, 1, 0.5)
            );
        }
        // Roughly half the draws land on each side for p = 0.5.
        let lost = (0..1000)
            .filter(|&r| omission_lost(11, r, 2, 3, 0.5))
            .count();
        assert!((350..=650).contains(&lost), "p=0.5 lost {lost}/1000");
    }

    #[test]
    fn static_schedule_realizes_to_one_graph() {
        let realized = TopologySchedule::Static(Topology::Ring { k: 2 })
            .realize(9, 0)
            .unwrap();
        assert!(!realized.is_dynamic());
        assert_eq!(realized.validation_graphs().len(), 1);
        let r0 = realized.adjacency_at(Round::ZERO);
        let r9 = realized.adjacency_at(Round::new(9));
        assert_eq!(r0, r9);
    }

    #[test]
    fn periodic_schedule_rotates_phases() {
        let schedule = TopologySchedule::Periodic {
            phases: vec![Topology::Ring { k: 1 }, Topology::Complete],
        };
        let realized = schedule.realize(6, 3).unwrap();
        assert!(realized.is_dynamic());
        assert!(!realized.adjacency_at(Round::ZERO).is_complete());
        assert!(realized.adjacency_at(Round::new(1)).is_complete());
        assert_eq!(
            realized.adjacency_at(Round::new(4)),
            realized.adjacency_at(Round::ZERO)
        );
        assert!(matches!(
            TopologySchedule::Periodic { phases: vec![] }.realize(6, 3),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn periodic_random_regular_phases_draw_distinct_graphs() {
        let schedule = TopologySchedule::Periodic {
            phases: vec![
                Topology::RandomRegular { degree: 4 },
                Topology::RandomRegular { degree: 4 },
            ],
        };
        let realized = schedule.realize(10, 7).unwrap();
        assert_ne!(
            realized.adjacency_at(Round::ZERO),
            realized.adjacency_at(Round::new(1)),
            "per-phase seeds should decorrelate identical families"
        );
    }

    #[test]
    fn churn_is_deterministic_per_round_and_bounded_by_base() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Ring { k: 2 },
            flip_rate: 0.4,
        };
        let a = schedule.realize(9, 5).unwrap();
        let b = schedule.realize(9, 5).unwrap();
        let base = Topology::Ring { k: 2 }.realize(9, 5).unwrap();
        let mut saw_a_drop = false;
        for round in 0..30 {
            let ga = a.adjacency_at(Round::new(round));
            assert_eq!(*ga, *b.adjacency_at(Round::new(round)));
            for x in 0..9 {
                for y in 0..9 {
                    if ga.connected(pid(x), pid(y)) {
                        assert!(base.connected(pid(x), pid(y)), "churn invented a link");
                    }
                }
            }
            if ga.edge_count() < base.edge_count() {
                saw_a_drop = true;
            }
        }
        assert!(
            saw_a_drop,
            "flip_rate 0.4 never dropped a link in 30 rounds"
        );
        // Different seeds draw different evolutions (overwhelmingly).
        let c = schedule.realize(9, 6).unwrap();
        assert!((0..30).any(|r| *a.adjacency_at(Round::new(r)) != *c.adjacency_at(Round::new(r))));
    }

    #[test]
    fn churn_extremes_and_validation() {
        let frozen = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.0,
        }
        .realize(5, 0)
        .unwrap();
        assert!(!frozen.is_dynamic());
        assert!(frozen.adjacency_at(Round::new(9)).is_complete());

        let dark = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 1.0,
        }
        .realize(5, 0)
        .unwrap();
        assert_eq!(dark.adjacency_at(Round::ZERO).edge_count(), 0);

        assert!(matches!(
            TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 1.5,
            }
            .realize(5, 0),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn churn_union_over_a_window_recovers_the_base() {
        let realized = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.5,
        }
        .realize(7, 2)
        .unwrap();
        let mut union = [false; 7 * 7];
        for round in 0..12 {
            let g = realized.adjacency_at(Round::new(round));
            for a in 0..7 {
                for b in 0..7 {
                    if g.connected(pid(a), pid(b)) {
                        union[a * 7 + b] = true;
                    }
                }
            }
        }
        assert!(
            union.iter().all(|&present| present),
            "union of 12 churned rounds at flip_rate 0.5 should cover the complete base"
        );
    }

    #[test]
    fn displays_name_the_families() {
        assert_eq!(
            TopologySchedule::Static(Topology::Complete).to_string(),
            "static(complete)"
        );
        assert_eq!(
            TopologySchedule::Periodic {
                phases: vec![Topology::Ring { k: 1 }, Topology::Grid],
            }
            .to_string(),
            "periodic(ring(k=1), grid)"
        );
        assert_eq!(
            TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.25,
            }
            .to_string(),
            "churn(complete, flip_rate=0.25)"
        );
        assert_eq!(LinkFaultPlan::new().to_string(), "clean");
        assert_eq!(
            LinkFaultPlan::new().cut(0, 1).to_string(),
            "1 link-fault rule(s)"
        );
        assert_eq!(DisconnectionPolicy::Record.to_string(), "record");
        assert_eq!(DisconnectionPolicy::Reject.to_string(), "reject");
    }

    #[test]
    fn singleton_universe_is_strongly_connected() {
        // Self-links are never cut, so severing every link still leaves
        // the lone process hearing itself.
        let severed = LinkFaultPlan::new().omit_all(1.0).severed_arcs(1).unwrap();
        assert_eq!(severed, vec![]);
        assert_eq!(Adjacency::complete(1).cut_connectivity(&severed), (1, 1));
    }
}
