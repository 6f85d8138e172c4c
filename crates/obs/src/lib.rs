//! Observability for mobile Byzantine approximate agreement runs.
//!
//! This crate has two strictly separated halves:
//!
//! 1. **Deterministic protocol telemetry** (this module): the [`Observer`]
//!    sink the engines invoke with structured, seed-keyed events
//!    ([`RoundEvent`], [`ConvergenceEvent`], [`RunEndEvent`]), plus the
//!    [`MetricsRegistry`] — integer counters and fixed-bucket
//!    [`Histogram`]s whose cross-seed/cross-worker [`MetricsRegistry::merge`]
//!    is order-independent and therefore bit-identical on every execution
//!    path. Nothing here may read the host clock, ambient randomness, or
//!    iteration order of an unordered container: every field of every event
//!    is derived from protocol state that is itself deterministic per seed.
//! 2. **Wall-clock phase profiling** ([`timing`]): the *only* module in the
//!    result-affecting workspace allowed to touch `std::time::Instant`. The
//!    `mbaa-analyze` `determinism/wall-clock` lint enforces that fence
//!    mechanically; see `docs/observability.md`.
//!
//! The engines are generic over `O: Observer` and call the hooks behind
//! [`Observer::enabled`], so a [`NoopObserver`] monomorphizes to nothing:
//! steady-state rounds stay zero-allocation (asserted by
//! `tests/alloc_regression.rs`) and recorded results are bit-identical with
//! or without an observer attached (asserted by `tests/observability.rs`).
//!
//! This crate deliberately has **no dependencies**: it sits below
//! `mbaa-core` in the workspace graph so both the engines (producers) and
//! `mbaa-json` / the CLI (consumers) can name the same event types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

/// The four phases of one protocol round, in execution order.
///
/// The variant order is load-bearing: [`Phase::index`] indexes the
/// fixed-size accumulators in [`timing::PhaseProfiler`], and reports list
/// phases in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The adversary plans agent movement and corruption for the round.
    AdversaryPlan,
    /// Outboxes are filled and the synchronous exchange runs.
    Exchange,
    /// Each process applies the MSR voting function to its multiset.
    MsrApply,
    /// Diameter measurement, convergence bookkeeping, and event emission.
    Record,
}

impl Phase {
    /// All phases in execution order.
    pub const ALL: [Phase; 4] = [
        Phase::AdversaryPlan,
        Phase::Exchange,
        Phase::MsrApply,
        Phase::Record,
    ];

    /// Stable index of this phase into [`Phase::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::AdversaryPlan => 0,
            Phase::Exchange => 1,
            Phase::MsrApply => 2,
            Phase::Record => 3,
        }
    }

    /// Stable lowercase name used in reports and JSON documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::AdversaryPlan => "adversary_plan",
            Phase::Exchange => "exchange",
            Phase::MsrApply => "msr_apply",
            Phase::Record => "record",
        }
    }
}

// ---------------------------------------------------------------------------
// Events.
// ---------------------------------------------------------------------------

/// One completed protocol round, as observed at the end of its record
/// phase. Every field is a scalar derived from seed-deterministic state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundEvent {
    /// Seed of the run this round belongs to.
    pub seed: u64,
    /// Zero-based round index within the run.
    pub round: u64,
    /// Non-faulty vote diameter after this round's MSR application.
    pub diameter: f64,
    /// `diameter / previous diameter` (1.0 when the previous diameter was
    /// zero), i.e. the per-round contraction ratio toward agreement.
    pub contraction: f64,
    /// Processes occupied by a mobile agent this round.
    pub faulty: u32,
    /// Processes an agent left at the start of this round.
    pub cured: u32,
    /// Cured processes that woke with an adversary-corrupted vote.
    pub corrupted: u32,
    /// Messages delivered during this round's exchange.
    pub delivered: u64,
    /// Process-level omissions (faulty/unreachable slots) this round.
    pub omissions: u64,
    /// Link-fault omissions this round.
    pub link_omissions: u64,
    /// Smallest post-reduction MSR multiset width across the processes
    /// that computed this round.
    pub msr_width: u32,
}

/// Emitted once per run that reaches ε-agreement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceEvent {
    /// Seed of the converged run.
    pub seed: u64,
    /// Rounds executed until the diameter first fell within ε.
    pub rounds: u64,
    /// Non-faulty diameter of the initial configuration.
    pub initial_diameter: f64,
    /// Non-faulty diameter when agreement was reached.
    pub final_diameter: f64,
}

/// Emitted exactly once per run, after the final round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEndEvent {
    /// Seed of the run.
    pub seed: u64,
    /// Whether ε-agreement was reached within the round budget.
    pub reached_agreement: bool,
    /// Whether the validity envelope held for the final votes.
    pub validity: bool,
    /// Total rounds executed.
    pub rounds: u64,
    /// Non-faulty diameter of the initial configuration.
    pub initial_diameter: f64,
    /// Non-faulty diameter after the final round.
    pub final_diameter: f64,
    /// Geometric-mean contraction factor per round, when defined.
    pub mean_contraction: Option<f64>,
    /// Messages delivered over the whole run.
    pub messages_delivered: u64,
    /// Process-level omissions over the whole run.
    pub omissions: u64,
    /// Link-fault omissions over the whole run.
    pub link_omissions: u64,
    /// Cured processes that woke with a corrupted vote, summed over rounds.
    pub corruptions: u64,
}

/// Any telemetry event, for recording sinks and JSONL (de)serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A completed round.
    Round(RoundEvent),
    /// A run reached ε-agreement.
    Convergence(ConvergenceEvent),
    /// A run finished.
    RunEnd(RunEndEvent),
}

impl Event {
    /// Seed of the run this event belongs to.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            Event::Round(e) => e.seed,
            Event::Convergence(e) => e.seed,
            Event::RunEnd(e) => e.seed,
        }
    }
}

// ---------------------------------------------------------------------------
// The observer sink.
// ---------------------------------------------------------------------------

/// Sink for engine telemetry. All hooks default to no-ops, so an
/// implementation overrides only what it needs.
///
/// The engines are generic over `O: Observer` and guard non-trivial event
/// assembly behind [`Observer::enabled`]; with [`NoopObserver`] the whole
/// telemetry path monomorphizes away. Implementations must not influence
/// protocol state — the engines pass events by reference and never read
/// anything back.
///
/// The `phase_start`/`phase_end` hooks delimit the four [`Phase`]s of each
/// round. They carry no data; the only sanctioned wall-clock consumer is
/// [`timing::PhaseProfiler`]. A phase may end implicitly (early convergence,
/// exchange error), so implementations must tolerate a `phase_start`
/// without a matching `phase_end`.
///
/// [`Observer::on_lane`] says which lane of a batched pack the following
/// events belong to, so a sink can keep one stream per lane where seeds
/// alone are ambiguous (a cross-point pack may hold the same seed twice).
pub trait Observer {
    /// Whether the engine should assemble events at all. Hot loops skip
    /// stats snapshots and event construction when this is `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// A protocol round completed.
    #[inline]
    fn on_round(&mut self, _event: &RoundEvent) {}

    /// A run reached ε-agreement.
    #[inline]
    fn on_convergence(&mut self, _event: &ConvergenceEvent) {}

    /// A run finished (always emitted, converged or not).
    #[inline]
    fn on_run_end(&mut self, _event: &RunEndEvent) {}

    /// The events that follow, up to the next `on_lane`, belong to lane
    /// `lane` (its index in the pack). The engine's lockstep loop calls
    /// this for every lane of a pack of more than one lane, when
    /// [`Observer::enabled`], before each live lane's round and before
    /// each lane's run-level events. A single run never calls it.
    #[inline]
    fn on_lane(&mut self, _lane: usize) {}

    /// A round phase is starting.
    #[inline]
    fn phase_start(&mut self, _phase: Phase) {}

    /// A round phase finished.
    #[inline]
    fn phase_end(&mut self, _phase: Phase) {}
}

/// Mutable references forward, so short-lived sinks can be borrowed into
/// an engine call (or a [`Tee`]) and read back afterwards.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn on_round(&mut self, event: &RoundEvent) {
        (**self).on_round(event);
    }

    #[inline]
    fn on_convergence(&mut self, event: &ConvergenceEvent) {
        (**self).on_convergence(event);
    }

    #[inline]
    fn on_run_end(&mut self, event: &RunEndEvent) {
        (**self).on_run_end(event);
    }

    #[inline]
    fn on_lane(&mut self, lane: usize) {
        (**self).on_lane(lane);
    }

    #[inline]
    fn phase_start(&mut self, phase: Phase) {
        (**self).phase_start(phase);
    }

    #[inline]
    fn phase_end(&mut self, phase: Phase) {
        (**self).phase_end(phase);
    }
}

/// The default observer: reports `enabled() == false` and compiles to
/// nothing inside the monomorphized engine loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A recording observer that stores every event in order.
///
/// In a batched run, round events from different lanes interleave
/// round-major. The log ignores [`Observer::on_lane`]; [`EventLog::for_seed`]
/// recovers the per-seed subsequence, which is bit-identical to the same
/// seed's stream when run alone, as long as no two lanes share a seed. For
/// packs that may repeat a seed, route by lane instead (as the
/// [`Sinks::events`] sink of the summary executor does).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The subsequence of events belonging to `seed`, in emission order.
    #[must_use]
    pub fn for_seed(&self, seed: u64) -> Vec<Event> {
        self.events
            .iter()
            .filter(|e| e.seed() == seed)
            .copied()
            .collect()
    }

    /// Appends an event (for replaying recorded streams into sinks).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }
}

impl Observer for EventLog {
    fn on_round(&mut self, event: &RoundEvent) {
        self.events.push(Event::Round(*event));
    }

    fn on_convergence(&mut self, event: &ConvergenceEvent) {
        self.events.push(Event::Convergence(*event));
    }

    fn on_run_end(&mut self, event: &RunEndEvent) {
        self.events.push(Event::RunEnd(*event));
    }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// A fixed-bucket histogram over `f64` samples with deterministic,
/// order-independent accumulation.
///
/// Bucket `i` covers `[bounds[i], bounds[i+1])`; the final bucket is the
/// overflow `[bounds.last(), +inf)` and samples below `bounds[0]` land in
/// bucket 0. Counts are `u64`, so merging two histograms is elementwise
/// integer addition — commutative and associative, which is what makes the
/// cross-worker [`MetricsRegistry::merge`] bit-identical regardless of
/// completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket lower bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
        }
    }

    /// Rebuilds a histogram from serialized parts.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Histogram::new`], or if
    /// `counts` has a different length than `bounds`.
    #[must_use]
    pub fn from_parts(bounds: Vec<f64>, counts: Vec<u64>) -> Self {
        assert_eq!(bounds.len(), counts.len(), "bounds/counts length mismatch");
        let mut h = Histogram::new(&bounds);
        h.counts = counts;
        h
    }

    /// Records one sample. Never allocates.
    pub fn record(&mut self, sample: f64) {
        // partition_point is a binary search over the fixed bounds: the
        // bucket is the last bound <= sample, clamped to bucket 0.
        let idx = self.bounds.partition_point(|b| *b <= sample);
        self.counts[idx.saturating_sub(1)] += 1;
    }

    /// The bucket lower bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds `other`'s counts into `self` (elementwise `u64` addition).
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += *theirs;
        }
    }
}

// ---------------------------------------------------------------------------
// The metrics registry.
// ---------------------------------------------------------------------------

/// Bucket lower bounds for the rounds-to-converge histogram.
pub const ROUNDS_BUCKETS: [f64; 10] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Bucket lower bounds for the per-round contraction-ratio histogram.
/// Ratios below 1.0 are progress toward agreement; the overflow bucket
/// catches expansion rounds (corruption undoing progress).
pub const CONTRACTION_BUCKETS: [f64; 12] =
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5];

/// Cross-run aggregate metrics: integer counters plus two fixed-bucket
/// histograms. All state is `u64`, so [`MetricsRegistry::merge`] is
/// commutative and associative — workers can merge chunk-local registries
/// in any completion order and the result is bit-identical.
///
/// As an [`Observer`] it buckets each round's contraction ratio in
/// `on_round` (no allocation) and folds run totals in `on_run_end`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    /// Runs observed.
    pub runs: u64,
    /// Runs that reached ε-agreement.
    pub converged: u64,
    /// Runs whose final votes escaped the validity envelope.
    pub validity_failures: u64,
    /// Rounds executed, summed over runs.
    pub rounds_total: u64,
    /// Messages delivered, summed over runs.
    pub messages_delivered: u64,
    /// Process-level omissions, summed over runs.
    pub omissions: u64,
    /// Link-fault omissions, summed over runs.
    pub link_omissions: u64,
    /// Cured-process vote corruptions, summed over runs.
    pub corruptions: u64,
    /// Distribution of rounds-to-converge over converged runs.
    pub rounds_to_converge: Histogram,
    /// Distribution of per-round contraction ratios over all rounds.
    pub contraction_ratio: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with the canonical bucket layouts.
    #[must_use]
    pub fn new() -> Self {
        Self {
            runs: 0,
            converged: 0,
            validity_failures: 0,
            rounds_total: 0,
            messages_delivered: 0,
            omissions: 0,
            link_omissions: 0,
            corruptions: 0,
            rounds_to_converge: Histogram::new(&ROUNDS_BUCKETS),
            contraction_ratio: Histogram::new(&CONTRACTION_BUCKETS),
        }
    }

    /// Folds a recorded [`Event`] into the registry, exactly as the live
    /// observer hooks would (`mbaa report` rebuilds a registry from an
    /// events JSONL stream through this).
    pub fn record_event(&mut self, event: &Event) {
        match event {
            Event::Round(e) => self.on_round_impl(e),
            Event::Convergence(e) => self.on_convergence_impl(e),
            Event::RunEnd(e) => self.on_run_end_impl(e),
        }
    }

    fn on_round_impl(&mut self, event: &RoundEvent) {
        self.contraction_ratio.record(event.contraction);
    }

    fn on_convergence_impl(&mut self, event: &ConvergenceEvent) {
        self.rounds_to_converge.record(event.rounds as f64);
    }

    fn on_run_end_impl(&mut self, event: &RunEndEvent) {
        self.runs += 1;
        self.converged += u64::from(event.reached_agreement);
        self.validity_failures += u64::from(!event.validity);
        self.rounds_total += event.rounds;
        self.messages_delivered += event.messages_delivered;
        self.omissions += event.omissions;
        self.link_omissions += event.link_omissions;
        self.corruptions += event.corruptions;
    }

    /// Adds `other` into `self`. Order-independent: `a.merge(b)` and
    /// `b.merge(a)` produce equal registries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.runs += other.runs;
        self.converged += other.converged;
        self.validity_failures += other.validity_failures;
        self.rounds_total += other.rounds_total;
        self.messages_delivered += other.messages_delivered;
        self.omissions += other.omissions;
        self.link_omissions += other.link_omissions;
        self.corruptions += other.corruptions;
        self.rounds_to_converge.merge(&other.rounds_to_converge);
        self.contraction_ratio.merge(&other.contraction_ratio);
    }

    /// Fraction of observed runs that converged, or `None` with no runs.
    #[must_use]
    pub fn convergence_rate(&self) -> Option<f64> {
        (self.runs > 0).then(|| self.converged as f64 / self.runs as f64)
    }

    /// Mean rounds per run, or `None` with no runs.
    #[must_use]
    pub fn mean_rounds(&self) -> Option<f64> {
        (self.runs > 0).then(|| self.rounds_total as f64 / self.runs as f64)
    }
}

impl Observer for MetricsRegistry {
    fn on_round(&mut self, event: &RoundEvent) {
        self.on_round_impl(event);
    }

    fn on_convergence(&mut self, event: &ConvergenceEvent) {
        self.on_convergence_impl(event);
    }

    fn on_run_end(&mut self, event: &RunEndEvent) {
        self.on_run_end_impl(event);
    }
}

/// Fans events out to two observers. `enabled()` is the OR of the parts,
/// so pairing anything with a [`NoopObserver`] costs nothing extra.
#[derive(Debug, Default)]
pub struct Tee<A, B>(
    /// First sink.
    pub A,
    /// Second sink.
    pub B,
);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.0.on_round(event);
        self.1.on_round(event);
    }

    fn on_convergence(&mut self, event: &ConvergenceEvent) {
        self.0.on_convergence(event);
        self.1.on_convergence(event);
    }

    fn on_run_end(&mut self, event: &RunEndEvent) {
        self.0.on_run_end(event);
        self.1.on_run_end(event);
    }

    fn on_lane(&mut self, lane: usize) {
        self.0.on_lane(lane);
        self.1.on_lane(lane);
    }

    fn phase_start(&mut self, phase: Phase) {
        self.0.phase_start(phase);
        self.1.phase_start(phase);
    }

    fn phase_end(&mut self, phase: Phase) {
        self.0.phase_end(phase);
        self.1.phase_end(phase);
    }
}

/// The optional sinks of the summary-level executor
/// (`mbaa_sim::run_packed_experiments`, and the facade's `stream_segments`
/// above it). Each executed pack fills pack-local copies, which are folded
/// into these in pack order once every pack has run, so all three come out
/// the same for every worker count. `Sinks::default()` attaches nothing,
/// and the packs then run unobserved.
#[derive(Debug, Default)]
pub struct Sinks<'a> {
    /// Folds every run's telemetry (see [`MetricsRegistry::merge`]).
    pub metrics: Option<&'a mut MetricsRegistry>,
    /// Receives every run's events, appended point-major and seed-minor:
    /// each run's rounds, then its run-level events, as a single run of
    /// that seed emits them.
    pub events: Option<&'a mut Vec<Event>>,
    /// Accumulates the phase times of every pack, summed over workers
    /// (see [`timing::PhaseProfiler::merge`]).
    pub profile: Option<&'a mut timing::PhaseProfiler>,
}

impl Sinks<'_> {
    /// The same sinks, borrowed again for one more call.
    #[must_use]
    pub fn reborrow(&mut self) -> Sinks<'_> {
        Sinks {
            metrics: self.metrics.as_deref_mut(),
            events: self.events.as_deref_mut(),
            profile: self.profile.as_deref_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(seed: u64, round: u64, contraction: f64) -> RoundEvent {
        RoundEvent {
            seed,
            round,
            diameter: 1.0,
            contraction,
            faulty: 1,
            cured: 1,
            corrupted: 0,
            delivered: 81,
            omissions: 0,
            link_omissions: 0,
            msr_width: 5,
        }
    }

    fn run_end(seed: u64, reached: bool, rounds: u64) -> RunEndEvent {
        RunEndEvent {
            seed,
            reached_agreement: reached,
            validity: true,
            rounds,
            initial_diameter: 1.0,
            final_diameter: 0.0,
            mean_contraction: Some(0.5),
            messages_delivered: 81 * rounds,
            omissions: 0,
            link_omissions: 0,
            corruptions: 2,
        }
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[0.0, 1.0, 2.0]);
        h.record(-0.5); // clamps to bucket 0
        h.record(0.0);
        h.record(0.999);
        h.record(1.0);
        h.record(5.0); // overflow bucket
        assert_eq!(h.counts(), &[3, 1, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = Histogram::new(&[0.0, 1.0]);
        let mut b = Histogram::new(&[0.0, 1.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(0.5);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[1.0, 0.5]);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mut parts: Vec<MetricsRegistry> = (0..4)
            .map(|i| {
                let mut r = MetricsRegistry::new();
                r.on_round_impl(&round(i, 0, 0.25 * i as f64));
                r.on_run_end_impl(&run_end(i, i % 2 == 0, 3 + i));
                if i % 2 == 0 {
                    r.on_convergence_impl(&ConvergenceEvent {
                        seed: i,
                        rounds: 3 + i,
                        initial_diameter: 1.0,
                        final_diameter: 0.0,
                    });
                }
                r
            })
            .collect();

        let mut forward = MetricsRegistry::new();
        for p in &parts {
            forward.merge(p);
        }
        parts.reverse();
        let mut backward = MetricsRegistry::new();
        for p in &parts {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.runs, 4);
        assert_eq!(forward.converged, 2);
        assert_eq!(forward.rounds_total, 3 + 4 + 5 + 6);
    }

    #[test]
    fn record_event_matches_observer_hooks() {
        let events = [
            Event::Round(round(7, 0, 0.5)),
            Event::Convergence(ConvergenceEvent {
                seed: 7,
                rounds: 4,
                initial_diameter: 1.0,
                final_diameter: 0.0,
            }),
            Event::RunEnd(run_end(7, true, 4)),
        ];
        let mut via_hooks = MetricsRegistry::new();
        let mut via_events = MetricsRegistry::new();
        for e in &events {
            via_events.record_event(e);
            match e {
                Event::Round(r) => via_hooks.on_round(r),
                Event::Convergence(c) => via_hooks.on_convergence(c),
                Event::RunEnd(r) => via_hooks.on_run_end(r),
            }
        }
        assert_eq!(via_hooks, via_events);
    }

    #[test]
    fn event_log_filters_by_seed() {
        let mut log = EventLog::new();
        log.on_round(&round(1, 0, 0.5));
        log.on_round(&round(2, 0, 0.5));
        log.on_round(&round(1, 1, 0.4));
        log.on_run_end(&run_end(1, true, 2));
        let seed1 = log.for_seed(1);
        assert_eq!(seed1.len(), 3);
        assert!(matches!(seed1[2], Event::RunEnd(e) if e.seed == 1));
        assert_eq!(log.for_seed(2).len(), 1);
    }

    #[test]
    fn noop_observer_is_disabled() {
        assert!(!NoopObserver.enabled());
        assert!(!Tee(NoopObserver, NoopObserver).enabled());
        assert!(Tee(NoopObserver, EventLog::new()).enabled());
    }

    #[test]
    fn phase_round_trip() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::MsrApply.name(), "msr_apply");
    }
}
