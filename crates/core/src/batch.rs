//! The round loop: every protocol run — one seed alone, or each lane of a
//! pack of seeds — goes through [`BatchEngine`]'s one round loop, which
//! takes a lane from its input checks through its rounds to its outcome
//! and run-level events. A pack runs its lanes one after another: in the
//! synchronous round model no seed reads another seed's state, so nothing
//! needs the lanes to advance together.
//!
//! # Shared state
//!
//! The lanes of a pack share what each lane fully rewrites, one round
//! scratch — one [`RoundFaultPlan`], one send classification, the active
//! flags, one packed delivery-row arena, the votes and fault states —
//! rebuilt only when the universe size changes, and what no lane writes,
//! the pack's network realizations. A lane owns its adversary (with its
//! RNG stream), its delivery state (seed-keyed draw streams, the exchange
//! walk's scratch and delay ring), its traffic statistics and its outcome.
//!
//! # One round loop
//!
//! Every lane round runs the same four phases whatever the network:
//!
//! 1. the lane's adversary places its agents into the shared plan and
//!    corrupts the states of the processes they abandon. Each agent writes
//!    its outbox as runs of receivers that get the same value (one run for
//!    a broadcasting strategy, two under the split attack, `n` only for
//!    per-receiver-random ones) into an outbox recycled through the plan's
//!    pool, so a warm pack allocates none, and the vote-targeting
//!    placement selects its extremes in O(n) rather than sorting;
//! 2. senders are classified into [`LaneSend`]s with the model-specific
//!    cured behaviour (Garay: aware, stays silent; Bonnet: unaware,
//!    broadcasts its possibly corrupted state; Sasaki: unaware, flushes the
//!    poisoned queue the agent left behind; Buhrman: no cured senders
//!    exist) — a broadcaster hands over one value, not `n` slots, and the
//!    ≤ 2f genuinely per-receiver senders (adversary outboxes, Sasaki
//!    poisoned queues) are read in place from the plan, never copied;
//! 3. the lane's [`SharedRealization`] delivers the active receivers'
//!    values as ascending packed [`DeliveryRows`], one row per run of
//!    receivers that heard the same values, and accounts the traffic;
//! 4. every non-faulty process (under Buhrman's model, every process)
//!    takes the vote of its row: one
//!    [`VotingFunction::apply_sorted`] call per stored row evaluates
//!    `mean(Sel(Red(N)))` (or a replacement function), and the row's vote
//!    goes to every active receiver it serves.
//!
//! A lane stops as soon as its non-faulty values are within ε of each
//! other or its round budget is exhausted.
//!
//! The network differences live in the exchange's two walks: the complete
//! graph sorts its broadcasters once and merges a receiver's few
//! per-receiver slots into that buffer with closed-form statistics, once
//! per run of receivers whose slots agree bit for bit, taking the runs
//! from the outboxes' own run boundaries; the general walk
//! serves every other graph by walking the set bits of each receiver's
//! word row in the round's [`Adjacency`](mbaa_net::Adjacency), emitting
//! one row per receiver in rank order, and replays the lane's seeded
//! churn/omission draws and delay ring for schedules and link faults.
//! Lanes are grouped by network description, and each group's realization
//! is built **once** per pack — or once per lane seed for descriptions that
//! realize per seed ([`Topology::RandomRegular`](mbaa_net::Topology)
//! anywhere), since graph realization is deterministic in `(n, seed)`.
//! A failing build fails exactly the lanes of its group.
//!
//! # Recording
//!
//! Each lane records at its own [`Observe`] level. A recording lane pushes
//! one [`RoundSnapshot`] per round (the configuration after agent
//! movement and state corruption) and, at [`Observe::Full`], one
//! [`RoundTrace`](mbaa_net::RoundTrace) per round, rebuilt by
//! [`SharedRealization::trace_round`] from the lane's own exchange. A
//! [`Observe::Summary`] lane pays one branch per round for all of this, so
//! its steady-state rounds stay allocation-free.
//!
//! # Packs
//!
//! Lanes need not come from one configuration: [`PackedLane`] pairs each
//! lane with its *own* full `ProtocolConfig` (whose `seed` field is the
//! lane seed), and every knob — size, model, ε, round budget, voting
//! function, mobility, corruption, topology, schedule, link faults,
//! observe level — may differ per lane. A lane's result and its event
//! stream do not depend on the pack it rides in, so a sweep runs plain
//! fixed-width chunks of its point-major lane list, whatever shapes a
//! chunk mixes; the round scratch is rebuilt when the size changes.

use mbaa_adversary::{AdversaryView, MobileAdversary, RoundFaultPlan};
use mbaa_msr::{ConvergenceReport, VotingFunction};
use mbaa_net::{
    DeliveryRows, LaneDelivery, LaneSend, NetworkStats, NetworkTrace, Outbox, SharedRealization,
};
use mbaa_obs::{NoopObserver, Observer, Phase, RoundEvent};
use mbaa_types::{
    check_range, Error, FaultState, Interval, MobileModel, ProcessId, Result, Round, Value,
};

use crate::engine::{emit_run_events, non_faulty_diameter, non_faulty_hull};
use crate::{MobileRunOutcome, Observe, ProtocolConfig, RoundSnapshot};

/// One lane of a pack: a full configuration (whose `seed` field is the
/// lane seed) and the initial values it starts from. See
/// [`BatchEngine::run_packed_observed`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLane {
    /// The lane's configuration; its `seed` is honoured as the lane seed.
    pub config: ProtocolConfig,
    /// The lane's initial values (one per process).
    pub inputs: Vec<Value>,
}

/// Whether two configurations share a batch **shape**: same universe
/// size, fault bound, and mobile model. No executor splits packs by shape,
/// since the engine runs any pack; this stays public because the
/// benchmark's trace helper (`perfbench/trace`) still plans packs with it.
#[must_use]
pub fn shape_compatible(a: &ProtocolConfig, b: &ProtocolConfig) -> bool {
    a.n == b.n && a.f == b.f && a.model == b.model
}

/// The round scratch the lanes of a pack share, sized for one universe. A
/// lane copies in its inputs and resets the states, and every round
/// overwrites the rest, so one lane's leftovers never reach the next
/// lane's results.
struct Scratch {
    plan: RoundFaultPlan,
    sends: Vec<LaneSend>,
    active: Vec<bool>,
    rows: DeliveryRows,
    votes: Vec<Value>,
    states: Vec<FaultState>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            plan: RoundFaultPlan::empty(n),
            sends: vec![LaneSend::Silent; n],
            active: vec![false; n],
            rows: DeliveryRows::new(n),
            votes: vec![Value::new(0.0); n],
            states: vec![FaultState::Correct; n],
        }
    }

    /// The scratch for a universe of `n` processes, rebuilt when the
    /// previous lane had another size.
    fn sized(&mut self, n: usize) -> &mut Self {
        if self.votes.len() != n {
            *self = Scratch::new(n);
        }
        self
    }
}

/// One network group inside a pack: the exemplar configuration that
/// introduced it (whose seed realized it) and the read-only realization
/// every lane of the group exchanges against by shared reference — or the
/// error every lane of the group fails with.
struct NetGroup<'a> {
    cfg: &'a ProtocolConfig,
    realization: Result<SharedRealization>,
}

impl NetGroup<'_> {
    /// Whether a lane with configuration `cfg` exchanges against this
    /// group's realization: the same universe size and network
    /// description, realized under the same seed when the description
    /// realizes per seed.
    fn serves(&self, cfg: &ProtocolConfig) -> bool {
        self.cfg.n == cfg.n
            && self.cfg.topology == cfg.topology
            && self.cfg.schedule == cfg.schedule
            && self.cfg.link_faults == cfg.link_faults
            && self.cfg.disconnection == cfg.disconnection
            && (self.cfg.seed == cfg.seed
                || !SharedRealization::realizes_per_seed(&cfg.topology, cfg.schedule.as_ref()))
    }
}

/// Runs the protocol: one seed alone, or a pack of seeds lane by lane,
/// through one round loop. See the [module documentation](crate::batch)
/// for the loop and what a pack shares.
///
/// # Example
///
/// ```
/// use mbaa_core::{BatchEngine, ProtocolConfig};
/// use mbaa_types::{MobileModel, Value};
///
/// // 9 processes, 2 mobile agents, Garay's model (needs n > 4f = 8).
/// let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
///     .epsilon(1e-4)
///     .seed(7)
///     .build()?;
/// let inputs: Vec<Value> = (0..9).map(|i| Value::new(i as f64 / 9.0)).collect();
/// let outcome = BatchEngine::run(&config, &inputs)?;
/// assert!(outcome.reached_agreement && outcome.validity_holds());
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug)]
pub enum BatchEngine {}

impl BatchEngine {
    /// Runs one configuration from the given initial values (one per
    /// process).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `inputs` does not hold
    /// exactly `n` values, [`Error::InvalidParameter`] when they span an
    /// infinitely wide range, and propagates network build and exchange
    /// errors (e.g. [`Error::DisconnectedRound`] under the rejecting
    /// disconnection policy).
    pub fn run(config: &ProtocolConfig, inputs: &[Value]) -> Result<MobileRunOutcome> {
        Self::run_with(config, inputs, None, &mut NoopObserver)
    }

    /// [`BatchEngine::run`] with an optional voting function that replaces
    /// the configured MSR instance (to compare MSR instances with non-MSR
    /// baselines under identical adversaries) and an [`Observer`]
    /// attached: the loop emits a seed-keyed [`RoundEvent`] per round plus
    /// the run-level convergence and run-end events, and delimits the four
    /// round phases via the `phase_start`/`phase_end` hooks. The observer
    /// never influences protocol state.
    ///
    /// # Errors
    ///
    /// As [`BatchEngine::run`].
    pub fn run_with<O: Observer>(
        config: &ProtocolConfig,
        inputs: &[Value],
        function: Option<&dyn VotingFunction>,
        observer: &mut O,
    ) -> Result<MobileRunOutcome> {
        let mut scratch = Scratch::new(config.n);
        run_lane(
            config,
            inputs,
            function,
            &mut scratch,
            &mut Vec::new(),
            observer,
        )
    }

    /// Runs a pack with an [`Observer`] attached: every lane carries its
    /// own configuration (its `seed` field is the lane seed), and the lanes
    /// run one after another on the pack's shared scratch and network
    /// realizations. Results are returned in lane order, and each lane's
    /// result — outcome or error — is what [`BatchEngine::run`] returns for
    /// its configuration alone. Pass [`NoopObserver`] to run unobserved.
    ///
    /// The observer sees the lanes' event streams one after another, in
    /// lane order; each is the stream a one-lane run of its configuration
    /// emits.
    #[must_use]
    pub fn run_packed_observed<O: Observer>(
        lanes: &[PackedLane],
        observer: &mut O,
    ) -> Vec<Result<MobileRunOutcome>> {
        let mut scratch = Scratch::new(lanes.first().map_or(0, |lane| lane.config.n));
        // A linear scan over the groups is fine: packs are ≤ the sweep
        // chunk width and most hold one or two descriptions.
        let mut groups = Vec::new();
        lanes
            .iter()
            .map(|lane| {
                run_lane(
                    &lane.config,
                    &lane.inputs,
                    None,
                    &mut scratch,
                    &mut groups,
                    observer,
                )
            })
            .collect()
    }
}

/// One lane from its input checks through its rounds to its outcome and
/// run-level events, on the pack's `scratch` and exchanging against its
/// group in `groups` (built on first use). `function` replaces the
/// configured MSR instance.
fn run_lane<'a, O: Observer>(
    cfg: &'a ProtocolConfig,
    inputs: &[Value],
    function: Option<&dyn VotingFunction>,
    scratch: &mut Scratch,
    groups: &mut Vec<NetGroup<'a>>,
    observer: &mut O,
) -> Result<MobileRunOutcome> {
    let n = cfg.n;
    if inputs.len() != n {
        return Err(Error::WrongInputCount {
            provided: inputs.len(),
            expected: n,
        });
    }
    // The convergence report needs a finite initial diameter.
    let hull = Interval::hull(inputs.iter().copied());
    let (lo, hi) = hull.map_or((f64::INFINITY, f64::NEG_INFINITY), |h| {
        (h.lo().get(), h.hi().get())
    });
    check_range("input values' span", lo, hi)?;
    let hull = hull.expect("a checked span holds values");
    let g = match groups.iter().position(|group| group.serves(cfg)) {
        Some(g) => g,
        None => {
            groups.push(NetGroup {
                cfg,
                realization: SharedRealization::build(
                    n,
                    &cfg.topology,
                    cfg.schedule.as_ref(),
                    &cfg.link_faults,
                    cfg.disconnection,
                    cfg.seed,
                ),
            });
            groups.len() - 1
        }
    };
    let shared = groups[g].realization.as_ref().map_err(Error::clone)?;
    let mut delivery = shared.lane(cfg.seed);
    let mut adversary =
        MobileAdversary::new(cfg.model, n, cfg.f, cfg.mobility, cfg.corruption, cfg.seed);
    let Scratch {
        plan,
        sends,
        active,
        rows,
        votes,
        states,
    } = scratch.sized(n);
    votes.copy_from_slice(inputs);
    states.fill(FaultState::Correct);
    let telemetry = observer.enabled();
    let compute_even_if_faulty = cfg.model.agents_move_with_messages();
    let mut stats = NetworkStats::new();
    let mut recorded = Recording::default();
    // Until round 0 places the agents these describe all processes; a
    // lane with no round keeps them.
    let mut validity_envelope = hull;
    let mut report = ConvergenceReport::new(hull.diameter());
    let mut reached = false;
    let mut rounds_executed = 0;
    // Telemetry bookkeeping (only read when an enabled observer is
    // attached): the previous round's diameter (contraction ratios), the
    // previous stats snapshot (per-round traffic deltas), and the run total
    // of corruptions.
    let mut prev_diameter = 0.0;
    let mut prev_stats = NetworkStats::new();
    let mut corruptions = 0;

    // The steady-state round loop: `mbaa-analyze` statically rejects
    // allocating idioms in here (the complement of the dynamic
    // allocator-counter proof in `tests/alloc_regression.rs`); the opt-in
    // recordings run out of line, in `Recording::round`.
    // mbaa: alloc-free
    for round_idx in 0..cfg.max_rounds {
        let round = Round::new(round_idx as u64);
        observer.phase_start(Phase::AdversaryPlan);
        let corrupted = place_agents(&mut adversary, round, votes, states, plan);
        observer.phase_end(Phase::AdversaryPlan);
        if round_idx == 0 {
            // Now that the faulty set is known, freeze the validity
            // envelope and the initial diameter, and size the report to
            // the round budget so later records never reallocate.
            validity_envelope =
                non_faulty_hull(votes, states).expect("at least one process is non-faulty");
            prev_diameter = validity_envelope.diameter();
            report = ConvergenceReport::with_capacity(prev_diameter, cfg.max_rounds);
            if cfg.epsilon.covers_diameter(prev_diameter) {
                // The run ends before its send phase.
                reached = true;
                break;
            }
        }

        // Send phase: classify senders. Under Buhrman's model the agent
        // leaves its host together with the outgoing message, so the host
        // still receives and computes this round.
        observer.phase_start(Phase::Exchange);
        for (i, &vote) in votes.iter().enumerate() {
            sends[i] = classify_send(cfg.model, plan, ProcessId::new(i), vote);
            active[i] = states[i].is_non_faulty() || compute_even_if_faulty;
        }

        // Receive phase, straight into the packed row arena. A network
        // error (e.g. a rejected disconnected round) fails this lane.
        let exchanged = shared.exchange_rows(
            &mut delivery,
            round,
            sends,
            |i| per_receiver_outbox(plan, i),
            active,
            rows,
            &mut stats,
        );
        observer.phase_end(Phase::Exchange);
        exchanged?;

        if cfg.observe != Observe::Summary {
            recorded.round(
                cfg.observe,
                votes,
                states,
                shared,
                &delivery,
                round,
                sends,
                plan,
            );
        }

        // Compute phase over the ascending rows, each evaluated once for
        // all the receivers it serves.
        observer.phase_start(Phase::MsrApply);
        match function {
            Some(function) => vote_rows(function, rows, active, votes),
            None => vote_rows(&cfg.function, rows, active, votes),
        }
        observer.phase_end(Phase::MsrApply);

        observer.phase_start(Phase::Record);
        rounds_executed = round_idx + 1;
        let diameter = non_faulty_diameter(votes, states);
        report.record_round(diameter);
        reached = cfg.epsilon.covers_diameter(diameter);
        if telemetry {
            let width = rows.min_len().map_or(0, |len| match function {
                Some(function) => function.reduced_width(len),
                None => cfg.function.reduced_width(len),
            });
            observer.on_round(&RoundEvent {
                seed: cfg.seed,
                round: round_idx as u64,
                diameter,
                contraction: if prev_diameter > 0.0 {
                    diameter / prev_diameter
                } else {
                    1.0
                },
                faulty: plan.faulty.len() as u32,
                cured: plan.cured.len() as u32,
                corrupted,
                delivered: stats.messages_delivered - prev_stats.messages_delivered,
                omissions: stats.omissions - prev_stats.omissions,
                link_omissions: stats.link_omissions - prev_stats.link_omissions,
                msr_width: width as u32,
            });
            prev_stats = stats;
            prev_diameter = diameter;
            corruptions += u64::from(corrupted);
        }
        observer.phase_end(Phase::Record);
        if reached {
            break;
        }
    }

    if reached && rounds_executed == 0 && cfg.observe.records_snapshots() {
        // A lane that agrees before its first send phase still records its
        // first snapshot.
        recorded.configurations.push(snapshot(votes, states));
    }
    let outcome = MobileRunOutcome {
        reached_agreement: reached,
        rounds_executed,
        final_votes: votes.to_vec(),
        final_states: states.to_vec(),
        report,
        validity_envelope,
        epsilon: cfg.epsilon,
        configurations: recorded.configurations,
        trace: recorded.trace,
        network_stats: stats,
    };
    if telemetry {
        emit_run_events(observer, cfg.seed, &outcome, corruptions);
    }
    Ok(outcome)
}

/// The adversary phase of one lane's round: places the agents into the
/// shared plan, applies the corruption left on cured processes, and tracks
/// fault states. Returns how many cured processes were corrupted.
fn place_agents(
    adversary: &mut MobileAdversary,
    round: Round,
    votes: &mut [Value],
    states: &mut [FaultState],
    plan: &mut RoundFaultPlan,
) -> u32 {
    // The adversary sees everything; the "correct range" it reasons
    // about is the range of the currently non-faulty processes' values
    // (all values before the first placement).
    let visible_range = non_faulty_hull(votes, states).unwrap_or_else(|| Interval::point(votes[0]));
    let view = AdversaryView {
        round,
        votes,
        correct_range: visible_range,
    };
    adversary.begin_round_into(&view, plan);

    // Agents that left a process corrupted the state behind them.
    let mut corrupted = 0;
    for p in plan.cured.iter() {
        if let Some(state) = plan.corrupted_states[p.index()] {
            votes[p.index()] = state;
            corrupted += 1;
        }
    }
    for (i, state) in states.iter_mut().enumerate() {
        let p = ProcessId::new(i);
        *state = if plan.faulty.contains(p) {
            FaultState::Faulty
        } else if plan.cured.contains(p) {
            FaultState::Cured
        } else {
            FaultState::Correct
        };
    }
    corrupted
}

/// The compute phase of one lane round: evaluates `function` once per
/// stored row and hands the vote to every active receiver the row serves.
/// A row too small for the function leaves its receivers' votes as they
/// were.
// mbaa: alloc-free
fn vote_rows<F: VotingFunction + ?Sized>(
    function: &F,
    rows: &DeliveryRows,
    active: &[bool],
    votes: &mut [Value],
) {
    for row in 0..rows.rows() {
        if let Some(next) = function.apply_sorted(rows.row(row)) {
            for r in rows.receivers(row).filter(|&r| active[r]) {
                votes[r] = next;
            }
        }
    }
}

/// The configuration of one lane at the start of a round.
fn snapshot(votes: &[Value], states: &[FaultState]) -> RoundSnapshot {
    RoundSnapshot::new(states.iter().copied().zip(votes.iter().copied()).collect())
}

/// What a lane above [`Observe::Summary`] records: one snapshot per round,
/// and at [`Observe::Full`] one trace per round.
#[derive(Default)]
struct Recording {
    configurations: Vec<RoundSnapshot>,
    trace: NetworkTrace,
}

impl Recording {
    /// Records one exchanged round. The votes and states are still those
    /// the adversary phase left, so the snapshot is the round's starting
    /// configuration; the trace replays the exchange just made. Kept out
    /// of line so the recording code stays out of the Summary round loop.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        observe: Observe,
        votes: &[Value],
        states: &[FaultState],
        shared: &SharedRealization,
        delivery: &LaneDelivery,
        round: Round,
        sends: &[LaneSend],
        plan: &RoundFaultPlan,
    ) {
        self.configurations.push(snapshot(votes, states));
        if observe.records_trace() {
            let trace =
                shared.trace_round(delivery, round, sends, |i| per_receiver_outbox(plan, i));
            self.trace.push(trace);
        }
    }
}

/// The send classification of one process, honouring the model-specific
/// behaviour of faulty and cured senders: a non-faulty, non-cured process
/// broadcasts its vote;
/// cured behaviour is the model's (Garay silent, Bonnet broadcast, Sasaki
/// poisoned queue); faulty senders use the adversary's outbox.
fn classify_send(model: MobileModel, plan: &RoundFaultPlan, p: ProcessId, vote: Value) -> LaneSend {
    if plan.faulty.contains(p) {
        LaneSend::PerReceiver
    } else if plan.cured.contains(p) {
        match model {
            MobileModel::Garay => LaneSend::Silent,
            MobileModel::Bonnet => LaneSend::Broadcast(vote),
            MobileModel::Sasaki => LaneSend::PerReceiver,
            MobileModel::Buhrman => unreachable!("Buhrman's model has no cured senders"),
        }
    } else {
        LaneSend::Broadcast(vote)
    }
}

/// The outbox of a [`LaneSend::PerReceiver`] sender, read in place from
/// the round's plan: the adversary's outbox for a faulty process, the
/// poisoned queue for a Sasaki-cured one.
fn per_receiver_outbox(plan: &RoundFaultPlan, i: usize) -> &Outbox {
    if plan.faulty.contains(ProcessId::new(i)) {
        plan.faulty_outboxes[i]
            .as_ref()
            .expect("adversary provides an outbox for every faulty process")
    } else {
        plan.poisoned_outboxes[i]
            .as_ref()
            .expect("Sasaki adversary provides a poisoned queue for every cured process")
    }
}

// The recorded outcomes and per-seed summaries are pinned by the golden
// digests in `tests/golden_outcomes.rs` and `tests/batch_engine.rs`. The
// tests here pin pack independence: a lane's result is the *scalar*
// (k = 1) result of its configuration run alone, whatever pack it rides
// in and whatever the lanes before it left in the shared scratch.
#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
    use mbaa_net::{DisconnectionPolicy, LinkFaultPlan, Topology, TopologySchedule};
    use mbaa_obs::EventLog;

    fn inputs(n: usize, salt: u64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::new(((i as u64 * 31 + salt * 17) % 101) as f64 / 101.0))
            .collect()
    }

    /// One lane per seed of `config`, each with seed-salted inputs, at
    /// `Observe::Summary` (the builder defaults to `Full`).
    fn pack(config: &ProtocolConfig, seeds: &[u64]) -> Vec<PackedLane> {
        seeds
            .iter()
            .map(|&seed| {
                let mut config = config.clone();
                config.seed = seed;
                config.observe = Observe::Summary;
                PackedLane {
                    inputs: inputs(config.n, seed),
                    config,
                }
            })
            .collect()
    }

    fn base_config(model: MobileModel, n: usize, f: usize) -> ProtocolConfig {
        ProtocolConfig::builder(model, n, f)
            .epsilon(1e-4)
            .max_rounds(400)
            .build()
            .unwrap()
    }

    /// Every lane's packed result — outcome or error — equals the scalar
    /// (one-lane) run of its own configuration.
    fn assert_matches_scalar(lanes: &[PackedLane]) {
        let results = BatchEngine::run_packed_observed(lanes, &mut NoopObserver);
        assert_eq!(results.len(), lanes.len());
        for (lane, result) in lanes.iter().zip(results) {
            let seed = lane.config.seed;
            let scalar = BatchEngine::run(&lane.config, &lane.inputs);
            match (result, scalar) {
                (Ok(batch), Ok(scalar)) => assert_eq!(batch, scalar, "seed {seed}"),
                (Err(b), Err(s)) => assert_eq!(b, s, "seed {seed}"),
                (b, s) => panic!("seed {seed}: batch {b:?} vs scalar {s:?}"),
            }
        }
    }

    #[test]
    fn fast_path_matches_scalar_for_all_models() {
        for model in MobileModel::ALL {
            let f = 2;
            let n = model.required_processes(f);
            let config = base_config(model, n, f);
            assert_matches_scalar(&pack(&config, &[1, 2, 3, 4, 5]));
        }
    }

    #[test]
    fn partial_topology_batches_match_scalar() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        assert_matches_scalar(&pack(&config, &[7, 8, 9]));
    }

    #[test]
    fn random_regular_lanes_realize_their_own_graphs() {
        // One realization group per lane seed, static and as a churn base;
        // the repeated seed shares its group.
        let regular = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .topology(Topology::RandomRegular { degree: 4 })
            .build()
            .unwrap();
        assert_matches_scalar(&pack(&regular, &[1, 2, 3, 2]));
        let churned = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::RandomRegular { degree: 6 },
                flip_rate: 0.1,
            })
            .build()
            .unwrap();
        assert_matches_scalar(&pack(&churned, &[4, 5]));
    }

    /// Garay n = 9 lanes on a complete graph churned at `flip_rate` under
    /// the rejecting policy: a lane fails with the first round its draws
    /// disconnect (0.9 fails round 0, 0.5 a later round).
    fn rejecting_churn(flip_rate: f64, seeds: &[u64]) -> Vec<PackedLane> {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .epsilon(1e-6)
            .max_rounds(80)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate,
            })
            .disconnection(DisconnectionPolicy::Reject)
            .allow_bound_violation()
            .build()
            .unwrap();
        pack(&config, seeds)
    }

    /// The four models at n = 13, f = 2 (above every model's bound), cycled
    /// twice, then Garay and Buhrman lanes at n = 9: every lane starts on
    /// scratch the previous lane left under another model or size.
    /// Stationary agents end the first n = 9 lane on processes 0 and 1,
    /// where the second holds its extremes: its first correct range (all
    /// values, before the first placement) and so its median-pull values
    /// depend on every state starting correct.
    fn model_cycle() -> Vec<PackedLane> {
        let mut lanes = Vec::new();
        for cycle in 0..2 {
            for (i, model) in [
                MobileModel::Sasaki,
                MobileModel::Garay,
                MobileModel::Buhrman,
                MobileModel::Bonnet,
            ]
            .into_iter()
            .enumerate()
            {
                let seed = (cycle * 4 + i) as u64;
                lanes.extend(pack(&base_config(model, 13, 2), &[seed]));
            }
        }
        let mut stationary = base_config(MobileModel::Garay, 9, 2);
        stationary.mobility = MobilityStrategy::Stationary;
        stationary.corruption = CorruptionStrategy::MedianPull;
        lanes.extend(pack(&stationary, &[8, 9]));
        let extremes = &mut lanes.last_mut().unwrap().inputs;
        extremes[0] = Value::new(-1.0);
        extremes[1] = Value::new(2.0);
        lanes.extend(pack(&base_config(MobileModel::Buhrman, 9, 2), &[10]));
        lanes
    }

    #[test]
    fn failing_realizations_fail_only_their_lanes_with_the_scalar_error() {
        // 9 processes of odd degree 3 have no regular realization under
        // any seed; the healthy ring lanes of the same pack are unaffected.
        let ring = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let mut infeasible = ring.clone();
        infeasible.topology = Topology::RandomRegular { degree: 3 };
        let mut lanes = pack(&ring, &[1, 2]);
        lanes.extend(pack(&infeasible, &[3, 4]));
        // Lanes that fail mid-run, each between healthy lanes.
        lanes.extend(rejecting_churn(0.5, &[2]));
        lanes.extend(pack(&ring, &[5]));
        lanes.extend(rejecting_churn(0.9, &[3]));
        lanes.extend(pack(&ring, &[6]));
        let results = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(matches!(results[2], Err(Error::InvalidParameter(_))));
        assert!(
            matches!(results[4], Err(Error::DisconnectedRound { round, .. }) if round.index() > 0)
        );
        assert!(matches!(results[6], Err(Error::DisconnectedRound { .. })));
        assert!(results[5].is_ok() && results[7].is_ok());
        assert_matches_scalar(&lanes);
    }

    #[test]
    fn wrong_input_count_fails_only_that_lane() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        let mut lanes = pack(&config, &[1, 2, 3]);
        lanes[1].inputs.truncate(4);
        let results = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(Error::WrongInputCount {
                provided: 4,
                expected: 9
            })
        ));
        assert!(results[2].is_ok());
        assert_matches_scalar(&lanes);
    }

    #[test]
    fn inputs_of_infinite_span_fail_only_that_lane() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        let mut lanes = pack(&config, &[1, 2]);
        // Wherever the agents start, the correct values span ±f64::MAX.
        for (i, input) in lanes[0].inputs.iter_mut().enumerate() {
            *input = Value::new(if i % 2 == 0 { f64::MAX } else { -f64::MAX });
        }
        let results = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver);
        assert!(matches!(results[0], Err(Error::InvalidParameter(_))));
        assert!(results[1].is_ok());
        assert!(matches!(
            BatchEngine::run(&config, &lanes[0].inputs),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn single_lane_runs_the_batch_loop() {
        let config = base_config(MobileModel::Garay, 9, 2);
        assert_matches_scalar(&pack(&config, &[42]));
        assert!(BatchEngine::run_packed_observed(&[], &mut NoopObserver).is_empty());
    }

    #[test]
    fn trivially_agreeing_lanes_terminate_without_rounds() {
        let n = 9;
        let config = base_config(MobileModel::Garay, n, 2);
        let mut lanes = pack(&config, &[1, 2]);
        for lane in &mut lanes {
            lane.inputs = vec![Value::new(0.5); n];
        }
        for result in BatchEngine::run_packed_observed(&lanes, &mut NoopObserver) {
            let outcome = result.unwrap();
            assert!(outcome.reached_agreement);
            assert_eq!(outcome.rounds_executed, 0);
            assert_eq!(outcome.network_stats.rounds, 0);
        }
        assert_matches_scalar(&lanes);
    }

    #[test]
    fn tight_epsilon_exhausts_the_budget_identically() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .epsilon(1e-300)
            .max_rounds(20)
            .build()
            .unwrap();
        assert_matches_scalar(&pack(&config, &[1, 2]));
    }

    #[test]
    fn packed_cross_point_lanes_match_their_own_scalar_runs() {
        // Four shape-compatible points with different ε, budgets, and
        // networks — one pack, per-lane outcomes (network stats included)
        // bit-identical to scalar.
        let n = 9;
        let ring = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-3)
            .max_rounds(120)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let complete = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-5)
            .max_rounds(300)
            .build()
            .unwrap();
        let churn = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-4)
            .max_rounds(250)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.1,
            })
            .build()
            .unwrap();
        let regular = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-4)
            .max_rounds(200)
            .topology(Topology::RandomRegular { degree: 4 })
            .build()
            .unwrap();
        let mut lanes = Vec::new();
        for (point, cfg) in [ring, complete, churn, regular].iter().enumerate() {
            let seeds: Vec<u64> = (1..=3u64).map(|s| s + 10 * point as u64).collect();
            lanes.extend(pack(cfg, &seeds));
        }
        assert_matches_scalar(&lanes);
    }

    #[test]
    fn shape_incompatible_packs_fall_back_to_scalar() {
        // Lanes of different sizes and models run in one pack; the
        // scratch is rebuilt whenever the size changes.
        let a = base_config(MobileModel::Garay, 9, 1);
        let b = base_config(MobileModel::Garay, 13, 2);
        assert!(!shape_compatible(&a, &b));
        let mut lanes = pack(&a, &[1]);
        lanes.extend(pack(&b, &[2]));
        lanes.extend(pack(&a, &[3, 4]));
        assert_matches_scalar(&lanes);
        assert_matches_scalar(&model_cycle());
    }

    #[test]
    fn overriding_with_the_configured_function_changes_nothing() {
        // A replacement function goes through the same per-row loop as
        // the configured one, on rows of one width (complete, delayed,
        // stealth) and of several (ring, churn) alike.
        let ring = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-4)
            .max_rounds(200)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let mut churn = ring.clone();
        churn.schedule = Some(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        });
        let delayed = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .epsilon(1e-4)
            .max_rounds(200)
            .link_faults(LinkFaultPlan::new().delay_all(1))
            .build()
            .unwrap();
        let mut stealth = base_config(MobileModel::Garay, 9, 2);
        stealth.corruption = CorruptionStrategy::Stealth;
        let mut configs = vec![ring, churn, delayed, stealth];
        for model in MobileModel::ALL {
            configs.push(base_config(model, model.required_processes(2), 2));
        }
        for config in &configs {
            for lane in pack(config, &[3, 4]) {
                let function: &dyn VotingFunction = &lane.config.function;
                let mut overridden = EventLog::new();
                let mut configured = EventLog::new();
                assert_eq!(
                    BatchEngine::run_with(
                        &lane.config,
                        &lane.inputs,
                        Some(function),
                        &mut overridden
                    ),
                    BatchEngine::run_with(&lane.config, &lane.inputs, None, &mut configured),
                );
                assert_eq!(overridden, configured);
            }
        }
    }

    #[test]
    fn pack_events_are_each_lanes_events_in_lane_order() {
        // Lanes of every model and two sizes, lanes that fail mid-run, a
        // lane with the wrong input count, and two points that share seeds
        // (and so inputs): the pack's log is the lanes' one-lane logs, one
        // after another.
        let ring = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-4)
            .max_rounds(200)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let mut lanes = model_cycle();
        lanes.extend(rejecting_churn(0.5, &[2]));
        lanes.extend(pack(&ring, &[1, 2]));
        lanes.extend(rejecting_churn(0.9, &[3]));
        lanes.extend(pack(&base_config(MobileModel::Garay, 9, 1), &[1, 2]));
        lanes[1].inputs.truncate(4);
        let mut packed = EventLog::new();
        let results = BatchEngine::run_packed_observed(&lanes, &mut packed);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 3);
        let mut alone = EventLog::new();
        for lane in &lanes {
            let _ = BatchEngine::run_with(&lane.config, &lane.inputs, None, &mut alone);
        }
        assert!(!alone.is_empty());
        assert_eq!(packed, alone);
    }

    /// Files events into one log per lane: a pack runs its lanes one after
    /// another, and a lane that runs ends with its run-end event.
    #[derive(Default)]
    struct LaneRouter {
        lane: usize,
        logs: Vec<EventLog>,
    }

    impl LaneRouter {
        fn log(&mut self) -> &mut EventLog {
            if self.logs.len() <= self.lane {
                self.logs.resize_with(self.lane + 1, EventLog::new);
            }
            &mut self.logs[self.lane]
        }
    }

    impl Observer for LaneRouter {
        fn on_round(&mut self, event: &RoundEvent) {
            self.log().on_round(event);
        }

        fn on_convergence(&mut self, event: &mbaa_obs::ConvergenceEvent) {
            self.log().on_convergence(event);
        }

        fn on_run_end(&mut self, event: &mbaa_obs::RunEndEvent) {
            self.log().on_run_end(event);
            self.lane += 1;
        }
    }

    #[test]
    fn lane_routed_events_match_each_lanes_scalar_stream() {
        // Two points run the same seeds (and so the same inputs) in one
        // pack: seeds cannot tell their lanes apart, lane order can.
        let n = 9;
        let ring = ProtocolConfig::builder(MobileModel::Garay, n, 1)
            .epsilon(1e-4)
            .max_rounds(200)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let complete = base_config(MobileModel::Garay, n, 1);
        let mut lanes = pack(&ring, &[1, 2, 3]);
        lanes.extend(pack(&complete, &[1, 2, 3]));
        let mut router = LaneRouter::default();
        let mut log = EventLog::new();
        let results =
            BatchEngine::run_packed_observed(&lanes, &mut mbaa_obs::Tee(&mut router, &mut log));
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(router.logs.len(), lanes.len());
        for (l, lane) in lanes.iter().enumerate() {
            let mut scalar = EventLog::new();
            BatchEngine::run_with(&lane.config, &lane.inputs, None, &mut scalar).unwrap();
            assert_eq!(router.logs[l], scalar, "lane {l}");
        }
        // The seed filter mixes both points' lanes of seed 1.
        assert_eq!(
            log.for_seed(1).len(),
            router.logs[0].len() + router.logs[3].len()
        );
        assert_ne!(router.logs[0], router.logs[3]);
    }

    #[test]
    fn mixed_size_packs_announce_every_lane() {
        // Lanes of different sizes and models share one pack's scratch;
        // each still emits its own one-lane stream, ending in its run end,
        // at its index in the pack.
        let small = base_config(MobileModel::Garay, 9, 1);
        let large = base_config(MobileModel::Bonnet, 13, 2);
        let mut lanes = pack(&small, &[1, 2]);
        lanes.extend(pack(&large, &[1]));
        lanes.extend(pack(&small, &[3]));
        let mut router = LaneRouter::default();
        let results = BatchEngine::run_packed_observed(&lanes, &mut router);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(router.logs.len(), lanes.len());
        for (l, lane) in lanes.iter().enumerate() {
            let mut alone = EventLog::new();
            BatchEngine::run_with(&lane.config, &lane.inputs, None, &mut alone).unwrap();
            assert!(!alone.is_empty());
            assert_eq!(router.logs[l], alone, "lane {l}");
        }
    }

    #[test]
    fn recording_lanes_ride_the_lockstep_loop() {
        // Lanes at every observe level share one pack and its scratch; each
        // records at its own level and computes what the Summary lanes
        // compute.
        let mut lanes = pack(&base_config(MobileModel::Bonnet, 11, 2), &[1, 2, 3]);
        lanes[0].config.observe = Observe::Full;
        lanes[1].config.observe = Observe::Snapshots;
        let results = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver);
        let full = results[0].as_ref().unwrap();
        assert!(full.rounds_executed > 0);
        assert_eq!(full.trace.len(), full.rounds_executed);
        assert_eq!(full.configurations.len(), full.rounds_executed);
        let snapshots = results[1].as_ref().unwrap();
        assert_eq!(snapshots.configurations.len(), snapshots.rounds_executed);
        assert!(snapshots.trace.is_empty());
        let summary = results[2].as_ref().unwrap();
        assert!(summary.configurations.is_empty() && summary.trace.is_empty());
        assert_matches_scalar(&lanes);
        // The levels record subsets of the same computation.
        let mut recorded = lanes[2].clone();
        recorded.config.observe = Observe::Full;
        let again = BatchEngine::run(&recorded.config, &recorded.inputs).unwrap();
        assert_eq!(again.final_votes, summary.final_votes);
        assert_eq!(again.report, summary.report);
        assert_eq!(again.network_stats, summary.network_stats);
    }
}
