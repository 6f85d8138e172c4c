//! The protocol engine: MSR approximate agreement under a mobile Byzantine
//! adversary.

use serde::{Deserialize, Serialize};

use mbaa_adversary::{AdversaryView, MobileAdversary, RoundFaultPlan};
use mbaa_msr::{ConvergenceReport, VotingFunction};
use mbaa_net::{
    DeliveryMatrix, NetworkStats, NetworkTrace, Outbox, SyncNetwork, Topology, TopologySchedule,
};
use mbaa_obs::{ConvergenceEvent, NoopObserver, Observer, Phase, RoundEvent, RunEndEvent};
use mbaa_types::{
    Epsilon, Error, FaultState, Interval, MobileModel, ProcessId, Result, Round, Value,
    ValueMultiset,
};

use crate::{ProtocolConfig, RoundSnapshot};

/// The outcome of one mobile execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobileRunOutcome {
    /// Whether ε-agreement among non-faulty processes was reached within the
    /// round budget.
    pub reached_agreement: bool,
    /// The number of rounds executed.
    pub rounds_executed: usize,
    /// The final internal value of every process.
    pub final_votes: Vec<Value>,
    /// The failure state of every process during the *last executed* round.
    pub final_states: Vec<FaultState>,
    /// The convergence history (diameter of non-faulty values per round).
    pub report: ConvergenceReport,
    /// The range of the non-faulty processes' initial values — the validity
    /// envelope of the Approximate Agreement specification.
    pub validity_envelope: Interval,
    /// The agreement tolerance the run was checked against.
    pub epsilon: Epsilon,
    /// One configuration snapshot per executed round, taken at the beginning
    /// of the round (after agent movement and state corruption). Empty when
    /// the run's [`crate::Observe`] level is [`crate::Observe::Summary`].
    pub configurations: Vec<RoundSnapshot>,
    /// The full message trace (what every sender delivered to every
    /// receiver, per round) — the raw material of the Table 1 mapping,
    /// moved (never cloned) out of the network at the end of the run. Empty
    /// unless the run's [`crate::Observe`] level is
    /// [`crate::Observe::Full`].
    pub trace: NetworkTrace,
    /// The network's traffic accounting: deliveries, sender omissions,
    /// structural non-deliveries, and — on a link-faulted or dynamic
    /// network — the separately counted link omissions, delayed
    /// deliveries, in-flight slots, and disconnected rounds.
    pub network_stats: NetworkStats,
}

impl MobileRunOutcome {
    /// The set of processes that were non-faulty during the last executed
    /// round (the processes the agreement properties speak about).
    #[must_use]
    pub fn final_non_faulty(&self) -> Vec<ProcessId> {
        self.final_states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_non_faulty().then_some(ProcessId::new(i)))
            .collect()
    }

    /// The multiset of final values held by non-faulty processes.
    #[must_use]
    pub fn final_non_faulty_values(&self) -> ValueMultiset {
        self.final_non_faulty()
            .into_iter()
            .map(|p| self.final_votes[p.index()])
            .collect()
    }

    /// The final diameter of the non-faulty processes' values.
    #[must_use]
    pub fn final_diameter(&self) -> f64 {
        self.final_non_faulty_values().diameter()
    }

    /// Returns `true` when the ε-agreement property holds on the final
    /// non-faulty values.
    #[must_use]
    pub fn epsilon_agreement_holds(&self) -> bool {
        self.epsilon.covers_diameter(self.final_diameter())
    }

    /// Returns `true` when the validity property holds: every non-faulty
    /// process' final value lies within the range of the non-faulty initial
    /// values.
    #[must_use]
    pub fn validity_holds(&self) -> bool {
        self.final_non_faulty_values()
            .iter()
            .all(|v| self.validity_envelope.contains(v))
    }
}

/// Runs an approximate agreement protocol under one of the four mobile
/// Byzantine models.
///
/// Each round the engine
///
/// 1. lets the adversary move its agents and corrupt the states of the
///    processes they abandon ([`MobileAdversary::begin_round`]),
/// 2. executes the send phase with the model-specific cured behaviour
///    (Garay: aware, stays silent; Bonnet: unaware, broadcasts its possibly
///    corrupted state; Sasaki: unaware, flushes the poisoned queue the agent
///    left behind; Buhrman: no cured senders exist),
/// 3. delivers all messages through the reliable synchronous network, and
/// 4. has every non-faulty process apply the configured voting function to
///    the multiset it received.
///
/// The run stops as soon as the non-faulty values are within ε of each other
/// or the round budget is exhausted.
#[derive(Debug)]
pub struct MobileEngine {
    config: ProtocolConfig,
}

impl MobileEngine {
    /// Creates an engine for a validated configuration.
    #[must_use]
    pub fn new(config: ProtocolConfig) -> Self {
        MobileEngine { config }
    }

    /// The configuration this engine runs.
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Runs the protocol from the given initial values (one per process).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `initial_values` does not
    /// hold exactly `n` values.
    pub fn run(&self, initial_values: &[Value]) -> Result<MobileRunOutcome> {
        self.run_with_function(&self.config.function, initial_values)
    }

    /// Runs the protocol with an [`Observer`] attached: the engine emits a
    /// seed-keyed [`RoundEvent`] per round plus run-level
    /// [`ConvergenceEvent`]/[`RunEndEvent`]s, and delimits the four round
    /// phases via the `phase_start`/`phase_end` hooks. The observer never
    /// influences protocol state — the outcome is bit-identical to
    /// [`MobileEngine::run`], and with a [`NoopObserver`] the telemetry
    /// path monomorphizes away entirely (steady-state rounds stay
    /// allocation-free).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `initial_values` does not
    /// hold exactly `n` values.
    pub fn run_observed<O: Observer>(
        &self,
        initial_values: &[Value],
        observer: &mut O,
    ) -> Result<MobileRunOutcome> {
        self.run_with_function_observed(&self.config.function, initial_values, observer)
    }

    /// Runs the protocol with an explicit voting function (used to compare
    /// MSR instances and non-MSR baselines under identical adversaries).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `initial_values` does not
    /// hold exactly `n` values.
    pub fn run_with_function(
        &self,
        function: &dyn VotingFunction,
        initial_values: &[Value],
    ) -> Result<MobileRunOutcome> {
        self.run_with_function_observed(function, initial_values, &mut NoopObserver)
    }

    /// [`MobileEngine::run_with_function`] with an [`Observer`] attached —
    /// the single implementation every other `run*` entry point lowers to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `initial_values` does not
    /// hold exactly `n` values.
    pub fn run_with_function_observed<O: Observer>(
        &self,
        function: &dyn VotingFunction,
        initial_values: &[Value],
        observer: &mut O,
    ) -> Result<MobileRunOutcome> {
        let cfg = &self.config;
        let n = cfg.n;
        if initial_values.len() != n {
            return Err(Error::WrongInputCount {
                provided: initial_values.len(),
                expected: n,
            });
        }

        let observe = cfg.observe;
        let mut votes: Vec<Value> = initial_values.to_vec();
        let mut states: Vec<FaultState> = vec![FaultState::Correct; n];
        let mut adversary =
            MobileAdversary::new(cfg.model, n, cfg.f, cfg.mobility, cfg.corruption, cfg.seed);
        // The complete topology takes the unmasked fast path — bit-identical
        // to the pre-topology engine. Partial descriptions realize to the
        // same graph the builder validated (deterministic in (n, seed));
        // `with_topology` still lowers rings that normalized to complete
        // onto the fast path, and `with_dynamics` lowers a static schedule
        // with a clean link-fault plan onto the same static paths. Trace
        // recording is purely observational, so the Observe level can turn
        // it off without changing a single delivered slot.
        let mut network = if cfg.schedule.is_none() && cfg.link_faults.is_clean() {
            match &cfg.topology {
                Topology::Complete => SyncNetwork::new(n),
                partial => SyncNetwork::with_topology(partial.realize(n, cfg.seed)?),
            }
        } else {
            let schedule = cfg
                .schedule
                .clone()
                .unwrap_or_else(|| TopologySchedule::Static(cfg.topology.clone()));
            SyncNetwork::with_dynamics(
                schedule.realize(n, cfg.seed)?,
                &cfg.link_faults,
                cfg.disconnection,
                cfg.seed,
            )?
        }
        .with_trace_recording(observe.records_trace());
        let mut configurations = Vec::new();

        // Telemetry state. `telemetry` is a monomorphization constant:
        // with a `NoopObserver` every `if telemetry` block below is dead
        // code and the round loop compiles exactly as it did without an
        // observer parameter.
        let telemetry = observer.enabled();
        let mut prev_stats = network.stats();
        let mut prev_diameter = 0.0_f64;
        let mut corruptions_total: u64 = 0;

        // The round scratch: every per-round buffer is allocated here, once
        // per run, and reused in place by every round (see [`RoundScratch`]
        // for the invariants). Under `Observe::Summary` on a static
        // network, steady-state rounds therefore perform no heap allocation
        // at all (asserted by the allocation-regression test in
        // `tests/alloc_regression.rs`).
        let RoundScratch {
            mut plan,
            mut outboxes,
            mut deliveries,
            mut received,
        } = RoundScratch::new(n);

        // Until the adversary has placed its agents we do not know which
        // initial values count as non-faulty, so the validity envelope and
        // the initial diameter are fixed inside the first loop iteration.
        let mut validity_envelope: Option<Interval> = None;
        let mut report: Option<ConvergenceReport> = None;
        let mut reached = false;
        let mut rounds_executed = 0;

        // The steady-state round loop: `mbaa-analyze` statically rejects
        // allocating idioms in here (the complement of the dynamic
        // allocator-counter proof in `tests/alloc_regression.rs`); the
        // first-round initialization and the opt-in snapshot recording are
        // waived inline below.
        // mbaa: alloc-free
        for round_idx in 0..cfg.max_rounds {
            if reached {
                break;
            }
            let round = Round::new(round_idx as u64);
            observer.phase_start(Phase::AdversaryPlan);

            // The adversary sees everything; the "correct range" it reasons
            // about is the range of the currently non-faulty processes'
            // values (all values before the first placement).
            let visible_range = Interval::hull(
                votes
                    .iter()
                    .zip(&states)
                    .filter_map(|(v, s)| s.is_non_faulty().then_some(*v)),
            )
            .unwrap_or_else(|| Interval::point(votes[0]));
            let view = AdversaryView {
                round,
                votes: &votes,
                correct_range: visible_range,
            };
            adversary.begin_round_into(&view, &mut plan);

            // Agents that left a process corrupted the state behind them.
            let mut corrupted_this_round: u32 = 0;
            for p in plan.cured.iter() {
                if let Some(corrupted) = plan.corrupted_states[p.index()] {
                    votes[p.index()] = corrupted;
                    corrupted_this_round += 1;
                }
            }

            // Track per-process failure states for this round.
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
            observer.phase_end(Phase::AdversaryPlan);
            if observe.records_snapshots() {
                // mbaa: allow(hot-path/vec-growth, pre-sized to the round budget at first-round setup below)
                configurations.push(RoundSnapshot::new(
                    // mbaa: allow(hot-path/allocation, Observe::Snapshots opts out of the zero-allocation guarantee)
                    states.iter().copied().zip(votes.iter().copied()).collect(),
                ));
            }

            // First round: now that the faulty set is known, freeze the
            // validity envelope and the initial diameter, and size the
            // report to the round budget so later records never reallocate.
            if validity_envelope.is_none() {
                received.refill(
                    votes
                        .iter()
                        .zip(&states)
                        .filter_map(|(v, s)| s.is_non_faulty().then_some(*v)),
                );
                let envelope = received
                    .range()
                    .expect("at least one process is non-faulty");
                validity_envelope = Some(envelope);
                let initial_diameter = received.diameter();
                prev_diameter = initial_diameter;
                if cfg.epsilon.covers_diameter(initial_diameter) {
                    reached = true;
                }
                report = Some(ConvergenceReport::with_capacity(
                    initial_diameter,
                    cfg.max_rounds,
                ));
                if reached {
                    break;
                }
            }

            // Send phase: rewrite the reused outboxes in place.
            observer.phase_start(Phase::Exchange);
            for (i, outbox) in outboxes.iter_mut().enumerate() {
                fill_outbox(cfg.model, outbox, ProcessId::new(i), &plan, &votes);
            }

            // Receive phase, into the reused slot matrix.
            network.exchange_into(round, &outboxes, &mut deliveries)?;
            observer.phase_end(Phase::Exchange);

            // Compute phase: every non-faulty process applies the voting
            // function; a faulty process' state is irrelevant (the agent
            // rewrites it at will). Under Buhrman's model the agent leaves
            // its host together with the outgoing message, so the host —
            // although it sent adversarial messages this round — executes
            // the receive and compute phases correctly and ends the round
            // with a freshly computed value.
            let compute_even_if_faulty = cfg.model.agents_move_with_messages();
            observer.phase_start(Phase::MsrApply);
            let mut min_multiset = usize::MAX;
            for i in 0..n {
                if states[i].is_non_faulty() || compute_even_if_faulty {
                    received.refill(deliveries.delivered_to(ProcessId::new(i)));
                    if telemetry {
                        min_multiset = min_multiset.min(received.len());
                    }
                    if let Some(next) = function.apply(&received) {
                        votes[i] = next;
                    }
                }
            }
            observer.phase_end(Phase::MsrApply);

            observer.phase_start(Phase::Record);
            rounds_executed = round_idx + 1;
            let diameter = non_faulty_diameter(&votes, &states);
            let report_ref = report.as_mut().expect("report initialised in first round");
            report_ref.record_round(diameter);
            reached = cfg.epsilon.covers_diameter(diameter);
            if telemetry {
                let stats = network.stats();
                let width = if min_multiset == usize::MAX {
                    0
                } else {
                    function.reduced_width(min_multiset)
                };
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
                    corrupted: corrupted_this_round,
                    delivered: stats.messages_delivered - prev_stats.messages_delivered,
                    omissions: stats.omissions - prev_stats.omissions,
                    link_omissions: stats.link_omissions - prev_stats.link_omissions,
                    msr_width: width as u32,
                });
                prev_stats = stats;
                prev_diameter = diameter;
                corruptions_total += u64::from(corrupted_this_round);
            }
            observer.phase_end(Phase::Record);
        }

        // A configuration with zero rounds (max_rounds reached without any
        // iteration is impossible because max_rounds >= 1, but inputs may
        // already agree before the adversary ever placed an agent).
        let validity_envelope = validity_envelope.unwrap_or_else(|| {
            Interval::hull(votes.iter().copied()).expect("at least one process")
        });
        let report = report.unwrap_or_else(|| {
            ConvergenceReport::new(
                Interval::hull(votes.iter().copied())
                    .map(|i| i.diameter())
                    .unwrap_or(0.0),
            )
        });

        // The trace leaves the network by move: cloning it would copy the
        // n×n-per-round observation records the run just paid to record
        // (and is pure waste when tracing was off).
        let (trace, network_stats) = network.into_parts();
        let outcome = MobileRunOutcome {
            reached_agreement: reached,
            rounds_executed,
            final_votes: votes,
            final_states: states,
            report,
            validity_envelope,
            epsilon: cfg.epsilon,
            configurations,
            trace,
            network_stats,
        };
        if telemetry {
            emit_run_events(observer, cfg.seed, &outcome, corruptions_total);
        }
        Ok(outcome)
    }
}

/// Emits the run-level telemetry for a finished run: a
/// [`ConvergenceEvent`] when ε-agreement was reached, then the
/// unconditional [`RunEndEvent`]. Shared by the scalar engine and the
/// per-lane collection of the seed-batched engine so both paths produce
/// bit-identical per-seed event streams.
pub(crate) fn emit_run_events<O: Observer>(
    observer: &mut O,
    seed: u64,
    outcome: &MobileRunOutcome,
    corruptions: u64,
) {
    if outcome.reached_agreement {
        observer.on_convergence(&ConvergenceEvent {
            seed,
            rounds: outcome.rounds_executed as u64,
            initial_diameter: outcome.report.initial_diameter(),
            final_diameter: outcome.report.final_diameter(),
        });
    }
    observer.on_run_end(&RunEndEvent {
        seed,
        reached_agreement: outcome.reached_agreement,
        validity: outcome.validity_holds(),
        rounds: outcome.rounds_executed as u64,
        initial_diameter: outcome.report.initial_diameter(),
        final_diameter: outcome.report.final_diameter(),
        mean_contraction: outcome.report.mean_contraction_factor(),
        messages_delivered: outcome.network_stats.messages_delivered,
        omissions: outcome.network_stats.omissions,
        link_omissions: outcome.network_stats.link_omissions,
        corruptions,
    });
}

/// The per-round scratch buffers of one run: allocated once, reused in
/// place by every round. Invariants: the buffers always cover the full
/// universe `n`; `plan` is overwritten by
/// [`MobileAdversary::begin_round_into`] (its outboxes recycle through the
/// adversary's pool); `outboxes[i]` always carries sender `i` into the
/// exchange; `deliveries` is fully overwritten by
/// [`SyncNetwork::exchange_into`]; `received` is refilled per process.
struct RoundScratch {
    plan: RoundFaultPlan,
    outboxes: Vec<Outbox>,
    deliveries: DeliveryMatrix,
    received: ValueMultiset,
}

impl RoundScratch {
    fn new(n: usize) -> Self {
        RoundScratch {
            plan: RoundFaultPlan::empty(n),
            outboxes: (0..n)
                .map(|i| Outbox::silent(n, ProcessId::new(i)))
                .collect(),
            deliveries: DeliveryMatrix::new(n),
            received: ValueMultiset::with_capacity(n),
        }
    }
}

/// Rewrites the reused outbox of one process for the send phase, honouring
/// the model-specific behaviour of faulty and cured processes. In-place
/// counterpart of the historical per-round outbox construction: slot
/// contents are identical, nothing is allocated. The seed-batched loop
/// mirrors this classification in `batch::classify_send`.
fn fill_outbox(
    model: MobileModel,
    outbox: &mut Outbox,
    p: ProcessId,
    plan: &RoundFaultPlan,
    votes: &[Value],
) {
    if plan.faulty.contains(p) {
        outbox.copy_from(
            plan.faulty_outboxes[p.index()]
                .as_ref()
                .expect("adversary provides an outbox for every faulty process"),
        );
        return;
    }
    if plan.cured.contains(p) {
        match model {
            // Aware of its state: stays silent for one round rather than
            // spreading a possibly corrupted value.
            MobileModel::Garay => outbox.fill_silent(),
            // Unaware: broadcasts its (possibly corrupted) state the same
            // way to everyone — a symmetric fault.
            MobileModel::Bonnet => outbox.fill_broadcast(votes[p.index()]),
            // Unaware, and the agent prepared its outgoing queue: flushes
            // the poisoned queue — an asymmetric fault.
            MobileModel::Sasaki => outbox.copy_from(
                plan.poisoned_outboxes[p.index()]
                    .as_ref()
                    .expect("Sasaki adversary provides a poisoned queue for every cured process"),
            ),
            // Agents move with the messages: there is never a cured
            // process during the send phase.
            MobileModel::Buhrman => {
                unreachable!("Buhrman's model has no cured senders")
            }
        }
        return;
    }
    outbox.fill_broadcast(votes[p.index()]);
}

/// The diameter of the non-faulty processes' votes, computed by a min/max
/// fold — no multiset materialization. Numerically identical to collecting
/// the non-faulty values and taking [`ValueMultiset::diameter`].
///
/// The fold runs eight independent accumulator pairs abreast (seeded with
/// the first non-faulty value, which is idempotent under min/max), so the
/// per-round reduction is not serialized on one compare chain. `Value`'s
/// min/max are total-order based, hence associative and commutative — the
/// chunked reduction picks exactly the values the sequential fold picks.
pub(crate) fn non_faulty_diameter(votes: &[Value], states: &[FaultState]) -> f64 {
    const LANES: usize = 8;
    let Some(seed) = votes
        .iter()
        .zip(states)
        .find_map(|(v, s)| s.is_non_faulty().then_some(*v))
    else {
        return 0.0;
    };
    let mut lo = [seed; LANES];
    let mut hi = [seed; LANES];
    for (chunk_v, chunk_s) in votes.chunks(LANES).zip(states.chunks(LANES)) {
        for (j, (v, s)) in chunk_v.iter().zip(chunk_s).enumerate() {
            if s.is_non_faulty() {
                lo[j] = lo[j].min(*v);
                hi[j] = hi[j].max(*v);
            }
        }
    }
    let lo = lo.into_iter().min().expect("LANES > 0");
    let hi = hi.into_iter().max().expect("LANES > 0");
    hi.get() - lo.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
    use mbaa_msr::MedianVoting;

    fn inputs(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::new(i as f64 / n as f64)).collect()
    }

    fn base_config(model: MobileModel, n: usize, f: usize) -> ProtocolConfig {
        ProtocolConfig::builder(model, n, f)
            .epsilon(1e-4)
            .max_rounds(500)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn all_models_converge_above_their_bound() {
        for model in MobileModel::ALL {
            let f = 2;
            let n = model.required_processes(f);
            let config = base_config(model, n, f);
            let outcome = MobileEngine::new(config).run(&inputs(n)).unwrap();
            assert!(outcome.reached_agreement, "{model} did not converge");
            assert!(
                outcome.epsilon_agreement_holds(),
                "{model} diameter too large"
            );
            assert!(outcome.validity_holds(), "{model} violated validity");
        }
    }

    #[test]
    fn fault_free_run_converges_immediately() {
        let config = base_config(MobileModel::Buhrman, 5, 0);
        let outcome = MobileEngine::new(config).run(&inputs(5)).unwrap();
        assert!(outcome.reached_agreement);
        assert!(outcome.rounds_executed <= 2);
        assert!(outcome.validity_holds());
    }

    #[test]
    fn identical_inputs_terminate_without_any_round() {
        let config = base_config(MobileModel::Garay, 9, 2);
        let same = vec![Value::new(0.5); 9];
        let outcome = MobileEngine::new(config).run(&same).unwrap();
        assert!(outcome.reached_agreement);
        assert_eq!(outcome.rounds_executed, 0);
        assert_eq!(outcome.final_diameter(), 0.0);
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let config = base_config(MobileModel::Garay, 9, 2);
        let err = MobileEngine::new(config).run(&inputs(5)).unwrap_err();
        assert!(matches!(
            err,
            Error::WrongInputCount {
                provided: 5,
                expected: 9
            }
        ));
    }

    #[test]
    fn outcome_exposes_configurations_and_trace() {
        let config = base_config(MobileModel::Bonnet, 11, 2);
        let outcome = MobileEngine::new(config).run(&inputs(11)).unwrap();
        assert_eq!(outcome.configurations.len(), outcome.rounds_executed);
        assert_eq!(outcome.trace.len(), outcome.rounds_executed);
        // Every configuration has f faulty processes and at most f cured.
        for c in &outcome.configurations {
            assert_eq!(c.faulty_set().len(), 2);
            assert!(c.cured_set().len() <= 2);
        }
    }

    #[test]
    fn cured_processes_recover_after_one_round() {
        // Corollary 1: the cured set never exceeds f, i.e. cured processes
        // from older rounds have all recovered.
        let config = ProtocolConfig::builder(MobileModel::Sasaki, 13, 2)
            .epsilon(1e-6)
            .max_rounds(60)
            .mobility(MobilityStrategy::Random)
            .seed(3)
            .build()
            .unwrap();
        let outcome = MobileEngine::new(config).run(&inputs(13)).unwrap();
        for c in &outcome.configurations {
            assert!(c.cured_set().len() <= 2);
        }
    }

    #[test]
    fn diameter_never_expands_when_bound_holds() {
        for model in MobileModel::ALL {
            let f = 1;
            let n = model.required_processes(f) + 2;
            let config = ProtocolConfig::builder(model, n, f)
                .epsilon(1e-6)
                .max_rounds(200)
                .corruption(CorruptionStrategy::split_attack())
                .mobility(MobilityStrategy::TargetExtremes)
                .seed(5)
                .build()
                .unwrap();
            let outcome = MobileEngine::new(config).run(&inputs(n)).unwrap();
            assert!(
                outcome.report.is_monotonically_non_expanding(),
                "{model}: {:?}",
                outcome.report.diameters()
            );
        }
    }

    #[test]
    fn all_corruption_strategies_are_tolerated_above_bound() {
        let f = 2;
        for model in MobileModel::ALL {
            let n = model.required_processes(f);
            for corruption in CorruptionStrategy::all_representative() {
                let config = ProtocolConfig::builder(model, n, f)
                    .epsilon(1e-3)
                    .max_rounds(600)
                    .corruption(corruption)
                    .seed(17)
                    .build()
                    .unwrap();
                let outcome = MobileEngine::new(config).run(&inputs(n)).unwrap();
                assert!(
                    outcome.reached_agreement && outcome.validity_holds(),
                    "{model} with {corruption} failed (diameter {})",
                    outcome.final_diameter()
                );
            }
        }
    }

    #[test]
    fn partial_topology_runs_are_deterministic_and_structurally_masked() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .seed(5)
            .topology(Topology::Ring { k: 2 })
            .build()
            .unwrap();
        let engine = MobileEngine::new(config);
        let a = engine.run(&inputs(9)).unwrap();
        let b = engine.run(&inputs(9)).unwrap();
        assert_eq!(a, b);
        assert!(a.rounds_executed > 0);
        // On a 9-ring with k = 2 every sender misses 4 non-neighbours, and
        // the trace records that as structure, not as faults.
        let obs = a.trace.get(0).unwrap().observation(ProcessId::new(0));
        assert_eq!(obs.unreachable_receivers().len(), 4);
    }

    #[test]
    fn churned_runs_are_deterministic_and_account_link_faults_separately() {
        use mbaa_net::{DisconnectionPolicy, LinkFaultPlan};
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-3)
            .max_rounds(300)
            .seed(7)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.3,
            })
            .link_faults(LinkFaultPlan::new().omit_all(0.05))
            .build()
            .unwrap();
        assert_eq!(config.disconnection, DisconnectionPolicy::Record);
        let engine = MobileEngine::new(config);
        let a = engine.run(&inputs(9)).unwrap();
        let b = engine.run(&inputs(9)).unwrap();
        assert_eq!(a, b);
        assert!(a.rounds_executed > 0);
        // Structural drops and link losses never masquerade as adversary
        // omissions: the adversary here is Garay's, whose cured processes
        // do omit — but the link counters are tracked on their own.
        assert!(a.network_stats.unreachable > 0, "churn dropped no link");
        assert!(a.network_stats.link_omissions > 0, "p=0.05 lost nothing");
        assert_eq!(a.network_stats.link_delayed, 0);
        assert_eq!(a.network_stats.rounds as usize, a.rounds_executed);
    }

    #[test]
    fn reject_policy_surfaces_disconnected_rounds_as_typed_errors() {
        use mbaa_net::DisconnectionPolicy;
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .epsilon(1e-9)
            .max_rounds(200)
            .seed(3)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.9,
            })
            .disconnection(DisconnectionPolicy::Reject)
            .build()
            .unwrap();
        let err = MobileEngine::new(config).run(&inputs(9)).unwrap_err();
        assert!(matches!(err, Error::DisconnectedRound { .. }));
    }

    #[test]
    fn static_complete_schedule_is_bit_identical_to_no_schedule() {
        let plain = base_config(MobileModel::Bonnet, 11, 2);
        let scheduled = ProtocolConfig::builder(MobileModel::Bonnet, 11, 2)
            .epsilon(1e-4)
            .max_rounds(500)
            .seed(11)
            .topology_schedule(TopologySchedule::Static(Topology::Complete))
            .build()
            .unwrap();
        let a = MobileEngine::new(plain).run(&inputs(11)).unwrap();
        let b = MobileEngine::new(scheduled).run(&inputs(11)).unwrap();
        // The configs differ (one carries the schedule) but every outcome
        // field is identical, trace and stats included.
        assert_eq!(a, b);
        assert!(!a.network_stats.has_link_faults());
    }

    #[test]
    fn deterministic_under_seed() {
        let config = base_config(MobileModel::Bonnet, 11, 2);
        let engine = MobileEngine::new(config);
        let a = engine.run(&inputs(11)).unwrap();
        let b = engine.run(&inputs(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn observe_levels_record_subsets_of_the_same_run() {
        use crate::Observe;
        for model in MobileModel::ALL {
            let n = model.required_processes(2);
            let run_at = |observe: Observe| {
                let config = ProtocolConfig::builder(model, n, 2)
                    .epsilon(1e-4)
                    .max_rounds(500)
                    .seed(11)
                    .observe(observe)
                    .build()
                    .unwrap();
                MobileEngine::new(config).run(&inputs(n)).unwrap()
            };
            let full = run_at(Observe::Full);
            let snapshots = run_at(Observe::Snapshots);
            let summary = run_at(Observe::Summary);

            // The computation is identical: every recorded field agrees.
            assert_eq!(full.configurations.len(), full.rounds_executed);
            assert_eq!(full.trace.len(), full.rounds_executed);
            assert_eq!(snapshots.configurations, full.configurations);
            assert!(snapshots.trace.is_empty());
            assert!(summary.configurations.is_empty() && summary.trace.is_empty());
            for other in [&snapshots, &summary] {
                assert_eq!(other.reached_agreement, full.reached_agreement, "{model}");
                assert_eq!(other.rounds_executed, full.rounds_executed, "{model}");
                assert_eq!(other.final_votes, full.final_votes, "{model}");
                assert_eq!(other.final_states, full.final_states, "{model}");
                assert_eq!(other.report, full.report, "{model}");
                assert_eq!(other.validity_envelope, full.validity_envelope, "{model}");
                assert_eq!(other.network_stats, full.network_stats, "{model}");
            }
        }
    }

    #[test]
    fn observe_summary_is_bit_identical_on_dynamic_networks_too() {
        use crate::Observe;
        use mbaa_net::LinkFaultPlan;
        let build = |observe: Observe| {
            ProtocolConfig::builder(MobileModel::Garay, 9, 1)
                .epsilon(1e-3)
                .max_rounds(300)
                .seed(7)
                .topology_schedule(TopologySchedule::SeededChurn {
                    base: Topology::Complete,
                    flip_rate: 0.3,
                })
                .link_faults(LinkFaultPlan::new().omit_all(0.05))
                .observe(observe)
                .build()
                .unwrap()
        };
        let full = MobileEngine::new(build(Observe::Full))
            .run(&inputs(9))
            .unwrap();
        let summary = MobileEngine::new(build(Observe::Summary))
            .run(&inputs(9))
            .unwrap();
        assert_eq!(summary.final_votes, full.final_votes);
        assert_eq!(summary.report, full.report);
        assert_eq!(summary.network_stats, full.network_stats);
        assert!(summary.trace.is_empty() && !full.trace.is_empty());
    }

    #[test]
    fn median_baseline_can_be_swapped_in() {
        let config = base_config(MobileModel::Buhrman, 7, 2);
        let engine = MobileEngine::new(config);
        let outcome = engine
            .run_with_function(&MedianVoting::new(), &inputs(7))
            .unwrap();
        // The median baseline also converges under Buhrman's model here;
        // what matters for this test is that the engine accepts it.
        assert!(outcome.rounds_executed > 0);
        assert_eq!(engine.config().n, 7);
    }
}
