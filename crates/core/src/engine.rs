//! The outcome of one protocol run, and the run-level helpers the round
//! loop in [`crate::batch`] shares with it.

use serde::{Deserialize, Serialize};

use mbaa_msr::ConvergenceReport;
use mbaa_net::{NetworkStats, NetworkTrace};
use mbaa_obs::{ConvergenceEvent, Observer, RunEndEvent};
use mbaa_types::{Epsilon, FaultState, Interval, ProcessId, Value, ValueMultiset};

use crate::RoundSnapshot;

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
    /// receiver, per round) — the raw material of the Table 1 mapping.
    /// Empty unless the run's [`crate::Observe`] level is
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

/// Emits the run-level telemetry for a finished run: a
/// [`ConvergenceEvent`] when ε-agreement was reached, then the
/// unconditional [`RunEndEvent`].
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

/// The range of the non-faulty processes' votes, or `None` when every
/// process is faulty: one min/max fold, no multiset materialization. Its
/// diameter is numerically identical to collecting the non-faulty values
/// and taking [`ValueMultiset::diameter`].
pub(crate) fn non_faulty_hull(votes: &[Value], states: &[FaultState]) -> Option<Interval> {
    Interval::hull(
        votes
            .iter()
            .zip(states)
            .filter_map(|(v, s)| s.is_non_faulty().then_some(*v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchEngine, ProtocolConfig};
    use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
    use mbaa_msr::MedianVoting;
    use mbaa_net::{Topology, TopologySchedule};
    use mbaa_obs::NoopObserver;
    use mbaa_types::{Error, MobileModel};

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
    fn non_faulty_diameter_matches_the_multiset_diameter() {
        let mut state = 5_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let kinds = [FaultState::Correct, FaultState::Cured, FaultState::Faulty];
        for case in 0..300 {
            let n = 1 + (next() % 16) as usize;
            let votes: Vec<Value> = (0..n)
                .map(|_| Value::new((next() % 2001) as f64 / 100.0 - 10.0))
                .collect();
            // Every fifth case has every process faulty.
            let states: Vec<FaultState> = (0..n)
                .map(|_| match case % 5 {
                    0 => FaultState::Faulty,
                    _ => kinds[(next() % 3) as usize],
                })
                .collect();
            let non_faulty: ValueMultiset = votes
                .iter()
                .zip(&states)
                .filter_map(|(v, s)| s.is_non_faulty().then_some(*v))
                .collect();
            assert_eq!(
                non_faulty_hull(&votes, &states)
                    .map_or(0.0, |hull| hull.diameter())
                    .to_bits(),
                non_faulty.diameter().to_bits(),
                "case {case}: {votes:?} {states:?}"
            );
        }
    }

    #[test]
    fn all_models_converge_above_their_bound() {
        for model in MobileModel::ALL {
            let f = 2;
            let n = model.required_processes(f);
            let config = base_config(model, n, f);
            let outcome = BatchEngine::run(&config, &inputs(n)).unwrap();
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
        let outcome = BatchEngine::run(&config, &inputs(5)).unwrap();
        assert!(outcome.reached_agreement);
        assert!(outcome.rounds_executed <= 2);
        assert!(outcome.validity_holds());
    }

    #[test]
    fn identical_inputs_terminate_without_any_round() {
        let config = base_config(MobileModel::Garay, 9, 2);
        let same = vec![Value::new(0.5); 9];
        let outcome = BatchEngine::run(&config, &same).unwrap();
        assert!(outcome.reached_agreement);
        assert_eq!(outcome.rounds_executed, 0);
        assert_eq!(outcome.final_diameter(), 0.0);
    }

    #[test]
    fn identical_inputs_still_record_the_first_snapshot() {
        // The run ends before its first send phase, after the adversary
        // placed its agents: one snapshot, no trace.
        let config = base_config(MobileModel::Sasaki, 13, 2);
        let outcome = BatchEngine::run(&config, &[Value::new(0.25); 13]).unwrap();
        assert_eq!(outcome.rounds_executed, 0);
        assert_eq!(outcome.configurations.len(), 1);
        assert_eq!(outcome.configurations[0].faulty_set().len(), 2);
        assert!(outcome.trace.is_empty());
        assert_eq!(outcome.network_stats.rounds, 0);
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let config = base_config(MobileModel::Garay, 9, 2);
        let err = BatchEngine::run(&config, &inputs(5)).unwrap_err();
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
        let outcome = BatchEngine::run(&config, &inputs(11)).unwrap();
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
        let outcome = BatchEngine::run(&config, &inputs(13)).unwrap();
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
            let outcome = BatchEngine::run(&config, &inputs(n)).unwrap();
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
                let outcome = BatchEngine::run(&config, &inputs(n)).unwrap();
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
        let a = BatchEngine::run(&config, &inputs(9)).unwrap();
        let b = BatchEngine::run(&config, &inputs(9)).unwrap();
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
        let a = BatchEngine::run(&config, &inputs(9)).unwrap();
        let b = BatchEngine::run(&config, &inputs(9)).unwrap();
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
        let err = BatchEngine::run(&config, &inputs(9)).unwrap_err();
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
        let a = BatchEngine::run(&plain, &inputs(11)).unwrap();
        let b = BatchEngine::run(&scheduled, &inputs(11)).unwrap();
        // The configs differ (one carries the schedule) but every outcome
        // field is identical, trace and stats included.
        assert_eq!(a, b);
        assert!(!a.network_stats.has_link_faults());
    }

    #[test]
    fn deterministic_under_seed() {
        let config = base_config(MobileModel::Bonnet, 11, 2);
        let a = BatchEngine::run(&config, &inputs(11)).unwrap();
        let b = BatchEngine::run(&config, &inputs(11)).unwrap();
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
                BatchEngine::run(&config, &inputs(n)).unwrap()
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
        let full = BatchEngine::run(&build(Observe::Full), &inputs(9)).unwrap();
        let summary = BatchEngine::run(&build(Observe::Summary), &inputs(9)).unwrap();
        assert_eq!(summary.final_votes, full.final_votes);
        assert_eq!(summary.report, full.report);
        assert_eq!(summary.network_stats, full.network_stats);
        assert!(summary.trace.is_empty() && !full.trace.is_empty());
    }

    #[test]
    fn median_baseline_can_be_swapped_in() {
        let config = base_config(MobileModel::Buhrman, 7, 2);
        let median = MedianVoting::new();
        let outcome =
            BatchEngine::run_with(&config, &inputs(7), Some(&median), &mut NoopObserver).unwrap();
        // The median baseline also converges under Buhrman's model here;
        // what matters for this test is that the engine accepts it, and
        // that it really replaced the configured MSR function.
        assert!(outcome.rounds_executed > 0);
        assert_ne!(outcome, BatchEngine::run(&config, &inputs(7)).unwrap());
    }
}
