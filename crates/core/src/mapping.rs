//! The Mobile-Byzantine-to-Mixed-Mode mapping (Table 1), both as the
//! theoretical statement of Lemmas 1–4 and as an empirical classification of
//! instrumented executions.
//!
//! The theoretical table says how faulty and cured processes of each model
//! behave when projected onto the mixed-mode fault classes:
//!
//! | | M1 (Garay) | M2 (Bonnet) | M3 (Sasaki) | M4 (Buhrman) |
//! |---|---|---|---|---|
//! | faulty | asymmetric | asymmetric | asymmetric | asymmetric |
//! | cured  | benign     | symmetric  | asymmetric | — |
//!
//! The empirical side runs a real execution under a worst-case (split)
//! adversary, looks at what every sender actually delivered to every
//! receiver, and classifies each faulty / cured sender's observable
//! behaviour. The benchmark `table1_mapping` prints both tables side by
//! side.

use std::fmt;

use serde::{Deserialize, Serialize};

use mbaa_net::ObservedBehavior;
use mbaa_types::{FaultState, MixedFaultClass, MobileModel, ProcessId};

use crate::MobileRunOutcome;

/// One row of the theoretical Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TheoreticalMapping {
    /// The mobile Byzantine model.
    pub model: MobileModel,
    /// The mixed-mode class of an agent-occupied (faulty) process.
    pub faulty_class: MixedFaultClass,
    /// The mixed-mode class of a cured process, or `None` when the model has
    /// no cured processes during the send phase (Buhrman).
    pub cured_class: Option<MixedFaultClass>,
}

/// The theoretical Table 1, one entry per model (Lemmas 1–4).
#[must_use]
pub fn theoretical_table() -> Vec<TheoreticalMapping> {
    MobileModel::ALL
        .iter()
        .map(|&model| TheoreticalMapping {
            model,
            faulty_class: MixedFaultClass::Asymmetric,
            cured_class: model.cured_fault_class(),
        })
        .collect()
}

/// Counts of observed behaviours for one ground-truth role (faulty or cured)
/// across an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BehaviorCounts {
    /// Rounds in which the sender omitted every message.
    pub benign: usize,
    /// Rounds in which the sender broadcast one (possibly wrong) value.
    pub symmetric: usize,
    /// Rounds in which the sender delivered different values to different
    /// receivers.
    pub asymmetric: usize,
}

impl BehaviorCounts {
    /// Total number of classified observations.
    #[must_use]
    pub fn total(&self) -> usize {
        self.benign + self.symmetric + self.asymmetric
    }

    /// The mixed-mode class observed most often, or `None` when nothing was
    /// observed.
    #[must_use]
    pub fn dominant(&self) -> Option<MixedFaultClass> {
        if self.total() == 0 {
            return None;
        }
        let max = self.benign.max(self.symmetric).max(self.asymmetric);
        if max == self.asymmetric {
            Some(MixedFaultClass::Asymmetric)
        } else if max == self.symmetric {
            Some(MixedFaultClass::Symmetric)
        } else {
            Some(MixedFaultClass::Benign)
        }
    }

    fn record(&mut self, class: MixedFaultClass) {
        match class {
            MixedFaultClass::Benign => self.benign += 1,
            MixedFaultClass::Symmetric => self.symmetric += 1,
            MixedFaultClass::Asymmetric => self.asymmetric += 1,
        }
    }
}

impl fmt::Display for BehaviorCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "benign={}, symmetric={}, asymmetric={}",
            self.benign, self.symmetric, self.asymmetric
        )
    }
}

/// The empirical Table 1 entry of one model: how the faulty and cured
/// processes of a real execution behaved, round by round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmpiricalMapping {
    /// The model the execution ran under.
    pub model: MobileModel,
    /// Observed behaviour of agent-occupied processes.
    pub faulty: BehaviorCounts,
    /// Observed behaviour of cured processes.
    pub cured: BehaviorCounts,
}

impl EmpiricalMapping {
    /// Returns `true` when the dominant observed classes match the
    /// theoretical Table 1 row for this model.
    #[must_use]
    pub fn matches_theory(&self) -> bool {
        let faulty_ok = self.faulty.dominant() == Some(MixedFaultClass::Asymmetric);
        let cured_ok = match self.model.cured_fault_class() {
            Some(expected) => self.cured.dominant() == Some(expected),
            // Buhrman: there must be no cured observations at all.
            None => self.cured.total() == 0,
        };
        faulty_ok && cured_ok
    }
}

/// Classifies the observable behaviour of each faulty and cured sender in an
/// execution, producing the empirical Table 1 entry for its model.
///
/// The classification follows the mixed-mode definitions: a sender that
/// omitted everything is benign, a sender that delivered the same value to
/// every receiver is symmetric (its behaviour is perceived identically), and
/// a sender that delivered different values (or a mix of values and
/// omissions) is asymmetric. Correct senders are not counted.
///
/// # Panics
///
/// Panics when `outcome` executed rounds but carries no snapshots or
/// trace — the raw material of the classification. Runs recorded at
/// [`Observe::Snapshots`](crate::Observe::Snapshots) or
/// [`Observe::Summary`](crate::Observe::Summary) cannot be classified;
/// re-run at [`Observe::Full`](crate::Observe::Full) (the default).
#[must_use]
pub fn classify_execution(model: MobileModel, outcome: &MobileRunOutcome) -> EmpiricalMapping {
    assert!(
        outcome.rounds_executed == 0
            || (!outcome.configurations.is_empty() && !outcome.trace.is_empty()),
        "classify_execution needs the per-round snapshots and the network trace; \
         this outcome was recorded below Observe::Full — re-run the scenario with \
         the default observability level"
    );
    let mut faulty = BehaviorCounts::default();
    let mut cured = BehaviorCounts::default();

    for (round_idx, configuration) in outcome.configurations.iter().enumerate() {
        let Some(round_trace) = outcome.trace.get(round_idx) else {
            // The final configuration may have no matching trace when the
            // run terminated before its send phase.
            continue;
        };
        for (p, tuple) in configuration.iter() {
            let counts = match tuple.state {
                FaultState::Correct => continue,
                FaultState::Faulty => &mut faulty,
                FaultState::Cured => &mut cured,
            };
            let class = observed_class(round_trace.observation(p).classify(None));
            counts.record(class);
        }
    }

    EmpiricalMapping {
        model,
        faulty,
        cured,
    }
}

/// Projects an observed behaviour of a *non-correct* sender onto the
/// mixed-mode class it exhibits.
fn observed_class(behavior: ObservedBehavior) -> MixedFaultClass {
    match behavior {
        ObservedBehavior::Benign => MixedFaultClass::Benign,
        // A non-correct sender that broadcast uniformly is, by definition,
        // perceived identically by everyone: a symmetric fault — regardless
        // of whether the value happens to look plausible.
        ObservedBehavior::CorrectBroadcast | ObservedBehavior::Symmetric => {
            MixedFaultClass::Symmetric
        }
        ObservedBehavior::Asymmetric => MixedFaultClass::Asymmetric,
    }
}

/// Looks up which processes were cured in a given round of an execution —
/// convenience for reports.
#[must_use]
pub fn cured_in_round(outcome: &MobileRunOutcome, round_idx: usize) -> Vec<ProcessId> {
    outcome
        .configurations
        .get(round_idx)
        .map(|c| c.cured_set().iter().collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchEngine, ProtocolConfig};
    use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
    use mbaa_types::Value;

    fn run(model: MobileModel, n: usize, f: usize) -> MobileRunOutcome {
        let config = ProtocolConfig::builder(model, n, f)
            .epsilon(1e-9)
            .max_rounds(40)
            .corruption(CorruptionStrategy::split_attack())
            .mobility(MobilityStrategy::RoundRobin)
            .seed(23)
            .build()
            .unwrap();
        let inputs: Vec<Value> = (0..n).map(|i| Value::new(i as f64)).collect();
        BatchEngine::run(&config, &inputs).unwrap()
    }

    #[test]
    fn theoretical_table_matches_lemmas() {
        let table = theoretical_table();
        assert_eq!(table.len(), 4);
        for row in &table {
            assert_eq!(row.faulty_class, MixedFaultClass::Asymmetric);
        }
        assert_eq!(table[0].cured_class, Some(MixedFaultClass::Benign));
        assert_eq!(table[1].cured_class, Some(MixedFaultClass::Symmetric));
        assert_eq!(table[2].cured_class, Some(MixedFaultClass::Asymmetric));
        assert_eq!(table[3].cured_class, None);
    }

    #[test]
    fn empirical_classification_reproduces_table_1() {
        for model in MobileModel::ALL {
            let f = 2;
            let n = model.required_processes(f);
            let outcome = run(model, n, f);
            let mapping = classify_execution(model, &outcome);
            assert!(
                mapping.matches_theory(),
                "{model}: faulty {:?} cured {:?}",
                mapping.faulty,
                mapping.cured
            );
        }
    }

    #[test]
    fn behavior_counts_dominant() {
        let mut c = BehaviorCounts::default();
        assert_eq!(c.dominant(), None);
        c.record(MixedFaultClass::Benign);
        c.record(MixedFaultClass::Asymmetric);
        c.record(MixedFaultClass::Asymmetric);
        assert_eq!(c.dominant(), Some(MixedFaultClass::Asymmetric));
        assert_eq!(c.total(), 3);
        assert!(c.to_string().contains("asymmetric=2"));
    }

    #[test]
    fn buhrman_has_no_cured_observations() {
        let outcome = run(MobileModel::Buhrman, 7, 2);
        let mapping = classify_execution(MobileModel::Buhrman, &outcome);
        assert_eq!(mapping.cured.total(), 0);
        assert!(mapping.faulty.total() > 0);
    }

    #[test]
    fn garay_cured_is_benign_bonnet_symmetric_sasaki_asymmetric() {
        let garay = classify_execution(MobileModel::Garay, &run(MobileModel::Garay, 9, 2));
        assert_eq!(garay.cured.dominant(), Some(MixedFaultClass::Benign));

        let bonnet = classify_execution(MobileModel::Bonnet, &run(MobileModel::Bonnet, 11, 2));
        assert_eq!(bonnet.cured.dominant(), Some(MixedFaultClass::Symmetric));

        let sasaki = classify_execution(MobileModel::Sasaki, &run(MobileModel::Sasaki, 13, 2));
        assert_eq!(sasaki.cured.dominant(), Some(MixedFaultClass::Asymmetric));
    }

    #[test]
    #[should_panic(expected = "Observe::Full")]
    fn classification_rejects_trace_less_outcomes() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .epsilon(1e-9)
            .max_rounds(40)
            .seed(23)
            .observe(crate::Observe::Summary)
            .build()
            .unwrap();
        let inputs: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        let outcome = BatchEngine::run(&config, &inputs).unwrap();
        // Silently returning all-zero counts would let matches_theory pass
        // vacuously for Buhrman-style expectations; fail loudly instead.
        let _ = classify_execution(MobileModel::Garay, &outcome);
    }

    #[test]
    fn cured_in_round_reports_processes() {
        let outcome = run(MobileModel::Garay, 9, 2);
        // Round 0 never has cured processes; later rounds may.
        assert!(cured_in_round(&outcome, 0).is_empty());
        assert!(cured_in_round(&outcome, 9_999).is_empty());
        if outcome.configurations.len() > 1 {
            assert_eq!(cured_in_round(&outcome, 1).len(), 2);
        }
    }
}
