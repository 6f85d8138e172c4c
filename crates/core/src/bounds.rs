//! Replica requirements (Table 2) and the empirical threshold finder used by
//! the Table 2 benchmark.
//!
//! The paper's Table 2 states the number of processes each model needs to
//! tolerate `f` mobile Byzantine agents:
//!
//! | model | requirement |
//! |---|---|
//! | M1 (Garay)   | `n > 4f` |
//! | M2 (Bonnet)  | `n > 5f` |
//! | M3 (Sasaki)  | `n > 6f` |
//! | M4 (Buhrman) | `n > 3f` |
//!
//! [`table2`] produces those rows. [`empirical_threshold`] complements them
//! experimentally: it sweeps `n` upwards and reports the smallest `n` at
//! which every seeded adversarial run reaches ε-agreement with validity.
//! Because a concrete adversary is not necessarily optimal, the empirical
//! threshold is a *lower estimate* of the true requirement; the tightness of
//! the bound itself is demonstrated by the indistinguishability
//! constructions in [`crate::lower_bounds`].

use serde::{Deserialize, Serialize};

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_obs::NoopObserver;
use mbaa_types::{MobileModel, Result, Value};

use crate::{BatchEngine, Observe, PackedLane, ProtocolConfig};

/// One row of Table 2: the replica requirement of one model for a given `f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaRequirement {
    /// The mobile Byzantine model.
    pub model: MobileModel,
    /// The number of agents tolerated.
    pub f: usize,
    /// The bound `c·f` that `n` must strictly exceed.
    pub bound: usize,
    /// The smallest admissible number of processes, `c·f + 1`.
    pub required: usize,
}

/// Produces Table 2 for the given agent counts.
#[must_use]
pub fn table2(agent_counts: &[usize]) -> Vec<ReplicaRequirement> {
    let mut rows = Vec::with_capacity(agent_counts.len() * MobileModel::ALL.len());
    for &model in &MobileModel::ALL {
        for &f in agent_counts {
            rows.push(ReplicaRequirement {
                model,
                f,
                bound: model.impossibility_threshold(f),
                required: model.required_processes(f),
            });
        }
    }
    rows
}

/// Parameters of an empirical threshold search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdSearch {
    /// The model under test.
    pub model: MobileModel,
    /// The number of agents.
    pub f: usize,
    /// The adversary seeds every candidate `n` must survive.
    pub seeds: Vec<u64>,
    /// The agreement tolerance.
    pub epsilon: f64,
    /// The round budget per run.
    pub max_rounds: usize,
    /// The corruption strategy of the adversary.
    pub corruption: CorruptionStrategy,
    /// The mobility strategy of the adversary.
    pub mobility: MobilityStrategy,
}

impl ThresholdSearch {
    /// A search with the workspace's default worst-case adversary
    /// (split corruption + extreme-targeting mobility) and 10 seeds.
    #[must_use]
    pub fn worst_case(model: MobileModel, f: usize) -> Self {
        ThresholdSearch {
            model,
            f,
            seeds: (0..10).collect(),
            epsilon: 1e-3,
            max_rounds: 400,
            corruption: CorruptionStrategy::split_attack(),
            mobility: MobilityStrategy::TargetExtremes,
        }
    }
}

/// The result of an empirical threshold search for one (model, f) pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdResult {
    /// The model under test.
    pub model: MobileModel,
    /// The number of agents.
    pub f: usize,
    /// The theoretical requirement from Table 2.
    pub theoretical: usize,
    /// The smallest `n` from which every tested size up to the end of the
    /// sweep had all seeded runs succeed. (Isolated successes at very small
    /// `n`, where almost every process is faulty and agreement is vacuous,
    /// do not count.)
    pub empirical: usize,
    /// For each tested `n` (starting at `f + 1`), how many of the seeded
    /// runs reached ε-agreement with validity.
    pub successes_per_n: Vec<(usize, usize)>,
}

impl ThresholdResult {
    /// Returns `true` when the theoretical requirement is sufficient in the
    /// experiment, i.e. every run at `n = theoretical` succeeded.
    #[must_use]
    pub fn theoretical_is_sufficient(&self) -> bool {
        self.empirical <= self.theoretical
    }
}

/// Runs every seeded adversarial execution at size `n` as one pack and
/// counts those that satisfied both ε-agreement and validity.
fn successes_at(n: usize, search: &ThresholdSearch) -> Result<usize> {
    let inputs: Vec<Value> = (0..n).map(|i| Value::new(i as f64 / n as f64)).collect();
    let lanes = search
        .seeds
        .iter()
        .map(|&seed| {
            let config = ProtocolConfig::builder(search.model, n, search.f)
                .epsilon(search.epsilon)
                .max_rounds(search.max_rounds)
                .corruption(search.corruption)
                .mobility(search.mobility)
                .seed(seed)
                .observe(Observe::Summary)
                .allow_bound_violation()
                .build()?;
            Ok(PackedLane {
                config,
                inputs: inputs.clone(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let mut successes = 0;
    for outcome in BatchEngine::run_packed_observed(&lanes, &mut NoopObserver) {
        let outcome = outcome?;
        successes += usize::from(outcome.reached_agreement && outcome.validity_holds());
    }
    Ok(successes)
}

/// Sweeps `n` from `f + 1` up to `theoretical + margin` and reports, for each
/// `n`, how many of the seeded runs succeeded, together with the empirical
/// threshold: the smallest `n` such that every tested size `n' >= n` had all
/// seeded runs succeed.
///
/// # Errors
///
/// Propagates configuration or execution errors from the engine.
pub fn empirical_threshold(search: &ThresholdSearch, margin: usize) -> Result<ThresholdResult> {
    let theoretical = search.model.required_processes(search.f);
    let mut successes_per_n = Vec::new();

    for n in (search.f + 1)..=(theoretical + margin) {
        successes_per_n.push((n, successes_at(n, search)?));
    }

    // Scan downwards from the top of the sweep: the threshold is the first
    // point below which some size fails.
    let mut empirical = theoretical + margin + 1;
    for &(n, successes) in successes_per_n.iter().rev() {
        if successes == search.seeds.len() {
            empirical = n;
        } else {
            break;
        }
    }

    Ok(ThresholdResult {
        model: search.model,
        f: search.f,
        theoretical,
        empirical,
        successes_per_n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let rows = table2(&[1, 2, 3]);
        assert_eq!(rows.len(), 12);
        let find = |model, f| {
            rows.iter()
                .find(|r| r.model == model && r.f == f)
                .copied()
                .unwrap()
        };
        assert_eq!(find(MobileModel::Garay, 2).required, 9);
        assert_eq!(find(MobileModel::Bonnet, 2).required, 11);
        assert_eq!(find(MobileModel::Sasaki, 2).required, 13);
        assert_eq!(find(MobileModel::Buhrman, 2).required, 7);
        assert_eq!(find(MobileModel::Garay, 3).bound, 12);
    }

    #[test]
    fn threshold_search_defaults() {
        let s = ThresholdSearch::worst_case(MobileModel::Garay, 1);
        assert_eq!(s.seeds.len(), 10);
        assert_eq!(s.mobility, MobilityStrategy::TargetExtremes);
    }

    #[test]
    fn empirical_threshold_confirms_sufficiency_of_table_2() {
        // Small search (f = 1, few seeds) to keep the test fast; the full
        // sweep lives in the table2_replicas benchmark.
        for model in MobileModel::ALL {
            let search = ThresholdSearch {
                seeds: (0..3).collect(),
                epsilon: 1e-3,
                max_rounds: 200,
                ..ThresholdSearch::worst_case(model, 1)
            };
            let result = empirical_threshold(&search, 1).unwrap();
            assert!(
                result.theoretical_is_sufficient(),
                "{model}: empirical {} > theoretical {}",
                result.empirical,
                result.theoretical
            );
            // The sweep covered n = f+1 ..= theoretical + 1.
            assert_eq!(
                result.successes_per_n.len(),
                result.theoretical + 1 - (search.f + 1) + 1
            );
            // At the theoretical requirement every seed succeeded.
            let at_bound = result
                .successes_per_n
                .iter()
                .find(|(n, _)| *n == result.theoretical)
                .unwrap();
            assert_eq!(at_bound.1, search.seeds.len());
        }
    }

    #[test]
    fn starved_configurations_fail() {
        // Sasaki with f = 1 maps to τ = 2, so the MSR function needs at
        // least 5 delivered values; at n = 4 the reduction empties every
        // multiset, votes never move, and the run cannot reach agreement.
        // Exercises the allow_bound_violation path below the bound.
        let search = ThresholdSearch {
            seeds: vec![0],
            epsilon: 1e-3,
            max_rounds: 50,
            ..ThresholdSearch::worst_case(MobileModel::Sasaki, 1)
        };
        assert_eq!(successes_at(4, &search).unwrap(), 0);
    }
}
