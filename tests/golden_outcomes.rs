//! Golden outcomes: the complete `MobileRunOutcome` of recorded runs —
//! final votes and states, convergence report, network statistics, the
//! per-round snapshots and the full per-round delivery trace — pinned by
//! digest for every model on every network family, at `Observe::Full` and
//! `Observe::Snapshots`, plus the edge cases (identical inputs, wrong input
//! count, a custom voting function, a rejected disconnected round) and
//! packs that mix sizes and observe levels.
//!
//! The digests in `tests/golden/runs.digests` were taken before the
//! scalar engine was removed, so they pin today's recordings to the
//! scalar engine's.

mod golden;

use golden::Golden;
use mbaa::prelude::*;
use mbaa::{BatchEngine, PackedLane};

const SEEDS: [u64; 2] = [3, 8];

/// Every model at `f = 1`, three processes above its bound, with a short
/// budget so full traces stay small. Partial graphs opt out of the
/// neighbourhood bound: the digests pin behaviour, not success.
fn models() -> Vec<Scenario> {
    MobileModel::ALL
        .iter()
        .map(|&model| {
            Scenario::new(model, model.required_processes(1) + 3, 1)
                .epsilon(1e-6)
                .max_rounds(60)
                .allow_bound_violation()
        })
        .collect()
}

/// The network families: complete, a ring, a random-regular graph
/// (realized per seed), churn with probabilistic omissions, and delayed
/// plus lossy links.
fn networks(base: &Scenario) -> Vec<(&'static str, Scenario)> {
    vec![
        ("complete", base.clone()),
        ("ring", base.clone().topology(Topology::Ring { k: 2 })),
        (
            "random_regular",
            base.clone().topology(Topology::RandomRegular { degree: 4 }),
        ),
        (
            "churn_omission",
            base.clone()
                .topology_schedule(TopologySchedule::SeededChurn {
                    base: Topology::Complete,
                    flip_rate: 0.2,
                })
                .link_faults(LinkFaultPlan::new().omit_all(0.05)),
        ),
        (
            "delayed_link",
            base.clone().link_faults(
                LinkFaultPlan::new()
                    .delay(0, 1, 2)
                    .delay(3, 2, 1)
                    .omit(1, 2, 0.3),
            ),
        ),
    ]
}

#[test]
fn every_model_and_network_records_the_golden_outcome() {
    let mut golden = Golden::default();
    for base in models() {
        for (network, scenario) in networks(&base) {
            for (level, observe) in [("full", Observe::Full), ("snapshots", Observe::Snapshots)] {
                let scenario = scenario.clone().observe(observe);
                for seed in SEEDS {
                    golden.record(
                        format!("outcome/{}/{network}/{level}/{seed}", base.model),
                        &scenario.run(seed),
                    );
                }
            }
        }
    }
    golden.check();
}

#[test]
fn edge_cases_record_the_golden_outcome() {
    let mut golden = Golden::default();
    let garay = Scenario::new(MobileModel::Garay, 9, 2)
        .epsilon(1e-6)
        .max_rounds(80);
    golden.record(
        "edge/identical_inputs",
        &garay.clone().inputs(vec![Value::new(0.5); 9]).run(1),
    );
    golden.record(
        "edge/wrong_input_count",
        &garay.clone().inputs(vec![Value::new(0.5); 4]).run(1),
    );
    golden.record(
        "edge/median_voting",
        &Scenario::at_bound(MobileModel::Buhrman, 2)
            .epsilon(1e-6)
            .run_with_function(&MedianVoting::new(), 7),
    );
    golden.record(
        "edge/rejected_disconnected_round",
        &garay
            .clone()
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.9,
            })
            .disconnection(DisconnectionPolicy::Reject)
            .allow_bound_violation()
            .run(3),
    );
    golden.record("edge/default_observe", &garay.run(5));
    golden.check();
}

#[test]
fn packs_of_mixed_sizes_and_levels_record_the_golden_outcome() {
    // Lanes of different sizes, networks and observe levels in one pack:
    // each lane's result must be its own golden outcome.
    let levels = [Observe::Full, Observe::Snapshots, Observe::Summary];
    let mut lanes = Vec::new();
    for (i, base) in models().iter().enumerate() {
        for (j, (_, scenario)) in networks(base).iter().enumerate() {
            let seed = (i * 5 + j) as u64;
            let mut config = scenario.lower(seed).unwrap();
            config.observe = levels[(i + j) % levels.len()];
            lanes.push(PackedLane {
                config,
                inputs: scenario.initial_values(seed),
            });
        }
    }
    let mut golden = Golden::default();
    for (l, result) in BatchEngine::run_packed_observed(&lanes, &mut NoopObserver)
        .iter()
        .enumerate()
    {
        golden.record(format!("pack/lane{l}"), result);
    }
    golden.check();
}

#[test]
fn observed_runs_emit_the_golden_events() {
    let mut golden = Golden::default();
    for base in models() {
        for (network, scenario) in networks(&base) {
            let mut log = EventLog::new();
            let outcome = scenario.run_observed(SEEDS[0], &mut log);
            golden.record(format!("events/{}/{network}", base.model), &(outcome, log));
        }
    }
    golden.check();
}
