//! Summary battery for the packed executor: every per-seed summary it
//! produces must match its golden digest — for every model, mobility
//! strategy, corruption strategy, topology family, churn/link-fault plan,
//! pack boundary, and worker count.
//!
//! The digests in `tests/golden/runs.digests` were taken when a scalar
//! engine still ran beside the packed one and the two agreed bit for bit,
//! so "matches scalar" below means: equals what that scalar engine
//! computed. The packed path is reached through
//! `Scenario::batch(..).stream(None)`, `Sweep::stream` and
//! `stream_segments`, which route every chunk through
//! `mbaa_core::BatchEngine` at `Observe::Summary`.

mod golden;

use golden::Golden;
use mbaa::prelude::*;

/// The packed path: the streaming executor advances all seeds of each
/// chunk in lockstep.
fn batched_summaries(scenario: &Scenario, seeds: &[u64]) -> Vec<RunSummary> {
    scenario
        .batch(seeds.iter().copied())
        .stream(None)
        .unwrap()
        .runs
}

#[test]
fn every_model_and_mobility_matches_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..5).collect();
    let mut golden = Golden::default();
    for model in MobileModel::ALL {
        for mobility in MobilityStrategy::ALL {
            let scenario = Scenario::at_bound(model, 2)
                .epsilon(1e-6)
                .max_rounds(300)
                .mobility(mobility);
            golden.record(
                format!("summaries/model_mobility/{model}/{mobility:?}"),
                &batched_summaries(&scenario, &seeds),
            );
        }
    }
    golden.check();
}

#[test]
fn every_corruption_strategy_matches_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..4).collect();
    let mut golden = Golden::default();
    for corruption in CorruptionStrategy::all_representative() {
        let scenario = Scenario::at_bound(MobileModel::Sasaki, 2)
            .epsilon(1e-6)
            .max_rounds(300)
            .corruption(corruption);
        golden.record(
            format!("summaries/corruption/{corruption:?}"),
            &batched_summaries(&scenario, &seeds),
        );
    }
    golden.check();
}

#[test]
fn partial_topologies_match_scalar_bit_for_bit() {
    // Partial graphs exchange against shared static realizations (one per
    // lane seed for random-regular graphs). Ring and random-regular satisfy
    // Garay's neighborhood bound at n = 9, f = 1; the sparse grid opts into
    // bound violation exactly like the threshold experiments do.
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    let mut golden = Golden::default();
    for topology in [
        Topology::Ring { k: 2 },
        Topology::RandomRegular { degree: 6 },
    ] {
        let scenario = base.clone().topology(topology.clone());
        golden.record(
            format!("summaries/partial/{topology}"),
            &batched_summaries(&scenario, &seeds),
        );
    }
    let grid = base.topology(Topology::Grid).allow_bound_violation();
    golden.record("summaries/partial/grid", &batched_summaries(&grid, &seeds));
    golden.check();
}

#[test]
fn churn_and_link_faults_match_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    let mut golden = Golden::default();
    // Round-indexed churn over the complete graph.
    let churning = base
        .clone()
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        });
    golden.record(
        "summaries/links/churn",
        &batched_summaries(&churning, &seeds),
    );
    // Probabilistic omissions plus a severed and a delayed link.
    let faulty_links =
        base.link_faults(LinkFaultPlan::new().omit_all(0.05).cut(0, 1).delay(2, 3, 2));
    golden.record(
        "summaries/links/faulty",
        &batched_summaries(&faulty_links, &seeds),
    );
    golden.check();
}

#[test]
fn worker_counts_leave_batched_results_bit_identical() {
    let seeds: Vec<u64> = (0..9).collect();
    let scenario = Scenario::at_bound(MobileModel::Bonnet, 2)
        .epsilon(1e-6)
        .max_rounds(300)
        .mobility(MobilityStrategy::Random);
    let mut golden = Golden::default();
    for workers in [1usize, 2, 3, 8] {
        let batched = scenario
            .batch(seeds.iter().copied())
            .workers(workers)
            .stream(None)
            .unwrap()
            .runs;
        golden.record("summaries/workers", &batched);
    }
    golden.check();
}

#[test]
fn ragged_batches_match_scalar_per_seed() {
    // 33 seeds: one full 32-lane chunk plus a ragged single-lane tail, and
    // a Random adversary so lanes within a chunk finish after different
    // round counts — the lockstep loop must retire each lane independently.
    let seeds: Vec<u64> = (0..33).collect();
    let scenario = Scenario::at_bound(MobileModel::Garay, 2)
        .epsilon(1e-6)
        .max_rounds(300)
        .mobility(MobilityStrategy::Random);
    let batched = batched_summaries(&scenario, &seeds);
    let mut golden = Golden::default();
    golden.record("summaries/ragged", &batched);
    golden.check();
    // The raggedness is genuine: the seeds really do converge after
    // different numbers of rounds.
    let rounds: Vec<usize> = batched.iter().map(|run| run.rounds).collect();
    assert!(
        rounds.iter().any(|&r| r != rounds[0]),
        "expected uneven per-seed round counts, got {rounds:?}",
    );
}

#[test]
fn a_single_seed_batch_matches_the_scalar_engine() {
    let scenario = Scenario::at_bound(MobileModel::Buhrman, 2).epsilon(1e-6);
    let batched = batched_summaries(&scenario, &[7]);
    let mut golden = Golden::default();
    golden.record("summaries/single_seed", &batched);
    golden.check();
    // A one-seed batch and a single run are the same one-lane pack.
    assert_eq!(
        batched,
        vec![RunSummary::from_outcome(7, &scenario.run(7).unwrap())]
    );
}

/// The non-complete point variants packed sweeps mix: a partial static
/// graph, seeded churn, probabilistic link faults with a delayed link, and
/// a random-regular graph realized per seed, all sharing one batch shape
/// (n = 9, f = 1, Garay).
fn general_path_points() -> Vec<Scenario> {
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    vec![
        base.clone().topology(Topology::Ring { k: 2 }),
        base.clone()
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.2,
            }),
        base.clone()
            .link_faults(LinkFaultPlan::new().omit_all(0.05).cut(0, 1).delay(2, 3, 2)),
        base.topology(Topology::RandomRegular { degree: 6 }),
    ]
}

#[test]
fn packed_cross_point_sweeps_match_scalar_bit_for_bit() {
    // Four shape-compatible non-complete points × four seeds: the sweep
    // packs lanes of *different* points (different topology, schedule, and
    // link-fault plans) into shared engine launches, and every point must
    // still reproduce its own runs exactly.
    let seeds: Vec<u64> = (0..4).collect();
    let streamed = Sweep::over(general_path_points())
        .seeds(seeds.iter().copied())
        .stream(None)
        .unwrap();
    let mut golden = Golden::default();
    for (p, summary) in streamed.iter().enumerate() {
        golden.record(format!("summaries/packed/point{p}"), &summary.result.runs);
    }
    golden.check();
}

#[test]
fn ragged_cross_point_packs_match_scalar_per_segment() {
    // Segments of uneven length (1, 7, 3, and 4 seeds) force ragged pack
    // boundaries: the first pack mixes all four points and no segment
    // alone fills a batch. Each segment still equals its own runs.
    let points = general_path_points();
    let segments: Vec<(Scenario, Vec<u64>)> = vec![
        (points[0].clone(), vec![11]),
        (points[1].clone(), (0..7).collect()),
        (points[2].clone(), vec![2, 5, 9]),
        (points[3].clone(), vec![1, 4, 6, 8]),
    ];
    let results = stream_segments(&segments, None, mbaa::obs::Sinks::default());
    let mut golden = Golden::default();
    for (s, result) in results.into_iter().enumerate() {
        golden.record(
            format!("summaries/ragged_packed/segment{s}"),
            &result.unwrap().runs,
        );
    }
    golden.check();
}

#[test]
fn worker_counts_leave_packed_sweeps_bit_identical() {
    let seeds: Vec<u64> = (0..4).collect();
    let mut golden = Golden::default();
    for workers in [1usize, 2, 3, 8] {
        let streamed = Sweep::over(general_path_points())
            .seeds(seeds.iter().copied())
            .workers(workers)
            .stream(None)
            .unwrap();
        for (p, point) in streamed.into_iter().enumerate() {
            golden.record(format!("summaries/packed/point{p}"), &point.result.runs);
        }
    }
    golden.check();
}
