//! Equivalence battery for the seed-batched SoA engine: every summary the
//! batched executor produces must be **bit-identical** to running the same
//! seed through the scalar `MobileEngine` — for every model, mobility
//! strategy, topology family, churn/link-fault plan, and worker count.
//!
//! The batched path is reached through `Scenario::batch(..).stream(None)`,
//! which routes every chunk through `mbaa_core::BatchEngine` at
//! `Observe::Summary`; the scalar reference is `Scenario::run(seed)`
//! (full observability) folded through `RunSummary::from_outcome`. The
//! comparison therefore also pins the invariant that summaries are
//! identical across observability levels.

use mbaa::prelude::*;

/// The scalar reference: one `MobileEngine` run per seed, summarized.
fn scalar_summaries(scenario: &Scenario, seeds: &[u64]) -> Vec<RunSummary> {
    seeds
        .iter()
        .map(|&seed| RunSummary::from_outcome(seed, &scenario.run(seed).unwrap()))
        .collect()
}

/// The batched path: the streaming executor advances all seeds of each
/// chunk in lockstep on the SoA engine.
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
    for model in MobileModel::ALL {
        for mobility in MobilityStrategy::ALL {
            let scenario = Scenario::at_bound(model, 2)
                .epsilon(1e-6)
                .max_rounds(300)
                .mobility(mobility);
            assert_eq!(
                batched_summaries(&scenario, &seeds),
                scalar_summaries(&scenario, &seeds),
                "batched summaries diverged from scalar under {model} / {mobility:?}",
            );
        }
    }
}

#[test]
fn every_corruption_strategy_matches_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..4).collect();
    for corruption in CorruptionStrategy::all_representative() {
        let scenario = Scenario::at_bound(MobileModel::Sasaki, 2)
            .epsilon(1e-6)
            .max_rounds(300)
            .corruption(corruption);
        assert_eq!(
            batched_summaries(&scenario, &seeds),
            scalar_summaries(&scenario, &seeds),
            "batched summaries diverged from scalar under {corruption:?}",
        );
    }
}

#[test]
fn partial_topologies_match_scalar_bit_for_bit() {
    // Partial graphs exchange against shared static realizations (one per
    // lane seed for random-regular graphs); each family must still
    // reproduce the scalar runs exactly. Ring and random-regular satisfy Garay's
    // neighborhood bound at n = 9, f = 1; the sparse grid opts into bound
    // violation exactly like the threshold experiments do.
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    for topology in [
        Topology::Ring { k: 2 },
        Topology::RandomRegular { degree: 6 },
    ] {
        let scenario = base.clone().topology(topology.clone());
        assert_eq!(
            batched_summaries(&scenario, &seeds),
            scalar_summaries(&scenario, &seeds),
            "batched summaries diverged from scalar on {topology}",
        );
    }
    let grid = base.topology(Topology::Grid).allow_bound_violation();
    assert_eq!(
        batched_summaries(&grid, &seeds),
        scalar_summaries(&grid, &seeds),
        "batched summaries diverged from scalar on the grid",
    );
}

#[test]
fn churn_and_link_faults_match_scalar_bit_for_bit() {
    let seeds: Vec<u64> = (0..5).collect();
    let base = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    // Round-indexed churn over the complete graph.
    let churning = base
        .clone()
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        });
    assert_eq!(
        batched_summaries(&churning, &seeds),
        scalar_summaries(&churning, &seeds),
        "batched summaries diverged from scalar under seeded churn",
    );
    // Probabilistic omissions plus a severed and a delayed link.
    let faulty_links =
        base.link_faults(LinkFaultPlan::new().omit_all(0.05).cut(0, 1).delay(2, 3, 2));
    assert_eq!(
        batched_summaries(&faulty_links, &seeds),
        scalar_summaries(&faulty_links, &seeds),
        "batched summaries diverged from scalar under link faults",
    );
}

#[test]
fn worker_counts_leave_batched_results_bit_identical() {
    let seeds: Vec<u64> = (0..9).collect();
    let scenario = Scenario::at_bound(MobileModel::Bonnet, 2)
        .epsilon(1e-6)
        .max_rounds(300)
        .mobility(MobilityStrategy::Random);
    let reference = scalar_summaries(&scenario, &seeds);
    for workers in [1usize, 2, 3, 8] {
        let batched = scenario
            .batch(seeds.iter().copied())
            .workers(workers)
            .stream(None)
            .unwrap()
            .runs;
        assert_eq!(
            batched, reference,
            "{workers} workers diverged from the scalar reference",
        );
    }
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
    assert_eq!(batched, scalar_summaries(&scenario, &seeds));
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
    let seeds = [7u64];
    assert_eq!(
        batched_summaries(&scenario, &seeds),
        scalar_summaries(&scenario, &seeds),
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
    // still reproduce its own scalar runs exactly.
    let seeds: Vec<u64> = (0..4).collect();
    let points = general_path_points();
    let streamed = Sweep::over(points.clone())
        .seeds(seeds.iter().copied())
        .stream(None)
        .unwrap();
    for (scenario, summary) in points.iter().zip(&streamed) {
        assert_eq!(
            summary.result.runs,
            scalar_summaries(scenario, &seeds),
            "packed sweep diverged from scalar at point {scenario:?}",
        );
    }
}

#[test]
fn ragged_cross_point_packs_match_scalar_per_segment() {
    // Segments of uneven length (1, 7, 3, and 4 seeds) force ragged pack
    // boundaries: the first pack mixes all four points and no segment
    // alone fills a batch. Each segment still equals its scalar runs.
    let points = general_path_points();
    let segments: Vec<(Scenario, Vec<u64>)> = vec![
        (points[0].clone(), vec![11]),
        (points[1].clone(), (0..7).collect()),
        (points[2].clone(), vec![2, 5, 9]),
        (points[3].clone(), vec![1, 4, 6, 8]),
    ];
    let results = stream_segments(&segments, None, mbaa::obs::Sinks::default());
    for ((scenario, seeds), result) in segments.iter().zip(results) {
        assert_eq!(
            result.unwrap().runs,
            scalar_summaries(scenario, seeds),
            "ragged packed segment diverged from scalar at {scenario:?}",
        );
    }
}

#[test]
fn worker_counts_leave_packed_sweeps_bit_identical() {
    let seeds: Vec<u64> = (0..4).collect();
    let points = general_path_points();
    let reference: Vec<Vec<RunSummary>> = points
        .iter()
        .map(|scenario| scalar_summaries(scenario, &seeds))
        .collect();
    for workers in [1usize, 2, 3, 8] {
        let streamed = Sweep::over(points.clone())
            .seeds(seeds.iter().copied())
            .workers(workers)
            .stream(None)
            .unwrap();
        let runs: Vec<Vec<RunSummary>> = streamed.into_iter().map(|s| s.result.runs).collect();
        assert_eq!(
            runs, reference,
            "{workers} workers diverged from the scalar reference on a packed sweep",
        );
    }
}
