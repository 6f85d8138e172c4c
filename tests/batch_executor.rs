//! Stress tests of the work-stealing batch executor: sweeps whose points
//! have wildly uneven run lengths must produce bit-identical results for
//! every worker count and steal order, and the streaming summary mode must
//! agree with the eager path while never holding per-run trajectories.

use mbaa::prelude::*;

/// A point that converges slowly: the minimal legal system, a tight ε, and
/// the worst-case adversary keep the contraction near its worst bound.
fn near_threshold(model: MobileModel) -> Scenario {
    Scenario::at_bound(model, 2).epsilon(1e-9).max_rounds(600)
}

/// A comfortable point: plenty of replica margin and a loose ε make it
/// finish in a handful of rounds.
fn easy(model: MobileModel) -> Scenario {
    let f = 1;
    Scenario::new(model, model.required_processes(f) + 4, f)
        .epsilon(1e-2)
        .max_rounds(100)
}

/// The uneven sweep of the executor stress tests: slow near-threshold
/// points interleaved with cheap ones — the shape that stalls a static
/// per-core chunking.
fn uneven_sweep() -> Sweep {
    Sweep::over([
        near_threshold(MobileModel::Garay),
        easy(MobileModel::Buhrman),
        near_threshold(MobileModel::Sasaki),
        easy(MobileModel::Garay),
        near_threshold(MobileModel::Bonnet),
        easy(MobileModel::Bonnet),
    ])
    .seeds(0..4)
}

#[test]
fn uneven_sweep_is_identical_across_worker_counts() {
    let reference = uneven_sweep().workers(1).run().unwrap();
    for width in [2usize, 3, 8, 32] {
        let points = uneven_sweep().workers(width).run().unwrap();
        assert_eq!(points, reference, "{width} workers diverged");
    }
    // The ambient pool (whatever the machine width is) agrees too.
    assert_eq!(uneven_sweep().run().unwrap(), reference);
}

#[test]
fn flattened_sweep_points_match_independent_per_point_batches() {
    let points = uneven_sweep().run().unwrap();
    assert_eq!(points.len(), 6);
    for point in &points {
        assert_eq!(
            point.outcome,
            point.scenario.batch(0..4).run().unwrap(),
            "global-pool outcome diverged from the standalone batch at n={} f={} ({})",
            point.scenario.n,
            point.scenario.f,
            point.scenario.model,
        );
    }
    // The slow points really are slower — the unevenness is genuine, not
    // hypothetical.
    let slow = points[0].outcome.mean_rounds().unwrap();
    let fast = points[1].outcome.mean_rounds().unwrap();
    assert!(
        slow >= 4.0 * fast,
        "expected a pronounced imbalance, got {slow:.1} vs {fast:.1} rounds"
    );
}

#[test]
fn uneven_batch_is_identical_across_worker_counts() {
    // Seeds of one near-threshold point: per-seed lengths differ too.
    let scenario = near_threshold(MobileModel::Garay);
    let reference = scenario.batch(0..8).workers(1).run().unwrap();
    for width in [2usize, 7, 16] {
        assert_eq!(
            scenario.batch(0..8).workers(width).run().unwrap(),
            reference,
            "{width} workers diverged"
        );
    }
}

#[test]
fn streamed_sweep_is_identical_across_worker_counts_and_matches_eager() {
    let eager = uneven_sweep().run().unwrap();
    let reference = uneven_sweep().workers(1).stream(None).unwrap();
    for width in [2usize, 8] {
        assert_eq!(
            uneven_sweep().workers(width).stream(None).unwrap(),
            reference,
            "{width} workers diverged"
        );
    }
    for (point, summary) in eager.iter().zip(&reference) {
        assert_eq!(point.scenario, summary.scenario);
        assert_eq!(point.outcome.to_experiment_result(), summary.result);
    }
}

#[test]
fn streaming_a_large_seed_batch_matches_the_eager_summary() {
    // ≥ 10k seeds on a deliberately small, fast-converging scenario. The
    // streaming path folds every run into its summary on the worker — no
    // per-run trajectory is ever held — yet the aggregate must equal the
    // eager path's summary bit for bit.
    let scenario = Scenario::new(MobileModel::Buhrman, 6, 1)
        .epsilon(1e-2)
        .max_rounds(60)
        .workload(Workload::RandomUniform { lo: 0.0, hi: 1.0 });
    let seeds = 0..10_000u64;

    let mut metrics = MetricsRegistry::new();
    let streamed = scenario
        .batch(seeds.clone())
        .stream(Some(&mut metrics))
        .unwrap();
    assert_eq!(streamed.runs.len(), 10_000);
    assert_eq!(metrics.runs, 10_000);

    // Attaching the registry changes no summary…
    assert_eq!(
        streamed,
        scenario.batch(seeds.clone()).stream(None).unwrap()
    );
    // …and on a subsample we can afford to materialize, the eager path's
    // to_experiment_result() agrees run for run.
    let eager = scenario.batch(0..512).run().unwrap().to_experiment_result();
    assert_eq!(&streamed.runs[..512], &eager.runs[..]);
    assert!(streamed.success_rate() > 0.99);
}

#[test]
fn streaming_errors_deterministically_on_the_smallest_failing_seed() {
    let scenario = Scenario::new(MobileModel::Garay, 8, 2);
    let eager = scenario.batch(0..4).run().unwrap_err();
    let streamed = scenario.batch(0..4).stream(None).unwrap_err();
    assert_eq!(format!("{eager}"), format!("{streamed}"));
}

/// Both directions of the links 0–1 and 2–3 cut, so a sparse graph that
/// relies on one of them does not pass validation.
fn cuts() -> LinkFaultPlan {
    LinkFaultPlan::new().cut(0, 1).cut(1, 0).cut(2, 3).cut(3, 2)
}

#[test]
fn the_smallest_failing_seed_wins_whether_it_fails_lowering_or_running() {
    // Every seed realizes its own random-regular base graph, so some seeds
    // fail validation and others fail only when a churned round
    // disconnects.
    let scenario = Scenario::new(MobileModel::Garay, 10, 0)
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::RandomRegular { degree: 2 },
            flip_rate: 0.5,
        })
        .link_faults(cuts())
        .disconnection(DisconnectionPolicy::Reject);
    assert!(scenario.lower(0).is_ok());
    assert!(matches!(
        scenario.lower(4),
        Err(Error::DisconnectedTopology { .. })
    ));
    let first = format!("{}", scenario.run(0).unwrap_err());
    let streamed = scenario.batch(0..8).stream(None).unwrap_err();
    assert_eq!(format!("{streamed}"), first);
    let swept = Sweep::over([scenario.clone()])
        .seeds(0..8)
        .stream(None)
        .unwrap_err();
    assert_eq!(format!("{swept}"), first);
    assert_eq!(
        format!("{}", scenario.batch(0..8).run().unwrap_err()),
        first
    );
}

#[test]
fn a_point_that_fails_lowering_partway_emits_the_lanes_that_ran() {
    let scenario = Scenario::new(MobileModel::Garay, 10, 0)
        .topology(Topology::RandomRegular { degree: 2 })
        .link_faults(cuts());
    let lowered = (0..8u64)
        .filter(|&seed| scenario.lower(seed).is_ok())
        .count();
    let first_failing = (0..8u64)
        .find(|&seed| scenario.lower(seed).is_err())
        .expect("some seed's graph needs a cut link");
    assert!(lowered > 0, "every seed failed lowering");
    let mut metrics = MetricsRegistry::new();
    let err = scenario.batch(0..8).stream(Some(&mut metrics)).unwrap_err();
    assert_eq!(
        format!("{err}"),
        format!("{}", scenario.run(first_failing).unwrap_err())
    );
    assert_eq!(metrics.runs, lowered as u64);
}

/// Points that differ in model, size, observability level and network,
/// twelve seeds each, so the first 32-run chunk spans three points and the
/// second four: a per-seed random-regular graph, delayed and lossy links,
/// and the complete graph, at `Full`, `Snapshots` and `Summary`.
fn mixed_points() -> Vec<Scenario> {
    vec![
        Scenario::new(MobileModel::Garay, 9, 1).observe(Observe::Full),
        Scenario::new(MobileModel::Bonnet, 14, 1)
            .topology(Topology::RandomRegular { degree: 8 })
            .observe(Observe::Snapshots),
        Scenario::new(MobileModel::Sasaki, 13, 1)
            .link_faults(LinkFaultPlan::new().delay_all(1).omit_all(0.05))
            .max_rounds(40)
            .observe(Observe::Full),
        Scenario::new(MobileModel::Buhrman, 7, 2).observe(Observe::Summary),
        Scenario::new(MobileModel::Garay, 16, 2)
            .topology(Topology::RandomRegular { degree: 12 })
            .observe(Observe::Full),
    ]
}

#[test]
fn packed_full_outcomes_equal_single_runs_for_every_worker_count() {
    let seeds = 0..12u64;
    for workers in [1usize, 2, 3] {
        let points = Sweep::over(mixed_points())
            .seeds(seeds.clone())
            .workers(workers)
            .run()
            .unwrap();
        assert_eq!(points.len(), mixed_points().len());
        for (point, scenario) in points.iter().zip(mixed_points()) {
            assert_eq!(point.scenario, scenario);
            assert_eq!(point.outcome.len(), 12);
            for (seed, outcome) in point.outcome.iter() {
                let alone = scenario.run(seed).unwrap();
                assert_eq!(
                    outcome, &alone,
                    "{workers} workers: seed {seed} of {} n={} diverged from its single run",
                    scenario.model, scenario.n
                );
                // The lanes really ran at their point's level.
                assert_eq!(
                    outcome.configurations.is_empty(),
                    scenario.observe == Observe::Summary
                );
                assert_eq!(outcome.trace.is_empty(), scenario.observe != Observe::Full);
            }
        }
    }
}

#[test]
fn a_packed_sweep_returns_the_single_run_error_of_a_point_sharing_a_chunk() {
    // Seeds 0–3 of this churned point run, and seed 4 disconnects a round,
    // which `Reject` turns into an error. With twelve seeds per point it
    // shares its first chunk with the point before it.
    let failing = Scenario::new(MobileModel::Garay, 12, 0)
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::RandomRegular { degree: 4 },
            flip_rate: 0.2,
        })
        .link_faults(cuts())
        .disconnection(DisconnectionPolicy::Reject);
    for seed in 0..4 {
        assert!(failing.run(seed).is_ok(), "seed {seed} should run");
    }
    let expected = format!("{}", failing.run(4).unwrap_err());
    let mut points = mixed_points();
    points.push(failing);
    for workers in [1usize, 2, 3] {
        let err = Sweep::over(points.clone())
            .seeds(0..12)
            .workers(workers)
            .run()
            .unwrap_err();
        assert_eq!(format!("{err}"), expected, "{workers} workers");
    }
}
