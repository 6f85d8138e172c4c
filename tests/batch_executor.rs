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
