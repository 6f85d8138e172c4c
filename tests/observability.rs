//! The observability invariant, end to end: attaching any observer to any
//! execution path changes **nothing** about the results, and the telemetry
//! it yields is itself deterministic.
//!
//! Three families of guarantees, all through the public `mbaa` facade:
//!
//! * **Inertness** — outcomes with an observer attached are bit-identical
//!   to detached runs: single (scalar, one-lane) runs, packs (including a ragged
//!   33-seed batch that spills one lane past the 32-lane chunk width), all
//!   `Observe` levels, and `Runner`/`Sweep` streaming at worker counts
//!   1/2/8.
//! * **Per-seed determinism** — the event subsequence a seed produces in
//!   a pack equals the stream of that seed run alone (the scalar run),
//!   event for event.
//! * **Order-independent aggregation** — folding per-seed registries in
//!   any order (and across any worker split) merges to the same registry,
//!   bit for bit.

use mbaa::obs::{Sinks, Tee};
use mbaa::prelude::*;
use mbaa::{BatchEngine, Event, Observe, PackedLane};

fn scenario() -> Scenario {
    Scenario::at_bound(MobileModel::Garay, 2)
        .epsilon(1e-6)
        .max_rounds(300)
}

/// One pack lane per seed, lowered exactly as the packed executor lowers
/// them.
fn lanes(scenario: &Scenario, seeds: &[u64]) -> Vec<PackedLane> {
    seeds
        .iter()
        .map(|&seed| PackedLane {
            config: scenario.lower(seed).unwrap(),
            inputs: scenario.initial_values(seed),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Inertness: attached == detached, everywhere.
// ---------------------------------------------------------------------------

#[test]
fn scalar_outcomes_are_identical_with_any_observer_at_every_level() {
    for observe in [Observe::Full, Observe::Snapshots, Observe::Summary] {
        let scenario = scenario().observe(observe);
        for seed in 0..6u64 {
            let detached = scenario.run(seed).unwrap();
            let mut log = EventLog::new();
            let logged = scenario.run_observed(seed, &mut log).unwrap();
            let mut metrics = MetricsRegistry::new();
            let metered = scenario.run_observed(seed, &mut metrics).unwrap();
            assert_eq!(detached, logged, "EventLog perturbed {observe:?}/{seed}");
            assert_eq!(
                detached, metered,
                "MetricsRegistry perturbed {observe:?}/{seed}"
            );
            assert!(!log.is_empty());
            assert_eq!(metrics.runs, 1);
            assert_eq!(metrics.rounds_total, detached.rounds_executed as u64);
        }
    }
}

#[test]
fn batch_outcomes_are_identical_with_any_observer_at_every_level() {
    // 33 seeds: one more than the executor's 32-lane chunk width, so the
    // facade path below also exercises a ragged tail chunk.
    let seeds: Vec<u64> = (0..33).collect();
    for observe in [Observe::Full, Observe::Snapshots, Observe::Summary] {
        let scenario = scenario().observe(observe);
        let lanes = lanes(&scenario, &seeds);
        let detached: Vec<_> = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let mut log = EventLog::new();
        let attached: Vec<_> = BatchEngine::run_packed_observed(&lanes, &mut log)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(detached, attached, "observer perturbed batch {observe:?}");
        assert_eq!(
            log.events()
                .iter()
                .filter(|e| matches!(e, Event::RunEnd(_)))
                .count(),
            seeds.len(),
            "one run_end per lane"
        );
    }
}

#[test]
fn streaming_summaries_and_metrics_agree_across_worker_counts() {
    let scenario = scenario();
    let seeds: Vec<u64> = (0..33).collect();
    let reference = scenario.batch(seeds.iter().copied()).stream(None).unwrap();
    let mut registries = Vec::new();
    for workers in [1usize, 2, 8] {
        let runner = scenario.batch(seeds.iter().copied()).workers(workers);
        let plain = runner.stream(None).unwrap();
        let mut metrics = MetricsRegistry::new();
        let metered = runner.stream(Some(&mut metrics)).unwrap();
        assert_eq!(reference, plain, "worker count changed results");
        assert_eq!(reference, metered, "metrics sink changed results");
        registries.push(metrics);
    }
    assert_eq!(registries[0], registries[1], "registry depends on workers");
    assert_eq!(registries[0], registries[2], "registry depends on workers");
    assert_eq!(registries[0].runs, seeds.len() as u64);
}

#[test]
fn sweep_metrics_agree_across_worker_counts() {
    let sweep = scenario().max_rounds(120).sweep_n(2).seeds(0..9);
    let reference = sweep.stream(None).unwrap();
    let mut registries = Vec::new();
    for workers in [1usize, 2, 8] {
        let sweep = scenario()
            .max_rounds(120)
            .sweep_n(2)
            .seeds(0..9)
            .workers(workers);
        let mut metrics = MetricsRegistry::new();
        let summaries = sweep.stream(Some(&mut metrics)).unwrap();
        assert_eq!(reference, summaries, "metrics sink changed sweep results");
        registries.push(metrics);
    }
    assert_eq!(registries[0], registries[1]);
    assert_eq!(registries[0], registries[2]);
    // `sweep_n(2)` is the base point plus two increments: 3 points.
    assert_eq!(registries[0].runs, 3 * 9);
}

// ---------------------------------------------------------------------------
// Per-seed determinism: batch event streams equal scalar event streams.
// ---------------------------------------------------------------------------

#[test]
fn per_seed_batch_event_streams_equal_scalar_streams() {
    // The complete graph plus every other kind of network realization the
    // batch loop exchanges against: a static mask, churn with lossy links,
    // a delayed link, and graphs realized per seed.
    let general = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    let scenarios = [
        scenario(),
        general.clone().topology(Topology::Ring { k: 2 }),
        general
            .clone()
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.2,
            })
            .link_faults(LinkFaultPlan::new().omit_all(0.05)),
        general
            .clone()
            .link_faults(LinkFaultPlan::new().delay(2, 3, 2)),
        general.topology(Topology::RandomRegular { degree: 4 }),
    ];
    let seeds: Vec<u64> = (0..33).collect();
    for scenario in scenarios {
        let scenario = scenario.observe(Observe::Summary);
        let mut batch_log = EventLog::new();
        let results = BatchEngine::run_packed_observed(&lanes(&scenario, &seeds), &mut batch_log);
        assert!(results.iter().all(Result::is_ok));
        for &seed in &seeds {
            let mut scalar_log = EventLog::new();
            scenario.run_observed(seed, &mut scalar_log).unwrap();
            assert_eq!(
                batch_log.for_seed(seed),
                scalar_log.events(),
                "seed {seed}: batched event stream diverged from scalar on {scenario:?}"
            );
        }
    }
}

#[test]
fn sink_events_are_point_major_and_worker_invariant() {
    // Three shape-compatible points with overlapping seeds: their lanes
    // share packs across point boundaries (20 + 1 + 11 lanes, then 4), so
    // one pack repeats seeds and only lane routing keeps them apart.
    let general = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-6)
        .max_rounds(300);
    let segments: Vec<(Scenario, Vec<u64>)> = vec![
        (
            general.clone().topology(Topology::Ring { k: 2 }),
            (0..20).collect(),
        ),
        (general.clone(), vec![3]),
        (
            general.topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.2,
            }),
            (0..15).collect(),
        ),
    ];
    let mut reference = EventLog::new();
    let mut reference_metrics = MetricsRegistry::new();
    for (scenario, seeds) in &segments {
        for &seed in seeds {
            scenario
                .run_observed(seed, &mut Tee(&mut reference, &mut reference_metrics))
                .unwrap();
        }
    }
    let plain = stream_segments(&segments, None, Sinks::default());
    for workers in [1usize, 2, 3] {
        let mut events = Vec::new();
        let mut metrics = MetricsRegistry::new();
        let sinks = Sinks {
            metrics: Some(&mut metrics),
            events: Some(&mut events),
            profile: None,
        };
        let observed = stream_segments(&segments, Some(workers), sinks);
        assert_eq!(observed, plain, "{workers} workers: sinks changed results");
        assert_eq!(
            events,
            reference.events(),
            "{workers} workers: sink events differ from the scalar runs"
        );
        assert_eq!(metrics, reference_metrics, "{workers} workers");
    }
}

#[test]
fn scalar_engine_event_stream_is_level_independent() {
    // Telemetry events describe the protocol, not the recording level:
    // the stream must not change when snapshots/tracing are turned on.
    let mut reference: Option<Vec<Event>> = None;
    for observe in [Observe::Full, Observe::Snapshots, Observe::Summary] {
        let scenario = scenario().observe(observe);
        let mut log = EventLog::new();
        BatchEngine::run_with(
            &scenario.lower(3).unwrap(),
            &scenario.initial_values(3),
            None,
            &mut log,
        )
        .unwrap();
        let events = log.events().to_vec();
        match &reference {
            None => reference = Some(events),
            Some(expected) => {
                assert_eq!(expected, &events, "{observe:?} changed the event stream");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Order-independent aggregation.
// ---------------------------------------------------------------------------

#[test]
fn registry_merge_is_order_independent() {
    let scenario = scenario();
    let per_seed: Vec<MetricsRegistry> = (0..12u64)
        .map(|seed| {
            let mut metrics = MetricsRegistry::new();
            scenario.run_observed(seed, &mut metrics).unwrap();
            metrics
        })
        .collect();

    let mut forward = MetricsRegistry::new();
    for registry in &per_seed {
        forward.merge(registry);
    }
    let mut backward = MetricsRegistry::new();
    for registry in per_seed.iter().rev() {
        backward.merge(registry);
    }
    // A lopsided split merged pairwise, like uneven workers would.
    let mut left = MetricsRegistry::new();
    let mut right = MetricsRegistry::new();
    for (i, registry) in per_seed.iter().enumerate() {
        if i % 3 == 0 {
            left.merge(registry);
        } else {
            right.merge(registry);
        }
    }
    left.merge(&right);

    assert_eq!(forward, backward, "merge is order-dependent");
    assert_eq!(forward, left, "merge is split-dependent");
    assert_eq!(forward.runs, 12);

    // And the parallel streaming path folds to the same registry as the
    // sequential per-seed path.
    let mut streamed = MetricsRegistry::new();
    scenario
        .batch(0..12)
        .workers(4)
        .stream(Some(&mut streamed))
        .unwrap();
    assert_eq!(forward, streamed, "streamed registry diverged");
}
