//! Integration tests of the unified `Scenario` API: the builder-first entry
//! point must lower to the exact same executions as the hand-driven
//! `ProtocolConfig` path, and its parallel batch runner must be
//! deterministic and order-independent.

use mbaa::prelude::*;

fn scenario_for(model: MobileModel) -> Scenario {
    Scenario::at_bound(model, 2).epsilon(1e-4).max_rounds(400)
}

#[test]
fn single_runs_are_byte_identical_to_the_lowered_protocol_path_for_all_models() {
    for model in MobileModel::ALL {
        let scenario = scenario_for(model);
        let seed = 42;

        // The scenario path.
        let via_scenario = scenario.run(seed).unwrap();

        // The hand-lowered path: same ProtocolConfig, same workload, same
        // engine — built without going through Scenario::run.
        let config = ProtocolConfig::builder(model, scenario.n, scenario.f)
            .epsilon(scenario.epsilon)
            .max_rounds(scenario.max_rounds)
            .mobility(scenario.mobility)
            .corruption(scenario.corruption)
            .seed(seed)
            .build()
            .unwrap();
        assert_eq!(
            config,
            scenario.lower(seed).unwrap(),
            "{model}: lowering diverged"
        );
        let inputs = scenario.initial_values(seed);
        let via_protocol = BatchEngine::run(&config, &inputs).unwrap();

        // Structurally identical…
        assert_eq!(via_scenario, via_protocol, "{model}: outcomes diverged");
        // …and byte-identical in their full rendering (every field, every
        // round snapshot, every trace entry).
        assert_eq!(
            format!("{via_scenario:?}").into_bytes(),
            format!("{via_protocol:?}").into_bytes(),
            "{model}: outcome renderings diverged"
        );
    }
}

#[test]
fn explicit_function_lowering_is_also_identical() {
    let function = MsrFunction::fault_tolerant_midpoint(2);
    let scenario = scenario_for(MobileModel::Sasaki).function(function);
    let via_scenario = scenario.run(7).unwrap();
    let config = ProtocolConfig::builder(MobileModel::Sasaki, scenario.n, 2)
        .epsilon(1e-4)
        .max_rounds(400)
        .mobility(scenario.mobility)
        .corruption(scenario.corruption)
        .function(function)
        .seed(7)
        .build()
        .unwrap();
    let via_protocol = BatchEngine::run(&config, &scenario.initial_values(7)).unwrap();
    assert_eq!(via_scenario, via_protocol);
}

#[test]
fn parallel_batches_are_deterministic() {
    for model in MobileModel::ALL {
        let scenario = scenario_for(model);
        let first = scenario.batch(0..12).run().unwrap();
        let second = scenario.batch(0..12).run().unwrap();
        assert_eq!(first, second, "{model}: repeated batch diverged");
    }
}

#[test]
fn parallel_batches_are_order_independent() {
    let scenario = scenario_for(MobileModel::Garay);
    let ascending = scenario.batch(0..8).run().unwrap();
    let descending = scenario.batch((0..8).rev()).run().unwrap();
    let shuffled = scenario.batch([5, 2, 7, 0, 3, 6, 1, 4]).run().unwrap();
    assert_eq!(ascending, descending);
    assert_eq!(ascending, shuffled);
    // Aggregation is keyed by seed, in ascending order.
    let seeds: Vec<u64> = ascending.iter().map(|(s, _)| s).collect();
    assert_eq!(seeds, (0..8).collect::<Vec<u64>>());
}

#[test]
fn batch_entries_match_independent_single_runs() {
    let scenario = scenario_for(MobileModel::Bonnet);
    let batch = scenario.batch(0..6).run().unwrap();
    for (seed, outcome) in batch.iter() {
        assert_eq!(
            outcome,
            &scenario.run(seed).unwrap(),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn batch_summaries_agree_with_the_experiment_lowering() {
    let scenario =
        scenario_for(MobileModel::Buhrman).workload(Workload::RandomUniform { lo: -1.0, hi: 1.0 });
    let full = scenario.batch(0..6).run().unwrap().to_experiment_result();
    let lowered = mbaa::sim::run_packed_experiments(
        &[scenario.to_experiment(0..6)],
        mbaa::obs::Sinks::default(),
    )
    .pop()
    .unwrap()
    .unwrap();
    assert_eq!(full, lowered);
}

#[test]
fn sweeps_go_through_the_same_batch_machinery() {
    let points = scenario_for(MobileModel::Buhrman)
        .sweep_n(2)
        .seeds(0..3)
        .run()
        .unwrap();
    assert_eq!(points.len(), 3);
    for point in points {
        assert_eq!(point.outcome, point.scenario.batch(0..3).run().unwrap());
        assert!(point.outcome.all_succeeded());
    }
}

#[test]
fn batches_are_identical_for_every_worker_count() {
    // The work-stealing pool must not leak scheduling into results: a
    // single worker, a few workers, and an oversubscribed pool all
    // aggregate to the same BatchOutcome.
    let scenario = scenario_for(MobileModel::Garay);
    let reference = scenario.batch(0..10).workers(1).run().unwrap();
    for width in [2usize, 4, 24] {
        assert_eq!(
            scenario.batch(0..10).workers(width).run().unwrap(),
            reference,
            "{width} workers diverged"
        );
    }
    assert_eq!(scenario.batch(0..10).run().unwrap(), reference);
}

#[test]
fn flattened_sweeps_are_identical_for_every_worker_count() {
    let sweep = || scenario_for(MobileModel::Buhrman).sweep_n(2).seeds(0..3);
    let reference = sweep().workers(1).run().unwrap();
    for width in [2usize, 16] {
        assert_eq!(
            sweep().workers(width).run().unwrap(),
            reference,
            "{width} workers diverged"
        );
    }
}

#[test]
fn streaming_summaries_match_the_eager_batch() {
    let scenario = scenario_for(MobileModel::Bonnet);
    let eager = scenario.batch(0..8).run().unwrap().to_experiment_result();
    assert_eq!(scenario.batch(0..8).stream(None).unwrap(), eager);
    assert_eq!(scenario.batch(0..8).workers(1).stream(None).unwrap(), eager);
}

#[test]
fn explicit_complete_topology_is_byte_identical_to_the_default_single_runs() {
    // The topology axis must not perturb the legacy engine: an explicit
    // Topology::Complete and the default (no `.topology(...)` call at all)
    // produce byte-identical outcomes for every model and seed.
    for model in MobileModel::ALL {
        let default_scenario = scenario_for(model);
        let explicit = default_scenario.clone().topology(Topology::Complete);
        for seed in 0..6 {
            let via_default = default_scenario.run(seed).unwrap();
            let via_explicit = explicit.run(seed).unwrap();
            assert_eq!(via_default, via_explicit, "{model} seed {seed} diverged");
            assert_eq!(
                format!("{via_default:?}").into_bytes(),
                format!("{via_explicit:?}").into_bytes(),
                "{model} seed {seed} renderings diverged"
            );
        }
    }
}

#[test]
fn explicit_complete_topology_is_identical_on_every_execution_path() {
    // run() is covered above; batch, stream, summarize, and the flattened
    // sweep must agree too, for more than one worker budget.
    let default_scenario = scenario_for(MobileModel::Garay);
    let explicit = default_scenario.clone().topology(Topology::Complete);

    let batch_default = default_scenario.batch(0..6).run().unwrap();
    let batch_explicit = explicit.batch(0..6).run().unwrap();
    for ((_, a), (_, b)) in batch_default.iter().zip(batch_explicit.iter()) {
        assert_eq!(a, b, "batch path diverged");
    }
    assert_eq!(
        batch_default.to_experiment_result().runs,
        batch_explicit.to_experiment_result().runs
    );

    for workers in [1usize, 4] {
        assert_eq!(
            default_scenario
                .batch(0..6)
                .workers(workers)
                .stream(None)
                .unwrap()
                .runs,
            explicit
                .batch(0..6)
                .workers(workers)
                .stream(None)
                .unwrap()
                .runs,
            "stream path diverged at {workers} workers"
        );
    }
    assert_eq!(
        default_scenario.batch(0..6).stream(None).unwrap().runs,
        explicit.batch(0..6).stream(None).unwrap().runs
    );

    let sweep_default = default_scenario.sweep_n(1).seeds(0..3).run().unwrap();
    let sweep_explicit = explicit.sweep_n(1).seeds(0..3).run().unwrap();
    for (a, b) in sweep_default.iter().zip(&sweep_explicit) {
        assert_eq!(a.outcome.runs, b.outcome.runs, "sweep path diverged");
    }
}

/// Summaries must be identical at every `Observe` level, on every execution
/// path, for every worker count — the level only decides what a run
/// records, never what it computes.
#[test]
fn observe_summary_matches_full_on_every_execution_path() {
    for model in [MobileModel::Garay, MobileModel::Buhrman] {
        let full = scenario_for(model); // Observe::Full is the default
        assert_eq!(full.observe, Observe::Full);
        let lean = full.clone().observe(Observe::Summary);

        // Single runs: identical computation, leaner recordings.
        let a = full.run(5).unwrap();
        let b = lean.run(5).unwrap();
        assert_eq!(a.final_votes, b.final_votes, "{model}");
        assert_eq!(a.final_states, b.final_states, "{model}");
        assert_eq!(a.report, b.report, "{model}");
        assert_eq!(a.network_stats, b.network_stats, "{model}");
        assert_eq!(a.configurations.len(), a.rounds_executed);
        assert_eq!(a.trace.len(), a.rounds_executed);
        assert!(b.configurations.is_empty() && b.trace.is_empty());

        // Snapshots sit in between: per-round states, no trace.
        let mid = full.clone().observe(Observe::Snapshots).run(5).unwrap();
        assert_eq!(mid.configurations, a.configurations, "{model}");
        assert!(mid.trace.is_empty());

        // Batch outcomes fold to the same summaries…
        let full_batch = full.batch(0..5).run().unwrap();
        let lean_batch = lean.batch(0..5).run().unwrap();
        assert_eq!(
            full_batch.to_experiment_result().runs,
            lean_batch.to_experiment_result().runs,
            "{model}: batch summaries diverged"
        );

        // …and the summary-only paths agree with summaries derived from
        // full outcomes, for every worker count.
        let reference = full_batch.to_experiment_result().runs;
        for workers in [1usize, 3] {
            assert_eq!(
                full.batch(0..5).workers(workers).stream(None).unwrap().runs,
                reference,
                "{model}: stream diverged at {workers} workers"
            );
            assert_eq!(
                lean.batch(0..5).workers(workers).stream(None).unwrap().runs,
                reference,
                "{model}: lean stream diverged at {workers} workers"
            );
        }
        assert_eq!(full.batch(0..5).stream(None).unwrap().runs, reference);
        assert_eq!(lean.batch(0..5).stream(None).unwrap().runs, reference);

        // Sweeps: the streamed (Summary-executed) sweep equals the eager
        // full-outcome sweep point by point.
        let eager = full.sweep_n(1).seeds(0..3).run().unwrap();
        let streamed = full.sweep_n(1).seeds(0..3).workers(2).stream(None).unwrap();
        for (point, summary) in eager.iter().zip(&streamed) {
            assert_eq!(
                point.outcome.to_experiment_result().runs,
                summary.result.runs,
                "{model}: sweep summaries diverged"
            );
        }
    }
}

/// The Observe equivalence must also hold on link-faulted / churned
/// networks (PR 4's dynamic path), where trace recording is by far the
/// most expensive observation.
#[test]
fn observe_summary_matches_full_under_churn_and_link_faults() {
    let full = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-3)
        .max_rounds(300)
        .topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.3,
        })
        .link_faults(LinkFaultPlan::new().omit_all(0.05));
    let lean = full.clone().observe(Observe::Summary);

    let a = full.run(7).unwrap();
    let b = lean.run(7).unwrap();
    assert_eq!(a.final_votes, b.final_votes);
    assert_eq!(a.report, b.report);
    assert_eq!(a.network_stats, b.network_stats);
    assert!(a.network_stats.link_omissions > 0, "plan lost nothing");
    assert!(!a.trace.is_empty() && b.trace.is_empty());

    // Summary-level paths agree with summaries of full outcomes across
    // worker counts, churn and all.
    let reference = full.batch(0..4).run().unwrap().to_experiment_result().runs;
    for workers in [1usize, 3] {
        assert_eq!(
            full.batch(0..4).workers(workers).stream(None).unwrap().runs,
            reference,
            "churned stream diverged at {workers} workers"
        );
    }
    assert_eq!(lean.batch(0..4).stream(None).unwrap().runs, reference);

    // The churn sweep streams at Observe::Summary internally; its points
    // must equal eager full-outcome batches.
    let eager = full.sweep_churn([0.0, 0.3]).seeds(0..3).run().unwrap();
    let streamed = full
        .sweep_churn([0.0, 0.3])
        .seeds(0..3)
        .stream(None)
        .unwrap();
    for (point, summary) in eager.iter().zip(&streamed) {
        assert_eq!(
            point.outcome.to_experiment_result().runs,
            summary.result.runs
        );
    }
}
