//! Integration tests of the link-fault & dynamic-topology subsystem: the
//! mobile-network axes (one-way cuts, per-link omission/delay faults,
//! round-indexed topology schedules) must compose with the Scenario API
//! without perturbing the static engine, and must be deterministic across
//! every execution path and worker budget.

use mbaa::prelude::*;

fn garay() -> Scenario {
    Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-3)
        .max_rounds(400)
}

fn churning(flip_rate: f64) -> Scenario {
    garay().topology_schedule(TopologySchedule::SeededChurn {
        base: Topology::Complete,
        flip_rate,
    })
}

#[test]
fn static_complete_schedule_is_bit_identical_to_the_default_engine() {
    // The whole subsystem must vanish when asked to describe the paper's
    // network: a static complete schedule with a clean link-fault plan is
    // byte-identical to no schedule at all, for every model and seed.
    for model in MobileModel::ALL {
        let default_scenario = Scenario::at_bound(model, 2).max_rounds(400);
        let scheduled = default_scenario
            .clone()
            .topology_schedule(TopologySchedule::Static(Topology::Complete))
            .link_faults(LinkFaultPlan::new());
        for seed in 0..6 {
            let via_default = default_scenario.run(seed).unwrap();
            let via_schedule = scheduled.run(seed).unwrap();
            assert_eq!(via_default, via_schedule, "{model} seed {seed} diverged");
            assert_eq!(
                format!("{via_default:?}").into_bytes(),
                format!("{via_schedule:?}").into_bytes(),
                "{model} seed {seed} renderings diverged"
            );
        }
    }
}

#[test]
fn static_complete_schedule_is_identical_on_every_execution_path() {
    let default_scenario = garay();
    let scheduled = default_scenario
        .clone()
        .topology_schedule(TopologySchedule::Static(Topology::Complete));

    let batch_default = default_scenario.batch(0..6).run().unwrap();
    let batch_scheduled = scheduled.batch(0..6).run().unwrap();
    for ((_, a), (_, b)) in batch_default.iter().zip(batch_scheduled.iter()) {
        assert_eq!(a, b, "batch path diverged");
    }

    for workers in [1usize, 4] {
        assert_eq!(
            default_scenario
                .batch(0..6)
                .workers(workers)
                .stream(None)
                .unwrap()
                .runs,
            scheduled
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
        scheduled.batch(0..6).stream(None).unwrap().runs
    );

    let sweep_default = default_scenario.sweep_n(1).seeds(0..3).run().unwrap();
    let sweep_scheduled = scheduled.sweep_n(1).seeds(0..3).run().unwrap();
    for (a, b) in sweep_default.iter().zip(&sweep_scheduled) {
        assert_eq!(a.outcome.runs, b.outcome.runs, "sweep path diverged");
    }
}

#[test]
fn frozen_churn_over_a_ring_matches_the_static_ring_axis() {
    // flip_rate = 0 freezes the churn: the dynamic path must mask delivery
    // exactly like the static topology axis, outcome for outcome.
    let static_ring = garay().topology(Topology::Ring { k: 3 });
    let frozen = garay().topology_schedule(TopologySchedule::SeededChurn {
        base: Topology::Ring { k: 3 },
        flip_rate: 0.0,
    });
    for seed in 0..4 {
        let a = static_ring.run(seed).unwrap();
        let b = frozen.run(seed).unwrap();
        assert_eq!(a, b, "seed {seed} diverged");
        assert!(!a.network_stats.has_link_faults());
    }
}

#[test]
fn churned_runs_are_deterministic_across_paths_and_worker_counts() {
    let scenario = churning(0.3);
    let reference = scenario.batch(0..8).workers(1).run().unwrap();
    for workers in [2usize, 8] {
        assert_eq!(
            scenario.batch(0..8).workers(workers).run().unwrap(),
            reference,
            "{workers} workers diverged"
        );
    }
    // Batch entries equal standalone runs; streaming equals the eager path.
    for (seed, outcome) in reference.iter() {
        assert_eq!(outcome, &scenario.run(seed).unwrap(), "seed {seed}");
    }
    assert_eq!(
        scenario.batch(0..8).stream(None).unwrap(),
        reference.to_experiment_result()
    );
    // The runs genuinely exercised the dynamic path.
    assert!(reference
        .iter()
        .all(|(_, o)| o.network_stats.unreachable > 0));
}

#[test]
fn sweep_churn_matches_per_point_batches() {
    let sweep = garay().sweep_churn([0.0, 0.3]).seeds([2, 0, 1]);
    let points = sweep.run().unwrap();
    assert_eq!(points.len(), 2);
    for point in &points {
        assert_eq!(
            point.outcome,
            point.scenario.batch([0, 1, 2]).run().unwrap(),
            "flattened sweep diverged from the standalone batch"
        );
    }
    // The churned point saw structural drops; the frozen one did not.
    assert!(points[1]
        .outcome
        .iter()
        .all(|(_, o)| o.network_stats.unreachable > 0));
    assert!(points[0]
        .outcome
        .iter()
        .all(|(_, o)| o.network_stats.unreachable == 0));
}

#[test]
fn a_two_way_link_cut_computes_exactly_like_the_missing_edge_topology() {
    // Severing 0 <-> 1 with deterministic link omissions delivers the same
    // slots as deleting the edge from the graph, so the protocol computes
    // the same votes — only the *accounting* differs: the cut is a link
    // fault, the missing edge is structure.
    let n = 9;
    let edges = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| !(a == 0 && b == 1));
    let punctured = Adjacency::from_edges(n, edges).unwrap();
    let via_topology = garay().topology(Topology::Custom(punctured));
    let via_cut = garay().link_faults(LinkFaultPlan::new().cut(0, 1).cut(1, 0));
    for seed in 0..4 {
        let a = via_topology.run(seed).unwrap();
        let b = via_cut.run(seed).unwrap();
        assert_eq!(a.final_votes, b.final_votes, "seed {seed} votes diverged");
        assert_eq!(a.rounds_executed, b.rounds_executed);
        assert_eq!(a.report, b.report);
        assert_eq!(a.reached_agreement, b.reached_agreement);
        // Structure vs. link fault, never adversary omissions.
        assert!(a.network_stats.unreachable > 0);
        assert_eq!(a.network_stats.link_omissions, 0);
        assert!(b.network_stats.link_omissions > 0);
        assert_eq!(b.network_stats.unreachable, 0);
    }
}

#[test]
fn lossy_and_delayed_links_still_converge_and_are_accounted_separately() {
    let scenario = garay().link_faults(
        LinkFaultPlan::new()
            .omit_all(0.05)
            .delay(0, 1, 1)
            .delay(0, 2, 2),
    );
    let outcome = scenario.run(3).unwrap();
    assert!(outcome.reached_agreement, "faulted links broke convergence");
    assert!(outcome.validity_holds());
    let stats = &outcome.network_stats;
    assert!(stats.link_omissions > 0, "p=0.05 lost nothing");
    assert!(
        stats.link_delayed > 0,
        "delayed links delivered nothing late"
    );
    assert!(stats.link_pending > 0, "delay pipes were never primed");
    assert_eq!(stats.unreachable, 0);
}

#[test]
fn reject_policy_surfaces_transient_partitions_through_the_scenario_api() {
    let scenario = churning(0.9)
        .epsilon(1e-9)
        .disconnection(DisconnectionPolicy::Reject);
    let err = scenario.run(0).unwrap_err();
    assert!(matches!(err, Error::DisconnectedRound { .. }));
    // The default policy records instead and finishes the run.
    let recorded = churning(0.9).epsilon(1e-9).run(0).unwrap();
    assert!(recorded.network_stats.disconnected_rounds > 0);
}

#[test]
fn periodic_matchings_agree_through_their_union() {
    // Two perfect matchings on 4 processes, each disconnected on its own;
    // their union is connected, and under the Record policy the averaging
    // dynamics converge through the alternation — the evolving-graph
    // regime where only the union over a window carries information.
    let odd_pairs = Adjacency::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let cross_pairs = Adjacency::from_edges(4, [(0, 2), (1, 3)]).unwrap();
    let scenario = Scenario::new(MobileModel::Buhrman, 4, 0)
        .epsilon(1e-3)
        .max_rounds(300)
        .topology_schedule(TopologySchedule::Periodic {
            phases: vec![Topology::Custom(odd_pairs), Topology::Custom(cross_pairs)],
        });
    let outcome = scenario.run(0).unwrap();
    assert!(
        outcome.reached_agreement,
        "union connectivity did not suffice"
    );
    assert!(outcome.validity_holds());
    // Every executed round ran on a disconnected graph.
    assert_eq!(
        outcome.network_stats.disconnected_rounds as usize,
        outcome.rounds_executed
    );
}
