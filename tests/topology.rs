//! Integration tests of the topology axis: degenerate graphs are rejected
//! with typed errors, normalizations behave, and partial-connectivity runs
//! stay deterministic end to end.

use mbaa::prelude::*;

fn inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::new(i as f64 / n as f64)).collect()
}

#[test]
fn disconnected_topologies_are_rejected_with_a_typed_error() {
    // Two islands of two: connected within, no path across.
    let islands = Adjacency::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let err = Scenario::new(MobileModel::Buhrman, 4, 1)
        .topology(Topology::Custom(islands))
        .run(0)
        .unwrap_err();
    assert!(matches!(
        err,
        Error::DisconnectedTopology {
            n: 4,
            components: 2
        }
    ));

    // Bound-violation opt-in does not waive connectivity: agreement across
    // components is meaningless.
    let err = Scenario::new(MobileModel::Buhrman, 4, 1)
        .topology(Topology::Ring { k: 0 })
        .allow_bound_violation()
        .run(0)
        .unwrap_err();
    assert!(matches!(err, Error::DisconnectedTopology { n: 4, .. }));
}

#[test]
fn insufficient_neighborhoods_are_rejected_with_a_typed_error() {
    // Garay with f = 1 needs every process to hear n_M1 = 5 processes per
    // round; a width-1 ring offers 3.
    let scenario = Scenario::new(MobileModel::Garay, 9, 1).topology(Topology::Ring { k: 1 });
    let err = scenario.run(0).unwrap_err();
    assert!(matches!(
        err,
        Error::InsufficientConnectivity {
            model: MobileModel::Garay,
            f: 1,
            min_neighborhood: 3,
            required: 5,
        }
    ));
    // The threshold experiments opt in exactly like the global bound.
    assert!(scenario.allow_bound_violation().run(0).is_ok());
}

#[test]
fn single_process_universe_works_under_every_family() {
    for topology in [
        Topology::Complete,
        Topology::Ring { k: 5 },
        Topology::Grid,
        Topology::RandomRegular { degree: 0 },
    ] {
        let outcome = Scenario::new(MobileModel::Buhrman, 1, 0)
            .topology(topology.clone())
            .run(3)
            .unwrap();
        assert!(outcome.reached_agreement, "{topology} failed at n = 1");
        assert_eq!(outcome.rounds_executed, 0);
    }
}

#[test]
fn over_wide_rings_normalize_to_complete_bit_identically() {
    // k >= n wraps the lattice onto the all-to-all graph; the engine must
    // lower it onto the same unmasked fast path as Topology::Complete.
    let base = Scenario::at_bound(MobileModel::Garay, 2).epsilon(1e-4);
    for seed in 0..5 {
        let complete = base.clone().topology(Topology::Complete).run(seed).unwrap();
        for k in [4, 9, 64] {
            let ringed = base
                .clone()
                .topology(Topology::Ring { k })
                .run(seed)
                .unwrap();
            assert_eq!(ringed, complete, "ring k={k} seed {seed} diverged");
            assert_eq!(
                format!("{ringed:?}").into_bytes(),
                format!("{complete:?}").into_bytes(),
                "ring k={k} seed {seed} renderings diverged"
            );
        }
    }
}

#[test]
fn partial_runs_are_deterministic_across_paths_and_worker_counts() {
    let scenario = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-3)
        .topology(Topology::Ring { k: 2 });
    let reference = scenario.batch(0..6).workers(1).run().unwrap();
    for width in [2usize, 8] {
        assert_eq!(
            scenario.batch(0..6).workers(width).run().unwrap(),
            reference,
            "{width} workers diverged on a partial topology"
        );
    }
    assert_eq!(
        scenario.batch(0..6).stream(None).unwrap(),
        reference.to_experiment_result()
    );
    for (seed, outcome) in reference.iter() {
        assert_eq!(outcome, &scenario.run(seed).unwrap());
    }
}

#[test]
fn random_regular_graphs_are_seed_deterministic_in_runs() {
    let scenario =
        Scenario::new(MobileModel::Garay, 9, 1).topology(Topology::RandomRegular { degree: 6 });
    let a = scenario.run(11).unwrap();
    let b = scenario.run(11).unwrap();
    assert_eq!(a, b);
    // Different seeds draw different graphs *and* different adversaries;
    // the run is still well-formed.
    let c = scenario.run(12).unwrap();
    assert_eq!(c.final_votes.len(), 9);
}

#[test]
fn sweep_connectivity_matches_standalone_batches() {
    // The flattened sweep over the connectivity axis must regroup to the
    // same outcomes as each topology evaluated on its own.
    let base = Scenario::new(MobileModel::Garay, 9, 1).epsilon(1e-3);
    let topologies = [
        Topology::Ring { k: 2 },
        Topology::Ring { k: 3 },
        Topology::Complete,
    ];
    let points = base
        .sweep_connectivity(topologies.iter().cloned())
        .seeds(0..3)
        .run()
        .unwrap();
    assert_eq!(points.len(), 3);
    for (point, topology) in points.iter().zip(&topologies) {
        assert_eq!(&point.scenario.topology, topology);
        assert_eq!(
            point.outcome,
            point.scenario.batch(0..3).run().unwrap(),
            "{topology} diverged from its standalone batch"
        );
    }
}

#[test]
fn masked_engine_runs_agree_with_the_hand_lowered_protocol_path() {
    // The Scenario lowering and the hand-driven ProtocolConfig path must
    // agree on partial topologies exactly as they do on complete ones. A
    // 3x3 grid's corner neighbourhoods (3) sit below Garay's requirement
    // (5), so both paths opt into the bound violation.
    let scenario = Scenario::new(MobileModel::Garay, 9, 1)
        .epsilon(1e-3)
        .topology(Topology::Grid)
        .allow_bound_violation();
    let via_scenario = scenario.run(7).unwrap();
    let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
        .epsilon(1e-3)
        .max_rounds(scenario.max_rounds)
        .mobility(scenario.mobility)
        .corruption(scenario.corruption)
        .topology(Topology::Grid)
        .allow_bound_violation()
        .seed(7)
        .build()
        .unwrap();
    let via_protocol = BatchEngine::run(&config, &scenario.initial_values(7)).unwrap();
    assert_eq!(via_scenario, via_protocol);
}

#[test]
fn dense_partial_topologies_still_converge_above_the_bound() {
    // A near-complete graph (one missing link) keeps every closed
    // neighbourhood >= n_Mi; the MSR instance still contracts under the
    // mobile adversary.
    let mut matrix = vec![vec![true; 9]; 9];
    matrix[0][8] = false;
    matrix[8][0] = false;
    let adjacency = Adjacency::from_matrix(matrix).unwrap();
    assert_eq!(adjacency.min_closed_neighborhood(), 8);
    let scenario = Scenario::new(MobileModel::Buhrman, 9, 1)
        .epsilon(1e-3)
        .topology(Topology::Custom(adjacency));
    let outcome = scenario.run(0).unwrap();
    assert!(outcome.reached_agreement);
    assert!(outcome.validity_holds());
}

#[test]
fn engine_rejects_degenerate_topologies_when_config_bypasses_the_builder() {
    // ProtocolConfig fields are public: a hand-rolled config can smuggle an
    // unrealizable topology past the builder. The engine surfaces the same
    // typed error instead of panicking.
    let mut config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
        .build()
        .unwrap();
    config.topology = Topology::RandomRegular { degree: 9 };
    let err = BatchEngine::run(&config, &inputs(9)).unwrap_err();
    assert!(matches!(err, Error::InvalidParameter(_)));
}
