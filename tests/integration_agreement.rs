//! End-to-end integration tests: the MSR family reaches Byzantine
//! Approximate Agreement under every mobile Byzantine model whenever the
//! replica bound of Table 2 holds (Theorem 2). All runs are described
//! through the `Scenario` entry point.

use mbaa::prelude::*;

fn spread_inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::new(i as f64 / n as f64)).collect()
}

#[test]
fn every_model_satisfies_the_specification_at_its_bound() {
    for model in MobileModel::ALL {
        for f in 1..=2 {
            let n = model.required_processes(f);
            let outcome = Scenario::new(model, n, f)
                .epsilon(1e-4)
                .max_rounds(500)
                .adversary(
                    MobilityStrategy::RoundRobin,
                    CorruptionStrategy::split_attack(),
                )
                .inputs(spread_inputs(n))
                .run(7)
                .unwrap();
            assert!(outcome.reached_agreement, "{model} f={f}: no agreement");
            assert!(
                outcome.epsilon_agreement_holds(),
                "{model} f={f}: diameter too large"
            );
            assert!(outcome.validity_holds(), "{model} f={f}: validity violated");
        }
    }
}

#[test]
fn agreement_holds_well_above_the_bound_with_extra_processes() {
    for model in MobileModel::ALL {
        let f = 2;
        let n = model.required_processes(f) + 7;
        let outcome = Scenario::new(model, n, f)
            .epsilon(1e-5)
            .max_rounds(500)
            .adversary(
                MobilityStrategy::Random,
                CorruptionStrategy::OutOfRange { magnitude: 1e6 },
            )
            .inputs(spread_inputs(n))
            .run(13)
            .unwrap();
        assert!(
            outcome.reached_agreement && outcome.validity_holds(),
            "{model}"
        );
    }
}

#[test]
fn termination_all_non_faulty_processes_decide_the_same_epsilon_ball() {
    let model = MobileModel::Bonnet;
    let f = 2;
    let n = model.required_processes(f);
    let outcome = Scenario::new(model, n, f)
        .epsilon(1e-3)
        .max_rounds(400)
        .adversary(
            MobilityStrategy::RoundRobin,
            CorruptionStrategy::split_attack(),
        )
        .inputs(spread_inputs(n))
        .run(99)
        .unwrap();
    let values = outcome.final_non_faulty_values();
    // At least n - f processes are non-faulty in the last round.
    assert!(values.len() >= n - f);
    for a in values.iter() {
        for b in values.iter() {
            assert!(a.distance(b) <= 1e-3);
        }
    }
}

#[test]
fn runs_are_deterministic_given_seed_and_inputs() {
    let scenario = Scenario::new(MobileModel::Sasaki, 13, 2)
        .epsilon(1e-4)
        .max_rounds(300)
        .adversary(
            MobilityStrategy::Random,
            CorruptionStrategy::RandomNoise {
                lo: -10.0,
                hi: 10.0,
            },
        )
        .inputs(spread_inputs(13));
    let a = scenario.run(31).unwrap();
    let b = scenario.run(31).unwrap();
    assert_eq!(a, b);
}

#[test]
fn scenario_runs_are_bit_identical_to_the_lowered_protocol_path() {
    let scenario = Scenario::new(MobileModel::Garay, 9, 2)
        .epsilon(1e-4)
        .max_rounds(500)
        .inputs(spread_inputs(9));
    let via_scenario = scenario.run(7).unwrap();
    let config = scenario.lower(7).unwrap();
    let via_protocol = BatchEngine::run(&config, &spread_inputs(9)).unwrap();
    assert_eq!(via_scenario, via_protocol);
}

#[test]
fn different_msr_instances_all_satisfy_the_specification() {
    let model = MobileModel::Garay;
    let f = 1;
    let n = model.required_processes(f) + 2;
    let tau = model.mixed_fault_counts(f).reduction_tau();
    for function in [
        MsrFunction::dolev_mean(tau),
        MsrFunction::fault_tolerant_midpoint(tau),
        MsrFunction::reduced_median(tau),
    ] {
        let outcome = Scenario::new(model, n, f)
            .epsilon(1e-4)
            .max_rounds(500)
            .adversary(
                MobilityStrategy::RoundRobin,
                CorruptionStrategy::split_attack(),
            )
            .function(function)
            .inputs(spread_inputs(n))
            .run(5)
            .unwrap();
        assert!(
            outcome.reached_agreement && outcome.validity_holds(),
            "instance {function} failed"
        );
    }
}

#[test]
fn parallel_batches_aggregate_successful_runs() {
    let scenario = Scenario::new(MobileModel::Buhrman, 10, 3)
        .workload(Workload::RandomUniform { lo: -5.0, hi: 5.0 });
    let batch = scenario.batch(0..8).run().unwrap();
    assert_eq!(batch.len(), 8);
    assert!(batch.all_succeeded());
    assert!(batch.mean_rounds().unwrap() >= 1.0);
    // The summary-only lowered path agrees with the full outcomes.
    let summary = scenario.batch(0..8).stream(None).unwrap();
    assert_eq!(batch.to_experiment_result(), summary);
}

#[test]
fn cured_set_never_exceeds_f_in_any_round() {
    // Corollary 1 of the paper.
    for model in MobileModel::ALL {
        let f = 2;
        let n = model.required_processes(f);
        let outcome = Scenario::new(model, n, f)
            .epsilon(1e-9)
            .max_rounds(50)
            .adversary(MobilityStrategy::Random, CorruptionStrategy::split_attack())
            .inputs(spread_inputs(n))
            .run(17)
            .unwrap();
        for snapshot in &outcome.configurations {
            assert!(snapshot.cured_set().len() <= f, "{model}");
            assert_eq!(snapshot.faulty_set().len(), f, "{model}");
        }
    }
}

#[test]
fn validity_envelope_is_the_range_of_non_faulty_inputs() {
    let n = 9;
    let inputs: Vec<Value> = (0..n).map(|i| Value::new(i as f64)).collect();
    let outcome = Scenario::new(MobileModel::Garay, n, 2)
        .epsilon(1e-4)
        .adversary(
            MobilityStrategy::RoundRobin,
            CorruptionStrategy::split_attack(),
        )
        .inputs(inputs)
        .run(1)
        .unwrap();
    // The envelope is contained in the full input range and is non-trivial.
    assert!(outcome.validity_envelope.lo() >= Value::new(0.0));
    assert!(outcome.validity_envelope.hi() <= Value::new((n - 1) as f64));
    assert!(outcome.validity_envelope.diameter() > 0.0);
}
