//! Property batteries: every scenario the generator can produce survives
//! `write → parse → from-json` bit-identically, the canonical writer is a
//! fixed point under reparsing, and running it never panics.
//!
//! The generator is a hand-rolled splitmix64 walk (the vendored `rand` is
//! a shim), so the battery is deterministic: the same seeds exercise the
//! same scenarios on every run and every machine.

use mbaa::prelude::*;
use mbaa_json::schema::{run_summary_from, run_summary_to_json, scenario_from, scenario_to_json};
use mbaa_json::{parse, write_string, Ctx, ScenarioFile, SeedSpec, SweepSpec};

/// splitmix64: a tiny, well-mixed generator good enough to drive variant
/// choices. Deterministic by construction.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite f64 drawn from a few representative magnitudes, including
    /// awkward ones (negative zero, subnormal-adjacent, non-dyadic).
    fn f64(&mut self) -> f64 {
        match self.pick(8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-9,
            3 => 0.1 + 0.2,
            4 => -273.15,
            5 => 1e300,
            6 => (self.next() % 1_000_000) as f64 / 997.0,
            _ => f64::MIN_POSITIVE,
        }
    }
}

fn random_topology(g: &mut Gen, n: usize) -> Topology {
    match g.pick(5) {
        0 => Topology::Complete,
        1 => Topology::Grid,
        2 => Topology::Ring {
            k: 1 + g.pick(3) as usize,
        },
        3 => Topology::RandomRegular {
            degree: 2 + g.pick(4) as usize,
        },
        _ => {
            // A random connected-ish graph: a ring plus a few chords.
            let mut edges: Vec<(usize, usize)> = (0..n).map(|a| (a, (a + 1) % n)).collect();
            for _ in 0..g.pick(4) {
                let a = g.pick(n as u64) as usize;
                let b = g.pick(n as u64) as usize;
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            Topology::Custom(Adjacency::from_edges(n, edges).unwrap())
        }
    }
}

fn random_scenario(g: &mut Gen) -> Scenario {
    let model = match g.pick(4) {
        0 => MobileModel::Garay,
        1 => MobileModel::Bonnet,
        2 => MobileModel::Sasaki,
        _ => MobileModel::Buhrman,
    };
    let f = 1 + g.pick(2) as usize;
    let n = model.required_processes(f) + g.pick(4) as usize;
    let mut s = Scenario::new(model, n, f);
    s.epsilon = [1e-3, 1e-4, 0.05][g.pick(3) as usize];
    s.max_rounds = 10 + g.pick(200) as usize;
    s.mobility = match g.pick(6) {
        0 => MobilityStrategy::Stationary,
        1 => MobilityStrategy::RoundRobin,
        2 => MobilityStrategy::Random,
        3 => MobilityStrategy::TargetExtremes,
        4 => MobilityStrategy::Sweep,
        _ => MobilityStrategy::TargetMedian,
    };
    s.corruption = match g.pick(8) {
        0 => CorruptionStrategy::Silent,
        1 => CorruptionStrategy::BoundaryDrag,
        2 => CorruptionStrategy::Stealth,
        3 => CorruptionStrategy::MedianPull,
        4 => CorruptionStrategy::Fixed {
            value: Value::try_new(g.f64()).unwrap(),
        },
        5 => CorruptionStrategy::OutOfRange { magnitude: g.f64() },
        6 => CorruptionStrategy::Split { magnitude: g.f64() },
        _ => CorruptionStrategy::RandomNoise {
            lo: -g.f64().abs(),
            hi: g.f64().abs(),
        },
    };
    s.topology = random_topology(g, n);
    s.schedule = match g.pick(4) {
        0 => None,
        1 => Some(TopologySchedule::Static(random_topology(g, n))),
        2 => Some(TopologySchedule::Periodic {
            phases: (0..2 + g.pick(2)).map(|_| random_topology(g, n)).collect(),
        }),
        _ => Some(TopologySchedule::SeededChurn {
            base: random_topology(g, n),
            flip_rate: (g.pick(100) as f64) / 100.0,
        }),
    };
    let mut plan = LinkFaultPlan::new();
    for _ in 0..g.pick(3) {
        plan = plan.with_rule(LinkFaultRule {
            from: (g.pick(2) == 0).then(|| g.pick(n as u64) as usize),
            to: (g.pick(2) == 0).then(|| g.pick(n as u64) as usize),
            omit: (g.pick(2) == 0).then(|| (g.pick(100) as f64) / 100.0),
            delay: Some(g.pick(4) as usize),
        });
    }
    s.link_faults = plan;
    s.disconnection = if g.pick(2) == 0 {
        DisconnectionPolicy::Record
    } else {
        DisconnectionPolicy::Reject
    };
    s.function = match g.pick(5) {
        0 => None,
        _ => {
            let reduction = if g.pick(2) == 0 {
                mbaa::Reduction::Identity
            } else {
                mbaa::Reduction::Trim {
                    tau: g.pick(3) as usize,
                }
            };
            let selection = match g.pick(4) {
                0 => mbaa::Selection::All,
                1 => mbaa::Selection::Extremes,
                2 => mbaa::Selection::MedianOnly,
                _ => mbaa::Selection::EveryKth {
                    k: 1 + g.pick(3) as usize,
                },
            };
            Some(MsrFunction::new(reduction, selection))
        }
    };
    s.workload = match g.pick(4) {
        0 => Workload::UniformSpread {
            lo: -g.f64().abs(),
            hi: g.f64().abs(),
        },
        1 => Workload::RandomUniform {
            lo: -g.f64().abs(),
            hi: g.f64().abs(),
        },
        2 => Workload::Clustered {
            centers: (0..1 + g.pick(3)).map(|_| g.f64()).collect(),
            jitter: g.f64().abs(),
        },
        _ => Workload::Fixed {
            values: (0..n).map(|_| Value::try_new(g.f64()).unwrap()).collect(),
        },
    };
    s.allow_bound_violation = g.pick(4) == 0;
    s.observe = match g.pick(3) {
        0 => Observe::Full,
        1 => Observe::Snapshots,
        _ => Observe::Summary,
    };
    s
}

/// The battery's 300 generated scenarios, the same on every run.
fn random_scenarios() -> impl Iterator<Item = Scenario> {
    let mut g = Gen(0x1cdc_5201_6000);
    (0..300).map(move |_| random_scenario(&mut g))
}

#[test]
fn random_scenarios_round_trip_exactly() {
    for (case, scenario) in random_scenarios().enumerate() {
        let text = write_string(&scenario_to_json(&scenario));
        let tree = parse(&text).unwrap_or_else(|e| panic!("case {case}: unparseable: {e}\n{text}"));
        let back = scenario_from(Ctx::root(&tree))
            .unwrap_or_else(|e| panic!("case {case}: schema rejected own output: {e}\n{text}"));
        assert_eq!(back, scenario, "case {case} did not round-trip:\n{text}");
        // Canonical: rewriting the reparsed tree reproduces the bytes.
        assert_eq!(write_string(&scenario_to_json(&back)), text, "case {case}");
    }
}

#[test]
fn random_scenarios_run_or_fail_cleanly() {
    // Every schema-valid scenario either runs or returns a typed error;
    // none may panic.
    for (case, scenario) in random_scenarios().enumerate() {
        for seed in [0, 1] {
            let run = std::panic::catch_unwind(|| scenario.run(seed).map(|_| ()));
            assert!(
                run.is_ok(),
                "case {case} seed {seed} panicked:\n{}",
                write_string(&scenario_to_json(&scenario))
            );
        }
    }
}

#[test]
fn run_summaries_round_trip_exactly() {
    let mut g = Gen(99);
    for _ in 0..100 {
        let summary = RunSummary {
            seed: g.next(),
            reached_agreement: g.pick(2) == 0,
            validity: g.pick(2) == 0,
            rounds: g.pick(500) as usize,
            final_diameter: g.f64().abs(),
            initial_diameter: g.f64().abs(),
            mean_contraction: (g.pick(2) == 0).then(|| g.f64().abs()),
        };
        let text = write_string(&run_summary_to_json(&summary));
        let back = run_summary_from(Ctx::root(&parse(&text).unwrap())).unwrap();
        assert_eq!(back.seed, summary.seed);
        assert_eq!(back.reached_agreement, summary.reached_agreement);
        assert_eq!(back.validity, summary.validity);
        assert_eq!(back.rounds, summary.rounds);
        assert_eq!(
            back.final_diameter.to_bits(),
            summary.final_diameter.to_bits()
        );
        assert_eq!(
            back.initial_diameter.to_bits(),
            summary.initial_diameter.to_bits()
        );
        assert_eq!(
            back.mean_contraction.map(f64::to_bits),
            summary.mean_contraction.map(f64::to_bits)
        );
    }
}

#[test]
fn scenario_files_round_trip_exactly() {
    let mut g = Gen(1234);
    for case in 0..100 {
        let scenario = random_scenario(&mut g);
        let seeds = if g.pick(2) == 0 {
            SeedSpec::List((0..1 + g.pick(6)).map(|_| g.next()).collect())
        } else {
            SeedSpec::Range {
                start: g.pick(1000),
                count: 1 + g.pick(30),
            }
        };
        let sweep = match g.pick(6) {
            0 => Some(SweepSpec::N {
                extra: g.pick(5) as usize,
            }),
            1 => Some(SweepSpec::F { values: vec![1, 2] }),
            2 => Some(SweepSpec::Connectivity {
                topologies: vec![Topology::Complete, Topology::Ring { k: 2 }],
            }),
            3 => Some(SweepSpec::Degrees {
                degrees: vec![2, 4],
            }),
            4 => Some(SweepSpec::Churn {
                flip_rates: vec![0.0, 0.25, 0.5],
            }),
            _ => None,
        };
        let file = ScenarioFile {
            name: format!("battery-{case}"),
            title: (g.pick(2) == 0).then(|| "A generated scenario".to_string()),
            reproduces: (g.pick(2) == 0).then(|| "tests/roundtrip.rs".to_string()),
            scenario,
            seeds,
            sweep,
        };
        let text = file.to_json_string();
        let back =
            ScenarioFile::parse_str(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, file, "case {case}:\n{text}");
        assert_eq!(back.to_json_string(), text, "case {case}");
        // Expansion is deterministic and non-empty.
        assert!(!back.points().is_empty());
        assert_eq!(back.points(), file.points());
    }
}
