//! Experiment **P3**: wall-clock share of the four round phases.
//!
//! This is one of the two sanctioned opt-ins to `mbaa::obs::timing` (the
//! other is `mbaa run --profile`): a [`PhaseProfiler`] attached to complete
//! seeded one-lane runs at n ∈ {16, 64, 256} accumulates per-phase spans via
//! the `phase_start`/`phase_end` hooks and prints the aligned breakdown
//! table. Machine-readable `phase_share` metric rows go into
//! `BENCH_phase_profile.json` via the criterion shim's `MBAA_BENCH_JSON`
//! hook, so CI's bench-diff step can flag a phase whose share drifts — an
//! MSR-apply regression shows up here before it shows up as a raw
//! rounds/sec drop. Three more families of rows profile packs over a
//! shared realization: `phase_share/batch_ring/{n}/{phase}` an 8-lane pack
//! on a ring, `phase_share/batch_complete/256/{phase}` a 32-lane pack on
//! the complete graph under the default adversary, and
//! `phase_share/batch_delay/256/{phase}` an 8-lane pack on the complete
//! graph with every link delayed by one round, whose lanes each run 200
//! rounds of equal-width rows, one per active receiver. The fourth,
//! `phase_share/batch_worst/361/{phase}`, profiles an 8-lane pack at the
//! shape of the `complete_large_n` benchmark: Garay at n = 361 with f = 90
//! agents placed by `TargetExtremes` and sending the split attack.
//! `phase_share/batch_roundrobin/301/{phase}` profiles an 8-lane pack at
//! the shape of the benchmark's Sasaki points: n = 301, f = 50 agents
//! under the default `RoundRobin` mobility and the split attack, so `f`
//! hosts are vacated and `f` entered every round.
//! `phase_share/batch_churn/{128,256}/{phase}` profile an 8-lane pack at
//! the shape of `perfbench`'s churn points: seeded churn over the complete
//! base at flip rate 0.1, with every link losing 5% of its messages, so
//! each lane round redraws its graph and checks its components.
//!
//! Every table names the lane rounds it rests on, and runs until there are
//! at least [`MIN_LANE_ROUNDS`]: a share measured over a few dozen rounds
//! is a few dozen spans per phase, not a steady state. The complete
//! one-lane runs agree within 6–8 rounds, so they repeat well past their
//! run count.
//!
//! Because a profiler reports `enabled() == false`, the engine skips all
//! telemetry-event assembly while it is attached: the spans measure the
//! protocol phases themselves, not the observability layer.
//!
//! Run with `cargo bench -p mbaa-bench --bench phase_profile`. The
//! `MBAA_BENCH_SAMPLES` environment variable overrides the per-point run
//! count (CI smoke mode).

use criterion::{record_metric, write_json_report};

use mbaa::obs::timing::PhaseProfiler;
use mbaa::{
    BatchEngine, CorruptionStrategy, LinkFaultPlan, MobileModel, MobilityStrategy, NoopObserver,
    Observe, PackedLane, ProtocolConfig, ProtocolConfigBuilder, Topology, TopologySchedule, Value,
};
use mbaa_bench::spread_inputs;

/// The fewest lane rounds a table rests on.
const MIN_LANE_ROUNDS: usize = 200;

/// Profiled runs per system size (n = 256 is ~15× costlier per round); a
/// table repeats its runs further until it has [`MIN_LANE_ROUNDS`].
fn repetitions(n: usize) -> usize {
    let base = if n >= 256 { 10 } else { 100 };
    std::env::var("MBAA_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(base, |samples| samples.max(1))
}

fn profile(n: usize) {
    let inputs: Vec<Value> = spread_inputs(n);
    let config = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-12)
        .max_rounds(200)
        .seed(7)
        .observe(Observe::Summary)
        .build()
        .expect("config");
    // Warm-up: fault the pages, fill the allocator pools.
    for _ in 0..2 {
        BatchEngine::run(&config, &inputs).expect("run");
    }

    let reps = repetitions(n);
    let mut profiler = PhaseProfiler::new();
    let (mut runs, mut rounds) = (0, 0);
    while runs < reps || rounds < MIN_LANE_ROUNDS {
        rounds += BatchEngine::run_with(&config, &inputs, None, &mut profiler)
            .expect("profiled run")
            .rounds_executed;
        runs += 1;
    }
    let breakdown = profiler.breakdown();
    println!("phase_profile n={n} ({runs} run(s), {rounds} lane rounds):");
    print!("{}", breakdown.render());
    let total = breakdown.total_nanos().max(1);
    for row in &breakdown.rows {
        let share = 100.0 * row.total_nanos as f64 / total as f64;
        record_metric(
            "phase_profile",
            &format!("phase_share/{n}/{}", row.phase.name()),
            share,
            "%",
        );
    }
}

/// A pack of `k` lanes with `f` agents over one shared realization of the
/// network that `network` adds to the base configuration, under the
/// profiler: the lanes
/// run one after another, and the loop emits the four phase hooks
/// (adversary planning, the exchange against the shared realization, the
/// MSR fold over the round's rows, and recording), so the
/// `phase_share/{label}/{n}/{phase}` rows show where the batched round's
/// time goes. `batch_ring` runs 8 lanes on a ring mask; `batch_complete`
/// (32 lanes on the complete graph under the default split adversary)
/// shows what the complete-graph merge costs once receivers that heard the
/// same values share one row; `batch_delay` (8 lanes on the complete graph
/// with every link one round late) folds one row per receiver, all of one
/// width, in every round; `batch_worst` (8 lanes at n = 361, f = 90 under
/// `TargetExtremes` and the split attack) shows what the agents cost when
/// there are many of them; `batch_roundrobin` (8 Sasaki lanes at n = 301,
/// f = 50 under `RoundRobin`) shows what moving every agent every round
/// costs; `batch_churn` (8 lanes under seeded churn with 5% link
/// omissions) shows what redrawing the graph every round costs.
fn profile_batch(
    label: &str,
    model: MobileModel,
    n: usize,
    f: usize,
    k: usize,
    network: impl FnOnce(ProtocolConfigBuilder) -> ProtocolConfigBuilder,
) {
    let base = ProtocolConfig::builder(model, n, f)
        .epsilon(1e-12)
        .max_rounds(200)
        .seed(7)
        .observe(Observe::Summary);
    let config = network(base).build().expect("config");
    let lanes: Vec<PackedLane> = (1..=k as u64)
        .map(|seed| {
            let mut config = config.clone();
            config.seed = seed;
            PackedLane {
                config,
                inputs: spread_inputs(n),
            }
        })
        .collect();
    // Warm-up: one run of the first lane faults the pages of the shared
    // round scratch and fills the allocator pools.
    for outcome in BatchEngine::run_packed_observed(&lanes[..1], &mut NoopObserver) {
        outcome.expect("run");
    }

    // One pack advances k lanes, so divide the one-lane repetition budget.
    let reps = repetitions(n).div_ceil(k);
    let mut profiler = PhaseProfiler::new();
    let (mut batches, mut rounds) = (0, 0);
    while batches < reps || rounds < MIN_LANE_ROUNDS {
        for outcome in BatchEngine::run_packed_observed(&lanes, &mut profiler) {
            rounds += outcome.expect("profiled run").rounds_executed;
        }
        batches += 1;
    }
    let breakdown = profiler.breakdown();
    println!("phase_profile {label} n={n} k={k} ({batches} batch(es), {rounds} lane rounds):");
    print!("{}", breakdown.render());
    let total = breakdown.total_nanos().max(1);
    for row in &breakdown.rows {
        let share = 100.0 * row.total_nanos as f64 / total as f64;
        record_metric(
            "phase_profile",
            &format!("phase_share/{label}/{n}/{}", row.phase.name()),
            share,
            "%",
        );
    }
}

fn main() {
    for &n in &[16usize, 64, 256] {
        profile(n);
    }
    // The batched ring on the reduced grid the engine_batch bench
    // uses for its ring/churn rows.
    for &n in &[64usize, 256] {
        profile_batch("batch_ring", MobileModel::Garay, n, 2, 8, |b| {
            b.topology(Topology::Ring { k: 4 })
        });
    }
    profile_batch("batch_complete", MobileModel::Garay, 256, 2, 32, |b| b);
    profile_batch("batch_delay", MobileModel::Garay, 256, 2, 8, |b| {
        b.link_faults(LinkFaultPlan::new().delay_all(1))
    });
    // The shape of perfbench's churn points.
    for &n in &[128usize, 256] {
        profile_batch("batch_churn", MobileModel::Garay, n, 2, 8, |b| {
            b.topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.1,
            })
            .link_faults(LinkFaultPlan::new().omit_all(0.05))
        });
    }
    // The benchmark's shape: Garay's largest f at n = 361 (n > 4f).
    profile_batch("batch_worst", MobileModel::Garay, 361, 90, 8, |b| {
        b.mobility(MobilityStrategy::TargetExtremes)
            .corruption(CorruptionStrategy::split_attack())
    });
    // The benchmark's Sasaki shape (n > 6f) under the default adversary.
    profile_batch("batch_roundrobin", MobileModel::Sasaki, 301, 50, 8, |b| b);
    write_json_report();
}
