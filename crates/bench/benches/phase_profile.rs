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
//! rounds/sec drop. A second family of rows
//! (`phase_share/batch_ring/{n}/{phase}`) profiles an 8-lane pack over a
//! shared ring realization.
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
    BatchEngine, MobileModel, NoopObserver, Observe, PackedLane, ProtocolConfig, Topology, Value,
};
use mbaa_bench::spread_inputs;

/// Profiled runs per system size (n = 256 is ~15× costlier per round).
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
    for _ in 0..reps {
        BatchEngine::run_with(&config, &inputs, None, &mut profiler).expect("profiled run");
    }
    let breakdown = profiler.breakdown();
    println!("phase_profile n={n} ({reps} run(s)):");
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

/// An 8-lane pack on a ring under the profiler: the lanes run one after
/// another over a ring mask shared across the pack. The loop emits the
/// four phase hooks (adversary planning, the masked exchange against the
/// shared realization, the k-wide MSR fold over the round's rows, and
/// recording), so the `phase_share/batch_ring/{n}/{phase}` rows show where
/// the batched round's time goes — the evidence behind the vectorized-fold
/// work.
fn profile_batch(n: usize) {
    const K: usize = 8;
    let config = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-12)
        .max_rounds(200)
        .seed(7)
        .observe(Observe::Summary)
        .topology(Topology::Ring { k: 4 })
        .build()
        .expect("config");
    let lanes: Vec<PackedLane> = (1..=K as u64)
        .map(|seed| {
            let mut config = config.clone();
            config.seed = seed;
            PackedLane {
                config,
                inputs: spread_inputs(n),
            }
        })
        .collect();
    // Warm-up: fault the pages, fill the allocator pools.
    for _ in 0..2 {
        for outcome in BatchEngine::run_packed_observed(&lanes, &mut NoopObserver) {
            outcome.expect("run");
        }
    }

    // One pack advances K lanes, so divide the one-lane repetition budget.
    let reps = repetitions(n).div_ceil(K);
    let mut profiler = PhaseProfiler::new();
    for _ in 0..reps {
        for outcome in BatchEngine::run_packed_observed(&lanes, &mut profiler) {
            outcome.expect("profiled run");
        }
    }
    let breakdown = profiler.breakdown();
    println!("phase_profile batch_ring n={n} k={K} ({reps} batch(es)):");
    print!("{}", breakdown.render());
    let total = breakdown.total_nanos().max(1);
    for row in &breakdown.rows {
        let share = 100.0 * row.total_nanos as f64 / total as f64;
        record_metric(
            "phase_profile",
            &format!("phase_share/batch_ring/{n}/{}", row.phase.name()),
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
        profile_batch(n);
    }
    write_json_report();
}
