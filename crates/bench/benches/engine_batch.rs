//! Experiment **P3**: seed-batched engine throughput — aggregate rounds
//! per second when a pack of k seeds of one scenario point runs through
//! `BatchEngine`, one lane after another.
//!
//! The grid is n ∈ {16, 64, 256} × k ∈ {1, 8, 32}. The k = 1 column is the
//! baseline: a one-lane pack through the same round loop, so the k = 8 /
//! k = 32 rows measure what a pack shares across its lanes (one
//! realization and one round scratch) over running the same seeds one
//! pack at a time.
//! Throughput is *aggregate*: total rounds summed over all lanes divided
//! by wall time; lanes share no round work, so the rows sit near the
//! k = 1 row.
//!
//! Partial topologies and dynamic/lossy fabrics, which cannot use the
//! complete graph's sort-once-and-merge exchange, get their own rows on a
//! reduced n ∈ {64, 256} × k ∈ {1, 32} grid: `…/ring` runs a
//! `Ring {{ k: 4 }}` mask, `…/churn` a seeded-churn schedule over the
//! complete base, and `…/delay` the complete graph with every link
//! delayed by one round. These guard the shared-realization batch delivery
//! (one adjacency + one compiled fault plan per pack instead of one per
//! lane) and the buffering of delayed links.
//!
//! A `packed_lane_occupancy` row reports the mean lane occupancy of the
//! cross-point packing scheduler over a shape-homogeneous multi-point
//! sweep (unit `occ%`, higher is better — `scripts/bench_diff.py` knows
//! the direction).
//!
//! Emits machine-readable `batch_rounds_per_sec/{n}/{k}` metric rows (unit
//! `rounds/s`) into `BENCH_engine_batch.json` via the criterion shim's
//! `MBAA_BENCH_JSON` hook; CI's bench-diff step compares the rows across
//! commits, so a batching regression shows up as a drop in rounds/sec.
//!
//! Run with `cargo bench -p mbaa-bench --bench engine_batch`. The
//! `MBAA_BENCH_SAMPLES` environment variable overrides the per-point run
//! count (CI smoke mode).

use std::time::Instant;

use criterion::{record_metric, write_json_report};

use mbaa::prelude::*;
use mbaa::{BatchEngine, PackedLane, ProtocolConfig};
use mbaa_bench::spread_inputs;

/// Timed batch executions per measured point (n = 256 is ~15× costlier
/// per round, so it gets fewer).
fn repetitions(n: usize) -> usize {
    let base = if n >= 256 { 20 } else { 200 };
    std::env::var("MBAA_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(base, |samples| samples.max(1))
}

/// Network variant of a measured point: the complete graph, a static
/// partial mask (ring), a dynamic churned fabric, or delayed links.
#[derive(Clone, Copy)]
enum Variant {
    Complete,
    Ring,
    Churn,
    Delay,
}

impl Variant {
    fn suffix(self) -> &'static str {
        match self {
            Variant::Complete => "",
            Variant::Ring => "/ring",
            Variant::Churn => "/churn",
            Variant::Delay => "/delay",
        }
    }
}

fn measure(n: usize, k: usize, variant: Variant) {
    let mut builder = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-12)
        .max_rounds(200)
        .seed(7)
        .observe(Observe::Summary);
    builder = match variant {
        Variant::Complete => builder,
        // k = 4 ring: 8 neighbors + self, the smallest ring neighborhood
        // that satisfies the Garay connectivity bound at f = 2.
        Variant::Ring => builder.topology(Topology::Ring { k: 4 }),
        // Mild churn over the complete base: every link flips out with
        // probability 0.15 per round, redrawn per (seed, round, link).
        Variant::Churn => builder.topology_schedule(TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.15,
        }),
        // Every link of the complete graph delivers one round late, so
        // every slot is buffered for a round.
        Variant::Delay => builder.link_faults(LinkFaultPlan::new().delay_all(1)),
    };
    let config = builder.build().expect("config");
    // Distinct seeds per lane, shared inputs: the adversary streams
    // diverge, the workload does not — the sweep-chunk shape.
    let lanes: Vec<PackedLane> = (0..k as u64)
        .map(|seed| {
            let mut config = config.clone();
            config.seed = seed + 1;
            PackedLane {
                config,
                inputs: spread_inputs(n),
            }
        })
        .collect();

    // Warm-up: fault the pages, fill the allocator pools.
    let mut rounds_per_batch = 0usize;
    for _ in 0..2 {
        rounds_per_batch = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver)
            .into_iter()
            .map(|outcome| outcome.expect("run").rounds_executed)
            .sum();
    }

    let reps = repetitions(n);
    let start = Instant::now();
    let mut total_rounds = 0usize;
    for _ in 0..reps {
        total_rounds += BatchEngine::run_packed_observed(&lanes, &mut NoopObserver)
            .into_iter()
            .map(|outcome| outcome.expect("run").rounds_executed)
            .sum::<usize>();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rounds_per_sec = total_rounds as f64 / elapsed;
    let suffix = variant.suffix();
    println!(
        "engine_batch n={n} k={k}{suffix}: {rounds_per_batch} rounds/batch, \
         {rounds_per_sec:.0} aggregate rounds/sec ({reps} batches)"
    );
    record_metric(
        "engine_batch",
        &format!("batch_rounds_per_sec/{n}/{k}{suffix}"),
        rounds_per_sec,
        "rounds/s",
    );
}

/// Mean lane occupancy of the cross-point packing scheduler over a
/// shape-homogeneous sweep: 21 points × 7 seeds. Per-point chunking would
/// launch 21 batches at 7/32 occupancy (21.9%); the packing planner merges
/// consecutive shape-compatible points into ⌈147/32⌉ = 5 packs (91.9%).
/// The plan is deterministic, so the row measures the scheduler, not the
/// machine.
fn measure_occupancy() {
    let seeds: Vec<u64> = (0..7).collect();
    let configs: Vec<ExperimentConfig> = (0..21)
        .map(|i| {
            // Distinct points (an ε axis), one batch shape (n, f, model).
            Scenario::new(MobileModel::Garay, 16, 2)
                .epsilon(1e-6 * (i + 1) as f64)
                .to_experiment(seeds.iter().copied())
        })
        .collect();
    let occupancy = mbaa::sim::mean_pack_occupancy(&configs).expect("pack plan");
    println!(
        "engine_batch packed sweep (21 points x 7 seeds): {:.1}% mean lane occupancy",
        occupancy * 100.0
    );
    record_metric(
        "engine_batch",
        "packed_lane_occupancy",
        occupancy * 100.0,
        "occ%",
    );
}

fn main() {
    for &n in &[16usize, 64, 256] {
        for &k in &[1usize, 8, 32] {
            measure(n, k, Variant::Complete);
        }
    }
    // Reduced grid: a static partial mask, a dynamic churned fabric and
    // delayed links.
    for &n in &[64usize, 256] {
        for &k in &[1usize, 32] {
            measure(n, k, Variant::Ring);
            measure(n, k, Variant::Churn);
            measure(n, k, Variant::Delay);
        }
    }
    measure_occupancy();
    write_json_report();
}
