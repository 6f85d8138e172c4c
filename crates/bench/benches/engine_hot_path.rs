//! Experiment **P2**: steady-state engine throughput (rounds per second)
//! across system sizes and observability levels, and the cost of one MSR
//! evaluation.
//!
//! This is the guard rail of the zero-allocation round loop: it drives
//! complete seeded one-lane runs at n ∈ {16, 64, 256} under
//! `Observe::Summary` (the streaming/sweep execution level, no snapshots,
//! no trace, no per-round allocation) and `Observe::Full` (every recording
//! on), and times `MsrFunction::apply` over multisets of n ∈ {16, 64, 256,
//! 1024} values. It emits machine-readable `rounds_per_sec` and
//! `msr_function` metric rows into `BENCH_engine_hot_path.json` via the
//! criterion shim's `MBAA_BENCH_JSON` hook. CI's bench-diff step compares
//! the rows across commits, so a hot-path regression (or an allocation
//! creeping back into the round loop) shows up as a drop in rounds/sec.
//!
//! Run with `cargo bench -p mbaa-bench --bench engine_hot_path`. The
//! `MBAA_BENCH_SAMPLES` environment variable overrides the per-point run
//! count (CI smoke mode).

use std::hint::black_box;
use std::time::Instant;

use criterion::{record_metric, write_json_report};

use mbaa::{
    BatchEngine, MobileModel, MsrFunction, Observe, ProtocolConfig, Value, ValueMultiset,
    VotingFunction,
};
use mbaa_bench::spread_inputs;

/// Timed runs per measured point (n = 256 is ~15× costlier per round, so
/// it gets fewer).
fn repetitions(n: usize) -> usize {
    let base = if n >= 256 { 20 } else { 200 };
    std::env::var("MBAA_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(base, |samples| samples.max(1))
}

fn measure(n: usize, observe: Observe, label: &str) {
    let inputs: Vec<Value> = spread_inputs(n);
    let config = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-12)
        .max_rounds(200)
        .seed(7)
        .observe(observe)
        .build()
        .expect("config");
    let run = || {
        BatchEngine::run(&config, &inputs)
            .expect("run")
            .rounds_executed
    };
    // Warm-up: fault the pages, fill the allocator pools.
    let mut rounds_per_run = 0usize;
    for _ in 0..2 {
        rounds_per_run = run();
    }

    let reps = repetitions(n);
    let start = Instant::now();
    let mut total_rounds = 0usize;
    for _ in 0..reps {
        total_rounds += run();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rounds_per_sec = total_rounds as f64 / elapsed;
    println!(
        "engine_hot_path n={n} {label}: {rounds_per_run} rounds/run, \
         {rounds_per_sec:.0} rounds/sec ({reps} runs)"
    );
    record_metric(
        "engine_hot_path",
        &format!("rounds_per_sec/{n}/{label}"),
        rounds_per_sec,
        "rounds/s",
    );
}

/// One evaluation of the MSR function (trim n/8 from each end, mean of the
/// rest) over a multiset of `n` votes, in ns per evaluation.
fn measure_msr(n: usize) {
    let votes: ValueMultiset = (0..n).map(|i| Value::new(i as f64)).collect();
    let function = MsrFunction::dolev_mean(n / 8);
    let reps = 200 * repetitions(n);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(function.apply(black_box(&votes)));
    }
    let ns = start.elapsed().as_nanos() as f64 / reps as f64;
    println!("engine_hot_path msr_function n={n}: {ns:.0} ns/apply ({reps} applies)");
    record_metric("engine_hot_path", &format!("msr_function/{n}"), ns, "ns");
}

fn main() {
    for &n in &[16usize, 64, 256] {
        measure(n, Observe::Summary, "summary");
        measure(n, Observe::Full, "full");
    }
    for &n in &[16usize, 64, 256, 1024] {
        measure_msr(n);
    }
    write_json_report();
}
