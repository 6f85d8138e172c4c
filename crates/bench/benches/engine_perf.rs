//! Experiment **P1**: Criterion micro-benchmarks of the substrate — the
//! synchronous round engine, the full protocol round loop, and the MSR
//! computation itself — as the system size grows.
//!
//! Run with `cargo bench -p mbaa-bench --bench engine_perf`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mbaa::{
    DeliveryMatrix, MobileEngine, MobileModel, MsrFunction, Outbox, ProcessId, ProtocolConfig,
    Round, SyncNetwork, Value, ValueMultiset, VotingFunction,
};
use mbaa_bench::spread_inputs;

/// One all-to-all exchange over the synchronous network, into a delivery
/// matrix reused across iterations (as the engine reuses it across
/// rounds).
fn bench_network_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_exchange");
    for &n in &[16usize, 64, 256, 1024] {
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let outboxes: Vec<Outbox> = (0..n)
                .map(|i| Outbox::broadcast(n, ProcessId::new(i), Value::new(i as f64)))
                .collect();
            let mut deliveries = DeliveryMatrix::new(n);
            b.iter(|| {
                let mut network = SyncNetwork::without_trace(n);
                network
                    .exchange_into(Round::ZERO, black_box(&outboxes), &mut deliveries)
                    .expect("exchange");
                black_box(&deliveries);
            });
        });
    }
    group.finish();
}

/// One evaluation of the MSR function over a multiset of votes.
fn bench_msr_function(c: &mut Criterion) {
    let mut group = c.benchmark_group("msr_function");
    for &n in &[16usize, 64, 256, 1024] {
        let votes: ValueMultiset = (0..n).map(|i| Value::new(i as f64)).collect();
        let function = MsrFunction::dolev_mean(n / 8);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(function.apply(black_box(&votes))));
        });
    }
    group.finish();
}

/// A complete protocol execution (until ε-agreement) under the worst-case
/// adversary, per model, at n = n_Mi + 2 with f = 2.
fn bench_full_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_protocol_run");
    group.sample_size(20);
    for model in MobileModel::ALL {
        let f = 2;
        let n = model.required_processes(f) + 2;
        let inputs = spread_inputs(n);
        group.bench_function(BenchmarkId::from_parameter(model.short_name()), |b| {
            b.iter(|| {
                let config = ProtocolConfig::builder(model, n, f)
                    .epsilon(1e-4)
                    .max_rounds(300)
                    .seed(7)
                    .build()
                    .expect("config");
                let outcome = MobileEngine::new(config)
                    .run(black_box(&inputs))
                    .expect("run");
                black_box(outcome.rounds_executed)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_network_exchange,
    bench_msr_function,
    bench_full_protocol
);
criterion_main!(benches);
