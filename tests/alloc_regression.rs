//! Allocation-regression tests: steady-state engine rounds must perform
//! **zero heap allocations** under `Observe::Summary`.
//!
//! A counting global allocator wraps the system allocator. Two runs of the
//! same configuration differ only in their round budget (both run to the
//! budget without converging), so the difference in allocation counts is
//! exactly what the extra steady-state rounds allocated — which must be
//! nothing. This pins the round-scratch design: outbox/delivery/multiset/
//! fault-plan buffers are allocated once per run and reused in place.
//!
//! A global allocator is per-binary state, so the tests live in their own
//! integration-test binary. The counter is thread-local: every measured
//! run executes on the test's own thread, so tests running in parallel
//! never charge their allocations to each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbaa::{
    BatchEngine, CorruptionStrategy, LinkFaultPlan, MetricsRegistry, MobileModel, MobilityStrategy,
    NoopObserver, Observe, Observer, PackedLane, ProtocolConfig, Topology, TopologySchedule, Value,
};

/// Counts every allocation (not bytes — the assertion is about *count*)
/// made through the global allocator by the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread tears down its
    // thread-locals, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: defers entirely to the system allocator; the only addition is a
// thread-local counter increment on the allocating paths, which itself
// never allocates (a `const`-initialized `Cell`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The current thread's allocation count.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A run that cannot converge within `rounds`: under the worst-case
/// adversary (extreme-targeting mobility, split corruption) these models
/// stay above ε = 1e-300 for well over the budgets used here, so every
/// round executes and `rounds_executed == rounds`.
fn run_counting(model: MobileModel, n: usize, rounds: usize, observe: Observe) -> (u64, usize) {
    run_counting_observed(model, n, rounds, observe, &mut mbaa::NoopObserver)
}

/// [`run_counting`] with an observer attached to the measured run (the
/// warm-up run stays unobserved — the observer's own lazily-grown state,
/// e.g. a registry's first histogram fills, is charged to the measurement,
/// which is exactly what the steady-state comparison needs).
fn run_counting_observed<O: Observer>(
    model: MobileModel,
    n: usize,
    rounds: usize,
    observe: Observe,
    observer: &mut O,
) -> (u64, usize) {
    let inputs: Vec<Value> = (0..n)
        .map(|i| Value::new(i as f64 / (n - 1) as f64))
        .collect();
    let config = ProtocolConfig::builder(model, n, 2)
        .epsilon(1e-300)
        .max_rounds(rounds)
        .seed(7)
        .mobility(MobilityStrategy::TargetExtremes)
        .corruption(CorruptionStrategy::split_attack())
        .observe(observe)
        .build()
        .expect("config");
    // Warm up once: lazily initialized runtime state (thread-locals, the
    // first pool fills) must not be charged to the measured run.
    BatchEngine::run(&config, &inputs).expect("warm-up run");
    let before = allocations();
    let outcome = BatchEngine::run_with(&config, &inputs, None, observer).expect("measured run");
    (allocations() - before, outcome.rounds_executed)
}

#[test]
fn steady_state_rounds_allocate_nothing_under_observe_summary() {
    // The worst-case adversary on the complete topology: the sweep hot
    // path. These three models sustain a positive diameter under the split
    // attack for far longer than the budgets below, so neither run
    // converges early.
    for model in [
        MobileModel::Bonnet,
        MobileModel::Sasaki,
        MobileModel::Buhrman,
    ] {
        let n = model.required_processes(2);
        let (allocs_short, rounds_short) = run_counting(model, n, 6, Observe::Summary);
        let (allocs_long, rounds_long) = run_counting(model, n, 26, Observe::Summary);
        assert_eq!(
            rounds_short, 6,
            "{model}: short run must exhaust its budget"
        );
        assert_eq!(rounds_long, 26, "{model}: long run must exhaust its budget");
        // Both runs share identical setup; the 20 extra steady-state rounds
        // must not have allocated at all.
        assert_eq!(
            allocs_long,
            allocs_short,
            "{model}: {} extra allocations across 20 extra steady-state rounds",
            allocs_long.saturating_sub(allocs_short)
        );

        // Sanity: the same comparison under Observe::Full *does* allocate
        // (snapshots + trace), proving the counter actually measures the
        // engine and the Summary result is not vacuous.
        let (full_short, _) = run_counting(model, n, 6, Observe::Full);
        let (full_long, _) = run_counting(model, n, 26, Observe::Full);
        assert!(
            full_long > full_short,
            "{model}: Full-observability rounds should allocate (got {full_short} vs {full_long})"
        );

        // Pooled Full recording: a recorded round is four flat slot
        // arrays, not one heap object per sender, so the per-round
        // allocation *count* is independent of the system size — buffer
        // sizes scale with n, allocation counts do not. The per-round
        // delta of a larger universe must match exactly. (n + 3 is the
        // largest margin where all three models still exhaust the budget
        // under this adversary; with more slack the diameter collapses to
        // exactly zero before round 26.)
        let (big_short, big_rounds_short) = run_counting(model, n + 3, 6, Observe::Full);
        let (big_long, big_rounds_long) = run_counting(model, n + 3, 26, Observe::Full);
        assert_eq!(
            (big_rounds_short, big_rounds_long),
            (6, 26),
            "{model}: the larger universe must exhaust both budgets"
        );
        assert_eq!(
            full_long - full_short,
            big_long - big_short,
            "{model}: Full-observability allocations across 20 extra rounds grew with n \
             ({} at n = {n} vs {} at n = {})",
            full_long - full_short,
            big_long - big_short,
            n + 3
        );
    }
}

/// The batch analogue of [`run_counting`]: a pack of four lanes runs
/// through the seed-batched engine, lane after lane on one round scratch
/// and a network realization shared across the pack (or one per lane
/// seed, for random-regular graphs). Each lane's set-up (adversary, delay
/// ring, outcome) allocates the same in both runs.
/// Returns the allocation delta of the measured run and every lane's
/// executed round count.
fn run_batch_counting(
    topology: Topology,
    schedule: Option<TopologySchedule>,
    link_faults: LinkFaultPlan,
    corruption: CorruptionStrategy,
    rounds: usize,
) -> (u64, Vec<usize>) {
    let n = 16;
    let mut builder = ProtocolConfig::builder(MobileModel::Garay, n, 2)
        .epsilon(1e-300)
        .max_rounds(rounds)
        .mobility(MobilityStrategy::TargetExtremes)
        .corruption(corruption)
        .observe(Observe::Summary)
        .topology(topology)
        .link_faults(link_faults);
    if let Some(schedule) = schedule {
        builder = builder.topology_schedule(schedule);
    }
    let config = builder.build().expect("config");
    let lanes: Vec<PackedLane> = (1..=4)
        .map(|seed| {
            let mut config = config.clone();
            config.seed = seed;
            PackedLane {
                config,
                inputs: (0..n)
                    .map(|i| Value::new(i as f64 / (n - 1) as f64))
                    .collect(),
            }
        })
        .collect();
    // Warm up once, exactly as the scalar harness does.
    for outcome in BatchEngine::run_packed_observed(&lanes, &mut NoopObserver) {
        outcome.expect("warm-up run");
    }
    let before = allocations();
    let executed: Vec<usize> = BatchEngine::run_packed_observed(&lanes, &mut NoopObserver)
        .into_iter()
        .map(|outcome| outcome.expect("measured run").rounds_executed)
        .collect();
    (allocations() - before, executed)
}

#[test]
fn batch_rounds_allocate_nothing_under_observe_summary() {
    // Every kind of network the batch loop exchanges against — the
    // complete graph (under the split attack, whose receivers share rows,
    // and under stealth corruption, which gives every receiver its own),
    // a static ring mask, a random-regular graph realized per lane seed, a
    // churned dynamic realization rebuilt every round (also with lossy
    // links), and delayed links travelling the delay ring — with four
    // lanes in one pack. Same differential design as the scalar test: both
    // runs share identical setup, so the 20 extra steady-state rounds of
    // the long run must not have allocated at all.
    let churn = TopologySchedule::SeededChurn {
        base: Topology::Complete,
        flip_rate: 0.15,
    };
    let clean = LinkFaultPlan::new;
    let split = CorruptionStrategy::split_attack();
    for (label, topology, schedule, link_faults, corruption) in [
        ("complete", Topology::Complete, None, clean(), split),
        (
            "complete + stealth",
            Topology::Complete,
            None,
            clean(),
            CorruptionStrategy::Stealth,
        ),
        ("ring", Topology::Ring { k: 4 }, None, clean(), split),
        (
            "random-regular",
            Topology::RandomRegular { degree: 8 },
            None,
            clean(),
            split,
        ),
        (
            "churn",
            Topology::Complete,
            Some(churn.clone()),
            clean(),
            split,
        ),
        (
            "churn + omission",
            Topology::Complete,
            Some(churn),
            LinkFaultPlan::new().omit_all(0.05),
            split,
        ),
        (
            "delayed links",
            Topology::Complete,
            None,
            LinkFaultPlan::new().delay_all(1).delay(0, 1, 3),
            split,
        ),
    ] {
        // Stealth values stay inside the correct range, so its lanes agree
        // to the last bit after 17 rounds: its long run adds 10 rounds.
        let long = if corruption == CorruptionStrategy::Stealth {
            16
        } else {
            26
        };
        let (allocs_short, rounds_short) = run_batch_counting(
            topology.clone(),
            schedule.clone(),
            link_faults.clone(),
            corruption,
            6,
        );
        let (allocs_long, rounds_long) =
            run_batch_counting(topology, schedule, link_faults, corruption, long);
        assert!(
            rounds_short.iter().all(|&r| r == 6),
            "{label}: every short lane must exhaust its budget, got {rounds_short:?}"
        );
        assert!(
            rounds_long.iter().all(|&r| r == long),
            "{label}: every long lane must exhaust its budget, got {rounds_long:?}"
        );
        assert_eq!(
            allocs_long,
            allocs_short,
            "{label}: {} extra allocations across {} extra batch rounds",
            allocs_long.saturating_sub(allocs_short),
            long - 6
        );
    }
}

#[test]
fn metrics_registry_rounds_allocate_nothing_under_observe_summary() {
    // The telemetry sink of the sweep hot path: a `MetricsRegistry`
    // observes every round (counters + fixed-bucket histograms, all
    // preallocated at construction), so attaching one must not reintroduce
    // per-round allocation. Same differential design as above: the 20
    // extra steady-state rounds of the long run must allocate nothing.
    for model in [
        MobileModel::Bonnet,
        MobileModel::Sasaki,
        MobileModel::Buhrman,
    ] {
        let n = model.required_processes(2);
        let mut short_registry = MetricsRegistry::new();
        let (allocs_short, rounds_short) =
            run_counting_observed(model, n, 6, Observe::Summary, &mut short_registry);
        let mut long_registry = MetricsRegistry::new();
        let (allocs_long, rounds_long) =
            run_counting_observed(model, n, 26, Observe::Summary, &mut long_registry);
        assert_eq!(
            (rounds_short, rounds_long),
            (6, 26),
            "{model}: both observed runs must exhaust their budgets"
        );
        assert_eq!(
            allocs_long,
            allocs_short,
            "{model}: {} extra allocations across 20 extra observed rounds",
            allocs_long.saturating_sub(allocs_short)
        );
        // The registry really did watch the runs.
        assert_eq!(short_registry.rounds_total, 6);
        assert_eq!(long_registry.rounds_total, 26);
    }
}
