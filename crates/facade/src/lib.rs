//! # mbaa — Approximate Agreement under Mobile Byzantine Faults
//!
//! A reproduction of *"Approximate Agreement under Mobile Byzantine Faults"*
//! (Bonomi, Del Pozzo, Potop-Butucaru, Tixeuil — ICDCS 2016,
//! arXiv:1604.03871) as a Rust library: the MSR (Mean-Subsequence-Reduce)
//! family of approximate agreement algorithms running on a synchronous
//! message-passing simulator under all four mobile Byzantine fault models,
//! together with the Mobile-to-Mixed-Mode mapping, the replica bounds, and
//! the lower-bound constructions of the paper.
//!
//! # The Scenario API
//!
//! The documented entry point is [`Scenario`]: a builder-first description
//! of one experiment point — the `(model, n, f, ε, adversary, algorithm,
//! workload)` tuple every table of the paper sweeps — that *lowers* to the
//! internal forms on demand:
//!
//! * a single seeded run: [`Scenario::run`] (lowers to [`ProtocolConfig`] +
//!   [`BatchEngine::run`], bit-for-bit identical to driving them by hand;
//!   every run, single or batched, goes through the same round loop),
//! * seed batches and parameter sweeps: [`Scenario::batch`] gives a
//!   [`Runner`], and [`Scenario::sweep_n`], [`Scenario::sweep_f`],
//!   [`Scenario::sweep_connectivity`] a [`Sweep`]; [`adversary_ablation`]
//!   is a sweep too, and [`mobile_vs_static`] runs its mobile side as a
//!   seed batch. All of them run through one packed executor, whose packs
//!   span point boundaries on the work-stealing rayon pool. [`Runner::run`]
//!   and [`Sweep::run`] keep every full outcome, at the scenario's own
//!   [`Observe`] level, in a [`BatchOutcome`] sorted by seed, their packs
//!   cut so that every worker has one, while [`Runner::stream`],
//!   [`Sweep::stream`] and [`stream_segments`] fold each run into its
//!   [`RunSummary`] on the worker, which keeps memory flat for very large
//!   batches,
//! * telemetry: the summary calls take an optional [`MetricsRegistry`],
//!   bit-identical for every worker count, and [`stream_segments`] takes
//!   [`obs::Sinks`], which add the event stream and phase profile of the
//!   packed run itself; a single run feeds any [`Observer`] through
//!   [`Scenario::run_observed`].
//!
//! The network topology is a scenario axis: [`Scenario::topology`] accepts
//! a [`Topology`] (complete by default — the paper's network — or ring /
//! random-regular / grid / custom adjacency), validated at lowering time
//! against connectivity and the model's degree-dependent resilience
//! requirement. See `examples/partial_connectivity.rs` for the
//! convergence-vs-degree surface this opens.
//!
//! The network can itself be *mobile*: [`Scenario::topology_schedule`]
//! accepts a [`TopologySchedule`] (static, periodic phases, or seeded
//! per-round churn), [`Scenario::link_faults`] layers per-link omission and
//! delay faults ([`LinkFaultPlan`]) on the structural mask, and
//! [`Scenario::sweep_churn`] / [`Scenario::sweep_degrees`] sweep the churn
//! rate and the degree range on the shared pool. Link-attributable losses
//! are accounted separately from adversary omissions; see
//! `examples/mobile_network.rs` for the convergence-vs-churn-rate curve.
//!
//! All defaulting — experiment ε and round budget, the worst-case
//! adversary, the model's mapped MSR instance, the topology, the workload —
//! is decided in the scenario layer (backed by [`core::defaults`]),
//! so the lowered forms [`ProtocolConfig`] and [`ExperimentConfig`] stay
//! plain data.
//!
//! # Quickstart
//!
//! ```
//! use mbaa::prelude::*;
//!
//! // 9 sensors, 2 mobile Byzantine agents, Garay's model (n > 4f).
//! let scenario = Scenario::new(MobileModel::Garay, 9, 2)
//!     .epsilon(1e-3)
//!     .workload(Workload::UniformSpread { lo: 20.0, hi: 21.0 });
//!
//! // One seeded run with the full outcome…
//! let outcome = scenario.run(42)?;
//! assert!(outcome.reached_agreement);
//! assert!(outcome.validity_holds());
//!
//! // …and the same point over a parallel seed batch.
//! let batch = scenario.batch(0..8).run()?;
//! assert!(batch.all_succeeded());
//! assert!(batch.mean_rounds().unwrap() >= 1.0);
//! # Ok::<(), mbaa::Error>(())
//! ```
//!
//! # Workspace layout
//!
//! This facade re-exports the public API of every workspace crate so
//! downstream users only need a single dependency:
//!
//! * [`types`] — values, multisets, rounds, fault states and models.
//! * [`net`] — the synchronous round-based network substrate.
//! * [`msr`] — the MSR algorithm family and convergence analysis.
//! * [`mixed`] — the static Mixed-Mode fault model baseline.
//! * [`adversary`] — mobile agents: mobility and corruption strategies.
//! * [`core`] — the protocol engine, Table 1 mapping, Table 2 bounds, and
//!   Theorems 3–6 lower-bound scenarios.
//! * [`obs`] — deterministic run telemetry (the [`Observer`] sink, the
//!   metrics registry) and the sanctioned wall-clock phase profiler.
//! * [`sim`] — the lowered experiment forms, statistics, and report tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prelude;
mod runner;
mod scenario;

pub use runner::{
    adversary_ablation, mobile_vs_static, stream_segments, AblationPoint, BatchOutcome,
    EquivalencePoint, Runner, SeededRun, Sweep, SweepPoint, SweepSummary,
};
pub use scenario::Scenario;

/// Foundation types (re-export of [`mbaa_types`]).
pub use mbaa_types as types;

/// Synchronous round-based network substrate (re-export of [`mbaa_net`]).
pub use mbaa_net as net;

/// MSR algorithm family (re-export of [`mbaa_msr`]).
pub use mbaa_msr as msr;

/// Static Mixed-Mode fault model (re-export of [`mbaa_mixed`]).
pub use mbaa_mixed as mixed;

/// Mobile Byzantine adversary (re-export of [`mbaa_adversary`]).
pub use mbaa_adversary as adversary;

/// Protocol engine, mapping, bounds, and lower bounds (re-export of
/// [`mbaa_core`]).
pub use mbaa_core as core;

/// Deterministic run telemetry and sanctioned phase profiling (re-export
/// of [`mbaa_obs`]).
pub use mbaa_obs as obs;

/// Experiment harness (re-export of [`mbaa_sim`]).
pub use mbaa_sim as sim;

pub use mbaa_adversary::{CorruptionStrategy, MobileAdversary, MobilityStrategy};
pub use mbaa_core::{
    BatchEngine, MobileRunOutcome, Observe, PackedLane, ProtocolConfig, ProtocolConfigBuilder,
    RoundSnapshot,
};
pub use mbaa_msr::{MedianVoting, MsrFunction, Reduction, Selection, VotingFunction};
pub use mbaa_net::{
    Adjacency, DisconnectionPolicy, LinkFaultPlan, Outbox, Topology, TopologySchedule,
};
pub use mbaa_obs::{
    ConvergenceEvent, Event, EventLog, Histogram, MetricsRegistry, NoopObserver, Observer, Phase,
    RoundEvent, RunEndEvent, Tee,
};
pub use mbaa_sim::{ExperimentConfig, ExperimentResult, RunSummary, Workload};
pub use mbaa_types::{
    Epsilon, Error, FaultCounts, FaultState, Interval, MixedFaultClass, MobileModel, ProcessId,
    ProcessSet, Result, Round, Value, ValueMultiset,
};
