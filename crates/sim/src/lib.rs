//! Experiment harness: the lowered experiment forms, parallel seed-batch
//! execution, statistics, and report tables.
//!
//! The documented entry point for describing experiments is the `Scenario`
//! builder in the `mbaa` facade crate; this crate holds the forms a
//! scenario *lowers to* and the machinery that executes them:
//!
//! * [`Workload`] — how initial values are generated (deterministic spread,
//!   clustered sensors, seeded uniform noise, or explicit values).
//! * [`ExperimentConfig`] — one (model, n, f, adversary, algorithm) point
//!   over a batch of seeds.
//! * [`run_packed`] — the one executor every seed batch runs through:
//!   runs the seeds of any number of points in shared engine packs on the
//!   work-stealing rayon pool, lowering each chunk just before it runs,
//!   folds each run on the worker into what its caller keeps (a full
//!   outcome or a summary), and optionally feeds every run's telemetry to
//!   attached sinks. [`run_packed_experiments`] is its summary fold, one
//!   [`ExperimentResult`] per point, with memory flat for any batch.
//! * [`stats`] — small summary-statistics helpers.
//! * [`report`] — Markdown / CSV table emission used by the benches.
//!
//! Parameter sweeps live next to the `Scenario` type in the facade crate
//! (`Scenario::sweep_n`, `Scenario::sweep_f`, `adversary_ablation`,
//! `mobile_vs_static`).
//!
//! # Example
//!
//! ```
//! use mbaa_sim::{run_packed_experiments, ExperimentConfig, Workload};
//! use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
//! use mbaa_core::Observe;
//! use mbaa_net::{DisconnectionPolicy, LinkFaultPlan, Topology};
//! use mbaa_types::MobileModel;
//!
//! // The lowered form is plain data (`mbaa::Scenario` produces it for you).
//! let config = ExperimentConfig {
//!     model: MobileModel::Buhrman,
//!     n: 7,
//!     f: 2,
//!     epsilon: 1e-3,
//!     max_rounds: 300,
//!     mobility: MobilityStrategy::TargetExtremes,
//!     corruption: CorruptionStrategy::split_attack(),
//!     topology: Topology::Complete,
//!     schedule: None,
//!     link_faults: LinkFaultPlan::default(),
//!     disconnection: DisconnectionPolicy::default(),
//!     function: None,
//!     seeds: (0..5).collect(),
//!     workload: Workload::UniformSpread { lo: 0.0, hi: 1.0 },
//!     allow_bound_violation: false,
//!     observe: Observe::default(),
//! };
//! let mut results = run_packed_experiments(&[config], mbaa_obs::Sinks::default());
//! let result = results.pop().expect("one result per point")?;
//! assert_eq!(result.runs.len(), 5);
//! assert!(result.success_rate() > 0.99);
//! # Ok::<(), mbaa_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod experiment;
pub mod report;
pub mod stats;
mod workload;

pub use experiment::{
    mean_pack_occupancy, normalize_seeds, run_packed, run_packed_experiments, ExperimentConfig,
    ExperimentResult, RunSummary, BATCH_WIDTH,
};
pub use workload::Workload;
