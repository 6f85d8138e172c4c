//! The convenience import: `use mbaa::prelude::*;` brings in the
//! [`Scenario`] entry point, its runners and outcomes, the telemetry sinks
//! ([`MetricsRegistry`], [`EventLog`], [`NoopObserver`]) the executors
//! take, and the vocabulary types every experiment description needs.
//! Every seed batch runs through one packed executor: [`Runner`] for a
//! seed batch, [`Sweep`] for a sweep, and [`stream_segments`] for
//! summary-level segments with telemetry.
//!
//! ```
//! use mbaa::prelude::*;
//!
//! let outcome = Scenario::at_bound(MobileModel::Buhrman, 2).run(7)?;
//! assert!(outcome.reached_agreement);
//! # Ok::<(), mbaa::Error>(())
//! ```

pub use crate::runner::{
    adversary_ablation, mobile_vs_static, stream_segments, AblationPoint, BatchOutcome,
    EquivalencePoint, Runner, SeededRun, Sweep, SweepPoint, SweepSummary,
};
pub use crate::scenario::Scenario;

pub use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
pub use mbaa_core::{BatchEngine, MobileRunOutcome, Observe, ProtocolConfig, RoundSnapshot};
pub use mbaa_msr::{MedianVoting, MsrFunction, VotingFunction};
pub use mbaa_net::{
    Adjacency, DisconnectionPolicy, LinkFaultPlan, LinkFaultRule, Topology, TopologySchedule,
};
pub use mbaa_obs::{EventLog, MetricsRegistry, NoopObserver, Observer};
pub use mbaa_sim::{ExperimentConfig, ExperimentResult, RunSummary, Workload};
pub use mbaa_types::{
    Epsilon, Error, FaultCounts, FaultState, Interval, MobileModel, ProcessId, Value, ValueMultiset,
};
