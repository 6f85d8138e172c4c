//! Approximate Agreement under Mobile Byzantine Faults — the paper's
//! contribution, executable.
//!
//! This crate sits on top of the substrates ([`mbaa_net`], [`mbaa_msr`],
//! [`mbaa_adversary`], `mbaa_mixed`) and provides:
//!
//! * [`ProtocolConfig`] / [`BatchEngine`] — the round-based protocol
//!   engine that runs any [`VotingFunction`](mbaa_msr::VotingFunction) (in
//!   particular any MSR instance) under any of the four mobile Byzantine
//!   models, enforcing each model's cured-process semantics
//!   (Garay: aware and silent; Bonnet: unaware, symmetric; Sasaki: unaware,
//!   poisoned queue; Buhrman: agents move with messages). One run and a
//!   pack of seeds advance through the same lockstep round loop
//!   ([`batch`]).
//! * [`RoundSnapshot`] and the equivalence machinery of Definitions 5–10,
//!   used to compare a mobile computation with its static mixed-mode image.
//! * [`mapping`] — Table 1 as an executable classification: run instrumented
//!   rounds and observe which mixed-mode class the faulty and cured
//!   processes of each model exhibit.
//! * [`bounds`] — Table 2: the replica requirement `n_Mi` per model, plus an
//!   empirical threshold finder used by the Table 2 benchmark.
//! * [`lower_bounds`] — the indistinguishability constructions of
//!   Theorems 3–6 (executions E1/E2/E3), executable against any concrete
//!   voting function to exhibit the violation at `n = n_Mi − 1 … ≤ c·f`.
//!
//! # Quickstart
//!
//! ```
//! use mbaa_core::{BatchEngine, ProtocolConfig};
//! use mbaa_types::{MobileModel, Value};
//!
//! // 9 processes, 2 mobile agents, Garay's model (needs n > 4f = 8).
//! let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
//!     .epsilon(1e-4)
//!     .seed(7)
//!     .build()?;
//!
//! let inputs: Vec<Value> = (0..9).map(|i| Value::new(i as f64 / 9.0)).collect();
//! let outcome = BatchEngine::run(&config, &inputs)?;
//! assert!(outcome.reached_agreement);
//! assert!(outcome.validity_holds());
//! # Ok::<(), mbaa_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod bounds;
mod config;
mod engine;
pub mod lower_bounds;
pub mod mapping;
mod snapshot;

pub use batch::{shape_compatible, BatchEngine, PackedLane};
pub use config::{defaults, Observe, ProtocolConfig, ProtocolConfigBuilder};
pub use engine::MobileRunOutcome;
pub use snapshot::{ProcessTuple, RoundSnapshot};
