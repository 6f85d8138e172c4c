//! The mobile Byzantine adversary.
//!
//! In the Mobile Byzantine Faults (MBF) model an adversary controls `f`
//! computationally unbounded *agents* and moves them from process to process
//! as the computation proceeds. A process hosting an agent is **faulty**
//! (its state and outgoing messages are controlled by the adversary); the
//! round after the agent leaves it is **cured** (it runs the correct code
//! from tamper-proof memory, but its variables may have been corrupted);
//! otherwise it is **correct**.
//!
//! This crate implements the adversary:
//!
//! * [`MobilityStrategy`] — where the agents go each round (stationary,
//!   round-robin, random, or targeting the extreme-valued correct
//!   processes).
//! * [`CorruptionStrategy`] — what occupied processes send and what state
//!   the agent leaves behind (silence, fixed values, out-of-range values,
//!   the split attack, random noise, or boundary dragging).
//! * [`MobileAdversary`] — the per-round orchestration for each of the four
//!   models M1–M4 ([`MobileModel`](mbaa_types::MobileModel)), producing a
//!   [`RoundFaultPlan`] that the protocol engine consumes: who is faulty,
//!   who is cured, the outboxes of faulty senders, the corrupted states left
//!   in cured processes, and (for Sasaki's model) the poisoned outgoing
//!   queues cured processes unknowingly flush.
//!
//! In every model a round touches only the at most `f` processes the
//! agents leave or enter, and a plan is sized by them: the faulty and cured
//! sets are word bitsets, and the outboxes and states are keyed by agent
//! slot, so past the placement a round's plan costs O(f + n/64), not O(n).
//!
//! # Example
//!
//! ```
//! use mbaa_adversary::{
//!     AdversaryView, CorruptionStrategy, MobileAdversary, MobilityStrategy, RoundFaultPlan,
//! };
//! use mbaa_types::{Interval, MobileModel, Round, Value};
//!
//! let mut adversary = MobileAdversary::new(
//!     MobileModel::Garay,
//!     9,              // n
//!     2,              // f agents
//!     MobilityStrategy::RoundRobin,
//!     CorruptionStrategy::split_attack(),
//!     42,             // seed
//! );
//!
//! let votes = vec![Value::new(0.5); 9];
//! let view = AdversaryView {
//!     round: Round::ZERO,
//!     votes: &votes,
//!     correct_range: Interval::new(Value::new(0.0), Value::new(1.0)),
//! };
//! let mut plan = RoundFaultPlan::empty(9);
//! adversary.begin_round_into(&view, &mut plan);
//! assert_eq!(plan.faulty().len(), 2);
//! assert!(plan.cured().is_empty()); // no agent has moved before round 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod corruption;
mod mobile;
mod mobility;
mod view;

pub use corruption::CorruptionStrategy;
pub use mobile::{MobileAdversary, RoundFaultPlan};
pub use mobility::MobilityStrategy;
pub use view::AdversaryView;
