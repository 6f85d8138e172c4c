//! Foundation types for the *mbaa* workspace — a reproduction of
//! "Approximate Agreement under Mobile Byzantine Faults" (Bonomi, Del Pozzo,
//! Potop-Butucaru, Tixeuil — ICDCS 2016).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Value`] — a finite, totally ordered real value voted by processes,
//!   and [`Epsilon`], the agreement tolerance.
//! * [`ValueMultiset`] — the multiset `N` of values a process gathers in a
//!   round, together with the range/diameter operators `ρ(V)` and `δ(V)`
//!   used throughout the paper.
//! * [`Interval`] — a closed real interval, the range of a multiset, and
//!   [`check_range`], the rule every configured sampling range obeys.
//! * [`ProcessId`] / [`ProcessSet`] — process identities `p_1 … p_n`.
//! * [`Round`] and [`Phase`] — the synchronous round structure
//!   (send / receive / compute).
//! * [`FaultState`] (correct / cured / faulty), the four mobile Byzantine
//!   models [`MobileModel`] (Garay, Bonnet, Sasaki, Buhrman), and the
//!   Mixed-Mode fault classes [`MixedFaultClass`] with their fault-count
//!   bookkeeping [`FaultCounts`] and the resilience bound `n > 3a + 2s + b`.
//!
//! # Example
//!
//! ```
//! use mbaa_types::{Value, ValueMultiset, MobileModel, FaultCounts};
//!
//! let votes: ValueMultiset = [1.0, 2.0, 100.0, 1.5].iter().copied().map(Value::new).collect();
//! assert_eq!(votes.diameter(), 99.0);
//!
//! // Garay's model needs n > 4f processes.
//! assert_eq!(MobileModel::Garay.required_processes(2), 9);
//!
//! // The mixed-mode bound n > 3a + 2s + b.
//! let counts = FaultCounts { asymmetric: 1, symmetric: 1, benign: 1 };
//! assert_eq!(counts.min_processes(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fault;
mod interval;
mod multiset;
mod process;
mod round;
mod value;

pub use error::{Error, Result};
pub use fault::{FaultCounts, FaultState, MixedFaultClass, MobileModel};
pub use interval::{check_range, Interval};
pub use multiset::{median_of_sorted, ValueMultiset};
pub use process::{ProcessId, ProcessSet};
pub use round::{Phase, Round};
pub use value::{Epsilon, Value};
