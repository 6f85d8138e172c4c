//! Synchronous round-based message-passing substrate.
//!
//! The paper assumes a fully connected, authenticated, reliable synchronous
//! network: every round is divided into a *send* phase, a *receive* phase
//! (where every message sent at the beginning of the round is delivered) and
//! a *compute* phase. This crate provides that substrate as an in-process
//! simulator, generalized to partial connectivity: every exchange is
//! mediated by a [`Topology`] (complete by default, reproducing the paper's
//! network exactly), and slots between non-neighbours become *structural*
//! non-deliveries, accounted separately from omission faults:
//!
//! * [`Outbox`] — what one process hands to the network in the send phase:
//!   for each destination, either a value or an omission. A correct process
//!   broadcasts the same value to everyone; a Byzantine process may put a
//!   different value (or nothing) in every slot.
//! * [`LaneSend`] / [`DeliveryRows`] — one round's send phase in
//!   classified form (a broadcaster hands over one value, not `n` slots)
//!   and its receive phase in packed form: every active receiver's
//!   delivered values, ascending.
//! * [`SharedRealization`] — the exchange. It realizes a network
//!   description once per pack of runs and serves each run's rounds,
//!   enforcing the reliability guarantees (no loss, no duplication, no
//!   creation), masking delivery by the round's graph, accounting every
//!   slot in [`NetworkStats`], and recording a [`RoundTrace`] on request.
//! * [`Topology`] / [`Adjacency`] — the communication graph: complete,
//!   ring lattice, random regular, grid, or an explicit validated
//!   adjacency matrix, with connectivity and degree queries (also with
//!   one-way links cut: [`Adjacency::cut_connectivity`]).
//! * [`faults`] — the link-fault & dynamic-topology subsystem:
//!   [`LinkFaultPlan`] (per-link omission probability, one-way cuts and
//!   fixed delays with in-order buffering), and [`TopologySchedule`] (a
//!   possibly different realized graph per round — static, periodic, or
//!   seeded churn), with link-attributable non-deliveries accounted
//!   separately from adversary omissions.
//! * [`RoundTrace`] / [`NetworkTrace`] — per-round observation records used
//!   to classify the behaviour of each sender (benign / symmetric /
//!   asymmetric), which is how the Table 1 mapping is validated
//!   experimentally.
//! * [`NetworkStats`] — message accounting.
//!
//! # Example
//!
//! ```
//! use mbaa_net::{
//!     DeliveryRows, DisconnectionPolicy, LaneSend, LinkFaultPlan, NetworkStats, Outbox,
//!     SharedRealization, Topology,
//! };
//! use mbaa_types::{ProcessId, Round, Value};
//!
//! let mut net = SharedRealization::build(
//!     3,
//!     &Topology::Complete,
//!     None,
//!     &LinkFaultPlan::new(),
//!     DisconnectionPolicy::Record,
//!     0,
//! )?;
//! let mut lane = net.lane(0);
//! // p0 and p1 broadcast their index; p2 tells everyone something else.
//! let sends = [
//!     LaneSend::Broadcast(Value::new(0.0)),
//!     LaneSend::Broadcast(Value::new(1.0)),
//!     LaneSend::PerReceiver,
//! ];
//! let liar = Outbox::per_receiver(
//!     ProcessId::new(2),
//!     vec![Some(Value::new(9.0)), Some(Value::new(-9.0)), None],
//! );
//! let (mut rows, mut stats) = (DeliveryRows::new(3), NetworkStats::new());
//! net.exchange_rows(&mut lane, Round::ZERO, &sends, |_| &liar, &[true; 3], &mut rows, &mut stats)?;
//! // Process 0 heard 0.0, 1.0 and 9.0, ascending; p2 heard no lie.
//! assert_eq!(rows.row(0), &[0.0, 1.0, 9.0].map(Value::new));
//! assert_eq!(rows.row(1), &[-9.0, 0.0, 1.0].map(Value::new));
//! assert_eq!(rows.row(2), &[0.0, 1.0].map(Value::new));
//! assert_eq!((stats.messages_delivered, stats.omissions), (8, 1));
//! # Ok::<(), mbaa_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod faults;
mod network;
mod outbox;
mod stats;
mod topology;
mod trace;

pub use batch::{DeliveryRows, LaneSend};
pub use faults::{
    DisconnectionPolicy, LinkFaultPlan, LinkFaultRule, RealizedSchedule, TopologySchedule,
};
pub use network::{LaneDelivery, SharedRealization};
pub use outbox::Outbox;
pub use stats::NetworkStats;
pub use topology::{Adjacency, Topology};
pub use trace::{NetworkTrace, ObservedBehavior, RoundTrace, SenderObservation, TraceSlot};
