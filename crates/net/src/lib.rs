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
//! * [`DeliveryMatrix`] — what every process receives in the receive
//!   phase: for each `(receiver, sender)` slot, either the delivered value
//!   or an omission. Because the network is authenticated, the sender
//!   identity attached to each slot is always genuine.
//! * [`SyncNetwork`] — the exchange engine that turns `n` outboxes into a
//!   filled delivery matrix while enforcing the reliability guarantees (no loss, no
//!   duplication, no creation) and recording a [`RoundTrace`]. Built
//!   [`with_topology`](SyncNetwork::with_topology), it masks delivery by
//!   adjacency.
//! * [`Topology`] / [`Adjacency`] — the communication graph: complete,
//!   ring lattice, random regular, grid, or an explicit validated
//!   adjacency matrix, with connectivity and degree queries.
//! * [`faults`] — the link-fault & dynamic-topology subsystem:
//!   [`DirectedAdjacency`] (one-way links), [`LinkFaultPlan`] (per-link
//!   omission probability and fixed delays with in-order buffering), and
//!   [`TopologySchedule`] (a possibly different realized graph per round —
//!   static, periodic, or seeded churn), with link-attributable
//!   non-deliveries accounted separately from adversary omissions.
//! * [`RoundTrace`] / [`NetworkTrace`] — per-round observation records used
//!   to classify the behaviour of each sender (benign / symmetric /
//!   asymmetric), which is how the Table 1 mapping is validated
//!   experimentally.
//! * [`NetworkStats`] — message accounting.
//!
//! # Example
//!
//! ```
//! use mbaa_net::{DeliveryMatrix, Outbox, SyncNetwork};
//! use mbaa_types::{ProcessId, Round, Value, ValueMultiset};
//!
//! let mut net = SyncNetwork::new(3);
//! let mut deliveries = DeliveryMatrix::new(3);
//! let round = Round::ZERO;
//!
//! // Every process broadcasts its own index as its vote.
//! let outboxes: Vec<Outbox> = (0..3)
//!     .map(|i| Outbox::broadcast(3, ProcessId::new(i), Value::new(i as f64)))
//!     .collect();
//!
//! net.exchange_into(round, &outboxes, &mut deliveries).unwrap();
//! // Process 0 heard 0.0, 1.0 and 2.0.
//! let heard: ValueMultiset = deliveries.delivered_to(ProcessId::new(0)).collect();
//! assert_eq!(heard.len(), 3);
//! assert_eq!(heard.max(), Some(Value::new(2.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod delivery;
pub mod faults;
mod network;
mod outbox;
mod stats;
mod topology;
mod trace;

pub use batch::{DeliveryRows, LaneDelivery, LaneSend, SharedRealization};
pub use delivery::DeliveryMatrix;
pub use faults::{
    CompiledLinkFaults, DirectedAdjacency, DisconnectionPolicy, LinkFaultPlan, LinkFaultRule,
    RealizedSchedule, TopologySchedule,
};
pub use network::SyncNetwork;
pub use outbox::Outbox;
pub use stats::NetworkStats;
pub use topology::{Adjacency, Topology};
pub use trace::{NetworkTrace, ObservedBehavior, RoundTrace, SenderObservation};
