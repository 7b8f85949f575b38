//! Core vocabulary types for `clustream`.
//!
//! `clustream` reproduces the streaming model of Chow, Golubchik, Khuller and
//! Yao, *"On the Tradeoff Between Playback Delay and Buffer Space in
//! Streaming"* (USC CSTR 09-904 / IPPS 2009). Time is divided into discrete
//! **slots**; in one slot every regular node can transmit one packet and
//! receive one packet; the stream is an ordered, potentially infinite
//! sequence of **packets** played back at one packet per slot.
//!
//! This crate holds the types shared by every other crate in the workspace:
//!
//! * [`NodeId`], [`PacketId`], [`Slot`] — strongly-typed identifiers;
//! * [`Transmission`] — one directed packet send within a slot;
//! * [`Scheme`] — the interface a streaming overlay (multi-tree, hypercube,
//!   chain, …) exposes to the slot simulator in `clustream-sim`;
//! * [`StateView`] — the read-only view of node buffers a scheme may consult
//!   when deciding what to send;
//! * [`NodeQos`] / [`QosReport`] — per-node and aggregate quality-of-service
//!   measurements (playback delay, buffer occupancy, neighbor counts);
//! * [`CoreError`] — model-constraint violations;
//! * [`spec`] — the tokenizer every comma-separated spec flag shares.

#![warn(missing_docs)]

pub mod error;
pub mod ids;
pub mod qos;
pub mod scheme;
pub mod spec;

pub use error::CoreError;
pub use ids::{NodeId, PacketId, Slot, SOURCE};
pub use qos::{NodeQos, QosReport};
pub use scheme::{
    Availability, MembershipEvent, RepairOutcome, SchedulePeriod, Scheme, StateView, Transmission,
};
