//! Errors for violations of the paper's communication model.

use crate::ids::{NodeId, PacketId, Slot};
use std::fmt;

/// A violation of the streaming model's constraints.
///
/// The whole point of the paper's constructions is that their schedules
/// *provably never* violate these constraints, so the simulator treats any
/// occurrence as a hard error rather than, say, dropping the packet: an
/// error here means the scheme implementation is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A node attempted to send more packets in one slot than its capacity
    /// allows (1 for receivers, `d`/`D` for super nodes and the source).
    SendCapacityExceeded {
        /// The offending sender.
        node: NodeId,
        /// Slot of the violation.
        slot: Slot,
        /// The sender's configured capacity.
        capacity: usize,
    },
    /// A node was scheduled to receive more than one packet in a slot
    /// ("each node … can receive one packet" — §1).
    ReceiveCollision {
        /// The receiver scheduled twice.
        node: NodeId,
        /// The arrival slot in conflict.
        slot: Slot,
        /// The two colliding packets.
        packets: (PacketId, PacketId),
    },
    /// A node attempted to forward a packet it does not hold.
    PacketNotHeld {
        /// The sender lacking the packet.
        node: NodeId,
        /// Slot of the attempted send.
        slot: Slot,
        /// The packet it tried to forward.
        packet: PacketId,
    },
    /// The source attempted to send a packet that has not been produced yet
    /// (live streams only; see [`crate::scheme::Availability`]).
    PacketNotProduced {
        /// Slot of the attempted send.
        slot: Slot,
        /// The not-yet-produced packet.
        packet: PacketId,
    },
    /// A transmission referenced a node outside the configured population.
    UnknownNode {
        /// The out-of-range id.
        node: NodeId,
    },
    /// A node would hiccup: a tracked packet never arrives within the
    /// run's horizon, so no playback start is safe.
    Hiccup {
        /// The starving receiver.
        node: NodeId,
        /// The first packet that never arrived.
        packet: PacketId,
    },
    /// Invalid configuration (e.g. `d < 2`, zero receivers).
    InvalidConfig(String),
    /// The two event queues of a lockstep check (the DES half of
    /// `simulate --check`) disagreed: where, and what each one held.
    QueueDivergence(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SendCapacityExceeded {
                node,
                slot,
                capacity,
            } => write!(f, "{node} exceeded send capacity {capacity} in {slot}"),
            CoreError::ReceiveCollision {
                node,
                slot,
                packets,
            } => write!(
                f,
                "{node} scheduled to receive both {} and {} in {slot}",
                packets.0, packets.1
            ),
            CoreError::PacketNotHeld { node, slot, packet } => {
                write!(f, "{node} does not hold {packet} at {slot}")
            }
            CoreError::PacketNotProduced { slot, packet } => {
                write!(f, "{packet} is not yet produced at {slot} (live stream)")
            }
            CoreError::UnknownNode { node } => write!(f, "unknown node {node}"),
            CoreError::Hiccup { node, packet } => write!(
                f,
                "{node} hiccups: {packet} never arrives within the run's horizon"
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::QueueDivergence(what) => {
                write!(
                    f,
                    "differential check failed: heap and wheel diverge {what}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable() {
        let e = CoreError::SendCapacityExceeded {
            node: NodeId(3),
            slot: Slot(7),
            capacity: 1,
        };
        assert_eq!(e.to_string(), "n3 exceeded send capacity 1 in t7");

        let e = CoreError::ReceiveCollision {
            node: NodeId(2),
            slot: Slot(5),
            packets: (PacketId(1), PacketId(4)),
        };
        assert!(e.to_string().contains("p1"));
        assert!(e.to_string().contains("p4"));

        let e = CoreError::Hiccup {
            node: NodeId(9),
            packet: PacketId(11),
        };
        assert_eq!(
            e.to_string(),
            "n9 hiccups: p11 never arrives within the run's horizon"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CoreError::UnknownNode { node: NodeId(1) });
    }
}
