//! Per-slot transmission traces.
//!
//! With [`crate::SimConfig::record_trace`] enabled, the engine records
//! every validated transmission (slot, sender, receiver, packet, latency).
//! Traces make schedule behaviour inspectable — e.g. regenerating the
//! paper's Figure 2 (a node's receive/send calendar) from a live run — and
//! serialize to JSON lines for external tooling.

use clustream_core::{NodeId, PacketId, Transmission};
use serde::{Deserialize, Serialize};

/// One recorded transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Slot in which the send happened.
    pub slot: u64,
    /// Sender id.
    pub from: u32,
    /// Receiver id.
    pub to: u32,
    /// Packet sequence number.
    pub packet: u64,
    /// Latency in slots.
    pub latency: u32,
}

/// A full run trace, in slot order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTrace {
    /// Events in the order they were validated.
    pub events: Vec<TraceEvent>,
}

impl EventTrace {
    /// Record one transmission.
    pub fn push(&mut self, slot: u64, tx: &Transmission) {
        self.events.push(TraceEvent {
            slot,
            from: tx.from.0,
            to: tx.to.0,
            packet: tx.packet.seq(),
            latency: tx.latency,
        });
    }

    /// Events sent by `node`.
    pub fn sent_by(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.from == node.0)
    }

    /// Events received by `node`.
    pub fn received_by(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.to == node.0)
    }

    /// The delivery path of `packet` to `node`, reconstructed backwards
    /// from the receiving hop (source-rooted schemes only; `None` if the
    /// node never received it).
    pub fn path_to(&self, node: NodeId, packet: PacketId) -> Option<Vec<u32>> {
        let mut path = vec![node.0];
        let mut cur = node.0;
        // Bound iterations by the event count to guard against cycles.
        for _ in 0..=self.events.len() {
            let hop = self
                .events
                .iter()
                .find(|e| e.packet == packet.seq() && e.to == cur)?;
            path.push(hop.from);
            if hop.from == 0 {
                path.reverse();
                return Some(path);
            }
            cur = hop.from;
        }
        None
    }

    /// Serialize as JSON lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        self.events
            .iter()
            .map(|e| serde_json::to_string(e).expect("event serializes"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Parse a JSON-lines export back into a trace. Blank lines are
    /// skipped; the first malformed line aborts with its line number.
    pub fn from_jsonl(input: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (i, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev: TraceEvent = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid trace event: {e}", i + 1))?;
            events.push(ev);
        }
        Ok(EventTrace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::SOURCE;

    fn tx(from: u32, to: u32, p: u64) -> Transmission {
        Transmission::local(NodeId(from), NodeId(to), PacketId(p))
    }

    #[test]
    fn filters_select_expected_events() {
        let mut t = EventTrace::default();
        t.push(0, &tx(0, 1, 0));
        t.push(1, &tx(1, 2, 0));
        t.push(1, &tx(0, 3, 1));
        assert_eq!(t.sent_by(SOURCE).count(), 2);
        assert_eq!(t.received_by(NodeId(2)).count(), 1);
    }

    #[test]
    fn path_reconstruction() {
        let mut t = EventTrace::default();
        t.push(0, &tx(0, 1, 0));
        t.push(1, &tx(1, 2, 0));
        t.push(2, &tx(2, 3, 0));
        assert_eq!(t.path_to(NodeId(3), PacketId(0)), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.path_to(NodeId(1), PacketId(0)), Some(vec![0, 1]));
        assert_eq!(t.path_to(NodeId(4), PacketId(0)), None);
        assert_eq!(t.path_to(NodeId(3), PacketId(5)), None);
    }

    #[test]
    fn jsonl_roundtrips_line_by_line() {
        let mut t = EventTrace::default();
        t.push(0, &tx(0, 1, 0));
        t.push(3, &tx(1, 2, 7));
        let lines: Vec<TraceEvent> = t
            .to_jsonl()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines, t.events);
    }

    #[test]
    fn jsonl_roundtrips_through_from_jsonl() {
        let mut t = EventTrace::default();
        t.push(0, &tx(0, 1, 0));
        t.push(1, &tx(1, 2, 0));
        t.push(3, &tx(1, 2, 7));
        let back = EventTrace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);

        // Empty and blank-line inputs are fine.
        assert_eq!(EventTrace::from_jsonl("").unwrap(), EventTrace::default());
        let padded = format!("\n{}\n\n", t.to_jsonl());
        assert_eq!(EventTrace::from_jsonl(&padded).unwrap(), t);

        // Malformed lines are reported with their line number.
        let err = EventTrace::from_jsonl("{\"slot\":0,").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
