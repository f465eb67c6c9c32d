//! Structured event traces.
//!
//! When [`crate::Scenario::record_trace`] is set, the engine appends one
//! [`TraceRecord`] per radio-level event. Traces serialize to JSON lines
//! (`nomc run --trace out.jsonl`), which is how a stuck calibration or a
//! surprising DCN decision gets debugged: the trace shows exactly which
//! CCA read what power against what threshold, and how every frame
//! fared.

use crate::events::{NodeId, TxId};
use crate::metrics::TxOutcome;
use nomc_json::ToJson;
use nomc_units::{Dbm, SimTime};

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// The traced event kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A CCA measurement completed.
    Cca {
        /// Sensing node.
        node: NodeId,
        /// RSSI-register reading.
        sensed_dbm: Dbm,
        /// Threshold compared against (post-clamp).
        threshold_dbm: Dbm,
        /// The verdict.
        clear: bool,
    },
    /// A frame's first symbol left the antenna.
    TxStart {
        /// Transmitting node.
        node: NodeId,
        /// Transmission id.
        tx: TxId,
        /// Frame sequence number.
        seq: u32,
        /// Whether the transmit-anyway policy forced it.
        forced: bool,
    },
    /// A frame finished at its intended receiver.
    Outcome {
        /// The transmission.
        tx: TxId,
        /// The receiver.
        receiver: NodeId,
        /// How the frame fared there.
        outcome: TxOutcome,
    },
    /// An Imm-ACK was decoded by the original sender.
    AckDelivered {
        /// The acknowledged data transmission.
        tx: TxId,
        /// The sender that received the ACK.
        sender: NodeId,
    },
    /// A sender's `macAckWaitDuration` expired without the ACK.
    AckTimedOut {
        /// The unacknowledged data transmission.
        tx: TxId,
        /// The waiting sender.
        sender: NodeId,
    },
    /// A scheduled fault fired at a node (see `FaultPlan`).
    Fault {
        /// The afflicted node.
        node: NodeId,
        /// What happened to it.
        fault: NodeFault,
    },
}

/// A scheduled fault's effect on a node, as a trace records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node crashed.
    Down,
    /// The node rebooted.
    Up,
    /// The node's CCA comparator latched busy.
    CcaStuck,
    /// The latched comparator released.
    CcaReleased,
}

nomc_json::json_struct!(TraceRecord {
    at: SimTime,
    kind: TraceKind,
});

nomc_json::json_enum!(TraceKind {
    Cca { node, sensed_dbm, threshold_dbm, clear } = "Cca",
    TxStart { node, tx, seq, forced } = "TxStart",
    Outcome { tx, receiver, outcome } = "Outcome",
    AckDelivered { tx, sender } = "AckDelivered",
    AckTimedOut { tx, sender } = "AckTimedOut",
    Fault { node, fault } = "Fault",
});

nomc_json::json_enum!(NodeFault {
    Down = "down",
    Up = "up",
    CcaStuck = "cca_stuck",
    CcaReleased = "cca_released",
});

/// Renders records as JSON lines.
// nomc-lint: allow(test-only-api) — reference the streaming sink matches
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json().dump());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_json::Json;

    #[test]
    fn jsonl_one_line_per_record() {
        let records = vec![
            TraceRecord {
                at: SimTime::from_micros(128),
                kind: TraceKind::Cca {
                    node: 0,
                    sensed_dbm: Dbm::new(-80.0),
                    threshold_dbm: Dbm::new(-77.0),
                    clear: true,
                },
            },
            TraceRecord {
                at: SimTime::from_micros(320),
                kind: TraceKind::TxStart {
                    node: 0,
                    tx: 1,
                    seq: 1,
                    forced: false,
                },
            },
        ];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"Cca\""));
        assert!(text.contains("\"TxStart\""));
        // Each line is valid JSON.
        for line in text.lines() {
            let _: Json = line.parse().expect("valid json");
        }
    }
}
