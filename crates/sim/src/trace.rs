//! Structured event traces.
//!
//! When [`crate::Scenario::record_trace`] is set, the engine appends one
//! [`TraceRecord`] per radio-level event. Traces serialize to JSON lines
//! (`nomc run --trace out.jsonl`), which is how a stuck calibration or a
//! surprising DCN decision gets debugged: the trace shows exactly which
//! CCA read what power against what threshold, and how every frame
//! fared.

use crate::events::{NodeId, TxId};
use nomc_json::{Error, FromJson, Json, ToJson};
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
        /// `"received" | "crc_failed" | "sync_missed" | "receiver_busy"`.
        outcome: &'static str,
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
        /// `"down" | "up" | "cca_stuck" | "cca_released"`.
        fault: &'static str,
    },
}

impl ToJson for TraceRecord {
    fn to_json(&self) -> Json {
        Json::object([("at", self.at.to_json()), ("kind", self.kind.to_json())])
    }
}

impl ToJson for TraceKind {
    fn to_json(&self) -> Json {
        match self {
            TraceKind::Cca {
                node,
                sensed_dbm,
                threshold_dbm,
                clear,
            } => Json::object([(
                "Cca",
                Json::object([
                    ("node", node.to_json()),
                    ("sensed_dbm", sensed_dbm.to_json()),
                    ("threshold_dbm", threshold_dbm.to_json()),
                    ("clear", clear.to_json()),
                ]),
            )]),
            TraceKind::TxStart {
                node,
                tx,
                seq,
                forced,
            } => Json::object([(
                "TxStart",
                Json::object([
                    ("node", node.to_json()),
                    ("tx", tx.to_json()),
                    ("seq", seq.to_json()),
                    ("forced", forced.to_json()),
                ]),
            )]),
            TraceKind::Outcome {
                tx,
                receiver,
                outcome,
            } => Json::object([(
                "Outcome",
                Json::object([
                    ("tx", tx.to_json()),
                    ("receiver", receiver.to_json()),
                    ("outcome", outcome.to_json()),
                ]),
            )]),
            TraceKind::AckDelivered { tx, sender } => Json::object([(
                "AckDelivered",
                Json::object([("tx", tx.to_json()), ("sender", sender.to_json())]),
            )]),
            TraceKind::AckTimedOut { tx, sender } => Json::object([(
                "AckTimedOut",
                Json::object([("tx", tx.to_json()), ("sender", sender.to_json())]),
            )]),
            TraceKind::Fault { node, fault } => Json::object([(
                "Fault",
                Json::object([("node", node.to_json()), ("fault", fault.to_json())]),
            )]),
        }
    }
}

impl FromJson for TraceRecord {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::new("expected object for TraceRecord"))?;
        let at = obj
            .get("at")
            .ok_or_else(|| Error::new("missing field `at` in TraceRecord"))?;
        let kind = obj
            .get("kind")
            .ok_or_else(|| Error::new("missing field `kind` in TraceRecord"))?;
        Ok(TraceRecord {
            at: SimTime::from_json(at)?,
            kind: TraceKind::from_json(kind)?,
        })
    }
}

/// Maps a decoded outcome string back onto the engine's static strings,
/// so round-tripped records compare (and re-serialize) identically.
fn static_outcome(s: &str) -> Result<&'static str, Error> {
    match s {
        "received" => Ok("received"),
        "crc_failed" => Ok("crc_failed"),
        "sync_missed" => Ok("sync_missed"),
        "receiver_busy" => Ok("receiver_busy"),
        other => Err(Error::new(format!("unknown trace outcome `{other}`"))),
    }
}

/// Maps a decoded fault string back onto the engine's static strings.
fn static_fault(s: &str) -> Result<&'static str, Error> {
    match s {
        "down" => Ok("down"),
        "up" => Ok("up"),
        "cca_stuck" => Ok("cca_stuck"),
        "cca_released" => Ok("cca_released"),
        other => Err(Error::new(format!("unknown trace fault `{other}`"))),
    }
}

impl FromJson for TraceKind {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::new("expected object for TraceKind"))?;
        let (tag, body) = obj
            .iter()
            .next()
            .ok_or_else(|| Error::new("empty TraceKind object"))?;
        let field = |name: &str| {
            body.as_object()
                .and_then(|b| b.get(name))
                .ok_or_else(|| Error::new(format!("missing field `{name}` in TraceKind::{tag}")))
        };
        match tag {
            "Cca" => Ok(TraceKind::Cca {
                node: NodeId::from_json(field("node")?)?,
                sensed_dbm: Dbm::from_json(field("sensed_dbm")?)?,
                threshold_dbm: Dbm::from_json(field("threshold_dbm")?)?,
                clear: bool::from_json(field("clear")?)?,
            }),
            "TxStart" => Ok(TraceKind::TxStart {
                node: NodeId::from_json(field("node")?)?,
                tx: TxId::from_json(field("tx")?)?,
                seq: u32::from_json(field("seq")?)?,
                forced: bool::from_json(field("forced")?)?,
            }),
            "Outcome" => Ok(TraceKind::Outcome {
                tx: TxId::from_json(field("tx")?)?,
                receiver: NodeId::from_json(field("receiver")?)?,
                outcome: static_outcome(&String::from_json(field("outcome")?)?)?,
            }),
            "AckDelivered" => Ok(TraceKind::AckDelivered {
                tx: TxId::from_json(field("tx")?)?,
                sender: NodeId::from_json(field("sender")?)?,
            }),
            "AckTimedOut" => Ok(TraceKind::AckTimedOut {
                tx: TxId::from_json(field("tx")?)?,
                sender: NodeId::from_json(field("sender")?)?,
            }),
            "Fault" => Ok(TraceKind::Fault {
                node: NodeId::from_json(field("node")?)?,
                fault: static_fault(&String::from_json(field("fault")?)?)?,
            }),
            other => Err(Error::new(format!("unknown TraceKind tag `{other}`"))),
        }
    }
}

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
