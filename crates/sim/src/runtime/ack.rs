//! Imm-ACK emission, delivery, and timeout.
//!
//! Acknowledged transfers (§VI measurement mode): after a successful
//! decode the receiver turns around and emits a 5-byte Imm-ACK; the
//! original sender either decodes it (sync + payload both clean) or
//! times out and retries.

use super::Engine;
use crate::events::{Event, NodeId, TxId};
use crate::medium::Transmission;
use crate::trace::TraceKind;
use nomc_mac::MacEvent;
use nomc_rngcore::Rng;

impl Engine<'_, '_, '_> {
    /// The acking receiver starts emitting the Imm-ACK for `parent`.
    pub(crate) fn on_ack_start(&mut self, o: NodeId, parent: TxId) {
        let Some(parent_tx) = self.medium.get(parent) else {
            self.nodes[o].transmitting = false;
            return;
        };
        let sender = parent_tx.tx_node;
        let seq = parent_tx.seq;
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        let (freq, tx_power, link) = {
            let node = &self.nodes[o];
            (node.freq, node.tx_power, node.link)
        };
        let node_count = self.nodes.len();
        let mut rx_power = Vec::with_capacity(node_count);
        for other in 0..node_count {
            if other == o {
                rx_power.push(tx_power);
            } else {
                let shadow = self.sc.propagation.shadowing.sample(&mut self.rng);
                rx_power.push(tx_power - self.loss[o][other] + shadow);
            }
        }
        let start = self.now;
        let end = start + self.ack_airtime;
        self.register(Transmission {
            id,
            tx_node: o,
            link,
            frequency: freq,
            start,
            mpdu_start: start + self.mpdu_offset,
            end,
            seq,
            forced: false,
            rx_power,
        });
        self.acks.insert(id, (parent, sender));
        self.queue.schedule(end, Event::TxEnd(o, id));
    }

    /// At ACK airtime end: does the original sender decode it?
    pub(crate) fn try_deliver_ack(&mut self, ack_id: TxId, parent: TxId, sender: NodeId) {
        if self.nodes[sender].awaiting_ack != Some(parent) || self.nodes[sender].transmitting {
            return;
        }
        let Some(ack) = self.medium.get(ack_id) else {
            return;
        };
        // Co-channel, so no filter rejection; the preamble correlator's
        // margin applies as for any sync.
        let signal = ack.rx_power[sender];
        let freq = self.nodes[sender].freq;
        let (sync, payload) = (
            (ack.start, ack.start + self.sync_dur),
            (ack.mpdu_start, ack.end),
        );
        // The sender holds no lock on the ACK, so both windows take the
        // medium walk for their bound.
        let sync_bound = self
            .medium
            .interference_bound(ack_id, sender, freq, sync.0, sync.1);
        let p_sync = self.window_sync_probability(
            ack_id,
            sender,
            freq,
            sync,
            signal + self.sc.radio.sync_margin,
            sync_bound,
        );
        let payload_bound = self
            .medium
            .interference_bound(ack_id, sender, freq, payload.0, payload.1);
        let (errors, _) = self.window_errors(ack_id, sender, freq, payload, signal, payload_bound);
        let decoded = errors == 0 && self.rng.gen::<f64>() < p_sync;
        if decoded {
            self.nodes[sender].awaiting_ack = None;
            self.obs
                .trace_kind(self.now, TraceKind::AckDelivered { tx: parent, sender });
            self.feed_mac(sender, MacEvent::AckResult { acked: true });
        }
    }

    /// `macAckWaitDuration` expired without the ACK arriving.
    pub(crate) fn on_ack_timeout(&mut self, n: NodeId, parent: TxId) {
        if self.nodes[n].awaiting_ack == Some(parent) {
            self.nodes[n].awaiting_ack = None;
            self.obs.trace_kind(
                self.now,
                TraceKind::AckTimedOut {
                    tx: parent,
                    sender: n,
                },
            );
            self.feed_mac(n, MacEvent::AckResult { acked: false });
        }
    }
}
