//! Per-node runtime state and node-local event handling.
//!
//! [`Node`] is one mote's live state: its MAC engine (senders), CCA
//! threshold [`Provider`], traffic pacing, and radio occupancy. The
//! handlers here cover everything that happens *at* a node without a
//! frame on the air: packet arrivals, MAC command application, next
//! packet scheduling, and the CCA read.

use super::Engine;
use crate::events::{Event, NodeId, TxId};
use crate::scenario::TrafficModel;
use crate::trace::TraceKind;
use nomc_core::CcaAdjustor;
use nomc_mac::{CcaThresholdProvider, FixedThreshold, MacCommand, MacEngine, MacEvent, MacStats};
use nomc_units::{Dbm, Megahertz, MilliWatts, SimTime};

/// CCA-threshold provider dispatch (kept as an enum so nodes stay
/// `Clone`-free but simple).
#[derive(Debug)]
pub(crate) enum Provider {
    Fixed(FixedThreshold),
    // Boxed: the adjustor (ring buffers + watchdog state) dwarfs the
    // fixed variant, and nodes hold one provider for a whole run.
    Dcn(Box<CcaAdjustor>),
}

impl Provider {
    pub(crate) fn threshold(&self, now: SimTime) -> Dbm {
        match self {
            Provider::Fixed(p) => p.threshold(now),
            Provider::Dcn(p) => p.threshold(now),
        }
    }

    pub(crate) fn on_cochannel_packet(&mut self, rssi: Dbm, now: SimTime) {
        match self {
            Provider::Fixed(p) => p.on_cochannel_packet(rssi, now),
            Provider::Dcn(p) => p.on_cochannel_packet(rssi, now),
        }
    }

    pub(crate) fn on_power_sense(&mut self, power: Dbm, now: SimTime) {
        match self {
            Provider::Fixed(p) => p.on_power_sense(power, now),
            Provider::Dcn(p) => p.on_power_sense(power, now),
        }
    }

    pub(crate) fn wants_power_sensing(&self, now: SimTime) -> bool {
        match self {
            Provider::Fixed(p) => p.wants_power_sensing(now),
            Provider::Dcn(p) => p.wants_power_sensing(now),
        }
    }

    pub(crate) fn on_tick(&mut self, now: SimTime) {
        match self {
            Provider::Fixed(p) => p.on_tick(now),
            Provider::Dcn(p) => p.on_tick(now),
        }
    }

    /// Resets the provider to its power-on state (node reboot). Fixed
    /// thresholds have no learned state; a DCN adjustor re-enters the
    /// initializing phase with a fresh `T_I` window.
    pub(crate) fn reinitialize(&mut self, now: SimTime) {
        match self {
            Provider::Fixed(_) => {}
            Provider::Dcn(p) => p.reinitialize(now),
        }
    }
}

/// An in-progress reception at one node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RxAttempt {
    pub(crate) tx_id: TxId,
    pub(crate) synced: bool,
    /// Add-only bound on the registered interference the frame can
    /// meet at this node: seeded with everything on air when the node
    /// locks, grown by every registration while it stays locked (see
    /// `Engine::register`). Not part of a snapshot: a restore re-seeds
    /// it from the medium.
    pub(crate) bound: MilliWatts,
}

/// Per-node runtime state.
#[derive(Debug)]
pub(crate) struct Node {
    /// Global link index (for senders and receivers alike).
    pub(crate) link: usize,
    pub(crate) is_sender: bool,
    pub(crate) freq: Megahertz,
    pub(crate) tx_power: Dbm,
    pub(crate) mac: Option<MacEngine>,
    pub(crate) provider: Option<Provider>,
    pub(crate) oracle: bool,
    pub(crate) traffic: TrafficModel,
    pub(crate) stats: MacStats,
    pub(crate) rx: Option<RxAttempt>,
    pub(crate) transmitting: bool,
    pub(crate) next_interval_at: SimTime,
    /// `forced` flag carried from `BeginTransmit` to `TxStart`.
    pub(crate) forced_next: bool,
    pub(crate) seq: u32,
    /// Whether this node's network uses acknowledged transfers.
    pub(crate) acknowledged: bool,
    /// Data transmission we are awaiting an ACK for (senders).
    pub(crate) awaiting_ack: Option<TxId>,
    /// Most recent transmission id this node emitted (senders).
    pub(crate) last_tx: TxId,
    /// Sequence number of the last frame delivered here (receivers;
    /// duplicate suppression for lost ACKs).
    pub(crate) last_rx_seq: Option<u32>,
    /// Store-and-forward credits: frames delivered upstream and not yet
    /// forwarded (Forward traffic only).
    pub(crate) credits: u64,
    /// Forwarding sender is idle and waiting for a credit.
    pub(crate) wants_packet: bool,
    /// Fault state: the node has crashed and not (yet) rebooted.
    pub(crate) down: bool,
    /// Fault state: the CCA comparator is latched *busy*.
    pub(crate) cca_stuck: bool,
    /// Fault state: RSSI calibration drift installed on this node
    /// (offset computed as a pure function of time — no queue events,
    /// no randomness).
    pub(crate) drift: Option<crate::scenario::DriftFault>,
    /// Events scheduled before this queue sequence number belong to a
    /// previous life of the node (before its last crash) and are
    /// discarded by the dispatcher (see `runtime/faults.rs`).
    pub(crate) stale_before_seq: u64,
}

impl Engine<'_, '_, '_> {
    pub(crate) fn on_packet_ready(&mut self, n: NodeId) {
        if self.now >= SimTime::ZERO + self.sc.duration {
            return; // no new frames after the run ends
        }
        let node = &mut self.nodes[n];
        node.stats.enqueued += 1;
        // A new frame gets a new sequence number; retransmissions of the
        // same frame (ACK mode) keep it.
        node.seq += 1;
        debug_assert!(node.mac.as_ref().is_some_and(MacEngine::is_idle));
        self.feed_mac(n, MacEvent::PacketReady);
    }

    pub(crate) fn feed_mac(&mut self, n: NodeId, ev: MacEvent) {
        let node = &mut self.nodes[n];
        let cmd = node
            .mac
            .as_mut()
            .expect("feed_mac on a receiver node")
            .handle(ev, &mut self.rng);
        self.apply_command(n, cmd);
    }

    pub(crate) fn apply_command(&mut self, n: NodeId, cmd: MacCommand) {
        match cmd {
            MacCommand::SetBackoffTimer(d) => {
                self.queue.schedule(self.now + d, Event::BackoffExpired(n));
            }
            MacCommand::PerformCca => {
                let d = self.nodes[n]
                    .mac
                    .as_ref()
                    .expect("sender")
                    .params()
                    .cca_duration;
                self.queue.schedule(self.now + d, Event::CcaDone(n));
            }
            MacCommand::BeginTransmit { forced } => {
                let turnaround = self.nodes[n]
                    .mac
                    .as_ref()
                    .expect("sender")
                    .params()
                    .turnaround;
                // The radio switches to TX: abort any reception in progress.
                self.nodes[n].rx = None;
                self.nodes[n].forced_next = forced;
                self.queue
                    .schedule(self.now + turnaround, Event::TxStart(n));
            }
            MacCommand::DeclareFailure => {
                self.nodes[n].stats.access_failures += 1;
                self.schedule_next_packet(n);
            }
            MacCommand::CompletePacket => {
                self.schedule_next_packet(n);
            }
            MacCommand::WaitForAck(d) => {
                let parent = self.nodes[n].last_tx;
                self.nodes[n].awaiting_ack = Some(parent);
                self.queue
                    .schedule(self.now + d, Event::AckTimeout(n, parent));
            }
            MacCommand::AbandonPacket => {
                let node = &mut self.nodes[n];
                node.stats.abandoned += 1;
                let link = node.link;
                let measured = self.in_measured_window();
                self.obs.abandon(link, measured);
                self.schedule_next_packet(n);
            }
        }
    }

    pub(crate) fn schedule_next_packet(&mut self, n: NodeId) {
        let node = &mut self.nodes[n];
        let at = match node.traffic {
            TrafficModel::Saturated => {
                self.now
                    + node
                        .mac
                        .as_ref()
                        .expect("sender")
                        .params()
                        .post_tx_processing
            }
            TrafficModel::Interval(period) => {
                // Drift-free pacing; if the service time exceeded the
                // period, catch up to the next slot after `now`.
                let mut t = node.next_interval_at + period;
                while t <= self.now {
                    t += period;
                }
                node.next_interval_at = t;
                t
            }
            TrafficModel::Forward { .. } => {
                if node.credits > 0 {
                    node.credits -= 1;
                    let delay = node
                        .mac
                        .as_ref()
                        .expect("sender")
                        .params()
                        .post_tx_processing;
                    self.now + delay
                } else {
                    node.wants_packet = true;
                    return;
                }
            }
        };
        if at < SimTime::ZERO + self.sc.duration {
            self.queue.schedule(at, Event::PacketReady(n));
        }
    }

    pub(crate) fn on_cca_done(&mut self, n: NodeId) {
        // Let time-based threshold rules run before the read.
        self.provider_mutate(n, |p, now| p.on_tick(now));
        let node = &self.nodes[n];
        let (co, inter) = self.medium.sensed_components(n, node.freq, self.now);
        let noise = self.medium.noise();
        let sensed = if node.oracle {
            // §VII-C oracle: only the co-channel component counts.
            co + noise
        } else {
            co + inter + noise
        };
        let reading = self.rssi_read(n, sensed.to_dbm());
        let threshold = self.sc.radio.clamp_cca_threshold(
            node.provider
                .as_ref()
                .expect("sender has provider")
                .threshold(self.now),
        );
        // A latched-busy comparator (stuck-CCA fault) overrides the
        // comparison; the trace still records the real reading.
        let clear = reading < threshold && !node.cca_stuck;
        self.obs.trace_kind(
            self.now,
            TraceKind::Cca {
                node: n,
                sensed_dbm: reading,
                threshold_dbm: threshold,
                clear,
            },
        );
        let node = &mut self.nodes[n];
        if clear {
            node.stats.cca_clear += 1;
        } else {
            node.stats.cca_busy += 1;
        }
        self.feed_mac(n, MacEvent::CcaResult { clear });
    }
}
