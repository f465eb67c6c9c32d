//! Deterministic fault injection: scheduling and event handlers.
//!
//! The scenario's [`crate::scenario::FaultPlan`] is expanded into
//! ordinary queue events once, at bootstrap, *after* the regular
//! bootstrap scheduling — so the RNG stream and the seq numbers of all
//! fault-free events are untouched, and an empty plan leaves the run
//! bit-identical to one simulated before the fault layer existed.
//! Fault delivery consumes no randomness anywhere: crash/reboot and
//! stuck-CCA windows are explicit queue events, jammer bursts are
//! ambient [`crate::medium::Medium`] energy installed at construction,
//! and RSSI drift is a pure function of time evaluated at read sites.
//!
//! Crash semantics ("last gasp" model):
//!
//! * a frame already on the air when its sender dies finishes its
//!   airtime (the medium committed it at TxStart), but the dead sender
//!   processes no MAC consequence of it;
//! * while down, a node ignores every node-initiated event (traffic,
//!   backoff, CCA, sensing, ticks, ACK machinery) and can neither sync
//!   to nor decode frames;
//! * on reboot the node is factory-fresh: new MAC engine, CCA-Adjustor
//!   re-entering the initializing phase (via
//!   [`Provider::reinitialize`](super::node::Provider::reinitialize)),
//!   cleared forwarding credits, and re-bootstrapped traffic/sensing
//!   events. The frame sequence counter survives (NV-backed, as on real
//!   motes), so receiver-side duplicate suppression stays sound.
//!
//! Stale-event hygiene: events a node scheduled in a previous life
//! (before its last crash) may still be queued for instants *after* the
//! reboot — e.g. an interval-traffic `PacketReady` a long period ahead.
//! Delivering them would fork the node's pacing chain. Every crash
//! therefore records the queue's current sequence watermark; the
//! dispatcher discards node-initiated events whose schedule seq
//! predates the node's last crash ([`Engine::is_stale`]).

use super::Engine;
use crate::events::{Event, NodeId};
use crate::trace::{NodeFault, TraceKind};
use nomc_mac::MacEngine;
use nomc_units::{Db, Dbm, SimTime};

impl Engine<'_, '_, '_> {
    /// Expands the scenario's fault plan into queue events. Called once
    /// at the end of bootstrap; scheduling order is plan order (crashes,
    /// then stuck-CCA windows), so same plan ⇒ same seq numbers ⇒
    /// byte-identical runs.
    pub(crate) fn schedule_faults(&mut self) {
        // Clone the tiny plan so scheduling can borrow `self` mutably;
        // plans hold a handful of entries, not a traffic stream.
        let plan = self.sc.faults.clone();
        for c in &plan.crashes {
            self.queue.schedule(c.at, Event::NodeDown(c.node));
            if !c.down_for.is_zero() {
                self.queue
                    .schedule(c.at + c.down_for, Event::NodeUp(c.node));
            }
        }
        for s in &plan.stuck_cca {
            self.queue.schedule(s.at, Event::CcaStuckStart(s.node));
            self.queue
                .schedule(s.at + s.duration, Event::CcaStuckEnd(s.node));
        }
    }

    /// Whether an event addressed to node `n` was scheduled before the
    /// node's last crash (a remnant of its previous life).
    pub(crate) fn is_stale(&self, n: NodeId, seq: u64) -> bool {
        seq < self.nodes[n].stale_before_seq
    }

    /// The node's RSSI calibration error at `now`: zero before the ramp
    /// starts, linear over the ramp, then the full peak. Pure function
    /// of time — applying it at read sites keeps the on-air physics
    /// untouched (miscalibration, not propagation).
    pub(crate) fn drift_offset(&self, n: NodeId, now: SimTime) -> Db {
        let Some(d) = &self.nodes[n].drift else {
            return Db::ZERO;
        };
        if now < d.at {
            return Db::ZERO;
        }
        if d.ramp.is_zero() {
            return d.peak;
        }
        let elapsed = now.saturating_since(d.at);
        if elapsed >= d.ramp {
            d.peak
        } else {
            Db::new(d.peak.value() * (elapsed.as_secs_f64() / d.ramp.as_secs_f64()))
        }
    }

    /// An RSSI-register read at node `n`: the node's calibration drift
    /// (if any) offsets the analog level *before* register quantization,
    /// like a real front-end miscalibration would. Drift-free nodes take
    /// the exact pre-fault-layer path, preserving bit-identity.
    pub(crate) fn rssi_read(&self, n: NodeId, actual: Dbm) -> Dbm {
        if self.nodes[n].drift.is_some() {
            self.sc
                .radio
                .rssi
                .read(actual + self.drift_offset(n, self.now))
        } else {
            self.sc.radio.rssi.read(actual)
        }
    }

    /// The node crashes: any reception is lost, any frame on the air is
    /// abandoned to its fate, and everything the node had scheduled
    /// becomes stale.
    pub(crate) fn on_node_down(&mut self, n: NodeId) {
        let watermark = self.queue.next_seq();
        let node = &mut self.nodes[n];
        if node.down {
            return; // overlapping crash windows: already dead
        }
        node.down = true;
        node.rx = None;
        node.awaiting_ack = None;
        // `transmitting` is left as-is: the in-flight frame's TxEnd
        // still fires (always processed) and clears it.
        node.stale_before_seq = watermark;
        self.obs.trace_kind(
            self.now,
            TraceKind::Fault {
                node: n,
                fault: NodeFault::Down,
            },
        );
    }

    /// The node reboots factory-fresh and re-enters the world exactly
    /// as bootstrap admitted it — minus the start jitter (reboots
    /// consume no randomness; the schedule stays seed-independent).
    pub(crate) fn on_node_up(&mut self, n: NodeId) {
        let now = self.now;
        {
            let node = &mut self.nodes[n];
            if !node.down {
                return; // reboot without a preceding crash: no-op
            }
            node.down = false;
            node.transmitting = false;
            node.rx = None;
            node.awaiting_ack = None;
            node.credits = 0;
            node.wants_packet = false;
            node.forced_next = false;
            node.next_interval_at = now;
            // A fresh `last_tx` keeps a pre-crash frame's TxEnd from
            // being mistaken for ours (tx ids start at 1).
            node.last_tx = 0;
            if let Some(mac) = node.mac.as_mut() {
                // Factory-fresh MAC: backoff exponent, retry counters,
                // and pending-frame state all reset.
                *mac = MacEngine::new(*mac.params());
            }
        }
        // Threshold state resets through provider_mutate so attached
        // observers see the jump back to the conservative default.
        self.provider_mutate(n, |p, t| p.reinitialize(t));
        self.obs.trace_kind(
            now,
            TraceKind::Fault {
                node: n,
                fault: NodeFault::Up,
            },
        );
        // Re-bootstrap the node's event chains (senders only; receivers
        // are purely reactive).
        if !self.nodes[n].is_sender || now >= SimTime::ZERO + self.sc.duration {
            return;
        }
        if matches!(
            self.nodes[n].traffic,
            crate::scenario::TrafficModel::Forward { .. }
        ) {
            self.nodes[n].wants_packet = true;
        } else {
            self.queue.schedule(now, Event::PacketReady(n));
        }
        self.queue.schedule(now, Event::ProviderTick(n));
        if self.provider_wants_sensing(n, now) {
            self.queue.schedule(now, Event::PowerSense(n));
        }
    }

    /// The CCA comparator latches busy: every assessment until the
    /// window closes reports a busy channel regardless of the medium.
    pub(crate) fn on_cca_stuck_start(&mut self, n: NodeId) {
        self.nodes[n].cca_stuck = true;
        self.obs.trace_kind(
            self.now,
            TraceKind::Fault {
                node: n,
                fault: NodeFault::CcaStuck,
            },
        );
    }

    /// The latched comparator releases.
    pub(crate) fn on_cca_stuck_end(&mut self, n: NodeId) {
        self.nodes[n].cca_stuck = false;
        self.obs.trace_kind(
            self.now,
            TraceKind::Fault {
                node: n,
                fault: NodeFault::CcaReleased,
            },
        );
    }
}
