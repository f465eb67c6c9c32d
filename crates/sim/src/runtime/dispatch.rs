//! Bootstrap, the main event loop, and event routing.
//!
//! [`Engine::bootstrap`] seeds the future-event list and
//! [`Engine::run_leg`] drains it in `(time, seq)` order until the
//! post-run drain deadline or a pause target, handing the live engine
//! to a checkpoint hook at each cadence point on the way; every popped
//! event is offered to the observers (before handling, so sinks see the
//! pristine event) and routed to its handler in the sibling modules.
//!
//! The loop is also where the fault layer intercepts: events addressed
//! to a crashed node — or scheduled in a previous life of a since-
//! rebooted node (see `faults.rs`) — are discarded before observers or
//! handlers see them, and a deterministic event budget bounds runaway
//! runs without ever consulting a wall clock.

use super::{Engine, DRAIN};

/// How a [`Engine::run_leg`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LegEnd {
    /// The pause budget was reached; the run can continue from a snapshot.
    Paused,
    /// The run is over: queue drained, drain deadline passed, or event
    /// budget exhausted — the same exits as the serial loop.
    Over,
}

/// Where a run's checkpoints fall and what happens at each: when the
/// engine has handled `next` events (its own count) it calls `emit` on
/// itself, then moves `next` on by `every`, and carries on running.
pub(crate) struct Cadence<'h> {
    /// Event count of the next checkpoint.
    pub(crate) next: u64,
    /// Events between checkpoints.
    pub(crate) every: u64,
    /// Encodes the live engine and hands the text on.
    pub(crate) emit: &'h mut dyn FnMut(&mut Engine<'_, '_, '_>),
}

use crate::events::{Event, NodeId};
use crate::scenario::TrafficModel;
use nomc_mac::MacEvent;
use nomc_rngcore::Rng;
use nomc_units::{SimDuration, SimTime};

impl Engine<'_, '_, '_> {
    /// Advances the engine through the queue in `(time, seq)` order
    /// until the run is over (queue drained, drain deadline passed, or
    /// event budget exhausted) or — checked before popping anything,
    /// with no side effects — `pause_at` events have been counted. An
    /// engine paused here is in precisely the state an uninterrupted
    /// run passes through after its `pause_at`-th event, which is what
    /// makes snapshots taken at the pause point resumable
    /// bit-identically.
    ///
    /// With a `cadence`, the same point — after the `next`-th event,
    /// before the next pop — is where the hook sees the engine, so a
    /// checkpoint taken there is the snapshot a run paused at that count
    /// would give. A checkpoint falls before a pause at the same count.
    pub(crate) fn run_leg(
        &mut self,
        pause_at: u64,
        mut cadence: Option<&mut Cadence<'_>>,
    ) -> LegEnd {
        let deadline = SimTime::ZERO + self.sc.duration + DRAIN;
        let mut next_checkpoint = cadence.as_ref().map_or(u64::MAX, |c| c.next);
        loop {
            if self.events == next_checkpoint {
                if let Some(c) = cadence.as_deref_mut() {
                    (c.emit)(self);
                    c.next = c.next.saturating_add(c.every);
                    next_checkpoint = c.next;
                }
            }
            if self.events >= pause_at {
                return LegEnd::Paused;
            }
            let Some((t, seq, ev)) = self.held.take().or_else(|| self.queue.pop_entry()) else {
                return LegEnd::Over;
            };
            if t > deadline {
                return LegEnd::Over;
            }
            if self.events >= self.max_events {
                // Keep the popped entry: exhaustion must leave the queue
                // state intact so a snapshot taken here (or a resumed
                // bounded run) sees exactly what an uninterrupted run
                // with a larger budget would pop next.
                self.exhausted = true;
                self.held = Some((t, seq, ev));
                return LegEnd::Over;
            }
            self.now = t;
            self.events += 1;
            if self.discards(seq, &ev) {
                continue;
            }
            self.obs.event(t, &ev);
            self.dispatch(ev);
        }
    }

    pub(crate) fn bootstrap(&mut self) {
        let sender_ids: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_sender)
            .collect();
        for id in sender_ids {
            // Small random start jitter desynchronizes the saturated
            // sources, like staggered mote boot times.
            let jitter = SimDuration::from_micros(self.rng.gen_range(0..5000));
            let start = SimTime::ZERO + jitter;
            self.nodes[id].next_interval_at = start;
            if matches!(self.nodes[id].traffic, TrafficModel::Forward { .. }) {
                // Forwarders wake when their first credit arrives.
                self.nodes[id].wants_packet = true;
            } else {
                self.queue.schedule(start, Event::PacketReady(id));
            }
            self.queue.schedule(start, Event::ProviderTick(id));
            if self.provider_wants_sensing(id, start) {
                self.queue.schedule(start, Event::PowerSense(id));
            }
        }
        // Fault expansion comes last so an empty plan leaves the RNG
        // stream and every fault-free seq number untouched.
        self.schedule_faults();
    }

    /// Fault-layer admission control. Node-initiated events die with
    /// their node: while it is down, and — via the crash watermark —
    /// when they were scheduled before its last crash. Fault-control
    /// events and `TxEnd` always go through: the former drive the fault
    /// state machine itself, the latter closes out airtime the medium
    /// already committed to (the frame is on the air whether or not its
    /// sender lived to see it land).
    fn discards(&self, seq: u64, ev: &Event) -> bool {
        let n = match ev {
            Event::NodeDown(_)
            | Event::NodeUp(_)
            | Event::CcaStuckStart(_)
            | Event::CcaStuckEnd(_)
            | Event::TxEnd(..) => return false,
            Event::PacketReady(n)
            | Event::BackoffExpired(n)
            | Event::CcaDone(n)
            | Event::TxStart(n)
            | Event::SyncDone(n, _)
            | Event::PowerSense(n)
            | Event::ProviderTick(n)
            | Event::AckStart(n, _)
            | Event::AckTimeout(n, _) => *n,
        };
        self.nodes[n].down || self.is_stale(n, seq)
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::PacketReady(n) => self.on_packet_ready(n),
            Event::BackoffExpired(n) => self.feed_mac(n, MacEvent::BackoffExpired),
            Event::CcaDone(n) => self.on_cca_done(n),
            Event::TxStart(n) => self.on_tx_start(n),
            Event::TxEnd(n, id) => self.on_tx_end(n, id),
            Event::SyncDone(n, id) => self.on_sync_done(n, id),
            Event::PowerSense(n) => self.on_power_sense(n),
            Event::ProviderTick(n) => self.on_provider_tick(n),
            Event::AckStart(n, parent) => self.on_ack_start(n, parent),
            Event::AckTimeout(n, parent) => self.on_ack_timeout(n, parent),
            Event::NodeDown(n) => self.on_node_down(n),
            Event::NodeUp(n) => self.on_node_up(n),
            Event::CcaStuckStart(n) => self.on_cca_stuck_start(n),
            Event::CcaStuckEnd(n) => self.on_cca_stuck_end(n),
        }
    }
}
