//! The layered simulation runtime behind [`crate::engine`].
//!
//! The event loop is decomposed into focused modules, each owning one
//! concern of the discrete-event machine:
//!
//! * [`dispatch`](self) — bootstrap, the main loop, and event routing,
//! * `node` — per-node runtime state, MAC command application, traffic
//!   pacing, and CCA handling,
//! * `tx` — the data-frame life cycle: TxStart, sync, decode, TxEnd,
//! * `ack` — Imm-ACK emission, delivery, and timeout,
//! * `sense` — RSSI power sensing and provider housekeeping ticks,
//! * [`observer`] — the pluggable [`observer::SimObserver`] sink trait,
//! * [`sinks`] — built-in observers (metrics, trace, timeline, energy,
//!   JSONL streaming) and the engine's fan-out,
//! * [`shard`] — deterministic sharded execution: interaction-component
//!   partition planning, components run to completion on the worker
//!   pool, and the canonical boundary-event merge behind a sharded
//!   [`crate::engine::execute`].
//!
//! `Engine` itself lives here (crate-private): the struct is shared
//! state, the submodules contribute `impl` blocks. All measurement side
//! effects (link counters, traces, timelines) flow through the
//! `sinks::ObserverSet`; the event handlers only *emit*
//! notifications, which keeps the simulation core free of bookkeeping
//! and lets external sinks plug in without touching the loop.
//!
//! Determinism contract: observers are write-only sinks and none of the
//! notification paths touches the RNG or the queue, so a run produces
//! bit-identical [`SimResult`]s whatever observers are attached.

pub mod observer;
pub mod shard;
pub mod sinks;
pub mod snapshot;

mod ack;
mod dispatch;
pub(crate) use dispatch::{Cadence, LegEnd};
mod faults;
mod node;
mod sense;
mod tx;

#[cfg(test)]
mod tests;

use crate::events::{BucketQueue, NodeId, TxId};
use crate::medium::{Medium, Segment};
use crate::metrics::{LinkMetrics, SimResult};
use crate::rng::Xoshiro256StarStar;
use crate::scenario::{Scenario, ThresholdMode, TrafficModel};
use node::{Node, Provider};
use nomc_core::CcaAdjustor;
use nomc_mac::{FixedThreshold, MacEngine, MacStats};
use nomc_radio::timing;
use nomc_rngcore::SeedableRng;
use nomc_units::{Db, SimDuration, SimTime};
use observer::SimObserver;
use sinks::ObserverSet;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use tx::TxMeta;

/// Extra simulated time after `duration` during which in-flight frames
/// may still complete (no new frames start).
pub(crate) const DRAIN: SimDuration = SimDuration::from_millis(20);

/// Period of the provider housekeeping tick.
pub(crate) const TICK_PERIOD: SimDuration = SimDuration::from_millis(250);

/// The simulation engine: event queue, medium, per-node state, and the
/// observer fan-out. Constructed per run (or restored from a snapshot),
/// advanced by [`Engine::run_leg`], consumed by [`Engine::finalize`].
pub(crate) struct Engine<'a, 'o, 'e> {
    pub(crate) sc: &'a Scenario,
    pub(crate) now: SimTime,
    pub(crate) queue: BucketQueue,
    pub(crate) medium: Medium,
    pub(crate) nodes: Vec<Node>,
    /// Path loss (no shadowing) between node pairs.
    pub(crate) loss: Vec<Vec<Db>>,
    pub(crate) rng: Xoshiro256StarStar,
    pub(crate) next_tx_id: TxId,
    /// Intended receiver node of each global link.
    pub(crate) link_rx: Vec<NodeId>,
    /// Per-sender list of nodes whose centre-frequency distance makes
    /// them potential sync targets (ascending id). Node frequencies are
    /// fixed for a run, so the capture model's CFD predicate is
    /// precomputed once instead of being re-evaluated over every node on
    /// every TxStart; dynamic conditions (busy, power) are still checked
    /// per frame.
    pub(crate) sync_candidates: Vec<Vec<NodeId>>,
    /// Reused buffer for interference-segment queries (sync + decode):
    /// one allocation per run instead of one per query.
    pub(crate) seg_buf: Vec<Segment>,
    /// The receptions whose running bounds each registration feeds, as
    /// (node, locked frame). Entries go stale when the node drops or
    /// replaces its lock; the next registration sweeps them out, so
    /// no other handler that clears a lock has to know about the list.
    pub(crate) locks: Vec<(NodeId, TxId)>,
    pub(crate) tx_meta: BTreeMap<TxId, TxMeta>,
    /// Upstream link → its forwarding sender node.
    pub(crate) forwarders: BTreeMap<usize, NodeId>,
    pub(crate) airtime: SimDuration,
    pub(crate) sync_dur: SimDuration,
    pub(crate) mpdu_offset: SimDuration,
    /// In-flight ACK frames: ack tx id → (acked data tx id, its sender).
    pub(crate) acks: BTreeMap<TxId, (TxId, NodeId)>,
    pub(crate) ack_airtime: SimDuration,
    /// Measurement sinks: built-in collectors + external observers.
    pub(crate) obs: ObserverSet<'o, 'e>,
    pub(crate) events: u64,
    /// Deterministic event budget: the run stops (and reports
    /// exhaustion) after handling this many events. Wall-clock-free
    /// runaway protection for batch runners.
    pub(crate) max_events: u64,
    /// Whether the run stopped on the event budget rather than draining.
    pub(crate) exhausted: bool,
    /// The entry popped when the event budget ran out, kept (with its
    /// original queue sequence number, which stale-event checks compare
    /// against) so a snapshot of the exhausted run — and a resume under
    /// a larger budget — sees exactly what an uninterrupted run would
    /// pop next. `None` until the budget is exhausted.
    pub(crate) held: Option<(SimTime, u64, crate::events::Event)>,
    /// The scenario's fingerprint, computed on the first snapshot or
    /// checkpoint (or taken from the restore that checked it): the
    /// scenario cannot change during a run, so it is serialized at most
    /// once per engine, and never by a run that does not snapshot.
    pub(crate) fingerprint: OnceCell<u64>,
}

impl<'a, 'o, 'e> Engine<'a, 'o, 'e> {
    pub(crate) fn new(sc: &'a Scenario, externals: &'o mut [&'e mut dyn SimObserver]) -> Self {
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let mut link_rx = Vec::new();
        let mut positions = Vec::new();
        for (ni, network) in sc.deployment.networks.iter().enumerate() {
            let behavior = &sc.behaviors[ni];
            for (li, link) in network.links.iter().enumerate() {
                let global = links.len();
                let provider = match &behavior.threshold {
                    ThresholdMode::Fixed(level) | ThresholdMode::FixedOracle(level) => {
                        Provider::Fixed(FixedThreshold::new(*level))
                    }
                    ThresholdMode::Dcn(cfg) | ThresholdMode::DcnOracle(cfg) => Provider::Dcn(
                        Box::new(CcaAdjustor::new(*cfg, sc.radio.default_cca_threshold)),
                    ),
                };
                nodes.push(Node {
                    link: global,
                    is_sender: true,
                    freq: network.frequency,
                    tx_power: link.tx_power,
                    mac: Some(MacEngine::new(behavior.mac)),
                    provider: Some(provider),
                    oracle: behavior.threshold.is_oracle(),
                    traffic: behavior.traffic,
                    stats: MacStats::new(),
                    rx: None,
                    transmitting: false,
                    next_interval_at: SimTime::ZERO,
                    forced_next: false,
                    seq: 0,
                    acknowledged: behavior.mac.acknowledged,
                    awaiting_ack: None,
                    last_tx: 0,
                    last_rx_seq: None,
                    credits: 0,
                    wants_packet: false,
                    down: false,
                    cca_stuck: false,
                    drift: None,
                    stale_before_seq: 0,
                });
                positions.push(link.tx);
                nodes.push(Node {
                    link: global,
                    is_sender: false,
                    freq: network.frequency,
                    tx_power: link.tx_power,
                    mac: None,
                    provider: None,
                    oracle: false,
                    traffic: behavior.traffic,
                    stats: MacStats::new(),
                    rx: None,
                    transmitting: false,
                    next_interval_at: SimTime::ZERO,
                    forced_next: false,
                    seq: 0,
                    acknowledged: behavior.mac.acknowledged,
                    awaiting_ack: None,
                    last_tx: 0,
                    last_rx_seq: None,
                    credits: 0,
                    wants_packet: false,
                    down: false,
                    cca_stuck: false,
                    drift: None,
                    stale_before_seq: 0,
                });
                positions.push(link.rx);
                link_rx.push(nodes.len() - 1);
                links.push(LinkMetrics {
                    network: ni,
                    link_in_network: li,
                    ..LinkMetrics::default()
                });
            }
        }
        // Per-link traffic overrides (senders are at even node indices:
        // node 2·link is the sender of global link `link`).
        let mut forwarders: BTreeMap<usize, NodeId> = BTreeMap::new();
        for &(link, traffic) in &sc.link_traffic {
            let sender = link * 2;
            nodes[sender].traffic = traffic;
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.is_sender {
                if let TrafficModel::Forward { from_link } = node.traffic {
                    forwarders.insert(from_link, i);
                }
            }
        }
        let n = nodes.len();
        let mut loss = vec![vec![Db::ZERO; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    loss[i][j] = sc
                        .propagation
                        .path_loss
                        .loss(positions[i].distance_to(positions[j]));
                }
            }
        }
        let mut medium = Medium::new(sc.propagation.acr.clone(), sc.propagation.noise.power());
        // Fault plan, medium side: jammer bursts become ambient energy
        // windows known from construction (they are part of the
        // scenario, not reactions to it). An empty plan adds nothing and
        // every query stays bit-identical to a fault-free medium.
        for j in &sc.faults.jammers {
            medium.add_ambient(j.frequency, j.power, j.at, j.at + j.duration);
        }
        // Fault plan, node side: RSSI calibration drift is a pure
        // function of time installed on the node (last drift for a node
        // wins, matching plan order).
        for d in &sc.faults.drifts {
            if let Some(node) = nodes.get_mut(d.node) {
                node.drift = Some(*d);
            }
        }
        let airtime = timing::airtime(sc.frame.ppdu_bytes());
        let sync_candidates = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&o| {
                        o != i
                            && sc
                                .radio
                                .capture_model
                                .is_sync_candidate(nodes[i].freq.distance_to(nodes[o].freq))
                    })
                    .collect()
            })
            .collect();
        Engine {
            sc,
            now: SimTime::ZERO,
            queue: BucketQueue::new(),
            medium,
            nodes,
            loss,
            rng: Xoshiro256StarStar::seed_from_u64(sc.seed),
            next_tx_id: 1,
            link_rx,
            sync_candidates,
            seg_buf: Vec::new(),
            locks: Vec::new(),
            tx_meta: BTreeMap::new(),
            forwarders,
            airtime,
            sync_dur: timing::sync_header_duration(),
            mpdu_offset: timing::BYTE * u64::from(timing::PPDU_HEADER_BYTES),
            acks: BTreeMap::new(),
            // Imm-ACK: 5-byte MPDU behind the 6-byte PPDU header.
            ack_airtime: timing::airtime(11),
            obs: ObserverSet::new(sc, links, externals),
            events: 0,
            max_events: u64::MAX,
            exhausted: false,
            held: None,
            fingerprint: OnceCell::new(),
        }
    }

    /// Whether `now` falls inside the measurement window.
    pub(crate) fn in_measured_window(&self) -> bool {
        let t0 = SimTime::ZERO + self.sc.warmup;
        let t1 = SimTime::ZERO + self.sc.duration;
        self.now >= t0 && self.now < t1
    }

    pub(crate) fn provider_wants_sensing(&self, id: NodeId, now: SimTime) -> bool {
        self.nodes[id]
            .provider
            .as_ref()
            .is_some_and(|p| p.wants_power_sensing(now))
    }

    /// Applies `f` to node `n`'s provider (no-op for receivers), and
    /// when any observer watches thresholds, reads the effective
    /// (clamped) threshold around the mutation and reports changes.
    ///
    /// The threshold read is a pure function of the provider, so the
    /// watch has no effect on simulation behavior — it is skipped
    /// entirely when nothing wants it.
    pub(crate) fn provider_mutate(&mut self, n: NodeId, f: impl FnOnce(&mut Provider, SimTime)) {
        let now = self.now;
        if !self.obs.wants_thresholds() {
            if let Some(p) = self.nodes[n].provider.as_mut() {
                f(p, now);
            }
            return;
        }
        let (changed, link) = {
            let node = &mut self.nodes[n];
            let Some(p) = node.provider.as_mut() else {
                return;
            };
            let before = self.sc.radio.clamp_cca_threshold(p.threshold(now));
            f(p, now);
            let after = self.sc.radio.clamp_cca_threshold(p.threshold(now));
            ((before != after).then_some(after), node.link)
        };
        if let Some(t) = changed {
            self.obs.threshold_change(n, link, t, now);
        }
    }

    pub(crate) fn finalize(mut self) -> SimResult {
        let end = SimTime::ZERO + self.sc.duration;
        let mut mac_stats = Vec::new();
        let mut final_thresholds = Vec::new();
        let mut tx_powers = Vec::new();
        for node in &self.nodes {
            if node.is_sender {
                mac_stats.push(node.stats);
                tx_powers.push(node.tx_power);
                let t = node
                    .provider
                    .as_ref()
                    .map(|p| self.sc.radio.clamp_cca_threshold(p.threshold(end)))
                    .unwrap_or(self.sc.radio.default_cca_threshold);
                final_thresholds.push(t);
            }
        }
        let (links, timeline, trace) = self.obs.take_collected();
        let result = SimResult {
            measured: self.sc.duration - self.sc.warmup,
            links,
            network_frequencies: self
                .sc
                .deployment
                .networks
                .iter()
                .map(|n| n.frequency)
                .collect(),
            mac_stats,
            tx_powers,
            final_thresholds,
            timeline,
            trace,
            events: self.events,
        };
        self.obs.run_end(&result);
        result
    }
}
