//! Boundary-event relay and the canonical merge.
//!
//! Each rank's engine runs with a [`RelayObserver`] attached as a
//! built-in sink of its observer fan-out; every
//! observer notification the run cares about is appended, as a
//! [`Note`], to a log the relay owns. Once every rank has finished,
//! [`merge_logs`] sorts all logs by the canonical
//! `(time, shard rank, per-shard emission seq)` key, remaps shard-local
//! node/link/network/transmission ids to global ones, and replays the
//! notes into the run's external observers in that single serial order
//! — so observers cannot tell they watched a sharded run, beyond
//! transmission ids being minted in merged order. Within one shard the
//! canonical key preserves emission order exactly (times are
//! non-decreasing and `seq` breaks ties).
//!
//! Per-category ship flags ([`ShipFlags`]) keep the relay quiet when
//! nobody consumes a category: a sharded run with no observers
//! and no trace/timeline recording logs no notes at all, so merge
//! memory is the buffered notes of runs that asked for them.

use super::partition::ShardSpec;
use crate::events::{Event, TxId};
use crate::metrics::{LinkMetrics, SimResult, TimelineRecord};
use crate::runtime::observer::{
    PowerSample, SimObserver, ThresholdSample, TxOutcomeInfo, TxStartInfo,
};
use crate::scenario::Scenario;
use crate::trace::{TraceKind, TraceRecord};
use nomc_units::SimTime;
use std::collections::BTreeMap;

/// Which note categories a run actually consumes, sampled once before
/// the ranks start. Categories nobody consumes are never logged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShipFlags {
    /// Raw queue events (externals attached).
    pub(crate) events: bool,
    /// Structured trace records (`record_trace` or an external wants
    /// traces).
    pub(crate) trace: bool,
    /// TxStart/TxOutcome/Abandon (externals attached or
    /// `record_timeline`).
    pub(crate) tx: bool,
    /// Threshold changes (an external wants thresholds).
    pub(crate) thresholds: bool,
    /// RSSI power samples (externals attached).
    pub(crate) power: bool,
}

impl ShipFlags {
    pub(crate) fn for_run(sc: &Scenario, externals: &[&mut dyn SimObserver]) -> Self {
        let any = !externals.is_empty();
        ShipFlags {
            events: any,
            trace: sc.record_trace || externals.iter().any(|o| o.wants_trace()),
            tx: any || sc.record_timeline,
            thresholds: externals.iter().any(|o| o.wants_thresholds()),
            power: any,
        }
    }
}

/// One relayed observer notification, shard-local ids throughout.
///
/// The name deliberately ends in `Event`: nomc-lint's
/// exhaustive-dispatch rule watches `…Event::` matches in this file, so
/// the merge's dispatch over boundary events must stay wildcard-free —
/// adding a category is a compile *and* lint error at the merge site.
#[derive(Debug)]
pub(crate) enum BoundaryEvent {
    /// A raw queue event was popped (pre-dispatch).
    Popped(Event),
    /// A structured trace record was produced.
    Trace(TraceRecord),
    /// A data frame went on air.
    TxStart(TxStartInfo),
    /// A data frame completed at its receiver.
    TxOutcome(Box<TxOutcomeInfo>),
    /// A sender abandoned a frame.
    Abandon {
        /// Shard-local link index.
        link: usize,
        /// Whether the abandonment fell in the measured window.
        measured: bool,
    },
    /// A node's effective CCA threshold changed.
    Threshold(ThresholdSample),
    /// A node took an RSSI power-sensing sample.
    Power(PowerSample),
}

/// A [`BoundaryEvent`] stamped with its emission time and the shard's
/// running emission counter — the last two fields of the canonical
/// `(time, rank, seq)` merge key.
#[derive(Debug)]
pub(crate) struct Note {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: BoundaryEvent,
}

/// The per-shard observer: appends each notification to the log it
/// owns, stamped with the canonical merge key. Holds no shared state,
/// so it satisfies the observer-purity rule by construction.
pub(crate) struct RelayObserver {
    log: Vec<Note>,
    ship: ShipFlags,
    seq: u64,
    /// Engine time of the last popped event — `on_abandon` carries no
    /// timestamp of its own, and `on_event` always precedes it.
    now: SimTime,
}

impl RelayObserver {
    /// A relay appending to `log`. A relay resuming an interrupted
    /// note stream passes the `seq` and `now` that
    /// [`RelayObserver::into_parts`] reported when the stream paused,
    /// so the canonical `(time, rank, seq)` merge key ordering spans
    /// legs; a fresh one passes `0` and [`SimTime::ZERO`].
    pub(crate) fn new(log: Vec<Note>, ship: ShipFlags, seq: u64, now: SimTime) -> Self {
        RelayObserver {
            log,
            ship,
            seq,
            now,
        }
    }

    /// The log, the next note's merge-key `seq`, and the engine time of
    /// the last relayed popped event.
    pub(crate) fn into_parts(self) -> (Vec<Note>, u64, SimTime) {
        (self.log, self.seq, self.now)
    }

    /// [`RelayObserver::into_parts`] by reference, for a checkpoint
    /// taken while the relay is still attached.
    pub(crate) fn parts(&self) -> (&[Note], u64, SimTime) {
        (&self.log, self.seq, self.now)
    }

    fn send(&mut self, at: SimTime, ev: BoundaryEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.log.push(Note { at, seq, ev });
    }
}

impl SimObserver for RelayObserver {
    fn wants_trace(&self) -> bool {
        self.ship.trace
    }

    fn wants_thresholds(&self) -> bool {
        self.ship.thresholds
    }

    fn on_event(&mut self, now: SimTime, event: &Event) {
        self.now = now;
        if self.ship.events {
            self.send(now, BoundaryEvent::Popped(*event));
        }
    }

    fn on_trace(&mut self, record: &TraceRecord) {
        if self.ship.trace {
            self.send(record.at, BoundaryEvent::Trace(record.clone()));
        }
    }

    fn on_tx_start(&mut self, info: &TxStartInfo) {
        if self.ship.tx {
            self.send(info.at, BoundaryEvent::TxStart(info.clone()));
        }
    }

    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        if self.ship.tx {
            self.send(info.end, BoundaryEvent::TxOutcome(Box::new(info.clone())));
        }
    }

    fn on_abandon(&mut self, link: usize, measured: bool) {
        if self.ship.tx {
            let at = self.now;
            self.send(at, BoundaryEvent::Abandon { link, measured });
        }
    }

    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        if self.ship.thresholds {
            self.send(sample.at, BoundaryEvent::Threshold(*sample));
        }
    }

    fn on_power_sample(&mut self, sample: &PowerSample) {
        if self.ship.power {
            self.send(sample.at, BoundaryEvent::Power(*sample));
        }
    }
}

/// Shard-local → global id translation. Node, link and network indices
/// translate through the shard's [`ShardSpec`] maps; transmission ids
/// are minted fresh (from 1, like the engine) on first sight in
/// canonical merge order, which depends only on the note stream — never
/// on thread scheduling.
struct Remapper {
    tx_maps: Vec<BTreeMap<TxId, TxId>>,
    next_tx: TxId,
}

impl Remapper {
    fn new(shards: usize) -> Self {
        Remapper {
            tx_maps: (0..shards).map(|_| BTreeMap::new()).collect(),
            next_tx: 1,
        }
    }

    fn tx(&mut self, rank: usize, local: TxId) -> TxId {
        let map = &mut self.tx_maps[rank];
        if let Some(&global) = map.get(&local) {
            return global;
        }
        let global = self.next_tx;
        self.next_tx += 1;
        map.insert(local, global);
        global
    }

    /// Translates every id a queue event can carry. Exhaustive by
    /// design: a new `Event` variant must decide its remapping here.
    fn event(&mut self, rank: usize, spec: &ShardSpec, ev: Event) -> Event {
        match ev {
            Event::PacketReady(n) => Event::PacketReady(spec.nodes[n]),
            Event::BackoffExpired(n) => Event::BackoffExpired(spec.nodes[n]),
            Event::CcaDone(n) => Event::CcaDone(spec.nodes[n]),
            Event::TxStart(n) => Event::TxStart(spec.nodes[n]),
            Event::TxEnd(n, id) => Event::TxEnd(spec.nodes[n], self.tx(rank, id)),
            Event::SyncDone(n, id) => Event::SyncDone(spec.nodes[n], self.tx(rank, id)),
            Event::PowerSense(n) => Event::PowerSense(spec.nodes[n]),
            Event::ProviderTick(n) => Event::ProviderTick(spec.nodes[n]),
            Event::AckStart(n, id) => Event::AckStart(spec.nodes[n], self.tx(rank, id)),
            Event::AckTimeout(n, id) => Event::AckTimeout(spec.nodes[n], self.tx(rank, id)),
            Event::NodeDown(n) => Event::NodeDown(spec.nodes[n]),
            Event::NodeUp(n) => Event::NodeUp(spec.nodes[n]),
            Event::CcaStuckStart(n) => Event::CcaStuckStart(spec.nodes[n]),
            Event::CcaStuckEnd(n) => Event::CcaStuckEnd(spec.nodes[n]),
        }
    }

    fn trace_kind(&mut self, rank: usize, spec: &ShardSpec, kind: TraceKind) -> TraceKind {
        match kind {
            TraceKind::Cca {
                node,
                sensed_dbm,
                threshold_dbm,
                clear,
            } => TraceKind::Cca {
                node: spec.nodes[node],
                sensed_dbm,
                threshold_dbm,
                clear,
            },
            TraceKind::TxStart {
                node,
                tx,
                seq,
                forced,
            } => TraceKind::TxStart {
                node: spec.nodes[node],
                tx: self.tx(rank, tx),
                seq,
                forced,
            },
            TraceKind::Outcome {
                tx,
                receiver,
                outcome,
            } => TraceKind::Outcome {
                tx: self.tx(rank, tx),
                receiver: spec.nodes[receiver],
                outcome,
            },
            TraceKind::AckDelivered { tx, sender } => TraceKind::AckDelivered {
                tx: self.tx(rank, tx),
                sender: spec.nodes[sender],
            },
            TraceKind::AckTimedOut { tx, sender } => TraceKind::AckTimedOut {
                tx: self.tx(rank, tx),
                sender: spec.nodes[sender],
            },
            TraceKind::Fault { node, fault } => TraceKind::Fault {
                node: spec.nodes[node],
                fault,
            },
        }
    }
}

/// Merges every rank's complete note log and result into one run:
/// replays the canonical-order stream into `externals` (and the merged
/// trace/timeline), then assembles the global [`SimResult`]. Returns
/// the result plus whether any rank exhausted its event budget.
///
/// The canonical order is a function of the logs alone, and each log
/// depends only on its rank's sub-scenario, so the merged output is the
/// same whether the ranks ran in parallel on any number of threads, in
/// sequence, or across checkpointed legs.
pub(crate) fn merge_logs(
    sc: &Scenario,
    plan: &[ShardSpec],
    logs: Vec<Vec<Note>>,
    results: Vec<(SimResult, bool)>,
    externals: &mut [&mut dyn SimObserver],
) -> (SimResult, bool) {
    let shards = plan.len();
    let mut merger = Merger {
        sc,
        remap: Remapper::new(shards),
        trace: Vec::new(),
        timeline: Vec::new(),
    };
    let mut all: Vec<(SimTime, usize, u64, BoundaryEvent)> =
        Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for (rank, log) in logs.into_iter().enumerate() {
        all.extend(log.into_iter().map(|n| (n.at, rank, n.seq, n.ev)));
    }
    all.sort_unstable_by_key(|a| (a.0, a.1, a.2));
    for (at, rank, _seq, ev) in all {
        merger.replay(at, &plan[rank], rank, ev, externals);
    }
    merger.assemble(plan, results, externals)
}

/// Canonical-order replay state: the id translator plus the merged
/// trace/timeline under construction.
struct Merger<'a> {
    sc: &'a Scenario,
    remap: Remapper,
    trace: Vec<TraceRecord>,
    timeline: Vec<TimelineRecord>,
}

impl Merger<'_> {
    /// Replays one canonical-order note into the external observers
    /// (and the merged trace/timeline), after id translation. Mirrors
    /// the serial `ObserverSet` fan-out exactly: traces and thresholds
    /// go to every external (category gating happened at emission), tx
    /// outcomes feed the timeline only when measured.
    fn replay(
        &mut self,
        at: SimTime,
        spec: &ShardSpec,
        rank: usize,
        ev: BoundaryEvent,
        externals: &mut [&mut dyn SimObserver],
    ) {
        match ev {
            BoundaryEvent::Popped(event) => {
                let event = self.remap.event(rank, spec, event);
                for o in externals.iter_mut() {
                    o.on_event(at, &event);
                }
            }
            BoundaryEvent::Trace(mut record) => {
                record.kind = self.remap.trace_kind(rank, spec, record.kind);
                if self.sc.record_trace {
                    self.trace.push(record.clone());
                }
                for o in externals.iter_mut() {
                    o.on_trace(&record);
                }
            }
            BoundaryEvent::TxStart(mut info) => {
                info.tx = self.remap.tx(rank, info.tx);
                info.node = spec.nodes[info.node];
                info.link = spec.links[info.link];
                for o in externals.iter_mut() {
                    o.on_tx_start(&info);
                }
            }
            BoundaryEvent::TxOutcome(info) => {
                let mut info = *info;
                info.tx = self.remap.tx(rank, info.tx);
                info.receiver = spec.nodes[info.receiver];
                info.link = spec.links[info.link];
                if self.sc.record_timeline && info.measured {
                    self.timeline.push(TimelineRecord {
                        link: info.link,
                        start: info.start,
                        end: info.end,
                        outcome: info.outcome,
                        collided: info.collided,
                    });
                }
                for o in externals.iter_mut() {
                    o.on_tx_outcome(&info);
                }
            }
            BoundaryEvent::Abandon { link, measured } => {
                let link = spec.links[link];
                for o in externals.iter_mut() {
                    o.on_abandon(link, measured);
                }
            }
            BoundaryEvent::Threshold(mut sample) => {
                sample.node = spec.nodes[sample.node];
                sample.link = spec.links[sample.link];
                for o in externals.iter_mut() {
                    o.on_threshold_change(&sample);
                }
            }
            BoundaryEvent::Power(mut sample) => {
                sample.node = spec.nodes[sample.node];
                sample.link = spec.links[sample.link];
                for o in externals.iter_mut() {
                    o.on_power_sample(&sample);
                }
            }
        }
    }

    /// Scatters per-shard results into one global [`SimResult`]
    /// (shard-local link/network positions → global deployment
    /// positions) and fires the externals' `on_run_end` once.
    fn assemble(
        self,
        plan: &[ShardSpec],
        results: Vec<(SimResult, bool)>,
        externals: &mut [&mut dyn SimObserver],
    ) -> (SimResult, bool) {
        let sc = self.sc;
        let total_links = sc.deployment.link_count();
        let mut links = vec![LinkMetrics::default(); total_links];
        let mut mac_stats = vec![nomc_mac::MacStats::default(); total_links];
        let mut tx_powers = vec![nomc_units::Dbm::new(0.0); total_links];
        let mut final_thresholds = vec![nomc_units::Dbm::new(0.0); total_links];
        let mut events = 0u64;
        let mut exhausted = false;
        for (spec, (result, shard_exhausted)) in plan.iter().zip(results) {
            exhausted |= shard_exhausted;
            events += result.events;
            for (local, &global) in spec.links.iter().enumerate() {
                let mut lm = result.links[local].clone();
                lm.network = spec.networks[lm.network];
                links[global] = lm;
                mac_stats[global] = result.mac_stats[local];
                tx_powers[global] = result.tx_powers[local];
                final_thresholds[global] = result.final_thresholds[local];
            }
        }
        let result = SimResult {
            measured: sc.duration - sc.warmup,
            links,
            network_frequencies: sc.deployment.networks.iter().map(|n| n.frequency).collect(),
            mac_stats,
            tx_powers,
            final_thresholds,
            timeline: self.timeline,
            trace: self.trace,
            events,
        };
        for o in externals.iter_mut() {
            o.on_run_end(&result);
        }
        (result, exhausted)
    }
}
