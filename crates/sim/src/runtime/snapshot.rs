//! Mid-run engine snapshots: capture, serialize, restore, resume.
//!
//! A snapshot records every piece of *mutable* engine state — the
//! future-event list (with its original sequence numbers), the RNG
//! stream position, per-node MAC/provider/traffic state, in-flight
//! transmission metadata, the medium's airtime history, and the
//! built-in collector state (metrics, trace, timeline) — and nothing
//! derived: path loss, sync candidacy, airtimes, forwarder maps and
//! caches are all pure functions of the scenario and are recomputed by
//! `Engine::new` on restore. That split is what makes the contract
//! cheap to state and test: *run-to-event-K, snapshot, restore,
//! run-to-end is byte-identical to an uninterrupted run*, because a
//! restored engine is in exactly the state the uninterrupted engine
//! passes through after its K-th event.
//!
//! Snapshots serialize with the in-tree `nomc-json` codec (exact
//! `u64`/`f64` round-trips; see `crates/json`). Restoring is total:
//! corrupt or mismatched payloads produce a typed [`SnapshotError`],
//! never a panic — every index a resumed run would trust (node ids in
//! queued events, link indices in transmission metadata, received-power
//! vector lengths, queue sequence numbers) is bounds-checked here
//! first.
//!
//! Checkpoints of a running engine encode straight from its live state
//! (`encode_serial_live`, and the sharded executor's per-rank hook) to
//! the same text a pause at that event count would give, so the run
//! never stops for a checkpoint.
//!
//! Sharded runs snapshot as one [`ShardedSnapshot`]: the checkpoint
//! executor runs the plan's components *sequentially* (rank order)
//! through the same per-rank runner the threaded executor uses,
//! buffering relayed boundary notes per rank; at completion the
//! buffered logs replay through the same canonical `(time, rank, seq)`
//! merge. Shards are fully independent — the partition unions
//! everything that could interact — so sequential execution is
//! behaviorally identical to running every rank in parallel, and the
//! merged result, trace, timeline, and observer stream are
//! byte-identical to the threaded sharded [`crate::engine::execute`].

use super::node::{Node, Provider, RxAttempt};
use super::shard::merge::{merge_logs, BoundaryEvent, Note, RelayObserver, ShipFlags};
use super::shard::{self, split_budget, ShardSpec};
use super::tx::TxMeta;
use super::{Cadence, Engine};
use crate::events::BucketQueue;
use crate::events::{Event, NodeId, TxId};
use crate::medium::Transmission;
use crate::metrics::{ErrorRecord, LinkMetrics, SimResult, TimelineRecord, TxOutcome};
use crate::rng::Xoshiro256StarStar;
use crate::runtime::observer::{
    PowerSample, SimObserver, ThresholdSample, TxOutcomeInfo, TxStartInfo,
};
use crate::runtime::sinks::checkpoint_every;
use crate::scenario::Scenario;
use crate::trace::{TraceKind, TraceRecord};
use nomc_core::AdjustorSnapshot;
use nomc_json::{Error, FromJson, Json, ToJson};
use nomc_mac::{MacEngine, MacSnapshot, MacStats};
use nomc_units::{Dbm, Megahertz, MilliWatts, SimDuration, SimTime};
use std::cell::OnceCell;
use std::fmt;

/// Version stamped into every serialized snapshot; bumped whenever the
/// payload layout changes incompatibly. A mismatch is a typed
/// [`SnapshotError::VersionSkew`], never a silent misread.
pub(crate) const SNAPSHOT_VERSION: u64 = 1;

/// Why a snapshot could not be decoded or re-attached to a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is not valid snapshot JSON, or an internal invariant
    /// (index bounds, sequence numbers, state-shape agreement with the
    /// scenario) does not hold.
    Malformed(String),
    /// The payload was written by an incompatible snapshot format
    /// version.
    VersionSkew {
        /// Version found in the payload.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The snapshot belongs to a different scenario (fingerprint over
    /// the canonical scenario JSON differs).
    ScenarioMismatch {
        /// Fingerprint recorded in the snapshot.
        found: u64,
        /// Fingerprint of the scenario being resumed.
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::VersionSkew { found, expected } => {
                write!(f, "snapshot version {found} incompatible with {expected}")
            }
            SnapshotError::ScenarioMismatch { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match scenario {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(e: Error) -> SnapshotError {
    SnapshotError::Malformed(e.to_string())
}

/// FNV-1a over a byte string (the same hash discipline the sweep
/// journal uses, computed independently so `nomc-sim` stays
/// dependency-free).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a scenario: FNV-1a over its canonical JSON (which
/// includes the seed and the recorder flags), so a snapshot can only be
/// resumed against the exact configuration that produced it.
pub(crate) fn scenario_fingerprint(sc: &Scenario) -> u64 {
    fnv1a(nomc_json::to_string(sc).as_bytes())
}

// ---------------------------------------------------------------------
// JSON codecs for the event-queue payloads.
// ---------------------------------------------------------------------

nomc_json::json_enum!(Event {
    PacketReady(n) = "PacketReady",
    BackoffExpired(n) = "BackoffExpired",
    CcaDone(n) = "CcaDone",
    TxStart(n) = "TxStart",
    TxEnd(n, id) = "TxEnd",
    SyncDone(n, id) = "SyncDone",
    PowerSense(n) = "PowerSense",
    ProviderTick(n) = "ProviderTick",
    AckStart(n, id) = "AckStart",
    AckTimeout(n, id) = "AckTimeout",
    NodeDown(n) = "NodeDown",
    NodeUp(n) = "NodeUp",
    CcaStuckStart(n) = "CcaStuckStart",
    CcaStuckEnd(n) = "CcaStuckEnd",
});

/// The node a queue event is addressed to. Exhaustive by design — a new
/// `Event` variant must decide here how restore-time bounds checks see
/// it.
fn event_node(ev: &Event) -> NodeId {
    match *ev {
        Event::PacketReady(n)
        | Event::BackoffExpired(n)
        | Event::CcaDone(n)
        | Event::TxStart(n)
        | Event::TxEnd(n, _)
        | Event::SyncDone(n, _)
        | Event::PowerSense(n)
        | Event::ProviderTick(n)
        | Event::AckStart(n, _)
        | Event::AckTimeout(n, _)
        | Event::NodeDown(n)
        | Event::NodeUp(n)
        | Event::CcaStuckStart(n)
        | Event::CcaStuckEnd(n) => n,
    }
}

nomc_json::json_enum!(TxOutcome {
    Received = "received",
    CrcFailed = "crc_failed",
    SyncMissed = "sync_missed",
    ReceiverBusy = "receiver_busy",
});

nomc_json::json_struct!(ErrorRecord {
    error_bits: u32,
    total_bits: u32,
    positions: Option<Vec<u32>>,
});

nomc_json::json_struct!(TimelineRecord {
    link: usize,
    start: SimTime,
    end: SimTime,
    outcome: TxOutcome,
    collided: bool,
});

nomc_json::json_struct!(LinkMetrics {
    network: usize,
    link_in_network: usize,
    sent: u64,
    forced_sent: u64,
    received: u64,
    sync_missed: u64,
    receiver_busy: u64,
    crc_failed: u64,
    collided: u64,
    collided_received: u64,
    retransmissions: u64,
    abandoned: u64,
    duplicates: u64,
    error_records: Vec<ErrorRecord>,
});

nomc_json::json_struct!(SimResult {
    measured: SimDuration,
    links: Vec<LinkMetrics>,
    network_frequencies: Vec<Megahertz>,
    mac_stats: Vec<MacStats>,
    tx_powers: Vec<Dbm>,
    final_thresholds: Vec<Dbm>,
    timeline: Vec<TimelineRecord>,
    trace: Vec<TraceRecord>,
    events: u64,
});

nomc_json::json_struct!(Transmission {
    id: TxId,
    tx_node: NodeId,
    link: usize,
    frequency: Megahertz,
    start: SimTime,
    mpdu_start: SimTime,
    end: SimTime,
    seq: u32,
    forced: bool,
    rx_power: Vec<Dbm>,
});

nomc_json::json_struct!(TxMeta {
    measured: bool,
    link: usize,
    intended_rx: NodeId,
    intended_busy: bool,
    outcome: Option<TxOutcome>,
    duplicate: bool,
    error_record: Option<ErrorRecord>,
});

// ---------------------------------------------------------------------
// Serial engine snapshot.
// ---------------------------------------------------------------------

/// The xoshiro256** stream position, serialized as a 4-word array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RngState(pub(crate) [u64; 4]);

impl ToJson for RngState {
    fn to_json(&self) -> Json {
        Json::Arr(self.0.iter().map(ToJson::to_json).collect())
    }
}

impl FromJson for RngState {
    fn from_json(value: &Json) -> Result<Self, Error> {
        let words = <Vec<u64>>::from_json(value)?;
        let s: [u64; 4] = words
            .try_into()
            .map_err(|_| Error::new("RngState: expected 4 words"))?;
        Ok(RngState(s))
    }
}

/// One CCA-threshold provider's mutable state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProviderState {
    /// A fixed threshold is stateless; nothing to carry.
    Fixed,
    /// The DCN adjustor's learned state.
    Dcn(AdjustorSnapshot),
}

nomc_json::json_enum!(ProviderState {
    Fixed = {"fixed": null},
    Dcn(s) = "dcn",
});

/// One node's mutable state (everything [`Engine::new`] does not fully
/// determine from the scenario).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) stats: MacStats,
    pub(crate) rx: Option<(TxId, bool)>,
    pub(crate) transmitting: bool,
    pub(crate) next_interval_at: SimTime,
    pub(crate) forced_next: bool,
    pub(crate) seq: u32,
    pub(crate) awaiting_ack: Option<TxId>,
    pub(crate) last_tx: TxId,
    pub(crate) last_rx_seq: Option<u32>,
    pub(crate) credits: u64,
    pub(crate) wants_packet: bool,
    pub(crate) down: bool,
    pub(crate) cca_stuck: bool,
    pub(crate) stale_before_seq: u64,
    pub(crate) mac: Option<MacSnapshot>,
    pub(crate) provider: Option<ProviderState>,
}

nomc_json::json_struct!(NodeState {
    stats: MacStats,
    rx: Option<(TxId, bool)>,
    transmitting: bool,
    next_interval_at: SimTime,
    forced_next: bool,
    seq: u32,
    awaiting_ack: Option<TxId>,
    last_tx: TxId,
    last_rx_seq: Option<u32>,
    credits: u64,
    wants_packet: bool,
    down: bool,
    cca_stuck: bool,
    stale_before_seq: u64,
    mac: Option<MacSnapshot>,
    provider: Option<ProviderState>,
});

/// The medium's airtime history: slab entries in insertion order, each
/// flagged live (still indexed by its channel) or retained-only, plus
/// the running maximum airtime the prune horizon derives from.
#[derive(Debug)]
pub(crate) struct MediumState {
    pub(crate) history: Vec<(Transmission, bool)>,
    pub(crate) max_duration: SimDuration,
}

nomc_json::json_struct!(MediumState {
    history: Vec<(Transmission, bool)>,
    max_duration: SimDuration,
});

/// The complete mutable state of a serial `Engine`, detached from the
/// scenario that (re)constructs everything else.
#[derive(Debug)]
pub struct EngineSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) now: SimTime,
    pub(crate) events: u64,
    pub(crate) max_events: u64,
    pub(crate) exhausted: bool,
    pub(crate) rng: RngState,
    pub(crate) next_tx_id: TxId,
    pub(crate) queue: Vec<(SimTime, u64, Event)>,
    pub(crate) next_seq: u64,
    pub(crate) held: Option<(SimTime, u64, Event)>,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) tx_meta: Vec<(TxId, TxMeta)>,
    pub(crate) acks: Vec<(TxId, TxId, NodeId)>,
    pub(crate) medium: MediumState,
    pub(crate) metrics: Vec<LinkMetrics>,
    pub(crate) trace: Option<Vec<TraceRecord>>,
    pub(crate) timeline: Option<Vec<TimelineRecord>>,
}

nomc_json::json_struct!(EngineSnapshot {
    fingerprint: u64,
    now: SimTime,
    events: u64,
    max_events: u64,
    exhausted: bool,
    rng: RngState,
    next_tx_id: TxId,
    queue: Vec<(SimTime, u64, Event)>,
    next_seq: u64,
    held: Option<(SimTime, u64, Event)>,
    nodes: Vec<NodeState>,
    tx_meta: Vec<(TxId, TxMeta)>,
    acks: Vec<(TxId, TxId, NodeId)>,
    medium: MediumState,
    metrics: Vec<LinkMetrics>,
    trace: Option<Vec<TraceRecord>>,
    timeline: Option<Vec<TimelineRecord>>,
});

fn node_state(node: &Node) -> NodeState {
    NodeState {
        stats: node.stats,
        rx: node.rx.map(|a| (a.tx_id, a.synced)),
        transmitting: node.transmitting,
        next_interval_at: node.next_interval_at,
        forced_next: node.forced_next,
        seq: node.seq,
        awaiting_ack: node.awaiting_ack,
        last_tx: node.last_tx,
        last_rx_seq: node.last_rx_seq,
        credits: node.credits,
        wants_packet: node.wants_packet,
        down: node.down,
        cca_stuck: node.cca_stuck,
        stale_before_seq: node.stale_before_seq,
        mac: node.mac.as_ref().map(MacEngine::snapshot),
        provider: node.provider.as_ref().map(|p| match p {
            Provider::Fixed(_) => ProviderState::Fixed,
            Provider::Dcn(adj) => ProviderState::Dcn(adj.save()),
        }),
    }
}

/// Restores one node's mutable state onto a freshly constructed node.
/// Shape disagreements (MAC/provider presence, out-of-range backoff
/// exponents that would overflow the backoff draw) are typed errors.
fn restore_node(node: &mut Node, st: &NodeState, idx: usize) -> Result<(), SnapshotError> {
    match (&mut node.mac, &st.mac) {
        (Some(mac), Some(snap)) => {
            let params = *mac.params();
            if snap.be < params.min_be || snap.be > params.max_be {
                return Err(SnapshotError::Malformed(format!(
                    "node {idx}: backoff exponent {} outside [{}, {}]",
                    snap.be, params.min_be, params.max_be
                )));
            }
            *mac = MacEngine::restore(params, *snap);
        }
        (None, None) => {}
        (mac, snap) => {
            return Err(SnapshotError::Malformed(format!(
                "node {idx}: MAC presence mismatch (engine {}, snapshot {})",
                mac.is_some(),
                snap.is_some()
            )));
        }
    }
    match (&mut node.provider, &st.provider) {
        (Some(Provider::Fixed(_)), Some(ProviderState::Fixed)) => {}
        (Some(Provider::Dcn(adj)), Some(ProviderState::Dcn(snap))) => adj.load(snap.clone()),
        (None, None) => {}
        _ => {
            return Err(SnapshotError::Malformed(format!(
                "node {idx}: provider kind mismatch"
            )));
        }
    }
    node.stats = st.stats;
    // The running bound is re-seeded once the medium is back (see
    // `Engine::reseed_receptions`).
    node.rx = st.rx.map(|(tx_id, synced)| RxAttempt {
        tx_id,
        synced,
        bound: MilliWatts::ZERO,
    });
    node.transmitting = st.transmitting;
    node.next_interval_at = st.next_interval_at;
    node.forced_next = st.forced_next;
    node.seq = st.seq;
    node.awaiting_ack = st.awaiting_ack;
    node.last_tx = st.last_tx;
    node.last_rx_seq = st.last_rx_seq;
    node.credits = st.credits;
    node.wants_packet = st.wants_packet;
    node.down = st.down;
    node.cca_stuck = st.cca_stuck;
    node.stale_before_seq = st.stale_before_seq;
    Ok(())
}

impl<'a, 'o, 'e> Engine<'a, 'o, 'e> {
    /// The fingerprint of the engine's scenario, computed on first use.
    fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| scenario_fingerprint(self.sc))
    }

    /// The serial snapshot payload of the live engine, key for key in
    /// [`EngineSnapshot`]'s field order, built straight from the engine
    /// so a checkpoint never holds an owned copy of the medium history
    /// or the collectors beside it. Pure read: it never perturbs the
    /// run. A pause decodes it into the [`EngineSnapshot`] it resumes
    /// from, so checkpoints and pauses share this one writer.
    pub(crate) fn state_json(&self) -> Json {
        let (history, max_duration) = self.medium.history_refs();
        Json::object([
            ("fingerprint", self.fingerprint().to_json()),
            ("now", self.now.to_json()),
            ("events", self.events.to_json()),
            ("max_events", self.max_events.to_json()),
            ("exhausted", self.exhausted.to_json()),
            ("rng", RngState(self.rng.state()).to_json()),
            ("next_tx_id", self.next_tx_id.to_json()),
            ("queue", self.queue.entries().to_json()),
            ("next_seq", self.queue.next_seq().to_json()),
            ("held", self.held.to_json()),
            (
                "nodes",
                Json::Arr(self.nodes.iter().map(|n| node_state(n).to_json()).collect()),
            ),
            (
                "tx_meta",
                Json::Arr(self.tx_meta.iter().map(|entry| entry.to_json()).collect()),
            ),
            (
                "acks",
                Json::Arr(
                    self.acks
                        .iter()
                        .map(|(&ack, &(parent, sender))| (ack, parent, sender).to_json())
                        .collect(),
                ),
            ),
            (
                "medium",
                Json::object([
                    ("history", Json::Arr(history.map(|h| h.to_json()).collect())),
                    ("max_duration", max_duration.to_json()),
                ]),
            ),
            ("metrics", self.obs.metrics.links().to_json()),
            (
                "trace",
                self.obs
                    .trace
                    .as_ref()
                    .map_or(Json::Null, |t| t.records().to_json()),
            ),
            (
                "timeline",
                self.obs
                    .timeline
                    .as_ref()
                    .map_or(Json::Null, |t| t.records().to_json()),
            ),
        ])
    }

    /// Rebuilds an engine mid-run: constructs a fresh engine from the
    /// scenario (recomputing all derived state), then overwrites every
    /// mutable field from the snapshot. Total — corrupt payloads yield
    /// typed errors, never panics, which is what lets checkpoint
    /// supervisors fall back to a clean re-run.
    pub(crate) fn restore_from(
        sc: &'a Scenario,
        externals: &'o mut [&'e mut dyn SimObserver],
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        let expected = scenario_fingerprint(sc);
        if snap.fingerprint != expected {
            return Err(SnapshotError::ScenarioMismatch {
                found: snap.fingerprint,
                expected,
            });
        }
        if snap.rng.0 == [0u64; 4] {
            return Err(SnapshotError::Malformed(
                "all-zero RNG state (xoshiro256** has no such stream)".into(),
            ));
        }
        let mut engine = Engine::new(sc, externals);
        engine.fingerprint = OnceCell::from(expected);
        let n = engine.nodes.len();
        let links = engine.link_rx.len();
        if snap.nodes.len() != n {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} nodes, scenario has {n}",
                snap.nodes.len()
            )));
        }
        if snap.metrics.len() != links {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {} link counters, scenario has {links}",
                snap.metrics.len()
            )));
        }
        // Bounds checks on every index a resumed run would trust.
        for &(_, seq, ref ev) in snap.queue.iter().chain(snap.held.iter()) {
            if seq >= snap.next_seq {
                return Err(SnapshotError::Malformed(format!(
                    "queued seq {seq} >= next_seq {}",
                    snap.next_seq
                )));
            }
            let node = event_node(ev);
            if node >= n {
                return Err(SnapshotError::Malformed(format!(
                    "queued event addresses node {node} of {n}"
                )));
            }
        }
        for (id, meta) in &snap.tx_meta {
            if meta.link >= links || meta.intended_rx >= n {
                return Err(SnapshotError::Malformed(format!(
                    "tx {id}: link {} / receiver {} out of range",
                    meta.link, meta.intended_rx
                )));
            }
        }
        for &(ack, _, sender) in &snap.acks {
            if sender >= n {
                return Err(SnapshotError::Malformed(format!(
                    "ack {ack}: sender {sender} out of range"
                )));
            }
        }
        for (i, (tx, _)) in snap.medium.history.iter().enumerate() {
            if tx.tx_node >= n || tx.rx_power.len() != n {
                return Err(SnapshotError::Malformed(format!(
                    "medium history entry {i}: node ids out of range"
                )));
            }
            if i > 0 && tx.id != snap.medium.history[i - 1].0.id + 1 {
                return Err(SnapshotError::Malformed(format!(
                    "medium history entry {i}: non-consecutive transmission id"
                )));
            }
        }
        engine.now = snap.now;
        engine.events = snap.events;
        engine.max_events = snap.max_events;
        engine.exhausted = snap.exhausted;
        engine.rng = Xoshiro256StarStar::from_state(snap.rng.0);
        engine.next_tx_id = snap.next_tx_id;
        engine.queue = BucketQueue::restore(&snap.queue, snap.next_seq);
        engine.held = snap.held;
        for (idx, (node, st)) in engine.nodes.iter_mut().zip(&snap.nodes).enumerate() {
            restore_node(node, st, idx)?;
        }
        engine.tx_meta = snap
            .tx_meta
            .iter()
            .map(|(id, m)| {
                (
                    *id,
                    TxMeta {
                        measured: m.measured,
                        link: m.link,
                        intended_rx: m.intended_rx,
                        intended_busy: m.intended_busy,
                        outcome: m.outcome,
                        duplicate: m.duplicate,
                        error_record: m.error_record.clone(),
                    },
                )
            })
            .collect();
        engine.acks = snap
            .acks
            .iter()
            .map(|&(ack, parent, sender)| (ack, (parent, sender)))
            .collect();
        engine
            .medium
            .restore_history(snap.medium.history.clone(), snap.medium.max_duration);
        engine.reseed_receptions();
        engine.obs.metrics.restore_links(snap.metrics.clone());
        match (&mut engine.obs.trace, &snap.trace) {
            (Some(rec), Some(records)) => rec.restore_records(records.clone()),
            (None, None) => {}
            (rec, records) => {
                return Err(SnapshotError::Malformed(format!(
                    "trace recorder presence mismatch (engine {}, snapshot {})",
                    rec.is_some(),
                    records.is_some()
                )));
            }
        }
        match (&mut engine.obs.timeline, &snap.timeline) {
            (Some(rec), Some(records)) => rec.restore_records(records.clone()),
            (None, None) => {}
            (rec, records) => {
                return Err(SnapshotError::Malformed(format!(
                    "timeline recorder presence mismatch (engine {}, snapshot {})",
                    rec.is_some(),
                    records.is_some()
                )));
            }
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------
// Sharded snapshots: sequential checkpoint executor + buffered merge.
// ---------------------------------------------------------------------

nomc_json::json_struct!(ShipFlags {
    events: bool,
    trace: bool,
    tx: bool,
    thresholds: bool,
    power: bool,
});

nomc_json::json_struct!(TxStartInfo {
    tx: TxId,
    node: NodeId,
    link: usize,
    seq: u32,
    forced: bool,
    retry: bool,
    measured: bool,
    at: SimTime,
    end: SimTime,
});

nomc_json::json_struct!(TxOutcomeInfo {
    tx: TxId,
    link: usize,
    receiver: NodeId,
    outcome: TxOutcome,
    collided: bool,
    duplicate: bool,
    measured: bool,
    start: SimTime,
    end: SimTime,
    error_record: Option<ErrorRecord>,
});

nomc_json::json_struct!(PowerSample {
    node: NodeId,
    link: usize,
    reading: Dbm,
    at: SimTime,
});

nomc_json::json_struct!(ThresholdSample {
    node: NodeId,
    link: usize,
    threshold: Dbm,
    at: SimTime,
});

nomc_json::json_enum!(BoundaryEvent {
    Popped(ev) = "Popped",
    Trace(record) = "Trace",
    TxStart(info) = "TxStart",
    TxOutcome(info) = "TxOutcome",
    Abandon { link, measured } = "Abandon",
    Threshold(sample) = "Threshold",
    Power(sample) = "Power",
});

nomc_json::json_struct!(Note {
    at: SimTime,
    seq: u64,
    ev: BoundaryEvent,
});

/// Where one shard rank stands in the sequential checkpoint executor.
#[derive(Debug)]
pub(crate) enum RankState {
    /// Not started yet (later ranks while an earlier one is paused).
    Fresh,
    /// Mid-run: the rank's engine state plus its relay counters.
    Paused {
        engine: EngineSnapshot,
        relay_seq: u64,
        relay_now: SimTime,
    },
    /// Finished; its result awaits the final merge.
    Done { result: SimResult, exhausted: bool },
}

impl RankState {
    /// The finished rank's result and exhaustion flag; `None` while the
    /// rank still has events to run.
    pub(crate) fn into_done(self) -> Option<(SimResult, bool)> {
        match self {
            RankState::Done { result, exhausted } => Some((result, exhausted)),
            RankState::Fresh | RankState::Paused { .. } => None,
        }
    }
}

nomc_json::json_enum!(RankState {
    Fresh = {"fresh": null},
    Paused { engine, relay_seq, relay_now } = "paused",
    Done { result, exhausted } = "done",
});

/// The JSON [`RankState::Paused`] encodes to, built from a live engine's
/// payload and relay counters for the live sharded checkpoint.
fn paused_rank_json(engine: Json, relay_seq: u64, relay_now: SimTime) -> Json {
    Json::object([(
        "paused",
        Json::object([
            ("engine", engine),
            ("relay_seq", relay_seq.to_json()),
            ("relay_now", relay_now.to_json()),
        ]),
    )])
}

/// A paused sharded run: per-rank progress plus the buffered boundary
/// notes that the final canonical merge will replay.
#[derive(Debug)]
pub struct ShardedSnapshot {
    pub(crate) fingerprint: u64,
    pub(crate) ship: ShipFlags,
    pub(crate) max_events: u64,
    pub(crate) ranks: Vec<RankState>,
    pub(crate) logs: Vec<Vec<Note>>,
}

nomc_json::json_struct!(ShardedSnapshot {
    fingerprint: u64,
    ship: ShipFlags,
    max_events: u64,
    ranks: Vec<RankState>,
    logs: Vec<Vec<Note>>,
});

impl ShardedSnapshot {
    /// The starting state of a checkpointed sharded run: every rank
    /// fresh, no notes buffered. Unlike the threaded path — which
    /// samples [`ShipFlags::for_run`] against the observers attached
    /// for the whole run — a checkpointed run cannot know what
    /// observers later legs will attach, so it ships *every* note
    /// category. Replay gates nothing (gating happens at emission), so
    /// the externals present at the final merge see the complete
    /// stream, byte-identical to a threaded run with those observers
    /// attached throughout.
    pub(crate) fn fresh(sc: &Scenario, max_events: u64, shards: usize) -> Self {
        ShardedSnapshot {
            fingerprint: scenario_fingerprint(sc),
            ship: ShipFlags {
                events: true,
                trace: true,
                tx: true,
                thresholds: true,
                power: true,
            },
            max_events,
            ranks: (0..shards).map(|_| RankState::Fresh).collect(),
            logs: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

impl ShardedSnapshot {
    /// Replaces the persisted total event budget, re-splitting it over
    /// the ranks exactly as a fresh bounded run would (earlier ranks
    /// take the remainder). A rank that finished keeps its result,
    /// unless it stopped on a share the new one exceeds: that rank goes
    /// back to fresh and reruns under its new share, exactly as a plain
    /// run at this budget would (ranks are independent).
    pub(crate) fn set_budget(&mut self, max_events: u64) {
        self.max_events = max_events;
        let budgets = split_budget(max_events, self.ranks.len());
        for ((state, log), budget) in self.ranks.iter_mut().zip(&mut self.logs).zip(budgets) {
            match state {
                RankState::Paused { engine, .. } => engine.max_events = budget,
                RankState::Done {
                    result,
                    exhausted: true,
                } if budget > result.events => {
                    *state = RankState::Fresh;
                    log.clear();
                }
                RankState::Fresh | RankState::Done { .. } => {}
            }
        }
    }
}

/// How one checkpointed sharded leg ended.
pub(crate) enum ShardedProgress {
    /// The pause budget was reached; resume from the returned snapshot.
    Paused(ShardedSnapshot),
    /// All ranks finished and the canonical merge ran.
    Done(SimResult, bool),
}

/// Advances a sequentially executed sharded run until the *global*
/// event count (summed over ranks) reaches `pause_after`, or to
/// completion, handing `externals` a checkpoint of the live run at every
/// cadence point they ask for ([`SimObserver::checkpoint_every`],
/// counted from the global count `snap` was taken at) without stopping.
///
/// Ranks run sequentially in rank order through [`shard::run_rank`],
/// with the same per-rank budget split the threaded executor uses;
/// relayed notes buffer per rank and replay through the canonical merge
/// once every rank is done. Shards are fully independent, so the
/// sequential schedule is behaviorally identical to the threaded one
/// and the merged output is byte-identical to the threaded sharded
/// [`crate::engine::execute`]. `plan` is `shard::plan(sc)`, computed
/// once by the caller.
pub(crate) fn run_sharded_leg(
    sc: &Scenario,
    plan: &[ShardSpec],
    mut snap: ShardedSnapshot,
    externals: &mut [&mut dyn SimObserver],
    pause_after: u64,
) -> Result<ShardedProgress, SnapshotError> {
    let expected = scenario_fingerprint(sc);
    if snap.fingerprint != expected {
        return Err(SnapshotError::ScenarioMismatch {
            found: snap.fingerprint,
            expected,
        });
    }
    if snap.ranks.len() != plan.len() || snap.logs.len() != plan.len() {
        return Err(SnapshotError::Malformed(format!(
            "snapshot has {} ranks, plan has {}",
            snap.ranks.len(),
            plan.len()
        )));
    }
    for (rank, spec) in plan.iter().enumerate() {
        check_rank(spec, &snap.ranks[rank], &snap.logs[rank])
            .map_err(|e| SnapshotError::Malformed(format!("rank {rank}: {e}")))?;
    }
    let budgets = split_budget(snap.max_events, plan.len());
    let mut done_events: u64 = snap
        .ranks
        .iter()
        .map(|r| match r {
            RankState::Done { result, .. } => result.events,
            RankState::Fresh | RankState::Paused { .. } => 0,
        })
        .sum();
    // Checkpoints count on from the global count the run resumes at: the
    // finished ranks plus how far the first unfinished one, which runs
    // next, has got.
    let resumed_at = done_events
        + (snap.ranks.iter())
            .find_map(|r| match r {
                RankState::Done { .. } => None,
                RankState::Fresh => Some(0),
                RankState::Paused { engine, .. } => Some(engine.events),
            })
            .unwrap_or(0);
    let every = checkpoint_every(externals);
    let mut next_checkpoint = resumed_at.saturating_add(every);
    for (rank, spec) in plan.iter().enumerate() {
        if matches!(snap.ranks[rank], RankState::Done { .. }) {
            continue;
        }
        let target = if pause_after == u64::MAX {
            u64::MAX
        } else {
            pause_after.saturating_sub(done_events)
        };
        let state = std::mem::replace(&mut snap.ranks[rank], RankState::Fresh);
        let log = std::mem::take(&mut snap.logs[rank]);
        let (ship, budget) = (snap.ship, budgets[rank]);
        let view = &snap;
        let emit: &mut dyn FnMut(&mut Engine<'_, '_, '_>) = &mut |engine| {
            let text = encode_sharded_live(view, rank, engine);
            for o in externals.iter_mut() {
                o.on_checkpoint(done_events + engine.events, &text);
            }
        };
        let mut cadence = Cadence {
            next: next_checkpoint.saturating_sub(done_events),
            every,
            emit,
        };
        let hook = (every != u64::MAX).then_some(&mut cadence);
        let (log, state) = shard::run_rank(spec, ship, state, budget, log, target, hook)?;
        next_checkpoint = done_events.saturating_add(cadence.next);
        snap.logs[rank] = log;
        let paused = matches!(state, RankState::Paused { .. });
        if let RankState::Done { result, .. } = &state {
            done_events += result.events;
        }
        snap.ranks[rank] = state;
        if paused {
            return Ok(ShardedProgress::Paused(snap));
        }
    }
    let results = snap
        .ranks
        .into_iter()
        .map(RankState::into_done)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            SnapshotError::Malformed("rank left unfinished after completion sweep".into())
        })?;
    let (result, exhausted) = merge_logs(sc, plan, snap.logs, results, externals);
    Ok(ShardedProgress::Done(result, exhausted))
}

/// The sharded checkpoint text while `engine` runs rank `rank` of
/// `snap`: `snap` with that rank paused at the engine's live state and
/// its note log read from the engine's relay — the text [`encode`]
/// gives for the [`ShardedSnapshot`] a pause at this count returns.
fn encode_sharded_live(snap: &ShardedSnapshot, rank: usize, engine: &Engine<'_, '_, '_>) -> String {
    let (log, relay_seq, relay_now) = engine
        .obs
        .relay
        .as_ref()
        .map(RelayObserver::parts)
        .expect("a shard rank's engine carries its relay");
    let ranks = snap.ranks.iter().enumerate().map(|(i, state)| {
        if i == rank {
            paused_rank_json(engine.state_json(), relay_seq, relay_now)
        } else {
            state.to_json()
        }
    });
    let logs = snap.logs.iter().enumerate().map(|(i, notes)| {
        if i == rank {
            log.to_json()
        } else {
            notes.to_json()
        }
    });
    let payload = Json::object([
        ("fingerprint", snap.fingerprint.to_json()),
        ("ship", snap.ship.to_json()),
        ("max_events", snap.max_events.to_json()),
        ("ranks", Json::Arr(ranks.collect())),
        ("logs", Json::Arr(logs.collect())),
    ]);
    envelope("sharded", payload)
}

/// Bounds-checks everything the final merge will look up in `spec`'s
/// index maps for one rank: every node and link index carried by its
/// logged notes, and — once it is done — the shape of its result and
/// the network index of every link in it.
fn check_rank(spec: &ShardSpec, state: &RankState, log: &[Note]) -> Result<(), String> {
    let nodes = spec.nodes.len();
    let links = spec.links.len();
    let node = |n: NodeId| {
        if n < nodes {
            Ok(())
        } else {
            Err(format!("node {n} of {nodes}"))
        }
    };
    let link = |l: usize| {
        if l < links {
            Ok(())
        } else {
            Err(format!("link {l} of {links}"))
        }
    };
    for (i, note) in log.iter().enumerate() {
        match &note.ev {
            BoundaryEvent::Popped(ev) => node(event_node(ev)),
            BoundaryEvent::Trace(record) => match &record.kind {
                TraceKind::Cca { node: n, .. }
                | TraceKind::TxStart { node: n, .. }
                | TraceKind::Fault { node: n, .. }
                | TraceKind::Outcome { receiver: n, .. }
                | TraceKind::AckDelivered { sender: n, .. }
                | TraceKind::AckTimedOut { sender: n, .. } => node(*n),
            },
            BoundaryEvent::TxStart(info) => node(info.node).and(link(info.link)),
            BoundaryEvent::TxOutcome(info) => node(info.receiver).and(link(info.link)),
            BoundaryEvent::Abandon { link: l, .. } => link(*l),
            BoundaryEvent::Threshold(sample) => node(sample.node).and(link(sample.link)),
            BoundaryEvent::Power(sample) => node(sample.node).and(link(sample.link)),
        }
        .map_err(|e| format!("logged note {i}: {e}"))?;
    }
    if let RankState::Done { result, .. } = state {
        let shapes = [
            result.links.len(),
            result.mac_stats.len(),
            result.tx_powers.len(),
            result.final_thresholds.len(),
        ];
        if shapes.iter().any(|&len| len != links) {
            return Err(format!("result covers {shapes:?} links, shard has {links}"));
        }
        let networks = spec.networks.len();
        if let Some(lm) = result.links.iter().find(|lm| lm.network >= networks) {
            return Err(format!("result network {} of {networks}", lm.network));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Wire format: versioned envelope over the serial/sharded payloads.
// ---------------------------------------------------------------------

/// A paused run of either execution shape.
#[derive(Debug)]
pub(crate) enum SnapInner {
    Serial(Box<EngineSnapshot>),
    Sharded(ShardedSnapshot),
}

/// Serializes a paused run as versioned snapshot JSON.
pub(crate) fn encode(inner: &SnapInner) -> String {
    match inner {
        SnapInner::Serial(s) => envelope("serial", s.to_json()),
        SnapInner::Sharded(s) => envelope("sharded", s.to_json()),
    }
}

/// The serial checkpoint text of a running engine: what [`encode`]
/// gives for a run paused at the same event.
pub(crate) fn encode_serial_live(engine: &Engine<'_, '_, '_>) -> String {
    envelope("serial", engine.state_json())
}

/// The versioned envelope around a serial or sharded payload.
fn envelope(kind: &str, payload: Json) -> String {
    Json::object([
        ("version", SNAPSHOT_VERSION.to_json()),
        ("kind", ToJson::to_json(kind)),
        ("payload", payload),
    ])
    .dump()
}

/// Parses versioned snapshot JSON back into a paused run. Total: every
/// failure mode is a typed [`SnapshotError`].
pub(crate) fn decode(text: &str) -> Result<SnapInner, SnapshotError> {
    let value: Json = text
        .parse()
        .map_err(|e: Error| SnapshotError::Malformed(e.to_string()))?;
    let obj = value
        .as_object()
        .ok_or_else(|| SnapshotError::Malformed("expected top-level object".into()))?;
    let version = obj
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot version".into()))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionSkew {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot kind".into()))?;
    let payload = obj
        .get("payload")
        .ok_or_else(|| SnapshotError::Malformed("missing snapshot payload".into()))?;
    match kind {
        "serial" => Ok(SnapInner::Serial(Box::new(
            EngineSnapshot::from_json(payload).map_err(malformed)?,
        ))),
        "sharded" => Ok(SnapInner::Sharded(
            ShardedSnapshot::from_json(payload).map_err(malformed)?,
        )),
        other => Err(SnapshotError::Malformed(format!(
            "unknown snapshot kind `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, RunProgress, RunSpec};
    use nomc_core::{CcaAdjustor, DcnConfig};
    use nomc_topology::paper;
    use nomc_topology::spectrum::ChannelPlan;

    /// Asserts that `value` encodes to exactly `text` and that `text`
    /// decodes to a value encoding to `text` again.
    fn pin<T: ToJson + FromJson>(value: &T, text: &str) {
        assert_eq!(value.to_json().dump(), text);
        let back = T::from_json(&Json::parse(text).unwrap())
            .unwrap_or_else(|e| panic!("decoding {text}: {e}"));
        assert_eq!(back.to_json().dump(), text);
    }

    fn scenario() -> Scenario {
        let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
        let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
        b.duration(SimDuration::from_millis(40))
            .warmup(SimDuration::from_millis(10));
        b.build().unwrap()
    }

    #[test]
    fn provider_state_variants_have_pinned_bytes() {
        pin(&ProviderState::Fixed, r#"{"fixed":null}"#);
        let adjustor = CcaAdjustor::new(DcnConfig::paper_default(), Dbm::new(-77.0)).save();
        let text = format!(r#"{{"dcn":{}}}"#, adjustor.to_json().dump());
        pin(&ProviderState::Dcn(adjustor), &text);
    }

    #[test]
    fn rank_state_variants_have_pinned_bytes() {
        pin(&RankState::Fresh, r#"{"fresh":null}"#);

        let sc = scenario();
        let spec = RunSpec {
            pause_at: 50,
            ..RunSpec::default()
        };
        let RunProgress::Paused(snap) = engine::execute(&sc, &spec, &mut []) else {
            panic!("the run pauses before its 50th event");
        };
        let payload = Json::parse(&engine::snapshot(&snap)).unwrap()["payload"].dump();
        let engine = EngineSnapshot::from_json(&Json::parse(&payload).unwrap()).unwrap();
        pin(
            &RankState::Paused {
                engine,
                relay_seq: 3,
                relay_now: SimTime::from_micros(5),
            },
            &format!(r#"{{"paused":{{"engine":{payload},"relay_seq":3,"relay_now":5000}}}}"#),
        );

        let result = engine::run(&sc);
        let text = format!(
            r#"{{"done":{{"result":{},"exhausted":true}}}}"#,
            result.to_json().dump()
        );
        pin(
            &RankState::Done {
                result,
                exhausted: true,
            },
            &text,
        );
    }

    #[test]
    fn boundary_event_variants_have_pinned_bytes() {
        pin(
            &BoundaryEvent::Popped(Event::TxEnd(1, 2)),
            r#"{"Popped":{"TxEnd":[1,2]}}"#,
        );
        pin(
            &BoundaryEvent::Trace(TraceRecord {
                at: SimTime::from_micros(5),
                kind: TraceKind::AckDelivered { tx: 3, sender: 1 },
            }),
            r#"{"Trace":{"at":5000,"kind":{"AckDelivered":{"tx":3,"sender":1}}}}"#,
        );
        pin(
            &BoundaryEvent::TxStart(TxStartInfo {
                tx: 4,
                node: 0,
                link: 1,
                seq: 7,
                forced: true,
                retry: false,
                measured: true,
                at: SimTime::from_micros(10),
                end: SimTime::from_micros(20),
            }),
            r#"{"TxStart":{"tx":4,"node":0,"link":1,"seq":7,"forced":true,"retry":false,"measured":true,"at":10000,"end":20000}}"#,
        );
        pin(
            &BoundaryEvent::TxOutcome(Box::new(TxOutcomeInfo {
                tx: 4,
                link: 1,
                receiver: 2,
                outcome: TxOutcome::CrcFailed,
                collided: true,
                duplicate: false,
                measured: true,
                start: SimTime::from_micros(10),
                end: SimTime::from_micros(20),
                error_record: None,
            })),
            r#"{"TxOutcome":{"tx":4,"link":1,"receiver":2,"outcome":"crc_failed","collided":true,"duplicate":false,"measured":true,"start":10000,"end":20000,"error_record":null}}"#,
        );
        pin(
            &BoundaryEvent::Abandon {
                link: 2,
                measured: false,
            },
            r#"{"Abandon":{"link":2,"measured":false}}"#,
        );
        pin(
            &BoundaryEvent::Threshold(ThresholdSample {
                node: 1,
                link: 0,
                threshold: Dbm::new(-80.5),
                at: SimTime::from_micros(30),
            }),
            r#"{"Threshold":{"node":1,"link":0,"threshold":-80.5,"at":30000}}"#,
        );
        pin(
            &BoundaryEvent::Power(PowerSample {
                node: 1,
                link: 0,
                reading: Dbm::new(-91.0),
                at: SimTime::from_micros(31),
            }),
            r#"{"Power":{"node":1,"link":0,"reading":-91.0,"at":31000}}"#,
        );
    }
}
