//! The [`SimObserver`] trait: pluggable sinks for engine events.
//!
//! The event loop emits a small set of typed notifications; anything
//! that wants to watch a run — trace recorders, metrics collectors,
//! energy meters, streaming exporters — implements this trait and is
//! passed to [`crate::engine::execute`]. Observers are strictly
//! *write-only* sinks: nothing they do can feed back into the
//! simulation, so a run produces bit-identical results whatever
//! observers are attached.
//!
//! All hooks have empty default bodies; implement only what you need.
//! The two `wants_*` methods and [`SimObserver::checkpoint_every`] let
//! the engine skip building payloads nobody consumes (they are sampled
//! once at startup, so answers must not change mid-run).

use crate::events::{Event, NodeId, TxId};
use crate::metrics::{ErrorRecord, SimResult, TxOutcome};
use crate::trace::TraceRecord;
use nomc_units::{Dbm, SimTime};

/// A data frame's first symbol left the antenna.
#[derive(Debug, Clone, PartialEq)]
pub struct TxStartInfo {
    /// Transmission id.
    pub tx: TxId,
    /// Transmitting node.
    pub node: NodeId,
    /// Global link index.
    pub link: usize,
    /// Frame sequence number within the link.
    pub seq: u32,
    /// Whether the transmit-anyway policy forced it out.
    pub forced: bool,
    /// Whether this is a retransmission (acknowledged mode).
    pub retry: bool,
    /// Whether the frame started inside the measurement window.
    pub measured: bool,
    /// First symbol on air.
    pub at: SimTime,
    /// Last symbol on air.
    pub end: SimTime,
}

/// A data frame finished at its intended receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct TxOutcomeInfo {
    /// Transmission id.
    pub tx: TxId,
    /// Global link index.
    pub link: usize,
    /// The intended receiver.
    pub receiver: NodeId,
    /// How the frame fared there.
    pub outcome: TxOutcome,
    /// Whether another transmission overlapped it above the collision
    /// floor (the paper's CPRR predicate).
    pub collided: bool,
    /// Whether a successful decode was a duplicate delivery (its
    /// predecessor's ACK was lost).
    pub duplicate: bool,
    /// Whether the frame started inside the measurement window.
    pub measured: bool,
    /// First symbol on air.
    pub start: SimTime,
    /// Last symbol on air.
    pub end: SimTime,
    /// Bit-error profile, present exactly when the outcome is
    /// [`TxOutcome::CrcFailed`] and the frame was measured.
    pub error_record: Option<ErrorRecord>,
}

/// One RSSI power-sensing sample (DCN initializing phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sensing node.
    pub node: NodeId,
    /// Its global link index.
    pub link: usize,
    /// RSSI-register reading.
    pub reading: Dbm,
    /// Sample time.
    pub at: SimTime,
}

/// A node's effective (post-clamp) CCA threshold changed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdSample {
    /// The adapting node.
    pub node: NodeId,
    /// Its global link index.
    pub link: usize,
    /// The new effective threshold.
    pub threshold: Dbm,
    /// When the change took effect.
    pub at: SimTime,
}

/// A pluggable sink for simulation events.
///
/// See the [module docs](self) for the contract. The built-in sinks in
/// [`crate::runtime::sinks`] implement this same trait; external
/// observers passed to [`crate::engine::execute`] get every hook the
/// built-ins do.
pub trait SimObserver {
    /// Whether this observer consumes [`SimObserver::on_trace`]. Trace
    /// records are only constructed when someone wants them; sampled
    /// once at startup.
    fn wants_trace(&self) -> bool {
        false
    }

    /// Whether this observer consumes
    /// [`SimObserver::on_threshold_change`]. Threshold watching costs a
    /// provider read around every mutation; sampled once at startup.
    fn wants_thresholds(&self) -> bool {
        false
    }

    /// Called for every event popped from the queue, before it is
    /// handled.
    fn on_event(&mut self, _now: SimTime, _event: &Event) {}

    /// A structured trace record was produced (gated by
    /// [`SimObserver::wants_trace`] or the scenario's `record_trace`).
    fn on_trace(&mut self, _record: &TraceRecord) {}

    /// A data frame went on air.
    fn on_tx_start(&mut self, _info: &TxStartInfo) {}

    /// A data frame completed at its intended receiver.
    fn on_tx_outcome(&mut self, _info: &TxOutcomeInfo) {}

    /// A sender abandoned a frame after exhausting its retries.
    fn on_abandon(&mut self, _link: usize, _measured: bool) {}

    /// A node's effective CCA threshold changed (gated by
    /// [`SimObserver::wants_thresholds`]).
    fn on_threshold_change(&mut self, _sample: &ThresholdSample) {}

    /// A node took an RSSI power-sensing sample.
    fn on_power_sample(&mut self, _sample: &PowerSample) {}

    /// The run finished; `result` is the final [`SimResult`].
    fn on_run_end(&mut self, _result: &SimResult) {}

    /// The event cadence at which this observer wants checkpoints of
    /// the run: [`SimObserver::on_checkpoint`] then fires every `n`
    /// handled events (summed over shards), counted from where the run
    /// starts — event 0, or the count a resumed snapshot was taken at.
    /// `u64::MAX`, the default, wants none. A run uses the smallest
    /// cadence its observers ask for; sampled once at startup.
    fn checkpoint_every(&self) -> u64 {
        u64::MAX
    }

    /// A checkpoint of the running engine after `events` handled events
    /// (summed over shards): `snapshot` is exactly the text
    /// [`crate::engine::snapshot`] gives for the same run paused there,
    /// so [`crate::engine::restore`] and
    /// [`crate::engine::resume_bounded`] continue it. The run itself
    /// does not stop. Fires before the next event is popped, on the
    /// thread running the engine.
    fn on_checkpoint(&mut self, _events: u64, _snapshot: &str) {}
}
