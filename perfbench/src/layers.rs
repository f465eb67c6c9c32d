//! The traced run's instruments: a timing [`SimObserver`] that splits a
//! run's host time by event kind and counts the modelled work, and an
//! in-memory span log written out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use nomc_sim::events::Event;
use nomc_sim::metrics::TxOutcome;
use nomc_sim::{PowerSample, SimObserver, SimResult, ThresholdSample, TxOutcomeInfo, TxStartInfo};
use nomc_units::SimTime;

/// The event kinds the runtime attribution reports, in engine order.
/// Fault events (node down/up, stuck CCA) are timed into a bucket of
/// their own that only `runtime.ns_per_event` includes.
pub const KINDS: [&str; 10] = [
    "packet_ready",
    "backoff_expired",
    "cca_done",
    "tx_start",
    "tx_end",
    "sync_done",
    "power_sense",
    "provider_tick",
    "ack_start",
    "ack_timeout",
];
const FAULT_BUCKET: usize = KINDS.len();

fn kind_index(event: &Event) -> usize {
    match event {
        Event::PacketReady(_) => 0,
        Event::BackoffExpired(_) => 1,
        Event::CcaDone(_) => 2,
        Event::TxStart(_) => 3,
        Event::TxEnd(..) => 4,
        Event::SyncDone(..) => 5,
        Event::PowerSense(_) => 6,
        Event::ProviderTick(_) => 7,
        Event::AckStart(..) => 8,
        Event::AckTimeout(..) => 9,
        Event::NodeDown(_) | Event::NodeUp(_) | Event::CcaStuckStart(_) | Event::CcaStuckEnd(_) => {
            FAULT_BUCKET
        }
    }
}

/// Exact, simulated work counts: the same on every run of the same code
/// and inputs, whatever the host.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkCounts {
    /// Events handled, per [`KINDS`] entry plus the fault bucket.
    pub events: [u64; KINDS.len() + 1],
    /// Data frames put on air.
    pub tx_started: u64,
    /// Frames the transmit-anyway policy forced out.
    pub tx_forced: u64,
    /// Retransmissions.
    pub tx_retry: u64,
    /// Frames abandoned after the retry limit.
    pub abandoned: u64,
    /// Effective CCA threshold changes (the DCN adjustor at work).
    pub threshold_changes: u64,
    /// RSSI samples of the initializing phase.
    pub power_samples: u64,
    /// Frames decoded at their receiver.
    pub received: u64,
    /// Frames that synced but failed the FCS.
    pub crc_failed: u64,
    /// Frames whose preamble never decoded.
    pub sync_missed: u64,
    /// Frames that found the receiver busy.
    pub receiver_busy: u64,
    /// Frames overlapped above the collision floor.
    pub collided: u64,
}

impl WorkCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &WorkCounts) {
        for (a, b) in self.events.iter_mut().zip(other.events) {
            *a += b;
        }
        self.tx_started += other.tx_started;
        self.tx_forced += other.tx_forced;
        self.tx_retry += other.tx_retry;
        self.abandoned += other.abandoned;
        self.threshold_changes += other.threshold_changes;
        self.power_samples += other.power_samples;
        self.received += other.received;
        self.crc_failed += other.crc_failed;
        self.sync_missed += other.sync_missed;
        self.receiver_busy += other.receiver_busy;
        self.collided += other.collided;
    }

    /// Every count under its per-layer metric name.
    pub fn named(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (kind, n) in KINDS.iter().zip(self.events) {
            out.insert(format!("runtime.{kind}.count"), n);
        }
        for (name, n) in [
            ("mac.tx_started", self.tx_started),
            ("mac.tx_forced", self.tx_forced),
            ("mac.tx_retry", self.tx_retry),
            ("mac.abandoned", self.abandoned),
            ("adjustor.threshold_changes", self.threshold_changes),
            ("sense.power_samples", self.power_samples),
            ("rx.received", self.received),
            ("rx.crc_failed", self.crc_failed),
            ("rx.sync_missed", self.sync_missed),
            ("rx.receiver_busy", self.receiver_busy),
            ("rx.collided", self.collided),
        ] {
            out.insert(name.to_string(), n);
        }
        out
    }
}

/// Charges the host time between consecutive `on_event` calls to the
/// earlier event's kind (handling it plus popping the next one) and
/// counts the modelled work. Attaching it changes no simulated output:
/// observers are write-only.
#[derive(Debug, Default)]
pub struct LayerObserver {
    last: Option<(Instant, usize)>,
    /// Host nanoseconds per [`KINDS`] entry plus the fault bucket.
    pub self_ns: [u64; KINDS.len() + 1],
    /// The exact work counts.
    pub counts: WorkCounts,
}

impl LayerObserver {
    /// Adds `other`'s host time per kind to this observer's.
    pub fn add_time(&mut self, other: &LayerObserver) {
        for (a, b) in self.self_ns.iter_mut().zip(other.self_ns) {
            *a += b;
        }
    }

    fn close_interval(&mut self, now: Instant) {
        if let Some((start, kind)) = self.last.take() {
            self.self_ns[kind] += now.duration_since(start).as_nanos() as u64;
        }
    }
}

impl SimObserver for LayerObserver {
    fn wants_thresholds(&self) -> bool {
        true
    }

    fn on_event(&mut self, _now: SimTime, event: &Event) {
        let now = Instant::now();
        self.close_interval(now);
        let kind = kind_index(event);
        self.counts.events[kind] += 1;
        self.last = Some((now, kind));
    }

    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.counts.tx_started += 1;
        self.counts.tx_forced += u64::from(info.forced);
        self.counts.tx_retry += u64::from(info.retry);
    }

    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        let c = &mut self.counts;
        match info.outcome {
            TxOutcome::Received => c.received += 1,
            TxOutcome::CrcFailed => c.crc_failed += 1,
            TxOutcome::SyncMissed => c.sync_missed += 1,
            TxOutcome::ReceiverBusy => c.receiver_busy += 1,
        }
        c.collided += u64::from(info.collided);
    }

    fn on_abandon(&mut self, _link: usize, _measured: bool) {
        self.counts.abandoned += 1;
    }

    fn on_threshold_change(&mut self, _sample: &ThresholdSample) {
        self.counts.threshold_changes += 1;
    }

    fn on_power_sample(&mut self, _sample: &PowerSample) {
        self.counts.power_samples += 1;
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        self.close_interval(Instant::now());
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// request it belongs to (spans of one request share `request`).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request (run, job or cache hit) the span belongs to.
    pub request: u64,
    /// Layer/phase name.
    pub name: &'static str,
    /// Start, in microseconds since the benchmark began.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A fresh id for a span or request.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, request, parent, start, end);
        id
    }

    /// Records a finished span under an id drawn earlier with
    /// [`SpanLog::next_id`], so children can name it before it ends.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
    }

    /// Moves another log's spans into this one (ids stay unique: each
    /// client thread draws from its own range).
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// An empty log sharing this one's clock, drawing ids from
    /// `first_id` upward.
    pub fn fork(&self, first_id: u64) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id, s.request, s.name, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use nomc_sim::engine;

    #[test]
    fn observer_counts_every_event_and_leaves_the_result_alone() {
        let sc = scenarios::paper_grid(3, 0);
        let plain = engine::run(&sc);
        let mut obs = LayerObserver::default();
        let traced = engine::run_with(&sc, &mut [&mut obs]);
        assert_eq!(plain, traced);
        assert_eq!(obs.counts.events.iter().sum::<u64>(), plain.events);
        let sent: u64 = plain.links.iter().map(|l| l.sent).sum();
        assert!(obs.counts.tx_started >= sent);
        assert!(obs.counts.power_samples > 0, "T_I sensing fires");
        assert!(obs.counts.threshold_changes > 0, "the adjustor moves");
        assert!(obs.self_ns.iter().sum::<u64>() > 0);
    }

    #[test]
    fn span_log_keeps_request_ids_and_durations() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        let req = log.next_id();
        let t = Instant::now();
        let root = log.record("job", req, None, t, t + std::time::Duration::from_millis(3));
        log.record(
            "ack",
            req,
            Some(root),
            t,
            t + std::time::Duration::from_millis(1),
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.durations_ms("job").len(), 1);
        assert!((log.durations_ms("ack")[0] - 1.0).abs() < 1e-6);
    }
}
