//! Built-in [`SimObserver`] implementations and the engine's fan-out.
//!
//! The engine's own bookkeeping — per-link metrics, the optional trace
//! and timeline recorders — is implemented with the same observer trait
//! external sinks use, so "what the engine records" and "what a plugin
//! can record" are one mechanism. `ObserverSet` (crate-private) owns
//! the built-ins
//! (statically dispatched) and fans every notification out to the
//! externally supplied `&mut dyn SimObserver` slice.

use crate::events::Event;
use crate::metrics::{LinkMetrics, SimResult, TimelineRecord, TxOutcome};
use crate::runtime::observer::{
    PowerSample, SimObserver, ThresholdSample, TxOutcomeInfo, TxStartInfo,
};
use crate::runtime::shard::merge::RelayObserver;
use crate::scenario::Scenario;
use crate::trace::{TraceKind, TraceRecord};
use nomc_units::{Db, Dbm, SimDuration, SimTime};

/// Accumulates the per-link [`LinkMetrics`] counters.
///
/// Always attached; this is the collector behind [`SimResult::links`].
/// It is a pure sink — every counter mirrors a notification the engine
/// already emitted, so extracting it from the event loop cannot change
/// simulation behavior.
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    links: Vec<LinkMetrics>,
    record_error_records: bool,
}

impl MetricsCollector {
    pub(crate) fn new(links: Vec<LinkMetrics>, record_error_records: bool) -> Self {
        MetricsCollector {
            links,
            record_error_records,
        }
    }

    pub(crate) fn into_links(self) -> Vec<LinkMetrics> {
        self.links
    }

    /// The counters accumulated so far (checkpoint capture).
    pub(crate) fn links(&self) -> &[LinkMetrics] {
        &self.links
    }

    /// Overwrites the accumulated counters (checkpoint restore).
    pub(crate) fn restore_links(&mut self, links: Vec<LinkMetrics>) {
        self.links = links;
    }
}

impl SimObserver for MetricsCollector {
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        if !info.measured {
            return;
        }
        let l = &mut self.links[info.link];
        l.sent += 1;
        if info.forced {
            l.forced_sent += 1;
        }
        if info.retry {
            l.retransmissions += 1;
        }
    }

    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        if !info.measured {
            return;
        }
        let l = &mut self.links[info.link];
        match info.outcome {
            TxOutcome::Received => {
                if info.duplicate {
                    l.duplicates += 1;
                } else {
                    l.received += 1;
                }
            }
            TxOutcome::CrcFailed => l.crc_failed += 1,
            TxOutcome::SyncMissed => l.sync_missed += 1,
            TxOutcome::ReceiverBusy => l.receiver_busy += 1,
        }
        if info.collided {
            l.collided += 1;
            if info.outcome == TxOutcome::Received {
                l.collided_received += 1;
            }
        }
        if self.record_error_records {
            if let Some(r) = &info.error_record {
                l.error_records.push(r.clone());
            }
        }
    }

    fn on_abandon(&mut self, link: usize, measured: bool) {
        if measured {
            self.links[link].abandoned += 1;
        }
    }
}

/// Collects the structured event trace ([`SimResult::trace`]).
#[derive(Debug, Default)]
pub struct TraceRecorder {
    records: Vec<TraceRecord>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consumes the recorder, yielding its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Overwrites the collected records (checkpoint restore).
    pub(crate) fn restore_records(&mut self, records: Vec<TraceRecord>) {
        self.records = records;
    }
}

impl SimObserver for TraceRecorder {
    fn wants_trace(&self) -> bool {
        true
    }

    fn on_trace(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Collects the Fig. 3-style transmission timeline
/// ([`SimResult::timeline`]).
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    records: Vec<TimelineRecord>,
}

impl TimelineRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TimelineRecorder::default()
    }

    /// The records collected so far.
    pub fn records(&self) -> &[TimelineRecord] {
        &self.records
    }

    /// Consumes the recorder, yielding its records.
    pub fn into_records(self) -> Vec<TimelineRecord> {
        self.records
    }

    /// Overwrites the collected records (checkpoint restore).
    pub(crate) fn restore_records(&mut self, records: Vec<TimelineRecord>) {
        self.records = records;
    }
}

impl SimObserver for TimelineRecorder {
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        if info.measured {
            self.records.push(TimelineRecord {
                link: info.link,
                start: info.start,
                end: info.end,
                outcome: info.outcome,
                collided: info.collided,
            });
        }
    }
}

/// Streams radio-energy accounting from live transmissions.
///
/// Accumulates each link's measured-window TX airtime from
/// [`SimObserver::on_tx_start`] (data frames; ACKs are accounted to
/// their own link's receiver, which this transmitter-side meter does
/// not model) and converts it to [`crate::energy::EnergyEstimate`]s at
/// run end using the CC2420 supply currents — the streaming counterpart
/// of [`crate::energy::transmitter_energy`].
#[derive(Debug, Default)]
pub struct EnergyMeter {
    tx_time: Vec<SimDuration>,
    estimates: Vec<crate::energy::EnergyEstimate>,
}

impl EnergyMeter {
    /// A meter with no airtime accumulated yet.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Accumulated measured-window TX airtime per link.
    pub fn tx_time(&self) -> &[SimDuration] {
        &self.tx_time
    }

    /// Per-link energy estimates; filled in by
    /// [`SimObserver::on_run_end`].
    pub fn estimates(&self) -> &[crate::energy::EnergyEstimate] {
        &self.estimates
    }
}

impl SimObserver for EnergyMeter {
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        if !info.measured {
            return;
        }
        if self.tx_time.len() <= info.link {
            self.tx_time.resize(info.link + 1, SimDuration::ZERO);
        }
        self.tx_time[info.link] += info.end.saturating_since(info.at);
    }

    fn on_run_end(&mut self, result: &SimResult) {
        use crate::energy::SUPPLY_VOLTS;
        use nomc_radio::power::current;
        self.tx_time
            .resize(result.tx_powers.len(), SimDuration::ZERO);
        self.estimates = self
            .tx_time
            .iter()
            .zip(&result.tx_powers)
            .map(|(&t, &p)| {
                let tx_time = t.min(result.measured);
                let rx_time = result.measured - tx_time;
                let tx_mj = current::tx_ma(p) * SUPPLY_VOLTS * tx_time.as_secs_f64();
                let rx_mj = current::RX_MA * SUPPLY_VOLTS * rx_time.as_secs_f64();
                crate::energy::EnergyEstimate {
                    tx_time,
                    rx_time,
                    total_mj: tx_mj + rx_mj,
                }
            })
            .collect();
    }
}

/// Streams trace records as JSON lines into any [`std::io::Write`].
///
/// The streaming counterpart of [`TraceRecorder`] +
/// [`crate::trace::to_jsonl`]: nothing is buffered in simulation
/// memory, so arbitrarily long runs can be traced to disk (the CLI's
/// `--trace` uses this). The first I/O error stops further writes and
/// is surfaced by [`JsonlTracer::finish`].
#[derive(Debug)]
pub struct JsonlTracer<W: std::io::Write> {
    writer: W,
    records: u64,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> JsonlTracer<W> {
    /// Wraps a writer (use a buffered one for files).
    pub fn new(writer: W) -> Self {
        JsonlTracer {
            writer,
            records: 0,
            error: None,
        }
    }

    /// Number of records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the record count, or the first I/O error.
    pub fn finish(mut self) -> std::io::Result<u64> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.records)
    }
}

impl<W: std::io::Write> SimObserver for JsonlTracer<W> {
    fn wants_trace(&self) -> bool {
        true
    }

    fn on_trace(&mut self, record: &TraceRecord) {
        use nomc_json::ToJson;
        if self.error.is_some() {
            return;
        }
        let line = record.to_json().dump();
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            self.error = Some(e);
        } else {
            self.records += 1;
        }
    }
}

/// Per-bin recovery metrics around a known fault instant.
///
/// Attach to a fault-injected run (see [`crate::scenario::FaultPlan`])
/// to quantify graceful degradation on one link: goodput is bucketed
/// into fixed time bins, the pre-fault bins establish a steady-state
/// baseline, and the post-fault bins yield the dip depth and the time
/// until goodput returns to (a fraction of) the baseline. Threshold
/// excursions — how far the link's CCA threshold strays from its
/// pre-fault value while recovering — ride along via
/// [`SimObserver::on_threshold_change`].
///
/// Like every observer this is a write-only sink: attaching it cannot
/// perturb the run it measures.
#[derive(Debug)]
pub struct RecoveryMeter {
    link: usize,
    bin: SimDuration,
    fault_at: SimTime,
    warmup: SimDuration,
    /// Non-duplicate successful deliveries per time bin.
    bins: Vec<u64>,
    /// Last effective threshold observed before the fault instant.
    thr_before: Option<Dbm>,
    /// Largest |threshold − pre-fault threshold| observed afterwards.
    excursion: Db,
}

/// What a [`RecoveryMeter`] measured, see [`RecoveryMeter::report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Mean deliveries per bin over the pre-fault steady state.
    pub baseline_per_bin: f64,
    /// Smallest post-fault bin (the dip floor), in deliveries per bin.
    pub dip_per_bin: u64,
    /// Time from the fault instant until the first bin back at ≥ 90% of
    /// the baseline; `None` when goodput never recovered in-run.
    pub time_to_recover: Option<SimDuration>,
    /// Largest post-fault CCA-threshold deviation from the pre-fault
    /// value (dB; zero when thresholds never moved or were never seen).
    pub threshold_excursion: Db,
}

/// Recovery declared at the first post-fault bin reaching this fraction
/// of the pre-fault baseline.
const RECOVERY_FRACTION: f64 = 0.9;

impl RecoveryMeter {
    /// A meter for `link`, bucketing goodput into `bin`-sized bins and
    /// splitting pre/post at `fault_at`. Bins inside `warmup` are
    /// excluded from the baseline (the DCN initializing phase is not
    /// steady state). A zero `bin` is clamped to one nanosecond.
    pub fn new(link: usize, bin: SimDuration, fault_at: SimTime, warmup: SimDuration) -> Self {
        RecoveryMeter {
            link,
            bin: bin.max(SimDuration::from_nanos(1)),
            fault_at,
            warmup,
            bins: Vec::new(),
            thr_before: None,
            excursion: Db::ZERO,
        }
    }

    /// Non-duplicate deliveries per bin, from run start.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    fn bin_index(&self, at: SimTime) -> usize {
        (at.saturating_since(SimTime::ZERO).as_nanos() / self.bin.as_nanos()) as usize
    }

    /// Summarizes the run recorded so far.
    pub fn report(&self) -> RecoveryReport {
        let first_steady = self.bin_index(SimTime::ZERO + self.warmup);
        let fault_bin = self.bin_index(self.fault_at);
        let pre: &[u64] = self
            .bins
            .get(first_steady..fault_bin.min(self.bins.len()))
            .unwrap_or(&[]);
        let baseline = if pre.is_empty() {
            0.0
        } else {
            pre.iter().sum::<u64>() as f64 / pre.len() as f64
        };
        let post_start = (fault_bin + 1).min(self.bins.len());
        let post: &[u64] = self.bins.get(post_start..).unwrap_or(&[]);
        let dip = post.iter().copied().min().unwrap_or(0);
        let time_to_recover = post
            .iter()
            .position(|&b| b as f64 >= RECOVERY_FRACTION * baseline)
            .map(|i| {
                // Recovered by the end of that bin.
                let bin_end =
                    SimDuration::from_nanos((post_start + i + 1) as u64 * self.bin.as_nanos());
                (SimTime::ZERO + bin_end).saturating_since(self.fault_at)
            });
        RecoveryReport {
            baseline_per_bin: baseline,
            dip_per_bin: dip,
            time_to_recover,
            threshold_excursion: self.excursion,
        }
    }
}

impl SimObserver for RecoveryMeter {
    fn wants_thresholds(&self) -> bool {
        true
    }

    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        if info.link != self.link || info.outcome != TxOutcome::Received || info.duplicate {
            return;
        }
        let idx = self.bin_index(info.start);
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] += 1;
    }

    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        if sample.link != self.link {
            return;
        }
        if sample.at < self.fault_at {
            self.thr_before = Some(sample.threshold);
        } else if let Some(before) = self.thr_before {
            let dev = sample.threshold - before;
            self.excursion = self.excursion.max(Db::new(dev.value().abs()));
        }
    }
}

/// The engine's observer fan-out: built-in sinks plus external plugins.
///
/// Built-ins are concrete fields (static dispatch on the hot path);
/// externals are the caller's `&mut dyn SimObserver` slice. A shard
/// rank's engine also carries its boundary-note relay as a built-in, so
/// a checkpoint taken mid-rank can read the rank's note log. The
/// `wants_trace`/`wants_thresholds` capabilities and the checkpoint
/// cadence are sampled once at construction.
pub(crate) struct ObserverSet<'o, 'e> {
    pub(crate) metrics: MetricsCollector,
    pub(crate) trace: Option<TraceRecorder>,
    pub(crate) timeline: Option<TimelineRecorder>,
    pub(crate) relay: Option<RelayObserver>,
    externals: &'o mut [&'e mut dyn SimObserver],
    wants_trace: bool,
    wants_thresholds: bool,
    checkpoint_every: u64,
}

impl<'o, 'e> ObserverSet<'o, 'e> {
    pub(crate) fn new(
        sc: &Scenario,
        links: Vec<LinkMetrics>,
        externals: &'o mut [&'e mut dyn SimObserver],
    ) -> Self {
        let wants_trace = sc.record_trace || externals.iter().any(|o| o.wants_trace());
        let wants_thresholds = externals.iter().any(|o| o.wants_thresholds());
        let checkpoint_every = checkpoint_every(externals);
        ObserverSet {
            metrics: MetricsCollector::new(links, sc.record_error_records),
            trace: sc.record_trace.then(TraceRecorder::new),
            timeline: sc.record_timeline.then(TimelineRecorder::new),
            relay: None,
            externals,
            wants_trace,
            wants_thresholds,
            checkpoint_every,
        }
    }

    /// Attaches a shard rank's boundary-note relay, before the rank's
    /// engine handles its first event.
    pub(crate) fn attach_relay(&mut self, relay: RelayObserver) {
        self.wants_trace |= relay.wants_trace();
        self.wants_thresholds |= relay.wants_thresholds();
        self.relay = Some(relay);
    }

    /// Whether any sink consumes threshold-change samples.
    pub(crate) fn wants_thresholds(&self) -> bool {
        self.wants_thresholds
    }

    /// The smallest checkpoint cadence any external asks for.
    pub(crate) fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    pub(crate) fn event(&mut self, now: SimTime, ev: &Event) {
        if let Some(r) = &mut self.relay {
            r.on_event(now, ev);
        }
        for o in self.externals.iter_mut() {
            o.on_event(now, ev);
        }
    }

    /// Builds and fans out a trace record, when anything wants traces.
    pub(crate) fn trace_kind(&mut self, at: SimTime, kind: TraceKind) {
        if !self.wants_trace {
            return;
        }
        let record = TraceRecord { at, kind };
        if let Some(t) = &mut self.trace {
            t.on_trace(&record);
        }
        if let Some(r) = &mut self.relay {
            r.on_trace(&record);
        }
        for o in self.externals.iter_mut() {
            o.on_trace(&record);
        }
    }

    pub(crate) fn tx_start(&mut self, info: &TxStartInfo) {
        self.metrics.on_tx_start(info);
        if let Some(r) = &mut self.relay {
            r.on_tx_start(info);
        }
        for o in self.externals.iter_mut() {
            o.on_tx_start(info);
        }
    }

    pub(crate) fn tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.metrics.on_tx_outcome(info);
        if let Some(t) = &mut self.timeline {
            t.on_tx_outcome(info);
        }
        if let Some(r) = &mut self.relay {
            r.on_tx_outcome(info);
        }
        for o in self.externals.iter_mut() {
            o.on_tx_outcome(info);
        }
    }

    pub(crate) fn abandon(&mut self, link: usize, measured: bool) {
        self.metrics.on_abandon(link, measured);
        if let Some(r) = &mut self.relay {
            r.on_abandon(link, measured);
        }
        for o in self.externals.iter_mut() {
            o.on_abandon(link, measured);
        }
    }

    pub(crate) fn threshold_change(
        &mut self,
        node: usize,
        link: usize,
        threshold: Dbm,
        at: SimTime,
    ) {
        let sample = ThresholdSample {
            node,
            link,
            threshold,
            at,
        };
        if let Some(r) = &mut self.relay {
            r.on_threshold_change(&sample);
        }
        for o in self.externals.iter_mut() {
            o.on_threshold_change(&sample);
        }
    }

    pub(crate) fn power_sample(&mut self, sample: &PowerSample) {
        if let Some(r) = &mut self.relay {
            r.on_power_sample(sample);
        }
        for o in self.externals.iter_mut() {
            o.on_power_sample(sample);
        }
    }

    pub(crate) fn run_end(&mut self, result: &SimResult) {
        for o in self.externals.iter_mut() {
            o.on_run_end(result);
        }
    }

    /// Hands one checkpoint of the live run to every external.
    pub(crate) fn checkpoint(&mut self, events: u64, snapshot: &str) {
        for o in self.externals.iter_mut() {
            o.on_checkpoint(events, snapshot);
        }
    }

    /// Drains the built-in collectors for [`SimResult`] assembly.
    pub(crate) fn take_collected(
        &mut self,
    ) -> (Vec<LinkMetrics>, Vec<TimelineRecord>, Vec<TraceRecord>) {
        (
            std::mem::take(&mut self.metrics).into_links(),
            self.timeline
                .take()
                .map(TimelineRecorder::into_records)
                .unwrap_or_default(),
            self.trace
                .take()
                .map(TraceRecorder::into_records)
                .unwrap_or_default(),
        )
    }
}

/// The smallest checkpoint cadence `observers` ask for (`u64::MAX`: none).
pub(crate) fn checkpoint_every(observers: &[&mut dyn SimObserver]) -> u64 {
    observers
        .iter()
        .map(|o| o.checkpoint_every())
        .min()
        .unwrap_or(u64::MAX)
}
