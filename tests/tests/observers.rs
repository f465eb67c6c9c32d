//! End-to-end tests of the pluggable observer layer.
//!
//! The contract under test: observers are write-only sinks — attaching
//! any combination of them leaves the [`SimResult`] bit-identical —
//! and the built-in sinks reproduce exactly what the engine's inline
//! collectors used to record (streamed JSONL == buffered trace,
//! streamed energy == post-hoc [`nomc_sim::energy::transmitter_energy`]).

use nomc_sim::energy::transmitter_energy;
use nomc_sim::runtime::observer::{
    PowerSample, SimObserver, ThresholdSample, TxOutcomeInfo, TxStartInfo,
};
use nomc_sim::{engine, trace, EnergyMeter, JsonlTracer, NetworkBehavior, RunSpec, Scenario};
use nomc_topology::paper;
use nomc_topology::spectrum::ChannelPlan;
use nomc_units::{Dbm, Megahertz, SimDuration};

/// One saturated two-link network, 2 simulated seconds.
fn small_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(500))
        .seed(seed);
    b.build().expect("builder-validated scenario")
}

/// A DCN network (exercises power sensing + threshold adaptation).
fn dcn_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_secs(1))
        .seed(seed);
    b.build().expect("builder-validated scenario")
}

/// An interference-heavy scenario that produces CRC failures (and with
/// them, per-packet bit-error records).
fn lossy_scenario(seed: u64, record_error_records: bool) -> Scenario {
    let (mut deployment, n, a) =
        paper::fig4_deployment(Megahertz::new(2460.0), Megahertz::new(2.0), Dbm::new(0.0));
    deployment.networks[n].links[0].tx_power = Dbm::new(-12.0);
    let mut b = Scenario::builder(deployment);
    b.behavior(a, NetworkBehavior::attacker(SimDuration::from_micros(2200)))
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_secs(1))
        .seed(seed)
        .record_error_records(record_error_records);
    b.build().expect("builder-validated scenario")
}

#[derive(Default)]
struct Counting {
    events: u64,
    tx_starts: u64,
    tx_outcomes: u64,
    power_samples: u64,
    threshold_changes: u64,
    outcome_monotonic: bool,
    last_outcome_end: Option<nomc_units::SimTime>,
}

impl SimObserver for Counting {
    fn wants_thresholds(&self) -> bool {
        true
    }

    fn on_event(&mut self, _now: nomc_units::SimTime, _event: &nomc_sim::events::Event) {
        self.events += 1;
    }

    fn on_tx_start(&mut self, _info: &TxStartInfo) {
        self.tx_starts += 1;
    }

    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.tx_outcomes += 1;
        if let Some(prev) = self.last_outcome_end {
            if info.end < prev {
                self.outcome_monotonic = false;
            }
        } else {
            self.outcome_monotonic = true;
        }
        self.last_outcome_end = Some(info.end);
    }

    fn on_power_sample(&mut self, _sample: &PowerSample) {
        self.power_samples += 1;
    }

    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        self.threshold_changes += 1;
        assert!(
            sample.node.is_multiple_of(2),
            "only senders adapt thresholds"
        );
    }
}

/// `sc` run serially to completion with `observers` attached.
fn observed_run(sc: &Scenario, observers: &mut [&mut dyn SimObserver]) -> nomc_sim::SimResult {
    engine::execute(sc, &RunSpec::default(), observers)
        .into_done()
        .expect("a run without a pause target finishes")
        .result
}

#[test]
fn observers_do_not_perturb_the_simulation() {
    let baseline = engine::run(&dcn_scenario(11));
    let mut counting = Counting::default();
    let mut meter = EnergyMeter::new();
    let mut sink = Vec::new();
    let mut tracer = JsonlTracer::new(&mut sink);
    let observed = observed_run(
        &dcn_scenario(11),
        &mut [&mut counting, &mut meter, &mut tracer],
    );
    assert_eq!(
        baseline, observed,
        "write-only observers must leave the result bit-identical"
    );
    // Even though the scenario has record_trace off, the tracer's
    // wants_trace() turned record construction on for externals only.
    assert!(observed.trace.is_empty());
    assert!(tracer.records() > 0);
}

#[test]
fn counting_observer_sees_every_notification() {
    let mut counting = Counting::default();
    let result = observed_run(&dcn_scenario(5), &mut [&mut counting]);
    assert_eq!(counting.events, result.events, "one on_event per dispatch");
    let sent: u64 = result.links.iter().map(|l| l.sent).sum();
    assert!(
        counting.tx_starts >= sent,
        "TxStartInfo covers at least every measured frame: {} < {sent}",
        counting.tx_starts
    );
    assert!(counting.tx_outcomes > 0);
    assert!(
        counting.tx_outcomes <= counting.tx_starts,
        "every outcome belongs to a started frame"
    );
    assert!(counting.outcome_monotonic, "outcomes arrive in end order");
    // DCN initializing phase samples power; relaxing adapts thresholds.
    assert!(counting.power_samples > 0, "DCN must power-sense");
    assert!(counting.threshold_changes > 0, "DCN must adapt thresholds");
}

#[test]
fn jsonl_tracer_streams_the_exact_buffered_trace() {
    // Buffered reference: record_trace through the scenario.
    let mut sc = small_scenario(3);
    sc.record_trace = true;
    let buffered = engine::run(&sc);
    let reference = trace::to_jsonl(&buffered.trace);
    // Streaming: same scenario, but the trace goes through the sink.
    let mut bytes = Vec::new();
    let mut tracer = JsonlTracer::new(&mut bytes);
    let streamed = observed_run(&sc, &mut [&mut tracer]);
    let records = tracer.finish().expect("in-memory sink cannot fail");
    assert_eq!(records as usize, buffered.trace.len());
    assert_eq!(
        String::from_utf8(bytes).expect("tracer emits UTF-8"),
        reference,
        "streamed JSONL must equal the buffered trace byte for byte"
    );
    assert_eq!(buffered, streamed);
}

#[test]
fn energy_meter_matches_post_hoc_accounting() {
    let sc = small_scenario(7);
    let airtime = sc.frame.airtime();
    let mut meter = EnergyMeter::new();
    let result = observed_run(&sc, &mut [&mut meter]);
    assert_eq!(meter.estimates().len(), result.tx_powers.len());
    for (i, est) in meter.estimates().iter().enumerate() {
        let reference = transmitter_energy(
            &result.mac_stats[i],
            airtime,
            result.tx_powers[i],
            result.measured,
        );
        assert_eq!(est.tx_time, reference.tx_time, "link {i} tx_time");
        assert_eq!(est.rx_time, reference.rx_time, "link {i} rx_time");
        assert!(
            (est.total_mj - reference.total_mj).abs() < 1e-9,
            "link {i}: streamed {} vs post-hoc {}",
            est.total_mj,
            reference.total_mj
        );
        assert!(est.total_mj > 0.0);
    }
}

#[test]
fn error_record_collection_can_be_opted_out() {
    let with = engine::run(&lossy_scenario(3, true));
    let without = engine::run(&lossy_scenario(3, false));
    assert!(
        !with.links[0].error_records.is_empty(),
        "interference scenario must produce bit-error records"
    );
    assert!(
        without.links.iter().all(|l| l.error_records.is_empty()),
        "opted-out run must collect no records"
    );
    // Everything else is bit-identical: collection is observation only.
    let mut stripped = with.clone();
    for l in &mut stripped.links {
        l.error_records.clear();
    }
    assert_eq!(stripped, without);
}

#[test]
fn run_with_empty_slice_equals_run() {
    let a = engine::run(&small_scenario(21));
    let b = observed_run(&small_scenario(21), &mut []);
    assert_eq!(a, b);
}

/// Regression guard for the forwarding + observer interaction: outcome
/// notifications carry the right link for multi-network scenarios.
#[test]
fn outcome_links_are_consistent_with_metrics() {
    struct PerLink(Vec<u64>);
    impl SimObserver for PerLink {
        fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
            if info.measured && info.outcome == nomc_sim::metrics::TxOutcome::Received {
                if self.0.len() <= info.link {
                    self.0.resize(info.link + 1, 0);
                }
                if !info.duplicate {
                    self.0[info.link] += 1;
                }
            }
        }
    }
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_millis(500))
        .seed(13);
    let sc = b.build().expect("builder-validated scenario");
    let mut per_link = PerLink(Vec::new());
    let result = observed_run(&sc, &mut [&mut per_link]);
    per_link.0.resize(result.links.len(), 0);
    for (i, l) in result.links.iter().enumerate() {
        assert_eq!(
            per_link.0[i], l.received,
            "observer-counted deliveries diverge on link {i}"
        );
    }
}
