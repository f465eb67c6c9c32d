//! JSON round-trip tests: every paper configuration survives JSON
//! serialization bit-exactly (the `nomc` CLI depends on this), and old
//! scenario files without the newer optional fields still load.

use nomc_json::{FromJson, Json, ToJson};
use nomc_rngcore::SeedableRng;
use nomc_sim::metrics::TxOutcome;
use nomc_sim::rng::Xoshiro256StarStar;
use nomc_sim::trace::NodeFault;
use nomc_sim::{engine, NetworkBehavior, Scenario, TrafficModel};
use nomc_topology::paper;
use nomc_topology::spectrum::ChannelPlan;
use nomc_units::{Dbm, Megahertz, SimDuration};

fn scenarios() -> Vec<Scenario> {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 5);
    let mut out = Vec::new();

    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default());
    out.push(b.build().unwrap());

    let (d, li) = paper::fig5_deployment(
        Megahertz::new(2464.0),
        Megahertz::new(3.0),
        Dbm::new(-22.0),
        Dbm::new(0.0),
    );
    let mut b = Scenario::builder(d);
    b.behavior(li, NetworkBehavior::attacker(SimDuration::from_millis(3)))
        .record_error_positions(true)
        .record_trace(true);
    out.push(b.build().unwrap());

    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let d = paper::case1_deployment(&mut rng, &plan, 2, (-22.0, 0.0));
    let mut b = Scenario::builder(d);
    let mut beh = NetworkBehavior::zigbee_default();
    beh.mac.acknowledged = true;
    b.behavior_all(beh);
    out.push(b.build().unwrap());

    // A forwarding chain with per-link overrides.
    let d = paper::line_deployment(
        &ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(9.0), 2),
        Dbm::new(0.0),
    );
    let mut b = Scenario::builder(d);
    b.link_traffic(2, TrafficModel::Forward { from_link: 0 });
    out.push(b.build().unwrap());

    out
}

#[test]
fn every_paper_scenario_round_trips_exactly() {
    for (i, sc) in scenarios().into_iter().enumerate() {
        let json = nomc_json::to_string(&sc);
        let back: Scenario = nomc_json::from_str(&json).expect("deserializes");
        assert_eq!(back, sc, "scenario {i} did not round-trip");
    }
}

#[test]
fn serialize_parse_serialize_is_fixpoint() {
    // The CLI writes scenario files with the same codec it reads them
    // with; serialize -> parse -> serialize must be textually stable.
    for (i, sc) in scenarios().into_iter().enumerate() {
        let first = nomc_json::to_string(&sc);
        let reparsed: Scenario = nomc_json::from_str(&first).expect("parses");
        assert_eq!(first, nomc_json::to_string(&reparsed), "scenario {i}");
        let pretty = nomc_json::to_string_pretty(&sc);
        let reparsed: Scenario = nomc_json::from_str(&pretty).expect("parses");
        assert_eq!(
            pretty,
            nomc_json::to_string_pretty(&reparsed),
            "scenario {i} (pretty)"
        );
    }
}

#[test]
fn round_tripped_scenario_simulates_identically() {
    for mut sc in scenarios() {
        sc.duration = SimDuration::from_secs(2);
        sc.warmup = SimDuration::from_millis(500);
        sc.record_trace = false; // keep the comparison light
        let json = nomc_json::to_string(&sc);
        let back: Scenario = nomc_json::from_str(&json).unwrap();
        assert_eq!(engine::run(&sc), engine::run(&back));
    }
}

#[test]
fn legacy_scenario_without_new_fields_loads() {
    // Serialize a current scenario, then strip the fields that were
    // added after the first release (ACK knobs, trace flag, per-link
    // traffic) — an old file must still deserialize with the defaults.
    let sc = &scenarios()[0];
    let mut v = sc.to_json();
    v.as_object_mut().unwrap().remove("record_trace");
    v.as_object_mut().unwrap().remove("link_traffic");
    let Json::Arr(behaviors) = &mut v["behaviors"] else {
        panic!("behaviors array");
    };
    for b in behaviors {
        let mac = b["mac"].as_object_mut().unwrap();
        mac.remove("acknowledged");
        mac.remove("max_frame_retries");
        mac.remove("ack_wait");
    }
    let back = Scenario::from_json(&v).expect("legacy file loads");
    assert!(!back.record_trace);
    assert!(back.link_traffic.is_empty());
    for b in &back.behaviors {
        assert!(!b.mac.acknowledged);
        assert_eq!(b.mac.max_frame_retries, 3);
        assert_eq!(b.mac.ack_wait, SimDuration::from_micros(864));
    }
}

#[test]
fn reports_serialize_for_regression_tooling() {
    use nomc_experiments::report::Report;
    let mut r = Report::new("t", "json smoke", &["a", "b"]);
    r.row(["1", "2"]).note("n");
    let v: nomc_json::Json = r.to_json_string().parse().unwrap();
    assert_eq!(v["columns"][1], "b");
    assert_eq!(v["notes"][0], "n");
}

/// Asserts that `value` encodes to exactly `text` and that `text`
/// decodes back to `value`.
fn pin<T>(value: T, text: &str)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    assert_eq!(nomc_json::to_string(&value), text, "encoding {value:?}");
    let back: T = nomc_json::from_str(text).unwrap_or_else(|e| panic!("decoding {text}: {e}"));
    assert_eq!(back, value, "decoding {text}");
}

/// One row per variant of every public enum the wire formats carry:
/// scenario files, golden traces, snapshots and sweep journals all
/// depend on these exact spellings.
#[test]
fn every_enum_variant_has_pinned_bytes() {
    use nomc_core::{DcnConfig, DcnPhase};
    use nomc_experiments::sweep::report::{AttemptOutcome, MemberMetrics};
    use nomc_mac::{CcaFailurePolicy, MacPhase};
    use nomc_phy::{BerModel, CaptureModel, FreeSpace, LogDistance};
    use nomc_sim::events::Event;
    use nomc_sim::metrics::TxOutcome;
    use nomc_sim::scenario::{PathLossModel, ThresholdMode};
    use nomc_sim::trace::TraceKind;
    use nomc_units::{Db, Meters, Seconds};

    pin(MacPhase::Idle, r#""idle""#);
    pin(MacPhase::InBackoff, r#""in_backoff""#);
    pin(MacPhase::AwaitingCca, r#""awaiting_cca""#);
    pin(MacPhase::Transmitting, r#""transmitting""#);
    pin(MacPhase::AwaitingAck, r#""awaiting_ack""#);

    pin(CcaFailurePolicy::TransmitAnyway, r#""TransmitAnyway""#);
    pin(CcaFailurePolicy::DropPacket, r#""DropPacket""#);

    pin(
        CaptureModel::ieee802154(),
        r#"{"Ieee802154":{"co_channel_tolerance":0.5}}"#,
    );
    pin(
        CaptureModel::dot11b_like(),
        r#"{"Dot11bLike":{"decode_band":15.0}}"#,
    );

    pin(BerModel::Oqpsk802154, r#""Oqpsk802154""#);
    pin(BerModel::Dsss80211b, r#""Dsss80211b""#);

    pin(DcnPhase::Initializing, r#""initializing""#);
    pin(DcnPhase::Updating, r#""updating""#);

    pin(Event::PacketReady(1), r#"{"PacketReady":1}"#);
    pin(Event::BackoffExpired(2), r#"{"BackoffExpired":2}"#);
    pin(Event::CcaDone(3), r#"{"CcaDone":3}"#);
    pin(Event::TxStart(4), r#"{"TxStart":4}"#);
    pin(Event::TxEnd(5, 50), r#"{"TxEnd":[5,50]}"#);
    pin(Event::SyncDone(6, 60), r#"{"SyncDone":[6,60]}"#);
    pin(Event::PowerSense(7), r#"{"PowerSense":7}"#);
    pin(Event::ProviderTick(8), r#"{"ProviderTick":8}"#);
    pin(Event::AckStart(9, 90), r#"{"AckStart":[9,90]}"#);
    pin(Event::AckTimeout(10, 100), r#"{"AckTimeout":[10,100]}"#);
    pin(Event::NodeDown(11), r#"{"NodeDown":11}"#);
    pin(Event::NodeUp(12), r#"{"NodeUp":12}"#);
    pin(Event::CcaStuckStart(13), r#"{"CcaStuckStart":13}"#);
    pin(Event::CcaStuckEnd(14), r#"{"CcaStuckEnd":14}"#);

    pin(TxOutcome::Received, r#""received""#);
    pin(TxOutcome::CrcFailed, r#""crc_failed""#);
    pin(TxOutcome::SyncMissed, r#""sync_missed""#);
    pin(TxOutcome::ReceiverBusy, r#""receiver_busy""#);

    pin(
        TraceKind::Cca {
            node: 1,
            sensed_dbm: Dbm::new(-80.5),
            threshold_dbm: Dbm::new(-77.0),
            clear: true,
        },
        r#"{"Cca":{"node":1,"sensed_dbm":-80.5,"threshold_dbm":-77.0,"clear":true}}"#,
    );
    pin(
        TraceKind::TxStart {
            node: 2,
            tx: 20,
            seq: 3,
            forced: false,
        },
        r#"{"TxStart":{"node":2,"tx":20,"seq":3,"forced":false}}"#,
    );
    for (outcome, spelling) in OUTCOMES {
        pin(
            TraceKind::Outcome {
                tx: 30,
                receiver: 4,
                outcome,
            },
            &format!(r#"{{"Outcome":{{"tx":30,"receiver":4,"outcome":"{spelling}"}}}}"#),
        );
    }
    pin(
        TraceKind::AckDelivered { tx: 40, sender: 5 },
        r#"{"AckDelivered":{"tx":40,"sender":5}}"#,
    );
    pin(
        TraceKind::AckTimedOut { tx: 41, sender: 6 },
        r#"{"AckTimedOut":{"tx":41,"sender":6}}"#,
    );
    for (fault, spelling) in FAULTS {
        pin(
            TraceKind::Fault { node: 7, fault },
            &format!(r#"{{"Fault":{{"node":7,"fault":"{spelling}"}}}}"#),
        );
    }

    pin(
        PathLossModel::FreeSpace(FreeSpace::new(Megahertz::new(2460.0))),
        r#"{"FreeSpace":{"freq_mhz":2460.0,"min_distance":0.1}}"#,
    );
    pin(
        PathLossModel::LogDistance(LogDistance::new(Db::new(40.0), Meters::new(1.0), 3.0)),
        r#"{"LogDistance":{"reference_loss":40.0,"reference_distance":1.0,"exponent":3.0}}"#,
    );

    let dcn = r#"{"t_init":1000000000,"power_sense_interval":1000000,"t_update":3000000000,"safety_margin":0.0,"watchdog_silence":0}"#;
    pin(ThresholdMode::Fixed(Dbm::new(-77.0)), r#"{"Fixed":-77.0}"#);
    pin(
        ThresholdMode::Dcn(DcnConfig::paper_default()),
        &format!(r#"{{"Dcn":{dcn}}}"#),
    );
    pin(
        ThresholdMode::DcnOracle(DcnConfig::paper_default()),
        &format!(r#"{{"DcnOracle":{dcn}}}"#),
    );
    pin(
        ThresholdMode::FixedOracle(Dbm::new(-85.0)),
        r#"{"FixedOracle":-85.0}"#,
    );

    pin(TrafficModel::Saturated, r#""Saturated""#);
    pin(
        TrafficModel::Interval(SimDuration::from_millis(3)),
        r#"{"Interval":3000000}"#,
    );
    pin(
        TrafficModel::Forward { from_link: 2 },
        r#"{"Forward":{"from_link":2}}"#,
    );

    pin(
        AttemptOutcome::Ok(MemberMetrics {
            throughput: 250.5,
            prr: Some(0.75),
            events: 1200,
            measured_secs: Seconds::new(4.0),
        }),
        r#"{"Ok":{"throughput":250.5,"prr":0.75,"events":1200,"measured_secs":4.0}}"#,
    );
    pin(
        AttemptOutcome::Failed("boom".to_string()),
        r#"{"Failed":"boom"}"#,
    );
    pin(
        AttemptOutcome::TimedOut { events: 99 },
        r#"{"TimedOut":{"events":99}}"#,
    );
}

/// Every frame outcome a trace can carry, with its wire spelling.
const OUTCOMES: [(TxOutcome, &str); 4] = [
    (TxOutcome::Received, "received"),
    (TxOutcome::CrcFailed, "crc_failed"),
    (TxOutcome::SyncMissed, "sync_missed"),
    (TxOutcome::ReceiverBusy, "receiver_busy"),
];

/// Every fault a trace can carry, with its wire spelling.
const FAULTS: [(NodeFault, &str); 4] = [
    (NodeFault::Down, "down"),
    (NodeFault::Up, "up"),
    (NodeFault::CcaStuck, "cca_stuck"),
    (NodeFault::CcaReleased, "cca_released"),
];
