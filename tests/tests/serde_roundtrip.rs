//! JSON round-trip tests: every paper configuration survives JSON
//! serialization bit-exactly (the `nomc` CLI depends on this), and old
//! scenario files without the newer optional fields still load.

use nomc_json::{FromJson, Json, ToJson};
use nomc_rngcore::SeedableRng;
use nomc_sim::rng::Xoshiro256StarStar;
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
