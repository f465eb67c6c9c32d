//! Cross-crate integration tests: full simulations spanning topology,
//! PHY, MAC, DCN and metrics.

use nomc_sim::{engine, NetworkBehavior, Scenario, ThresholdMode};
use nomc_topology::{paper, spectrum::ChannelPlan};
use nomc_units::{Dbm, Megahertz, SimDuration};

fn small_line(count: usize, cfd: f64) -> nomc_topology::Deployment {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(cfd), count);
    paper::line_deployment(&plan, Dbm::new(0.0))
}

fn quick(builder: &mut nomc_sim::ScenarioBuilder) -> Scenario {
    builder
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(2))
        .build()
        .expect("valid scenario")
}

#[test]
fn full_run_is_deterministic_across_invocations() {
    let mut b = Scenario::builder(small_line(3, 3.0));
    b.behavior_all(NetworkBehavior::dcn_default()).seed(99);
    let sc = quick(&mut b);
    let a = engine::run(&sc);
    let b2 = engine::run(&sc);
    assert_eq!(a, b2);
}

#[test]
fn metric_invariants_hold() {
    for seed in [1u64, 2, 3] {
        let mut b = Scenario::builder(small_line(3, 3.0));
        b.seed(seed).record_timeline(true);
        let result = engine::run(&quick(&mut b));
        for link in &result.links {
            assert!(link.received <= link.sent, "received > sent");
            assert!(link.collided_received <= link.collided);
            assert!(link.collided <= link.sent);
            assert!(link.forced_sent <= link.sent);
            assert!(
                link.received + link.crc_failed + link.sync_missed + link.receiver_busy
                    <= link.sent,
                "outcome counters exceed sent"
            );
            for rec in &link.error_records {
                assert!(rec.error_bits <= rec.total_bits);
                assert!(rec.error_bits > 0, "error record without errors");
            }
        }
        // Timeline entries are well-formed and within the run.
        for t in &result.timeline {
            assert!(t.end > t.start);
        }
        // Per-network totals must add up to the links.
        let total_links: u64 = result.links.iter().map(|l| l.received).sum();
        let total_networks: u64 = result.networks().iter().map(|n| n.totals.received).sum();
        assert_eq!(total_links, total_networks);
    }
}

#[test]
fn dcn_never_collapses_a_clean_network() {
    // A lone network gains nothing from DCN, but must not be harmed by it.
    let mut b = Scenario::builder(small_line(1, 5.0));
    b.seed(5);
    let fixed = engine::run(&quick(&mut b));
    let mut b = Scenario::builder(small_line(1, 5.0));
    b.behavior_all(NetworkBehavior::dcn_default()).seed(5);
    let dcn = engine::run(&quick(&mut b));
    let ratio = dcn.total_throughput() / fixed.total_throughput();
    assert!(
        (0.85..=1.2).contains(&ratio),
        "DCN changed a clean network by {ratio}"
    );
}

#[test]
fn dcn_relaxes_thresholds_under_interference() {
    let mut b = Scenario::builder(small_line(5, 3.0));
    b.behavior_all(NetworkBehavior::dcn_default()).seed(6);
    let result = engine::run(&quick(&mut b));
    // After initialization + updates, senders should sit near their peer
    // RSSI (−50 ± shadow), far above −77.
    let relaxed = result
        .final_thresholds
        .iter()
        .filter(|t| t.value() > -70.0)
        .count();
    assert!(
        relaxed >= result.final_thresholds.len() / 2,
        "most thresholds should relax, got {:?}",
        result.final_thresholds
    );
}

#[test]
fn oracle_classifier_runs_end_to_end() {
    let mut b = Scenario::builder(small_line(5, 3.0));
    let mut behavior = NetworkBehavior::zigbee_default();
    behavior.threshold = ThresholdMode::FixedOracle(Dbm::new(-77.0));
    b.behavior_all(behavior).seed(7);
    let oracle = engine::run(&quick(&mut b));
    let mut b = Scenario::builder(small_line(5, 3.0));
    b.seed(7);
    let plain = engine::run(&quick(&mut b));
    // The oracle ignores inter-channel energy, so it cannot send less
    // than the plain fixed design.
    assert!(
        oracle.total_throughput() >= 0.95 * plain.total_throughput(),
        "oracle {} vs plain {}",
        oracle.total_throughput(),
        plain.total_throughput()
    );
}

#[test]
fn error_positions_flow_into_recovery() {
    // Severe-interference configuration: −22 dBm link vs 0 dBm attacker
    // on an adjacent channel.
    let (deployment, _, attacker_idx) =
        paper::fig4_deployment(Megahertz::new(2460.0), Megahertz::new(2.0), Dbm::new(0.0));
    let mut deployment = deployment;
    deployment.networks[0].links[0].tx_power = Dbm::new(-22.0);
    let mut b = Scenario::builder(deployment);
    b.behavior(
        attacker_idx,
        NetworkBehavior::attacker(SimDuration::from_millis(2)),
    )
    .record_error_positions(true)
    .seed(8);
    let result = engine::run(&quick(&mut b));
    let link = &result.links[0];
    assert!(
        link.crc_failed > 0,
        "severe interference must corrupt frames"
    );
    assert!(!link.error_records.is_empty());
    for rec in &link.error_records {
        let positions = rec.positions.as_ref().expect("positions recorded");
        assert_eq!(positions.len(), rec.error_bits as usize);
    }
}

#[test]
fn cca_failure_policies_differ_when_blocked() {
    let mut radio = nomc_radio::RadioConfig::cc2420();
    radio.cca_threshold_range = (Dbm::new(-150.0), Dbm::new(0.0));
    radio.rssi = nomc_radio::rssi::RssiRegister::ideal();

    let mut b = Scenario::builder(small_line(1, 5.0));
    let mut behavior = NetworkBehavior::zigbee_default();
    behavior.threshold = ThresholdMode::Fixed(Dbm::new(-150.0));
    behavior.mac.on_failure = nomc_mac::CcaFailurePolicy::DropPacket;
    b.behavior_all(behavior.clone())
        .radio(radio.clone())
        .seed(9);
    let dropped = engine::run(&quick(&mut b));
    assert_eq!(dropped.total_throughput(), 0.0);

    behavior.mac.on_failure = nomc_mac::CcaFailurePolicy::TransmitAnyway;
    let mut b = Scenario::builder(small_line(1, 5.0));
    b.behavior_all(behavior).radio(radio).seed(9);
    let forced = engine::run(&quick(&mut b));
    assert!(forced.total_throughput() > 20.0);
}
