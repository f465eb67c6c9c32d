//! End-to-end engine behavior tests: whole scenarios through the public
//! [`crate::engine::run`] convenience (a serial [`crate::engine::execute`]
//! to completion): saturation, seeding, CCA policies, ACKs, forwarding,
//! and trace/timeline recording.

use crate::engine::run;
use crate::scenario::{NetworkBehavior, Scenario, ThresholdMode, TrafficModel};
use nomc_topology::paper;
use nomc_topology::spectrum::ChannelPlan;
use nomc_units::{Dbm, Megahertz, SimDuration};

fn single_network_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    b.duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1))
        .seed(seed);
    b.build().expect("builder-validated test scenario")
}

#[test]
fn single_network_saturates_plausibly() {
    let result = run(&single_network_scenario(1));
    let tput = result.total_throughput();
    // Two saturated 2 m links on a clean channel: the paper's
    // networks sit in the 230-300 pkt/s range.
    assert!(
        (180.0..320.0).contains(&tput),
        "implausible saturated throughput {tput}"
    );
    // Intra-network CSMA collisions (turnaround window + forced
    // transmissions) cost some frames, but most must get through.
    let prr = result
        .total_prr()
        .expect("saturated links sent frames in the measured window");
    assert!(prr > 0.75, "PRR {prr}");
}

#[test]
fn identical_seeds_reproduce_exactly() {
    let a = run(&single_network_scenario(7));
    let b = run(&single_network_scenario(7));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = run(&single_network_scenario(7));
    let b = run(&single_network_scenario(8));
    assert_ne!(a, b);
}

/// A radio whose CCA-threshold register is not range-limited, so
/// tests can pin the threshold below the noise floor.
fn unclamped_radio() -> nomc_radio::RadioConfig {
    let mut r = nomc_radio::RadioConfig::cc2420();
    r.cca_threshold_range = (Dbm::new(-150.0), Dbm::new(0.0));
    r.rssi = nomc_radio::rssi::RssiRegister::ideal();
    r
}

#[test]
fn blocked_channel_with_drop_policy_sends_nothing() {
    // Threshold below the noise floor reading + DropPacket ⇒ every CCA
    // busy ⇒ all frames dropped.
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    let mut behavior = NetworkBehavior::zigbee_default();
    behavior.threshold = ThresholdMode::Fixed(Dbm::new(-150.0));
    behavior.mac.on_failure = nomc_mac::CcaFailurePolicy::DropPacket;
    b.behavior_all(behavior)
        .radio(unclamped_radio())
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_secs(1));
    let result = run(&b.build().expect("builder-validated test scenario"));
    assert_eq!(result.total_throughput(), 0.0);
    let failures: u64 = result.mac_stats.iter().map(|s| s.access_failures).sum();
    assert!(failures > 0, "drops should be recorded");
}

#[test]
fn transmit_anyway_keeps_a_floor_rate() {
    // Same blocked channel, but the default transmit-anyway policy
    // forces frames out at the backoff-exhaustion rate (~40-60/s per
    // link) — the paper's Fig. 6 left plateau.
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    let mut behavior = NetworkBehavior::zigbee_default();
    behavior.threshold = ThresholdMode::Fixed(Dbm::new(-150.0));
    b.behavior_all(behavior)
        .radio(unclamped_radio())
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1));
    let result = run(&b.build().expect("builder-validated test scenario"));
    let sent_rate: f64 = result
        .links
        .iter()
        .map(|l| l.send_rate(result.measured))
        .sum();
    assert!(
        (40.0..160.0).contains(&sent_rate),
        "forced floor rate {sent_rate}"
    );
    let forced: u64 = result.links.iter().map(|l| l.forced_sent).sum();
    let sent: u64 = result.links.iter().map(|l| l.sent).sum();
    assert_eq!(forced, sent, "every frame was forced");
}

#[test]
fn orthogonal_networks_do_not_interact() {
    // Two networks 9 MHz apart and 4.5 m apart: throughput should be
    // ≈ 2× a single network's.
    let single = run(&single_network_scenario(3)).total_throughput();
    let plan = ChannelPlan::with_count(Megahertz::new(2455.0), Megahertz::new(9.0), 2);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    b.duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1))
        .seed(3);
    let double = run(&b.build().expect("builder-validated test scenario")).total_throughput();
    let ratio = double / single;
    assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
}

#[test]
fn attacker_interval_pacing() {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(3.0), 1);
    let mut deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    deployment.networks[0].links.truncate(1);
    let mut b = Scenario::builder(deployment);
    b.behavior_all(NetworkBehavior::attacker(SimDuration::from_millis(5)))
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1));
    let result = run(&b.build().expect("builder-validated test scenario"));
    let rate = result.links[0].send_rate(result.measured);
    assert!((195.0..205.0).contains(&rate), "interval rate {rate}");
    // Carrier sense disabled: no CCA at all.
    assert_eq!(
        result.mac_stats[0].cca_busy + result.mac_stats[0].cca_clear,
        0
    );
}

#[test]
fn dcn_network_initializes_and_relaxes() {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(8))
        .warmup(SimDuration::from_secs(4));
    let result = run(&b.build().expect("builder-validated test scenario"));
    // On a clean channel DCN should settle near the co-channel peer
    // RSSI (2-2.8 m at 0 dBm ⇒ ≈ −50 ± shadowing), way above −77.
    for &t in &result.final_thresholds {
        assert!(t > Dbm::new(-70.0), "DCN threshold failed to relax: {t}");
    }
    // And throughput must not collapse relative to the fixed design.
    assert!(result.total_throughput() > 150.0);
}

#[test]
fn acknowledged_clean_link_delivers_everything() {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let mut deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    deployment.networks[0].links.truncate(1);
    let mut b = Scenario::builder(deployment);
    let mut behavior = NetworkBehavior::zigbee_default();
    behavior.mac = nomc_mac::CsmaParams {
        acknowledged: true,
        ..nomc_mac::CsmaParams::ieee802154_default()
    };
    b.behavior_all(behavior)
        .duration(SimDuration::from_secs(5))
        .warmup(SimDuration::from_secs(1));
    let result = run(&b.build().expect("builder-validated test scenario"));
    let link = &result.links[0];
    // Clean channel: essentially no retransmissions, no duplicates,
    // nothing abandoned, and throughput close to the unacked link's
    // minus the ACK overhead.
    assert!(link.received > 100, "received {}", link.received);
    assert_eq!(link.abandoned, 0);
    assert!(
        link.retransmissions < link.received / 20,
        "retransmissions {}",
        link.retransmissions
    );
    assert!(link.duplicates <= link.retransmissions);
}

#[test]
fn acknowledged_link_retransmits_under_interference() {
    // A −12 dBm link against a 0 dBm adjacent-channel attacker: CRC
    // failures force retransmissions, and retransmissions recover
    // deliveries that the unacknowledged link loses.
    let build = |acked: bool, seed: u64| {
        let (mut deployment, n, a) = {
            let (d, n, a) =
                paper::fig4_deployment(Megahertz::new(2460.0), Megahertz::new(2.0), Dbm::new(0.0));
            (d, n, a)
        };
        deployment.networks[n].links[0].tx_power = Dbm::new(-12.0);
        let mut b = Scenario::builder(deployment);
        let mut normal = NetworkBehavior::zigbee_default();
        if acked {
            normal.mac = nomc_mac::CsmaParams {
                acknowledged: true,
                ..nomc_mac::CsmaParams::ieee802154_default()
            };
        }
        b.behavior(n, normal)
            .behavior(a, NetworkBehavior::attacker(SimDuration::from_micros(2200)))
            .duration(SimDuration::from_secs(6))
            .warmup(SimDuration::from_secs(1))
            .seed(seed);
        run(&b.build().expect("builder-validated test scenario"))
    };
    let acked = build(true, 3);
    let plain = build(false, 3);
    let acked_link = &acked.links[0];
    let plain_link = &plain.links[0];
    assert!(
        acked_link.retransmissions > 0,
        "interference should force retries"
    );
    // Unique-delivery rate of the acked link should beat the plain
    // link's PRR (retries mask losses).
    let acked_ratio = acked_link.received as f64 / acked.mac_stats[0].enqueued.max(1) as f64;
    let plain_prr = plain_link.prr().unwrap_or(0.0);
    assert!(
        acked_ratio > plain_prr,
        "acked delivery ratio {acked_ratio} vs plain PRR {plain_prr}"
    );
}

#[test]
fn forwarding_chain_relays_deliveries() {
    // Two-hop chain: link 0 (saturated source) delivers to a relay
    // position; link 1 forwards each delivery onward on another
    // channel.
    use nomc_topology::{Deployment, LinkSpec, NetworkSpec, Point};
    let hop0 = NetworkSpec::new(
        Megahertz::new(2458.0),
        vec![LinkSpec::new(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Dbm::new(0.0),
        )],
    );
    let hop1 = NetworkSpec::new(
        Megahertz::new(2461.0), // 3 MHz away: non-orthogonal
        vec![LinkSpec::new(
            Point::new(2.0, 0.1), // colocated with hop0's receiver
            Point::new(4.0, 0.0),
            Dbm::new(0.0),
        )],
    );
    let mut b = Scenario::builder(Deployment::new(vec![hop0, hop1]));
    b.link_traffic(1, TrafficModel::Forward { from_link: 0 })
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_secs(1))
        .seed(9);
    let result = run(&b.build().expect("builder-validated test scenario"));
    let source_delivered = result.links[0].received;
    let forwarded_sent = result.links[1].sent;
    let sink_delivered = result.links[1].received;
    assert!(source_delivered > 100, "source {source_delivered}");
    // The relay forwards (almost) one frame per delivery — boundary
    // effects allow a small mismatch.
    assert!(
        (forwarded_sent as f64) > 0.8 * source_delivered as f64
            && (forwarded_sent as f64) < 1.1 * source_delivered as f64,
        "source {source_delivered} vs forwarded {forwarded_sent}"
    );
    assert!(sink_delivered > 0);
    // With hops only 3 MHz apart, the relay's own transmissions leak
    // into its colocated receiver (ACR 20 dB at ~1 m), costing hop 0
    // some deliveries relative to a lone link — the non-orthogonal
    // relaying trade-off.
    let lone = {
        let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(5.0), 1);
        let mut d = paper::line_deployment(&plan, Dbm::new(0.0));
        d.networks[0].links.truncate(1);
        let mut b = Scenario::builder(d);
        b.duration(SimDuration::from_secs(6))
            .warmup(SimDuration::from_secs(1))
            .seed(9);
        run(&b.build().expect("builder-validated test scenario")).links[0].received
    };
    assert!(
        source_delivered < lone,
        "relay contention should cost something: {source_delivered} vs {lone}"
    );
}

#[test]
fn forwarder_without_credits_stays_silent() {
    use nomc_topology::{Deployment, LinkSpec, NetworkSpec, Point};
    // A forwarding link whose upstream never delivers (no source).
    let upstream = NetworkSpec::new(
        Megahertz::new(2458.0),
        vec![LinkSpec::new(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Dbm::new(0.0),
        )],
    );
    let downstream = NetworkSpec::new(
        Megahertz::new(2467.0),
        vec![LinkSpec::new(
            Point::new(2.0, 0.0),
            Point::new(4.0, 0.0),
            Dbm::new(0.0),
        )],
    );
    let mut b = Scenario::builder(Deployment::new(vec![upstream, downstream]));
    // Upstream paced absurdly slowly: ~0 deliveries in the window.
    b.behavior(
        0,
        NetworkBehavior {
            traffic: TrafficModel::Interval(SimDuration::from_secs(30)),
            ..NetworkBehavior::zigbee_default()
        },
    )
    .link_traffic(1, TrafficModel::Forward { from_link: 0 })
    .duration(SimDuration::from_secs(4))
    .warmup(SimDuration::from_secs(1))
    .seed(10);
    let result = run(&b.build().expect("builder-validated test scenario"));
    assert_eq!(result.links[1].sent, 0, "no credits, no transmissions");
}

#[test]
fn trace_recording() {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1))
        .record_trace(true);
    let result = run(&b.build().expect("builder-validated test scenario"));
    assert!(!result.trace.is_empty());
    let has =
        |pred: fn(&crate::trace::TraceKind) -> bool| result.trace.iter().any(|r| pred(&r.kind));
    assert!(has(|k| matches!(k, crate::trace::TraceKind::Cca { .. })));
    assert!(has(|k| matches!(
        k,
        crate::trace::TraceKind::TxStart { .. }
    )));
    assert!(has(|k| matches!(
        k,
        crate::trace::TraceKind::Outcome { .. }
    )));
    // Chronological order.
    assert!(result.trace.windows(2).all(|w| w[0].at <= w[1].at));
    // And disabled by default.
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.duration(SimDuration::from_secs(2))
        .warmup(SimDuration::from_secs(1));
    assert!(run(&b.build().expect("builder-validated test scenario"))
        .trace
        .is_empty());
}

#[test]
fn timeline_recording() {
    let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
    let deployment = paper::line_deployment(&plan, Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    b.duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_secs(1))
        .record_timeline(true);
    let result = run(&b.build().expect("builder-validated test scenario"));
    assert!(!result.timeline.is_empty());
    for r in &result.timeline {
        assert!(r.end > r.start);
        assert!(r.link < 2);
    }
}
