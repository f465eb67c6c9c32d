//! Fig. 3 — the collision-generation methodology: an "attacker" paced at
//! full channel occupancy guarantees that every packet of the normal
//! sender collides. This module renders a short timeline as text,
//! demonstrating the mechanism the CPRR experiments (Fig. 4) rely on.

use crate::experiments::common;
use crate::report::Report;
use crate::ExpConfig;
use nomc_sim::{engine, NetworkBehavior, Scenario, TrafficModel};
use nomc_topology::paper;
use nomc_units::{Dbm, Megahertz, SimDuration};

/// Builds the two-link collision scenario at the given CFD.
pub fn scenario(cfd: f64, seed: u64) -> Scenario {
    let (deployment, normal_idx, attacker_idx) =
        paper::fig4_deployment(Megahertz::new(2460.0), Megahertz::new(cfd), Dbm::new(0.0));
    let mut b = Scenario::builder(deployment);
    let frame = nomc_radio::frame::FrameSpec::default_data_frame();
    b.behavior(
        normal_idx,
        NetworkBehavior {
            traffic: TrafficModel::Interval(SimDuration::from_millis(9)),
            ..NetworkBehavior::attacker(SimDuration::from_millis(9))
        },
    )
    .behavior(
        attacker_idx,
        NetworkBehavior::attacker(common::attacker_interval(frame)),
    )
    .record_timeline(true)
    .seed(seed);
    b.build().expect("valid Fig. 3/4 scenario")
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let mut sc = scenario(3.0, cfg.seeds[0]);
    sc.duration = SimDuration::from_millis(2200);
    sc.warmup = SimDuration::from_millis(2000);
    let result = engine::run(&sc);
    let mut report = Report::new(
        "fig03",
        "Collision timeline: attacker occupies the adjacent channel continuously",
        &["t_start (ms)", "t_end (ms)", "link", "collided", "outcome"],
    );
    for rec in result.timeline.iter().take(14) {
        report.row([
            format!("{:.2}", rec.start.as_secs_f64() * 1e3),
            format!("{:.2}", rec.end.as_secs_f64() * 1e3),
            if rec.link == 0 { "normal" } else { "attacker" }.to_string(),
            if rec.collided { "yes" } else { "no" }.to_string(),
            format!("{:?}", rec.outcome),
        ]);
    }
    let normal_collided = result
        .timeline
        .iter()
        .filter(|r| r.link == 0)
        .filter(|r| r.collided)
        .count();
    let normal_total = result.timeline.iter().filter(|r| r.link == 0).count();
    report.note(format!(
        "{normal_collided}/{normal_total} normal-sender packets collided in the \
         window — the attacker's pacing makes collisions unconditional, as the \
         paper's Fig. 3 illustrates"
    ));
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;

    /// Fraction of normal-sender packets collided.
    fn collision_coverage(result: &nomc_sim::SimResult) -> f64 {
        let l = &result.links[0];
        if l.sent == 0 {
            return 0.0;
        }
        l.collided as f64 / l.sent as f64
    }

    #[test]
    fn every_normal_packet_collides() {
        let cfg = ExpConfig::quick();
        let results = runner::run_seeds(&cfg, |s| scenario(3.0, s));
        for r in &results {
            assert!(
                collision_coverage(r) > 0.99,
                "collision coverage {}",
                collision_coverage(r)
            );
        }
    }

    #[test]
    fn timeline_report_renders() {
        let cfg = ExpConfig::quick();
        let report = &run(&cfg)[0];
        assert!(!report.rows.is_empty());
        assert!(report.rows.iter().any(|r| r[2] == "attacker"));
    }
}
