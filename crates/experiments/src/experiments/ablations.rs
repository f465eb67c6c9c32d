//! Ablations of the reproduction's own design choices (DESIGN.md §6) and
//! of DCN's parameters beyond what the paper sweeps.

use crate::experiments::{common, fig03};
use crate::report::{f1, pct, Report};
use crate::runner;
use crate::ExpConfig;
use nomc_core::DcnConfig;
use nomc_phy::Shadowing;
use nomc_radio::RadioConfig;
use nomc_sim::{Scenario, ThresholdMode};
use nomc_units::{Db, Dbm, SimDuration};

/// Ablation: per-packet shadowing σ. Without it the O-QPSK BER cliff
/// makes CPRR a step function of CFD; the paper's smooth measured curve
/// (Fig. 4) needs σ ≈ 4 dB.
pub fn shadowing(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_shadowing",
        "CPRR vs CFD under different shadowing σ",
        &["σ (dB)", "CPRR @ 1 MHz", "CPRR @ 2 MHz", "CPRR @ 3 MHz"],
    );
    for sigma in [0.0, 2.0, 4.0, 6.0] {
        let cprr = |cfd: f64| {
            let results = runner::run_seeds(cfg, |seed| {
                let mut sc = fig03::scenario(cfd, seed);
                sc.propagation.shadowing = Shadowing::new(Db::new(sigma));
                sc
            });
            results
                .iter()
                .map(|r| r.links[0].cprr().unwrap_or(0.0))
                .sum::<f64>()
                / results.len() as f64
        };
        report.row([f1(sigma), pct(cprr(1.0)), pct(cprr(2.0)), pct(cprr(3.0))]);
    }
    report.note(
        "σ = 0 produces a near-step CPRR transition; σ ≈ 4 dB reproduces the \
         paper's smooth 70 %/97 % intermediate points — evidence the measured \
         curve is the BER cliff convolved with per-packet fading",
    );
    report
}

/// Ablation: receiver capture model — the §III-B uniqueness claim as a
/// controlled experiment on identical geometry.
pub fn capture(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_capture",
        "802.15.4 vs 802.11b-like receiver on the same two-link collision setup",
        &["receiver model", "normal-link throughput (pkt/s)", "CPRR"],
    );
    for (name, dot11b) in [("802.15.4", false), ("802.11b-like", true)] {
        let results = runner::run_seeds(cfg, |seed| {
            let mut sc = fig03::scenario(3.0, seed);
            if dot11b {
                sc.radio = RadioConfig::dot11b_like();
                sc.propagation.acr = nomc_phy::AcrCurve::dot11b_like();
            }
            sc
        });
        let n = results.len() as f64;
        let tput = results
            .iter()
            .map(|r| r.links[0].throughput(r.measured))
            .sum::<f64>()
            / n;
        let cprr = results
            .iter()
            .map(|r| r.links[0].cprr().unwrap_or(0.0))
            .sum::<f64>()
            / n;
        report.row([name.to_string(), f1(tput), pct(cprr)]);
    }
    report.note(
        "with an 802.11b-like receiver the victim loses packets both to \
         correlator capture by the foreign channel and to the flatter channel \
         filter — non-orthogonal concurrency only works for 802.15.4",
    );
    report
}

/// Ablation: DCN's Case-II window `T_U`.
pub fn t_update(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_tu",
        "DCN Case-II window T_U on the §VI-A CFD 3 MHz deployment",
        &["T_U (s)", "overall throughput (pkt/s)"],
    );
    for tu in [1u64, 3, 10] {
        let results = runner::run_seeds(cfg, |seed| {
            let mut sc = common::vi_a_scenario(3.0, 5, &[], seed);
            let dcn_cfg = DcnConfig {
                t_update: SimDuration::from_secs(tu),
                ..DcnConfig::paper_default()
            };
            for b in &mut sc.behaviors {
                b.threshold = ThresholdMode::Dcn(dcn_cfg);
            }
            sc
        });
        report.row([tu.to_string(), f1(common::mean_total_throughput(&results))]);
    }
    report.note(
        "shorter T_U adapts (and relaxes) faster; very long T_U keeps the \
         threshold pinned near the initialization value — the paper's 3 s is \
         a reasonable middle",
    );
    report
}

/// Ablation: a safety margin below the derived threshold.
pub fn margin(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_margin",
        "Safety margin below DCN's derived threshold (§VI-A CFD 3 MHz)",
        &["margin (dB)", "overall throughput (pkt/s)", "overall PRR"],
    );
    for m in [0.0, 2.0, 5.0] {
        let results = runner::run_seeds(cfg, |seed| {
            let mut sc = common::vi_a_scenario(3.0, 5, &[], seed);
            let dcn_cfg = DcnConfig {
                safety_margin: Db::new(m),
                ..DcnConfig::paper_default()
            };
            for b in &mut sc.behaviors {
                b.threshold = ThresholdMode::Dcn(dcn_cfg);
            }
            sc
        });
        let tput = common::mean_total_throughput(&results);
        let prr = results
            .iter()
            .map(|r| r.total_prr().unwrap_or(0.0))
            .sum::<f64>()
            / results.len() as f64;
        report.row([f1(m), f1(tput), pct(prr)]);
    }
    report.note(
        "a margin trades concurrency (throughput) for co-channel safety (PRR); \
         the paper uses none",
    );
    report
}

/// Ablation: the channel-access-failure policy, isolated on a channel
/// that is always busy.
pub fn failure_policy(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_failure_policy",
        "CCA-exhaustion policy on a permanently-busy channel",
        &["policy", "link sent (pkt/s)"],
    );
    for (name, policy) in [
        (
            "transmit-anyway",
            nomc_mac::CcaFailurePolicy::TransmitAnyway,
        ),
        ("drop-packet", nomc_mac::CcaFailurePolicy::DropPacket),
    ] {
        let results = runner::run_seeds(cfg, |seed| {
            let (mut sc, link_idx) = common::fig5_scenario(Dbm::new(-150.0), Dbm::new(0.0), seed);
            // Unclamp the register so −150 dBm really is below noise.
            sc.radio.cca_threshold_range = (Dbm::new(-150.0), Dbm::new(0.0));
            sc.radio.rssi = nomc_radio::rssi::RssiRegister::ideal();
            sc.behaviors[link_idx].mac.on_failure = policy;
            sc
        });
        let link_idx = common::fig5_scenario(Dbm::new(-150.0), Dbm::new(0.0), 0).1;
        let sent = results
            .iter()
            .map(|r| {
                r.links
                    .iter()
                    .find(|l| l.network == link_idx)
                    .expect("link")
                    .send_rate(r.measured)
            })
            .sum::<f64>()
            / results.len() as f64;
        report.row([name.to_string(), f1(sent)]);
    }
    report.note(
        "the ~50 pkt/s transmit-anyway floor is what the paper's Fig. 6 shows \
         at over-conservative thresholds; a strictly standard-compliant stack \
         (drop) would send nothing there",
    );
    report
}

/// Ablation: the CC2420 CCA-threshold register clamp.
pub fn clamp(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_clamp",
        "CCA-threshold register clamp at a −120 dBm requested threshold",
        &["register model", "link sent (pkt/s)"],
    );
    for (name, clamped) in [("CC2420 clamp [−95, 0]", true), ("unclamped", false)] {
        let results = runner::run_seeds(cfg, |seed| {
            let (mut sc, _) = common::fig5_scenario(Dbm::new(-120.0), Dbm::new(0.0), seed);
            if !clamped {
                sc.radio.cca_threshold_range = (Dbm::new(-150.0), Dbm::new(0.0));
                sc.radio.rssi = nomc_radio::rssi::RssiRegister::ideal();
            }
            sc
        });
        let link_idx = common::fig5_scenario(Dbm::new(-120.0), Dbm::new(0.0), 0).1;
        let sent = results
            .iter()
            .map(|r| {
                r.links
                    .iter()
                    .find(|l| l.network == link_idx)
                    .expect("link")
                    .send_rate(r.measured)
            })
            .sum::<f64>()
            / results.len() as f64;
        report.row([name.to_string(), f1(sent)]);
    }
    report.note(
        "with the register clamp, −120 dBm behaves exactly like −95 dBm \
         (the flat left side of Figs. 6-8); without it the noise floor keeps \
         CCA busy forever and only forced transmissions leave",
    );
    report
}

/// Extension: the §VII-C oracle interference classifier as an upper
/// bound on DCN (on the §VI-A deployment, where weak co-channel
/// competitors bound DCN's threshold).
pub fn oracle(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_oracle",
        "§VII-C extension: perfect co-/inter-channel classification at CCA time",
        &["scheme", "overall throughput (pkt/s)"],
    );
    type Arm = (&'static str, fn(u64) -> Scenario);
    let arms: [Arm; 3] = [
        ("fixed −77 dBm", |seed| {
            common::vi_a_scenario(3.0, 5, &[], seed)
        }),
        ("DCN", |seed| {
            common::vi_a_scenario(3.0, 5, &[0, 1, 2, 3, 4], seed)
        }),
        ("DCN + oracle classifier", |seed| {
            let mut sc = common::vi_a_scenario(3.0, 5, &[], seed);
            for b in &mut sc.behaviors {
                b.threshold = ThresholdMode::DcnOracle(DcnConfig::paper_default());
            }
            sc
        }),
    ];
    for (name, build) in arms {
        let results = runner::run_seeds(cfg, build);
        report.row([
            name.to_string(),
            f1(common::mean_total_throughput(&results)),
        ]);
    }
    report.note(
        "the oracle ignores inter-channel energy entirely at CCA time, \
         upper-bounding what the paper's future-work interference classifier \
         could achieve",
    );
    report
}

/// Extension: acknowledged (ZigBee reliable unicast) transfers on the
/// §VI-A deployment — do DCN's concurrency gains survive ACK traffic?
pub fn acknowledged(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "ablation_ack",
        "Acknowledged transfers on the §VI-A CFD 3 MHz deployment",
        &[
            "scheme",
            "unique deliveries (pkt/s)",
            "retransmission rate",
            "abandoned rate",
        ],
    );
    for (name, dcn) in [("fixed −77 dBm + ACK", false), ("DCN + ACK", true)] {
        let results = runner::run_seeds(cfg, |seed| {
            let dcn_on: Vec<usize> = if dcn { (0..5).collect() } else { Vec::new() };
            let mut sc = common::vi_a_scenario(3.0, 5, &dcn_on, seed);
            for b in &mut sc.behaviors {
                b.mac.acknowledged = true;
            }
            sc
        });
        let n = results.len() as f64;
        let delivered = common::mean_total_throughput(&results);
        let (mut retrans, mut abandoned, mut sent) = (0.0, 0.0, 0.0);
        for r in &results {
            for l in &r.links {
                retrans += l.retransmissions as f64 / n;
                abandoned += l.abandoned as f64 / n;
                sent += l.sent as f64 / n;
            }
        }
        report.row([
            name.to_string(),
            f1(delivered),
            pct(retrans / sent.max(1.0)),
            pct(abandoned / sent.max(1.0)),
        ]);
    }
    report.note(
        "the ACK/retry machinery costs airtime, but DCN's concurrency gain \
         carries over to reliable unicast; retransmissions stay moderate \
         because inter-channel interference rarely corrupts frames at CFD 3",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shadowing_sharpens_the_transition() {
        let cfg = ExpConfig::quick();
        let report = shadowing(&cfg);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // σ = 0 (row 0): CPRR is a near-step function of CFD — each CFD
        // sits at an extreme.
        let cprr2_sigma0 = parse(&report.rows[0][2]);
        assert!(
            !(20.0..=90.0).contains(&cprr2_sigma0),
            "σ=0 CPRR@2MHz should be extreme, got {cprr2_sigma0}"
        );
        // σ = 4 (row 2): the paper's smooth intermediate value appears.
        let cprr2_sigma4 = parse(&report.rows[2][2]);
        assert!(
            (40.0..=90.0).contains(&cprr2_sigma4),
            "σ=4 CPRR@2MHz should be intermediate, got {cprr2_sigma4}"
        );
    }

    #[test]
    fn dot11b_receiver_is_much_worse() {
        let cfg = ExpConfig::quick();
        let report = capture(&cfg);
        let t154: f64 = report.rows[0][1].parse().unwrap();
        let t11b: f64 = report.rows[1][1].parse().unwrap();
        assert!(
            t11b < 0.7 * t154,
            "802.11b-like {t11b} should lose badly to 802.15.4 {t154}"
        );
    }

    #[test]
    fn drop_policy_sends_nothing_when_blocked() {
        let cfg = ExpConfig::quick();
        let report = failure_policy(&cfg);
        let anyway: f64 = report.rows[0][1].parse().unwrap();
        let drop: f64 = report.rows[1][1].parse().unwrap();
        assert!(anyway > 20.0, "transmit-anyway floor {anyway}");
        assert!(drop < 5.0, "drop policy should send ~0, got {drop}");
    }

    #[test]
    fn ack_mode_preserves_dcn_gain() {
        let cfg = ExpConfig::quick();
        let report = acknowledged(&cfg);
        let fixed: f64 = report.rows[0][1].parse().unwrap();
        let dcn: f64 = report.rows[1][1].parse().unwrap();
        assert!(
            dcn > 1.05 * fixed,
            "DCN+ACK {dcn} should beat fixed+ACK {fixed}"
        );
    }

    #[test]
    fn oracle_at_least_matches_dcn() {
        let cfg = ExpConfig::quick();
        let report = oracle(&cfg);
        let dcn: f64 = report.rows[1][1].parse().unwrap();
        let oracle: f64 = report.rows[2][1].parse().unwrap();
        assert!(
            oracle > 0.95 * dcn,
            "oracle {oracle} should not lose to DCN {dcn}"
        );
    }
}
