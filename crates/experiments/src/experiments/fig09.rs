//! Figs. 9-10 — effect of the link's transmission power on the
//! CCA-threshold sweep (no co-channel interference).
//!
//! Fig. 9: relaxing helps at every power, but the absolute throughput
//! depends on the link's ability to decode under interference.
//! Fig. 10: PRR stays ≈ 100 % for powers ≥ −15 dBm, ≈ 80 % at −22 dBm
//! (vs 0 dBm interferers), and collapses at −33 dBm.

use crate::experiments::{common, fig06};
use crate::report::{f1, pct, Report};
use crate::ExpConfig;
use nomc_units::Dbm;

/// The paper's swept link powers (dBm).
pub const POWERS: [f64; 5] = [-8.0, -11.0, -15.0, -22.0, -33.0];

/// Runs the experiment (returns the Fig. 9 and Fig. 10 reports).
pub fn run(cfg: &ExpConfig) -> Vec<Report> {
    let mut columns9 = vec!["CCA thr (dBm)".to_string()];
    let mut columns10 = vec!["CCA thr (dBm)".to_string()];
    for p in POWERS {
        columns9.push(format!("tput@{p}dBm"));
        columns10.push(format!("PRR@{p}dBm"));
    }
    let sweeps: Vec<Vec<fig06::SweepPoint>> = POWERS
        .iter()
        .map(|&p| fig06::sweep(cfg, Dbm::new(p)))
        .collect();
    let col9: Vec<&str> = columns9.iter().map(String::as_str).collect();
    let col10: Vec<&str> = columns10.iter().map(String::as_str).collect();
    let mut fig9 = Report::new(
        "fig09",
        "Link received throughput vs CCA threshold at different TX powers",
        &col9,
    );
    let mut fig10 = Report::new(
        "fig10",
        "Link PRR vs CCA threshold at different TX powers",
        &col10,
    );
    for (i, thr) in common::cca_sweep().into_iter().enumerate() {
        let mut row9 = vec![f1(thr)];
        let mut row10 = vec![f1(thr)];
        for sweep in &sweeps {
            row9.push(f1(sweep[i].received));
            row10.push(pct(sweep[i].prr));
        }
        fig9.row(row9);
        fig10.row(row10);
    }
    fig9.note(
        "relaxing the threshold improves throughput at every power; the gain \
         size depends on the link's decoding margin (paper Fig. 9)",
    );
    fig10.note(
        "paper Fig. 10: PRR ≈ 100 % for ≥ −15 dBm, > 80 % at −22 dBm vs 0 dBm \
         interferers, collapsing at −33 dBm",
    );
    vec![fig9, fig10]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relaxed-threshold PRR at one power.
    fn relaxed_prr(cfg: &ExpConfig, power: f64) -> f64 {
        let sweep = fig06::sweep(cfg, Dbm::new(power));
        sweep.last().expect("non-empty").prr
    }

    #[test]
    fn prr_ordering_matches_paper() {
        let cfg = ExpConfig::quick();
        let strong = relaxed_prr(&cfg, -11.0);
        let mid = relaxed_prr(&cfg, -22.0);
        let weak = relaxed_prr(&cfg, -33.0);
        assert!(strong > 0.97, "strong {strong}");
        assert!((0.65..=1.0).contains(&mid), "mid {mid}");
        assert!(weak < mid, "weak {weak} !< mid {mid}");
    }

    #[test]
    fn relaxing_helps_at_reduced_power() {
        let cfg = ExpConfig::quick();
        let sweep = fig06::sweep(&cfg, Dbm::new(-15.0));
        let default = sweep.iter().find(|p| p.threshold == -77.0).unwrap();
        let relaxed = sweep.last().unwrap();
        assert!(
            relaxed.received > default.received,
            "no gain at -15 dBm: {} vs {}",
            relaxed.received,
            default.received
        );
    }
}
