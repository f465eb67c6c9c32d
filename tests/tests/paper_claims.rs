//! The paper's claims table, end to end at quick fidelity: the reports
//! every claim reads are produced once, through the same registry
//! `all_experiments` runs, and every claim must hold. The headline
//! claims each have a test of their own; the last test checks the claims
//! on every other report, so each report runs in exactly one test.

use nomc_experiments::claims::{self, CLAIMS};
use nomc_experiments::{experiments, ExpConfig};

/// §III-B: inter-channel collisions are tolerable at CFD ≥ 3 MHz.
const CPRR_FEASIBILITY: &[&str] = &["fig04"];
/// §VI-A: with DCN everywhere, every network improves; CFD 3 beats 2.
const DCN_ON_ALL: &[&str] = &["fig18"];
/// §VI-B: the DCN design beats the default ZigBee design (Fig. 19).
const HEADLINE: &[&str] = &["fig19"];
/// §VI-B-3 / Table I: throughput spread across DCN networks is small.
const FAIRNESS: &[&str] = &["table1"];
/// §VI-B-4: every case beats ZigBee, and DCN's relaxing gain is largest
/// when networks share one interfering region and smallest for random
/// topology.
const CASES: &[&str] = &["fig25", "fig26", "fig27"];
const NAMED: &[&[&str]] = &[CPRR_FEASIBILITY, DCN_ON_ALL, HEADLINE, FAIRNESS, CASES];

/// Runs the reports `ids` at quick fidelity and asserts that every claim
/// on them is evaluated and passes.
fn assert_claims_hold(ids: &[String]) {
    let reports = experiments::run(&ExpConfig::quick(), Some(ids)).expect("claims read known ids");
    let claims: Vec<_> = CLAIMS
        .iter()
        .filter(|c| ids.iter().any(|id| id == c.id))
        .copied()
        .collect();
    assert!(!claims.is_empty(), "no claim reads {ids:?}");
    let verdicts = claims::evaluate(&claims, &reports);
    assert_eq!(verdicts.len(), claims.len(), "every claim's report ran");
    let failed: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.pass)
        .map(|v| {
            let row = claims::report(std::slice::from_ref(v)).rows.remove(0);
            row.join(" | ")
        })
        .collect();
    assert!(failed.is_empty(), "failed claims:\n{}", failed.join("\n"));
}

fn owned(ids: &[&str]) -> Vec<String> {
    ids.iter().map(|id| id.to_string()).collect()
}

#[test]
fn claim_cprr_feasibility_bands() {
    assert_claims_hold(&owned(CPRR_FEASIBILITY));
}

#[test]
fn claim_dcn_improves_all_networks_and_cfd3_wins() {
    assert_claims_hold(&owned(DCN_ON_ALL));
}

#[test]
fn claim_headline_gain_over_zigbee() {
    assert_claims_hold(&owned(HEADLINE));
}

#[test]
fn claim_fairness() {
    assert_claims_hold(&owned(FAIRNESS));
}

#[test]
fn claim_case_ordering() {
    assert_claims_hold(&owned(CASES));
}

#[test]
fn every_paper_claim_holds_at_quick_fidelity() {
    // The claims on reports that no test above runs.
    let mut ids: Vec<String> = CLAIMS
        .iter()
        .map(|c| c.id)
        .filter(|id| !NAMED.iter().any(|named| named.contains(id)))
        .map(str::to_string)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_claims_hold(&ids);
}
