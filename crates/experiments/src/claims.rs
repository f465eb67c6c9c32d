//! The paper's evaluation numbers as one table of claims, checked
//! against the reports an `all_experiments` run already produced.
//!
//! Each [`Claim`] names a report id of [`crate::experiments::REGISTRY`],
//! the paper's value, a [`Measure`] that reads cells of that report by
//! row label and column header, and the [`Band`] the value must fall in.
//! [`evaluate`] checks the claims whose report is present, so no
//! experiment runs twice; [`report`] renders the verdicts. A claim that
//! cannot be read (a missing row or column, a cell that is not a
//! number) fails with its reason and never panics.
//!
//! A band comes from the paper's value, a calibration anchor
//! (`docs/CALIBRATION.md`) or a known deviation of EXPERIMENTS.md that
//! the claim names. A band is never widened to fit a measurement.

use crate::report::Report;
use Band::{Above, Below, OneOf, Within};
use Measure::{Argmax, Cell, Min, Ratio, Spread};

/// One checkable statement of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The report id the measure reads.
    pub id: &'static str,
    /// What the paper says, in one line.
    pub statement: &'static str,
    /// The paper's value, as the paper gives it.
    pub paper: &'static str,
    /// How the measured value is read off the report.
    pub measure: Measure,
    /// Where the measured value must fall.
    pub band: Band,
}

/// How a claim reads its report. A cell is named `(row label, column
/// header)`, and every cell read must start with a number: `97.9%` reads
/// as 0.979, `1.26×` as 1.26 and `237.1 (N2)` as 237.1.
#[derive(Debug, Clone, Copy)]
pub enum Measure {
    /// One cell.
    Cell(&'static str, &'static str),
    /// The first cell divided by the second.
    Ratio((&'static str, &'static str), (&'static str, &'static str)),
    /// `max / min − 1` over a column.
    Spread(&'static str),
    /// The label of the row with the column's largest value.
    Argmax(&'static str),
    /// The column's smallest value.
    Min(&'static str),
}

/// Where a measured value must fall. Numeric bands read an
/// [`Measure::Argmax`] label as a number.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// `lo ≤ v ≤ hi`.
    Within(f64, f64),
    /// `v > bound`.
    Above(f64),
    /// `v < bound`.
    Below(f64),
    /// The row label is one of these.
    OneOf(&'static [&'static str]),
}

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct Verdict<'a> {
    /// The claim checked.
    pub claim: &'a Claim,
    /// The measured value as shown, or why there is none.
    pub measured: Result<String, String>,
    /// Whether the reading falls in the claim's band.
    pub pass: bool,
}

/// The middle networks of the five-network §VI-A deployment, whose
/// reports list networks in frequency order `N3 N1 N0 N2 N4`.
const MIDDLE_OF_FIVE: &[&str] = &["N1", "N0", "N2"];
const CASE_ZIGBEE: &str = "ZigBee (4ch@5MHz)";
const CASE_FIXED: &str = "w/o DCN (6ch@3MHz)";
const CASE_DCN: &str = "with DCN (6ch@3MHz)";
const CASE_COL: &str = "measured (pkt/s)";
/// The paper's Case III relaxing gain (Fig. 27, 1361 / 1282), the
/// weakest of its three cases: Case I must gain at least this, Case III
/// at most.
const CASE_III_RELAX: f64 = 1361.0 / 1282.0;

const fn claim(
    id: &'static str,
    statement: &'static str,
    paper: &'static str,
    measure: Measure,
    band: Band,
) -> Claim {
    Claim {
        id,
        statement,
        paper,
        measure,
        band,
    }
}

/// Every claim, in paper order. Statements are the paper's, shortened;
/// "KD n" names the EXPERIMENTS.md known deviation a band comes from.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    // Calibration anchor: the saturated throughput scale.
    claim("fig01", "saturated 1-channel throughput", "≈ 250 pkt/s", Cell("9.0", "per-channel (pkt/s)"), Within(230.0, 300.0)),
    claim("fig01", "12 MHz total peaks at CFD 3 MHz", "3 MHz", Argmax("measured total (pkt/s)"), Within(3.0, 3.0)),
    claim("fig02", "802.11b 3 channels off ≤ co-channel", "depressed", Ratio(("3", "802.11b-like"), ("0", "802.11b-like")), Below(1.0)),
    claim("fig02", "802.15.4 recovers 1 channel off", "recovered", Cell("1", "802.15.4"), Above(0.95)),
    // Calibration anchors: the Fig. 4 CPRR bands.
    claim("fig04", "CPRR at CFD 5 MHz", "100 %", Cell("5", "normal CPRR"), Within(0.99, 1.01)),
    claim("fig04", "CPRR at CFD 4 MHz", "100 %", Cell("4", "normal CPRR"), Within(0.98, 1.01)),
    claim("fig04", "CPRR at CFD 3 MHz", "97 %", Cell("3", "normal CPRR"), Within(0.93, 1.0)),
    claim("fig04", "CPRR at CFD 2 MHz", "70 %", Cell("2", "normal CPRR"), Within(0.50, 0.85)),
    claim("fig04", "CPRR at CFD 1 MHz", "< 20 %", Cell("1", "normal CPRR"), Within(0.0, 0.30)),
    // Calibration anchor: relaxing CCA gains ≥ 30 % at ~100 % PRR.
    claim("fig06", "relaxed/default link sent", "~2×", Ratio(("-20.0", "sent/s"), ("-77.0", "sent/s")), Above(1.3)),
    claim("fig06", "relaxed link PRR", "~100 %", Cell("-20.0", "PRR"), Above(0.95)),
    claim("fig07", "relaxed/default overall (KD 2)", "~1.65×", Ratio(("-20.0", "overall (pkt/s)"), ("-77.0", "overall (pkt/s)")), Above(1.0)),
    claim("fig08", "received peaks below min co-RSS -59.26", "then falls", Argmax("received/s"), Below(-59.26)),
    claim("fig09", "relaxed/default at -33 dBm", "gain", Ratio(("-20.0", "tput@-33dBm"), ("-77.0", "tput@-33dBm")), Above(1.0)),
    claim("fig10", "PRR at -15 dBm", "≈ 100 %", Cell("-20.0", "PRR@-15dBm"), Above(0.99)),
    claim("fig10", "PRR at -22 dBm", "> 80 %", Cell("-20.0", "PRR@-22dBm"), Above(0.80)),
    claim("fig10", "PRR at -33 dBm", "collapses", Cell("-20.0", "PRR@-33dBm"), Below(0.5)),
    claim("fig14", "DCN on N0 only: N0 gain (KD 1)", "+27 %", Cell("3.0", "gain"), Above(0.27)),
    claim("fig15", "DCN on N0 only: others' change", "-5 %", Cell("3.0", "change"), Within(-0.10, 0.0)),
    claim("fig16", "CFD 2, DCN on all: min gain", "> 0", Min("gain"), Above(0.0)),
    claim("fig16", "CFD 2, DCN on all: top gainer", "middle", Argmax("gain"), OneOf(MIDDLE_OF_FIVE)),
    claim("fig17", "CFD 3, DCN on all: min gain", "> 0", Min("gain"), Above(0.0)),
    claim("fig17", "CFD 3, DCN on all: top gainer", "middle", Argmax("gain"), OneOf(MIDDLE_OF_FIVE)),
    claim("fig18", "DCN gain at CFD 3", "> 0", Cell("3.0", "DCN gain"), Above(0.0)),
    claim("fig18", "CFD 3 / CFD 2, both with DCN", "1.37×", Ratio(("3.0", "with DCN"), ("2.0", "with DCN")), Above(1.0)),
    // Calibration anchor: the headline gain.
    claim("fig19", "DCN / ZigBee design total", "1.58×", Ratio(("TOTAL", "DCN (pkt/s)"), ("TOTAL", "ZigBee (pkt/s)")), Within(1.30, 1.90)),
    claim("fig20", "N0 at -15 / -33 dBm", "PRR-limited rise", Ratio(("-15.0", "N0 throughput (pkt/s)"), ("-33.0", "N0 throughput (pkt/s)")), Above(1.0)),
    claim("fig20", "N0 at -0.6 / -15 dBm", "DCN-limited rise", Ratio(("-0.6", "N0 throughput (pkt/s)"), ("-15.0", "N0 throughput (pkt/s)")), Above(1.0)),
    // The paper's Fig. 15 neighbour cost, ≈ 5 %.
    claim("fig21", "others' spread over N0's power", "unaffected", Spread("others total (pkt/s)"), Below(0.05)),
    // No wider than the paper's own Table I spread.
    claim("table1", "fairness spread", "≈ 4 %", Spread("measured (pkt/s)"), Below(273.4 / 259.3 - 1.0)),
    claim("fig25", "Case I: DCN / ZigBee", "1.547×", Ratio((CASE_DCN, CASE_COL), (CASE_ZIGBEE, CASE_COL)), Above(1.1)),
    claim("fig25", "Case I: DCN / w/o DCN", "1.147×", Ratio((CASE_DCN, CASE_COL), (CASE_FIXED, CASE_COL)), Above(CASE_III_RELAX)),
    claim("fig26", "Case II: DCN / ZigBee", "1.557×", Ratio((CASE_DCN, CASE_COL), (CASE_ZIGBEE, CASE_COL)), Above(1.1)),
    claim("fig26", "Case II: DCN / w/o DCN", "1.104×", Ratio((CASE_DCN, CASE_COL), (CASE_FIXED, CASE_COL)), Above(1.0)),
    claim("fig27", "Case III: DCN / ZigBee", "1.385×", Ratio((CASE_DCN, CASE_COL), (CASE_ZIGBEE, CASE_COL)), Above(1.1)),
    claim("fig27", "Case III: DCN / w/o DCN, the weakest", "1.062×", Ratio((CASE_DCN, CASE_COL), (CASE_FIXED, CASE_COL)), Within(1.0, CASE_III_RELAX)),
    claim("fig28", "relaxed received / sent (KD 3)", "~0.8", Ratio(("-20.0", "received/s"), ("-20.0", "sent/s")), Within(0.80, 1.0)),
    claim("fig28", "relaxed recoverable / sent", "≈ 1", Ratio(("-20.0", "recoverable/s"), ("-20.0", "sent/s")), Within(0.95, 1.0)),
    claim("fig29", "CRC-failed with ≤ 10 % error bits", "87 %", Cell("0.1", "cumulative fraction of packets"), Above(0.80)),
    claim("fig30", "18 MHz: overall DCN gain (KD 1)", "≈ 13 %", Cell("TOTAL", "gain"), Above(0.13)),
    claim("fig30", "18 MHz: top gainer", "middle", Argmax("gain"), OneOf(&["N3", "N1", "N0", "N2", "N4"])),
];

/// Checks every claim of `claims` whose report is among `reports`, in
/// table order.
pub fn evaluate<'a>(claims: &'a [Claim], reports: &[Report]) -> Vec<Verdict<'a>> {
    claims
        .iter()
        .filter_map(|claim| {
            let report = reports.iter().find(|r| r.id == claim.id)?;
            let (measured, pass) = match read(report, &claim.measure) {
                Ok((text, value)) => {
                    let pass = claim.band.holds(&text, value);
                    (Ok(text), pass)
                }
                Err(why) => (Err(why), false),
            };
            Some(Verdict {
                claim,
                measured,
                pass,
            })
        })
        .collect()
}

/// Renders verdicts as the `claims` report.
pub fn report(verdicts: &[Verdict<'_>]) -> Report {
    let mut out = Report::new(
        "claims",
        "The paper's claims, checked against the reports above",
        &["Claim", "Paper", "Measured", "Band", "Verdict"],
    );
    for v in verdicts {
        out.row([
            format!("{}: {}", v.claim.id, v.claim.statement),
            v.claim.paper.to_string(),
            match &v.measured {
                Ok(text) | Err(text) => text.clone(),
            },
            v.claim.band.to_string(),
            if v.pass { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    let passed = verdicts.iter().filter(|v| v.pass).count();
    out.note(format!(
        "{passed} of {} claims pass; a cell like `97.9%` reads as 0.979",
        verdicts.len()
    ));
    out
}

/// Reads a cell's leading number: `97.9%` is 0.979, `1.26×` is 1.26 and
/// `237.1 (N2)` is 237.1.
fn number(cell: &str) -> Option<f64> {
    let token = cell.split_whitespace().next()?;
    let (digits, per) = match token.strip_suffix('%') {
        Some(digits) => (digits, 100.0),
        None => (token.strip_suffix('×').unwrap_or(token), 1.0),
    };
    digits
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .map(|v| v / per)
}

/// The measured value as shown, and as a number unless it is a row
/// label that is not one.
fn read(report: &Report, measure: &Measure) -> Result<(String, Option<f64>), String> {
    let num = |v: f64| Ok((shown(v), Some(v)));
    let values = match *measure {
        Cell(row, col) => return num(cell(report, row, col)?),
        Ratio((r1, c1), (r2, c2)) => return num(cell(report, r1, c1)? / cell(report, r2, c2)?),
        Spread(col) | Min(col) | Argmax(col) => column(report, col)?,
    };
    let (mut min, mut max) = (values[0], values[0]);
    for v in values {
        min = if v.1 < min.1 { v } else { min };
        max = if v.1 > max.1 { v } else { max };
    }
    match *measure {
        Spread(_) => num(max.1 / min.1 - 1.0),
        Min(_) => num(min.1),
        _ => Ok((max.0.to_string(), number(max.0))),
    }
}

/// The parsed cell at `row` of `col`.
fn cell(report: &Report, row: &str, col: &str) -> Result<f64, String> {
    let (label, text) = cells(report, col)?
        .find(|&(label, _)| label == row)
        .ok_or_else(|| format!("no row `{row}`"))?;
    parse(label, col, text)
}

/// Every row's `(label, value)` in `col`; at least one.
fn column<'r>(report: &'r Report, col: &str) -> Result<Vec<(&'r str, f64)>, String> {
    let values = cells(report, col)?
        .map(|(label, text)| Ok((label, parse(label, col, text)?)))
        .collect::<Result<Vec<_>, String>>()?;
    if values.is_empty() {
        return Err("no rows".to_string());
    }
    Ok(values)
}

/// Every row's `(label, cell)` in `col`.
fn cells<'r>(
    report: &'r Report,
    col: &str,
) -> Result<impl Iterator<Item = (&'r str, &'r str)>, String> {
    let c = report
        .columns
        .iter()
        .position(|h| h == col)
        .ok_or_else(|| format!("no column `{col}`"))?;
    Ok(report
        .rows
        .iter()
        .map(move |r| (r[0].as_str(), r[c].as_str())))
}

fn parse(label: &str, col: &str, text: &str) -> Result<f64, String> {
    number(text).ok_or_else(|| format!("`{text}` at row `{label}`, column `{col}` is not a number"))
}

/// A number with at most three decimals and no trailing zeros.
fn shown(v: f64) -> String {
    let text = format!("{v:.3}");
    let text = text.trim_end_matches('0').trim_end_matches('.');
    if text == "-0" { "0" } else { text }.to_string()
}

impl Band {
    fn holds(&self, text: &str, value: Option<f64>) -> bool {
        match (*self, value) {
            (OneOf(labels), _) => labels.contains(&text),
            (_, None) => false,
            (Within(lo, hi), Some(v)) => lo <= v && v <= hi,
            (Above(bound), Some(v)) => v > bound,
            (Below(bound), Some(v)) => v < bound,
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Within(lo, hi) => write!(f, "[{}, {}]", shown(lo), shown(hi)),
            Above(bound) => write!(f, "> {}", shown(bound)),
            Below(bound) => write!(f, "< {}", shown(bound)),
            OneOf(labels) => write!(f, "one of {}", labels.join(" ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Report {
        let mut r = Report::new("fig00", "Sample", &["CFD (MHz)", "CPRR", "tput"]);
        r.row(["3", "97.9%", "1.26×"])
            .row(["2", "60.2%", "237.1 (N2)"])
            .row(["1", "9.8%", "—"]);
        r
    }

    fn check(measure: Measure, band: Band) -> Verdict<'static> {
        let claim = Box::leak(Box::new(claim("fig00", "sample", "-", measure, band)));
        let mut verdicts = evaluate(std::slice::from_ref(claim), &[table()]);
        assert_eq!(verdicts.len(), 1);
        verdicts.remove(0)
    }

    #[test]
    fn cells_parse_percent_times_and_a_trailing_label() {
        let close = |cell: &str, want: f64| (number(cell).unwrap() - want).abs() < 1e-12;
        assert!(close("97.9%", 0.979));
        assert!(close("100.0%", 1.0));
        assert_eq!(number("1.26×"), Some(1.26));
        assert_eq!(number("237.1 (N2)"), Some(237.1));
        assert_eq!(number("-20.0"), Some(-20.0));
        assert_eq!(number("—"), None);
        assert_eq!(number(""), None);
        assert_eq!(number("≈ +27%"), None);
    }

    #[test]
    fn a_reading_inside_its_band_passes_and_outside_fails() {
        let pass = check(Cell("3", "CPRR"), Within(0.93, 1.0));
        assert!(pass.pass);
        assert_eq!(pass.measured.unwrap(), "0.979");
        assert!(!check(Cell("2", "CPRR"), Within(0.93, 1.0)).pass);
        assert!(check(Ratio(("2", "tput"), ("3", "tput")), Above(100.0)).pass);
        assert!(!check(Ratio(("2", "tput"), ("3", "tput")), Below(100.0)).pass);
        // Above and Below are strict; Within is inclusive.
        assert!(!check(Cell("3", "tput"), Above(1.26)).pass);
        assert!(check(Cell("3", "tput"), Within(1.26, 1.26)).pass);
    }

    #[test]
    fn column_measures_read_every_row() {
        let mut r = Report::new("fig00", "Sample", &["network", "gain"]);
        r.row(["N3", "10.0%"])
            .row(["N1", "30.0%"])
            .row(["N4", "20.0%"]);
        let claims = [
            claim("fig00", "max", "-", Argmax("gain"), OneOf(&["N1"])),
            claim("fig00", "min", "-", Min("gain"), Within(0.1, 0.1)),
            claim(
                "fig00",
                "spread",
                "-",
                Spread("gain"),
                Within(2.0 - 1e-9, 2.0 + 1e-9),
            ),
            claim("fig00", "label", "-", Argmax("gain"), Above(0.0)),
        ];
        let verdicts = evaluate(&claims, &[r]);
        let passes: Vec<bool> = verdicts.iter().map(|v| v.pass).collect();
        // A non-numeric label never satisfies a numeric band.
        assert_eq!(passes, [true, true, true, false]);
    }

    #[test]
    fn a_missing_row_column_or_number_fails_with_its_reason() {
        let why = |v: Verdict<'_>| {
            assert!(!v.pass);
            v.measured.unwrap_err()
        };
        assert_eq!(why(check(Cell("9", "CPRR"), Above(0.0))), "no row `9`");
        assert_eq!(why(check(Cell("3", "PRR"), Above(0.0))), "no column `PRR`");
        assert_eq!(
            why(check(Min("tput"), Above(0.0))),
            "`—` at row `1`, column `tput` is not a number"
        );
        let empty = Report::new("fig00", "Empty", &["x", "y"]);
        let claims = [claim("fig00", "e", "-", Argmax("y"), Above(0.0))];
        let v = evaluate(&claims, &[empty]).remove(0);
        assert_eq!(v.measured.unwrap_err(), "no rows");
        // The failure is a row of the rendered report, not a panic.
        let rendered = report(&[check(Cell("9", "CPRR"), Above(0.0))]);
        assert_eq!(rendered.rows[0][2], "no row `9`");
        assert_eq!(rendered.rows[0][4], "FAIL");
    }

    #[test]
    fn only_claims_whose_report_ran_are_evaluated() {
        let claims = [
            claim("fig00", "here", "-", Cell("3", "CPRR"), Above(0.0)),
            claim("fig99", "absent", "-", Cell("3", "CPRR"), Above(0.0)),
        ];
        let verdicts = evaluate(&claims, &[table()]);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].claim.statement, "here");
    }

    #[test]
    fn bands_render_compactly() {
        assert_eq!(Within(0.93, 1.0).to_string(), "[0.93, 1]");
        assert_eq!(Above(1.3).to_string(), "> 1.3");
        assert_eq!(Below(-59.26).to_string(), "< -59.26");
        assert_eq!(OneOf(&["N1", "N0"]).to_string(), "one of N1 N0");
    }

    #[test]
    fn every_claim_reads_a_registered_report() {
        let ids = crate::experiments::ids();
        for c in CLAIMS {
            assert!(ids.contains(&c.id), "claim on unknown report `{}`", c.id);
        }
    }

    #[test]
    fn every_paper_figure_of_the_evaluation_has_a_claim() {
        // The figures and the table the paper's evaluation reports
        // numbers for (§III-§VII).
        for id in [
            "fig01", "fig02", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "table1", "fig25",
            "fig26", "fig27", "fig28", "fig29", "fig30",
        ] {
            assert!(CLAIMS.iter().any(|c| c.id == id), "no claim reads `{id}`");
        }
    }
}
