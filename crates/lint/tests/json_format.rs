//! Golden-file test for `--format json`: the machine-readable report
//! shape CI diffs against the committed workspace inventory
//! (`crates/lint/allows_golden.json`) must never drift silently.

use std::fs;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Builds a report the way the binary does — one file with a surviving
/// diagnostic, one with a consumed allow — and compares the rendered
/// JSON byte-for-byte with the committed golden.
#[test]
fn json_report_matches_golden() {
    let mut diagnostics = Vec::new();
    let mut allows = Vec::new();
    for (fixture, pretend) in [
        ("dead_allow_bad.rs", "crates/sim/src/fixture.rs"),
        ("dead_allow_allowed.rs", "crates/sim/src/allowed.rs"),
    ] {
        let content = fs::read_to_string(fixture_dir().join(fixture)).expect("fixture");
        let file = nomc_lint::lint_source_full(pretend, &content);
        diagnostics.extend(file.diagnostics);
        allows.extend(file.allows);
    }
    diagnostics.sort();
    allows.sort();
    let report = nomc_lint::LintReport {
        diagnostics,
        allows,
        workspace_rules_judged: true,
        files_scanned: 2,
    };
    let got = format!("{}\n", report.to_json().dump_pretty());

    let golden = fixture_dir().join("json_report.expected.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::write(&golden, &got).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&golden).expect("read json_report.expected.json");
    assert_eq!(
        got, expected,
        "JSON report shape diverged (run with UPDATE_GOLDENS=1 to regenerate)"
    );
}

/// The committed workspace inventory must encode the target state:
/// zero diagnostics, one accounted `determinism` allow — the results
/// server's deadline module, the single place wall-clock time may be
/// read (socket I/O budgets are real time by nature) — and the
/// `test-only-api` allows DESIGN.md §8 justifies one by one. Any other
/// allow is scope creep and must fail here, not just in the CI diff.
#[test]
fn committed_workspace_inventory_is_empty() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("allows_golden.json");
    let text = fs::read_to_string(&path).expect("read allows_golden.json");
    let json = nomc_json::Json::parse(&text).expect("allows_golden.json parses");
    let diags = json
        .get("diagnostics")
        .and_then(nomc_json::Json::as_array)
        .expect("diagnostics array");
    let allows = json
        .get("allows")
        .and_then(nomc_json::Json::as_array)
        .expect("allows array");
    assert!(diags.is_empty(), "committed inventory records diagnostics");
    let described: Vec<(Option<&str>, Option<&str>)> = allows
        .iter()
        .map(|a| {
            (
                a.get("file").and_then(nomc_json::Json::as_str),
                a.get("rule").and_then(nomc_json::Json::as_str),
            )
        })
        .collect();
    let test_only_api = [
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/rngcore/src/check.rs",
        "crates/sim/src/medium.rs",
        "crates/sim/src/medium.rs",
        "crates/sim/src/trace.rs",
    ];
    let mut expected = vec![(Some("crates/serve/src/deadline.rs"), Some("determinism"))];
    expected.extend(test_only_api.map(|file| (Some(file), Some("test-only-api"))));
    expected.sort();
    assert_eq!(
        described, expected,
        "the accounted allows are the serve deadline module's wall clock and \
         the justified test-only-api keeps"
    );
}
