//! Golden-file tests for the rule corpus under `tests/fixtures/`.
//!
//! Each rule has a `*_bad` fixture (seeded violations — must produce
//! exactly the diagnostics in its `.expected` file) and a `*_allowed`
//! fixture (the same constructs used legitimately or behind an allow
//! directive — must produce zero diagnostics). Fixtures are linted
//! under a pretend workspace-relative path so the scope predicates
//! apply; they are data, not compiled code.

use std::fs;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn render(diags: &[nomc_lint::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}: {}: {}\n", d.line, d.rule, d.message))
        .collect()
}

fn lint_fixture(name: &str, pretend_path: &str) -> String {
    let content = fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let diags = if name.ends_with(".toml") {
        nomc_lint::lint_manifest_full(pretend_path, &content).diagnostics
    } else {
        nomc_lint::lint_source_full(pretend_path, &content).diagnostics
    };
    render(&diags)
}

fn golden(name: &str) -> String {
    fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("read golden file {name}: {e}"))
}

fn assert_matches_golden(fixture: &str, pretend_path: &str, expected: &str) {
    let got = lint_fixture(fixture, pretend_path);
    assert!(
        !got.is_empty(),
        "{fixture}: the seeded-violation fixture produced no diagnostics"
    );
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::write(fixture_dir().join(expected), &got)
            .unwrap_or_else(|e| panic!("write golden {expected}: {e}"));
        return;
    }
    assert_eq!(
        got,
        golden(expected),
        "{fixture}: diagnostics diverged from {expected} \
         (run with UPDATE_GOLDENS=1 to regenerate)"
    );
}

fn assert_clean(fixture: &str, pretend_path: &str) {
    let got = lint_fixture(fixture, pretend_path);
    assert!(got.is_empty(), "{fixture}: expected clean, got:\n{got}");
}

#[test]
fn determinism_bad_matches_golden() {
    assert_matches_golden(
        "determinism_bad.rs",
        "crates/sim/src/fixture.rs",
        "determinism_bad.expected",
    );
}

#[test]
fn determinism_allowed_is_clean() {
    assert_clean("determinism_allowed.rs", "crates/sim/src/fixture.rs");
}

#[test]
fn unit_safety_bad_matches_golden() {
    assert_matches_golden(
        "unit_safety_bad.rs",
        "crates/phy/src/fixture.rs",
        "unit_safety_bad.expected",
    );
}

#[test]
fn unit_safety_allowed_is_clean() {
    assert_clean("unit_safety_allowed.rs", "crates/phy/src/fixture.rs");
}

#[test]
fn panic_hygiene_bad_matches_golden() {
    assert_matches_golden(
        "panic_hygiene_bad.rs",
        "crates/sim/src/engine.rs",
        "panic_hygiene_bad.expected",
    );
}

#[test]
fn panic_hygiene_allowed_is_clean() {
    assert_clean("panic_hygiene_allowed.rs", "crates/sim/src/engine.rs");
}

#[test]
fn dep_audit_bad_matches_golden() {
    assert_matches_golden(
        "dep_audit_bad.toml",
        "crates/fixture/Cargo.toml",
        "dep_audit_bad.expected",
    );
}

#[test]
fn dep_audit_allowed_is_clean() {
    assert_clean("dep_audit_allowed.toml", "crates/fixture/Cargo.toml");
}

#[test]
fn float_totality_bad_matches_golden() {
    assert_matches_golden(
        "float_totality_bad.rs",
        "crates/phy/src/fixture.rs",
        "float_totality_bad.expected",
    );
}

#[test]
fn float_totality_allowed_is_clean() {
    assert_clean("float_totality_allowed.rs", "crates/phy/src/fixture.rs");
}

#[test]
fn observer_purity_bad_matches_golden() {
    assert_matches_golden(
        "observer_purity_bad.rs",
        "crates/sim/src/fixture.rs",
        "observer_purity_bad.expected",
    );
}

#[test]
fn observer_purity_allowed_is_clean() {
    assert_clean("observer_purity_allowed.rs", "crates/sim/src/fixture.rs");
}

#[test]
fn exhaustive_dispatch_bad_matches_golden() {
    assert_matches_golden(
        "exhaustive_dispatch_bad.rs",
        "crates/sim/src/runtime/dispatch.rs",
        "exhaustive_dispatch_bad.expected",
    );
}

#[test]
fn exhaustive_dispatch_allowed_is_clean() {
    assert_clean(
        "exhaustive_dispatch_allowed.rs",
        "crates/sim/src/runtime/dispatch.rs",
    );
}

#[test]
fn dead_allow_bad_matches_golden() {
    assert_matches_golden(
        "dead_allow_bad.rs",
        "crates/sim/src/fixture.rs",
        "dead_allow_bad.expected",
    );
}

#[test]
fn dead_allow_allowed_is_clean_and_inventoried() {
    assert_clean("dead_allow_allowed.rs", "crates/sim/src/fixture.rs");
    // The consumed directive must appear in the allow inventory — a
    // clean lint with a silent escape hatch would defeat the rule.
    let content = fs::read_to_string(fixture_dir().join("dead_allow_allowed.rs")).unwrap();
    let file = nomc_lint::lint_source_full("crates/sim/src/fixture.rs", &content);
    assert_eq!(file.allows.len(), 1);
    assert_eq!(file.allows[0].rule, "determinism");
}

#[test]
fn fixtures_outside_rule_scope_are_clean() {
    // The same violating source is fine in a crate the rule does not
    // govern (e.g. the bench harness legitimately reads wall-clock).
    assert_clean("determinism_bad.rs", "crates/bench/src/fixture.rs");
    assert_clean("panic_hygiene_bad.rs", "crates/mac/src/lib.rs");
    assert_clean("float_totality_bad.rs", "crates/bench/src/fixture.rs");
    // Event-match wildcards are only policed in the two dispatch files.
    assert_clean("exhaustive_dispatch_bad.rs", "crates/sim/src/engine.rs");
}
