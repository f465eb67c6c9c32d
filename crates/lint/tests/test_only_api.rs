//! The workspace-wide `test-only-api` rule over small in-memory
//! workspaces: which files judge `pub fn`s, which count as callers, and
//! how allows are accounted.

use nomc_lint::{lint_files, LintReport};

/// The library file every case lints: one `pub fn` to judge.
const LIB: &str = "crates/phy/src/model.rs";
const LIB_SRC: &str = "/// Twice `x`.\npub fn doubled(x: u32) -> u32 {\n    x * 2\n}\n";

fn lint(extra: &[(&str, &str)]) -> LintReport {
    let mut files = vec![(LIB.to_string(), LIB_SRC.to_string())];
    files.extend(extra.iter().map(|(p, c)| (p.to_string(), c.to_string())));
    lint_files(&files)
}

fn rules(report: &LintReport) -> Vec<(String, usize, &'static str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

fn flagged(report: &LintReport) -> bool {
    rules(report) == vec![(LIB.to_string(), 2, "test-only-api")]
}

const CALL: &str = "fn main() {\n    let _ = model::doubled(2);\n}\n";

#[test]
fn named_only_from_tests_or_benches_is_flagged() {
    assert!(flagged(&lint(&[])));
    assert!(flagged(&lint(&[("tests/tests/model.rs", CALL)])));
    assert!(flagged(&lint(&[("crates/phy/tests/properties.rs", CALL)])));
    assert!(flagged(&lint(&[("crates/bench/benches/phy.rs", CALL)])));
    assert!(flagged(&lint(&[("perfbench/tests/model.rs", CALL)])));
    let unit_test =
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        super::doubled(1);\n    }\n}\n";
    assert!(flagged(&lint(&[("crates/sim/src/x.rs", unit_test)])));
}

#[test]
fn named_from_production_code_is_not_flagged() {
    for caller in [
        "crates/sim/src/medium.rs",
        "crates/experiments/src/bin/all_experiments.rs",
        "crates/cli/src/main.rs",
        "crates/bench/src/harness.rs",
        "examples/quickstart.rs",
        "perfbench/src/main.rs",
    ] {
        let report = lint(&[(caller, CALL)]);
        assert!(
            report.diagnostics.is_empty(),
            "{caller}: {:?}",
            rules(&report)
        );
    }
    // A caller in the defining file itself counts too; only the
    // `fn doubled` of the definition does not.
    let own =
        format!("{LIB_SRC}pub fn quadrupled(x: u32) -> u32 {{\n    doubled(doubled(x))\n}}\n");
    let report = lint_files(&[
        (LIB.to_string(), own),
        (
            "crates/sim/src/x.rs".to_string(),
            "fn f() { quadrupled(1); }\n".to_string(),
        ),
    ]);
    assert!(report.diagnostics.is_empty(), "{:?}", rules(&report));
}

#[test]
fn binaries_and_the_bench_harness_are_not_judged() {
    for path in [
        "crates/cli/src/main.rs",
        "crates/experiments/src/bin/tool.rs",
        "crates/bench/src/harness.rs",
        "crates/sim/src/runtime/tests.rs",
    ] {
        let report = lint_files(&[(path.to_string(), LIB_SRC.to_string())]);
        assert!(
            report.diagnostics.is_empty(),
            "{path}: {:?}",
            rules(&report)
        );
    }
}

#[test]
fn comments_strings_and_uses_are_not_callers() {
    let mentions = "//! Doc: [`doubled`] doubles.\n/// See `doubled`.\nfn f() {\n    // doubled(1)\n    let _ = \"doubled\";\n}\n";
    assert!(flagged(&lint(&[("crates/sim/src/x.rs", mentions)])));
    // A re-export calls nothing.
    let reexport = "pub use model::doubled;\npub use model::{doubled as twice};\n";
    assert!(flagged(&lint(&[("crates/phy/src/lib.rs", reexport)])));
}

#[test]
fn an_external_test_module_is_masked_but_the_code_after_it_is_not() {
    // The declaration is masked, and so is the file it names.
    let decl = "#[cfg(test)]\nmod tests;\n";
    let tests_rs = "use super::*;\n#[test]\nfn t() {\n    doubled(1);\n}\n";
    assert!(flagged(&lint(&[
        ("crates/sim/src/runtime/mod.rs", decl),
        ("crates/sim/src/runtime/tests.rs", tests_rs),
    ])));
    // Code after the declaration is production code again.
    let after = "#[cfg(test)]\nmod tests;\n\nfn live() {\n    doubled(1);\n}\n";
    let report = lint(&[("crates/sim/src/runtime/mod.rs", after)]);
    assert!(report.diagnostics.is_empty(), "{:?}", rules(&report));
}

#[test]
fn an_allow_with_a_reason_suppresses_and_is_inventoried() {
    let allowed = "/// Twice `x`.\n// nomc-lint: allow(test-only-api) — the oracle tests pin\npub fn doubled(x: u32) -> u32 {\n    x * 2\n}\n";
    let report = lint_files(&[(LIB.to_string(), allowed.to_string())]);
    assert!(report.diagnostics.is_empty(), "{:?}", rules(&report));
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "test-only-api");
    assert_eq!(
        (report.allows[0].file.as_str(), report.allows[0].line),
        (LIB, 2)
    );
}

#[test]
fn a_stale_allow_trips_dead_allow() {
    let allowed = "// nomc-lint: allow(test-only-api) — the oracle tests pin\npub fn doubled(x: u32) -> u32 {\n    x * 2\n}\n";
    let report = lint_files(&[
        (LIB.to_string(), allowed.to_string()),
        ("examples/quickstart.rs".to_string(), CALL.to_string()),
    ]);
    assert_eq!(rules(&report), vec![(LIB.to_string(), 1, "dead-allow")]);
    assert!(report.allows.is_empty());
}

#[test]
fn a_single_file_lint_leaves_workspace_allows_unaccounted() {
    // Linted alone, the file has no index to judge by: its allow is
    // neither consumed nor dead.
    let allowed = "// nomc-lint: allow(test-only-api) — the oracle tests pin\npub fn doubled(x: u32) -> u32 {\n    x * 2\n}\n";
    let file = nomc_lint::lint_source_full(LIB, allowed);
    assert!(file.diagnostics.is_empty());
    assert!(file.allows.is_empty());
}

#[test]
fn a_lint_below_the_workspace_root_says_the_rule_was_not_judged() {
    // Paths relative to `crates/phy`, as `nomc-lint crates/phy` walks
    // them: nothing is under `crates/*/src`, so nothing is judged.
    let report = lint_files(&[("src/model.rs".to_string(), LIB_SRC.to_string())]);
    assert!(report.diagnostics.is_empty());
    assert!(!report.workspace_rules_judged);
    let json = report.to_json().dump();
    assert!(
        json.contains("\"not_judged\":[{\"rule\":\"test-only-api\",\"reason\":\"it indexes"),
        "{json}"
    );
    // From the root the rule runs, and the JSON keeps its two keys.
    let judged = lint(&[]);
    assert!(judged.workspace_rules_judged);
    assert!(!judged.to_json().dump().contains("not_judged"));
}

#[test]
fn the_binary_names_the_unjudged_rule_in_text_and_json() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let lint_bin = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_nomc-lint"))
            .args(args)
            .current_dir(root)
            .output()
            .expect("nomc-lint runs")
    };
    for args in [&["src"][..], &["src/lib.rs"]] {
        let text = lint_bin(args);
        assert_eq!(text.status.code(), Some(0), "{args:?}");
        let stderr = String::from_utf8_lossy(&text.stderr);
        assert!(stderr.contains("test-only-api not judged"), "{stderr}");
    }
    let json = lint_bin(&["--format", "json", "src/lib.rs"]);
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"not_judged\""), "{stdout}");
}
