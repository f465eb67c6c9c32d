//! `dep-audit`'s edge check over small in-memory workspaces: a `nomc-*`
//! dependency that no `.rs` file of its package names is a finding.

use nomc_lint::{lint_files, LintReport};

const MANIFEST: &str = "crates/cli/Cargo.toml";

/// A manifest with one edge per section: `nomc-sim` on line 5 and the
/// dev-dependency `nomc-rngcore` on line 8.
const EDGES: &str =
    "[package]\nname = \"nomc-cli\"\n\n[dependencies]\nnomc-sim.workspace = true\n\n\
                     [dev-dependencies]\nnomc-rngcore.workspace = true\n";

fn lint(manifest: &str, files: &[(&str, &str)]) -> LintReport {
    let mut all = vec![(MANIFEST.to_string(), manifest.to_string())];
    all.extend(files.iter().map(|(p, c)| (p.to_string(), c.to_string())));
    lint_files(&all)
}

fn lines(report: &LintReport) -> Vec<(usize, &'static str)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

const USES_SIM: &str = "fn main() {\n    nomc_sim::engine::run();\n}\n";
const USES_RNG: &str = "#[test]\nfn t() {\n    nomc_rngcore::Xoshiro::seed(1);\n}\n";

#[test]
fn an_unused_edge_is_a_finding() {
    let report = lint(EDGES, &[("crates/cli/src/main.rs", "fn main() {}\n")]);
    assert_eq!(lines(&report), vec![(5, "dep-audit"), (8, "dep-audit")]);
    assert!(report.diagnostics[0].message.contains("`nomc_sim`"));
    // Named from the package's `src/`, `tests/` or `benches/`, each
    // edge is live; test code counts for a dev-dependency.
    for rng_user in ["crates/cli/tests/t.rs", "crates/cli/benches/b.rs"] {
        let report = lint(
            EDGES,
            &[("crates/cli/src/main.rs", USES_SIM), (rng_user, USES_RNG)],
        );
        assert!(
            report.diagnostics.is_empty(),
            "{rng_user}: {:?}",
            lines(&report)
        );
    }
    // Another package's files, comments and strings name nothing.
    let elsewhere = lint(
        EDGES,
        &[
            ("crates/sim/src/lib.rs", USES_SIM),
            ("crates/cli/tests/t.rs", USES_RNG),
            (
                "crates/cli/src/main.rs",
                "// nomc_sim::engine\nfn main() {\n    let _ = \"nomc_sim\";\n}\n",
            ),
        ],
    );
    assert_eq!(lines(&elsewhere), vec![(5, "dep-audit")]);
}

#[test]
fn an_edge_named_only_by_an_example_outside_the_package_is_clean() {
    let manifest =
        "[package]\nname = \"nomc-experiments\"\n\n[dependencies]\nnomc-sim.workspace = true\n\n\
                    [[example]]\nname = \"quickstart\"\npath = \"../../examples/quickstart.rs\"\n";
    let at = |files: &[(&str, &str)]| {
        let mut all = vec![(
            "crates/experiments/Cargo.toml".to_string(),
            manifest.to_string(),
        )];
        all.extend(files.iter().map(|(p, c)| (p.to_string(), c.to_string())));
        lint_files(&all)
    };
    let report = at(&[("examples/quickstart.rs", USES_SIM)]);
    assert!(report.diagnostics.is_empty(), "{:?}", lines(&report));
    // Only the target's own path counts, not its directory.
    let report = at(&[("examples/other.rs", USES_SIM)]);
    assert_eq!(lines(&report), vec![(5, "dep-audit")]);
    // Linted from the package directory, the example lies outside the
    // tree: the package's edges are not judged at all.
    let sub = lint_files(&[
        ("Cargo.toml".to_string(), manifest.to_string()),
        ("src/lib.rs".to_string(), "pub fn f() {}\n".to_string()),
    ]);
    assert!(sub.diagnostics.is_empty(), "{:?}", lines(&sub));
}

#[test]
fn an_allow_suppresses_the_finding_and_a_stray_allow_is_dead() {
    let allowed = EDGES.replace(
        "nomc-sim.workspace",
        "# nomc-lint: allow(dep-audit) — named by a build script\nnomc-sim.workspace",
    );
    let report = lint(&allowed, &[("crates/cli/tests/t.rs", USES_RNG)]);
    assert!(report.diagnostics.is_empty(), "{:?}", lines(&report));
    assert_eq!(report.allows.len(), 1);
    assert_eq!(
        (report.allows[0].line, report.allows[0].rule.as_str()),
        (5, "dep-audit")
    );
    let stray = lint(
        &allowed,
        &[
            ("crates/cli/src/main.rs", USES_SIM),
            ("crates/cli/tests/t.rs", USES_RNG),
        ],
    );
    assert_eq!(lines(&stray), vec![(5, "dead-allow")]);
    assert!(stray.allows.is_empty());
}
