//! `nomc-lint` — the workspace's in-tree static-analysis gate.
//!
//! The reproduction's core promise (bit-identical DCN figures for a
//! given scenario + seed, byte-identical metrics JSON in the Fig. 4
//! regression) rests on invariants no compiler checks: no hash-order or
//! wall-clock leaks in the report path, unit-carrying quantities behind
//! `nomc-units` newtypes, total float comparisons, pure observer sinks,
//! exhaustive event dispatch, no silent panics in the simulator hot
//! path, and a hermetic dependency graph. This crate encodes those
//! invariants as machine-checked rules over the workspace sources (see
//! DESIGN.md §8):
//!
//! | rule id               | scope                                    |
//! |-----------------------|------------------------------------------|
//! | `determinism`         | `sim`/`mac`/`core`/`experiments` src     |
//! | `unit-safety`         | fn params/fields/lets, all non-test crates |
//! | `panic-hygiene`       | all non-test `sim/src/**` sources        |
//! | `dep-audit`           | every `Cargo.toml`                       |
//! | `float-totality`      | `sim`/`phy`/`mac`/`core`/`experiments`   |
//! | `observer-purity`     | every `impl SimObserver`                 |
//! | `exhaustive-dispatch` | `sim/src/runtime/{dispatch,faults,snapshot}.rs` + shard merge |
//! | `test-only-api`       | every `pub fn` in library `crates/*/src` |
//! | `dead-allow`          | every allow directive                    |
//!
//! The line-oriented v1 rules run on the lexed [`source::SourceFile`]
//! view; the flow-aware v2 rules run on the [`parser`] item stream
//! (lexer → token stream → items → rules — no expression AST). The
//! workspace-wide `test-only-api` rule runs in [`lint_files`], over a
//! name index of every file.
//!
//! Diagnostics render as `file:line: rule-id: message`. A finding is
//! suppressed by `// nomc-lint: allow(<rule-id>)` (`#` comment in TOML)
//! on the same line or the line directly above — and every directive is
//! *accounted*: one that suppresses nothing is itself a `dead-allow`
//! error, so the escape-hatch inventory (reported by `--format json`)
//! stays honest. Each live allow must be justified in DESIGN.md §8.
//!
//! In-tree only (`nomc-json` for the JSON output), fully offline.

pub mod diag;
pub mod parser;
pub mod rules;
pub mod source;

pub use diag::Diagnostic;

use nomc_json::{Json, Number};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One consumed (live) allow directive entry: the escape-hatch
/// inventory `--format json` reports and CI diffs against its golden.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllowRecord {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule the directive suppressed diagnostics of.
    pub rule: String,
}

/// The lint outcome for one file: post-suppression diagnostics plus the
/// directives that earned their keep.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Diagnostics surviving allow suppression (including `dead-allow`
    /// findings for directives that suppressed nothing).
    pub diagnostics: Vec<Diagnostic>,
    /// Consumed allow directives, one record per (directive, rule).
    pub allows: Vec<AllowRecord>,
}

/// The outcome of a workspace run.
#[derive(Debug)]
pub struct LintReport {
    /// Sorted by (file, line, rule, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Sorted consumed-allow inventory (empty is the target state).
    pub allows: Vec<AllowRecord>,
    /// False when a linted path was not a workspace root (a subdirectory
    /// or a single file), so the [`rules::WORKSPACE`] rules judged it not.
    pub workspace_rules_judged: bool,
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
}

/// Why the [`rules::WORKSPACE`] rules judged nothing, in the report.
pub const NOT_JUDGED: &str = "it indexes the whole workspace and judges `crates/*/src` \
     paths, so only a lint of the workspace root runs it";

impl LintReport {
    /// The machine-readable report: `{"diagnostics": […], "allows":
    /// […]}`, plus `"not_judged": [{"rule", "reason"}…]` unless the
    /// workspace rules judged every path. Deliberately excludes
    /// `files_scanned`, which churns with every added file and would
    /// invalidate the committed golden.
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_string());
        let n = |v: usize| Json::Num(Number::U64(v as u64));
        let diagnostics = Json::array(self.diagnostics.iter().map(|d| {
            Json::object([
                ("file", s(&d.file)),
                ("line", n(d.line)),
                ("rule", s(d.rule)),
                ("message", s(&d.message)),
            ])
        }));
        let allows = Json::array(self.allows.iter().map(|a| {
            Json::object([
                ("file", s(&a.file)),
                ("line", n(a.line)),
                ("rule", s(&a.rule)),
            ])
        }));
        let mut fields = vec![("diagnostics", diagnostics), ("allows", allows)];
        if !self.workspace_rules_judged {
            let rule = |r: &&str| Json::object([("rule", s(r)), ("reason", s(NOT_JUDGED))]);
            fields.push(("not_judged", Json::array(rules::WORKSPACE.iter().map(rule))));
        }
        Json::object(fields)
    }
}

/// Runs every per-file source rule applicable to `rel_path` over
/// `content`, with allow accounting. The workspace-wide
/// `test-only-api` rule needs every file at once, so it runs only in
/// [`lint_files`]; here its directives are left unaccounted.
pub fn lint_source_full(rel_path: &str, content: &str) -> FileLint {
    let scan = scan_source(rel_path, content);
    apply_allows(rel_path, &scan.directives, scan.raw, false)
}

/// Runs the manifest rule (`dep-audit`) over one `Cargo.toml`, with
/// allow accounting.
pub fn lint_manifest_full(rel_path: &str, content: &str) -> FileLint {
    let mut raw = Vec::new();
    rules::dep_audit::check(rel_path, content, &mut raw);
    apply_allows(rel_path, &rules::dep_audit::directives(content), raw, true)
}

/// One source file's directives, items, tokens and per-file findings,
/// before allow accounting.
struct Scanned {
    directives: Vec<source::Directive>,
    items: parser::Items,
    tokens: Vec<parser::Token>,
    raw: Vec<Diagnostic>,
}

fn scan_source(rel_path: &str, content: &str) -> Scanned {
    let sf = source::SourceFile::parse(content);
    let items = parser::parse(&sf);
    let tokens = parser::tokenize(&sf);
    let mut raw = Vec::new();
    rules::determinism::check(rel_path, &sf, &mut raw);
    rules::unit_safety::check(rel_path, &items, &mut raw);
    rules::panic_hygiene::check(rel_path, &sf, &mut raw);
    rules::float_totality::check(rel_path, &tokens, &items, &mut raw);
    rules::observer_purity::check(rel_path, &items, &mut raw);
    rules::exhaustive_dispatch::check(rel_path, &items, &mut raw);
    Scanned {
        directives: sf.directives(),
        items,
        tokens,
        raw,
    }
}

/// Suppresses `raw` diagnostics covered by `directives`, accounting
/// consumption per (directive, rule): consumed pairs become
/// [`AllowRecord`]s, unconsumed ones become `dead-allow` diagnostics.
/// `dead-allow` findings are emitted *after* suppression, so they are
/// unsuppressible by construction. Without `workspace`, directives
/// naming a [`rules::WORKSPACE`] rule are skipped: that rule did not
/// run, so it cannot tell a live allow from a stale one.
fn apply_allows(
    rel_path: &str,
    directives: &[source::Directive],
    raw: Vec<Diagnostic>,
    workspace: bool,
) -> FileLint {
    let mut consumed: Vec<Vec<bool>> = directives
        .iter()
        .map(|d| vec![false; d.rules.len()])
        .collect();
    let mut diagnostics = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (di, dir) in directives.iter().enumerate() {
            if !dir.covers.contains(&d.line) {
                continue;
            }
            if let Some(ri) = dir.rules.iter().position(|r| r == d.rule) {
                consumed[di][ri] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            diagnostics.push(d);
        }
    }
    let mut allows = Vec::new();
    for (di, dir) in directives.iter().enumerate() {
        for (ri, rule) in dir.rules.iter().enumerate() {
            if !workspace && rules::WORKSPACE.contains(&rule.as_str()) {
                continue;
            }
            if consumed[di][ri] {
                allows.push(AllowRecord {
                    file: rel_path.to_string(),
                    line: dir.line,
                    rule: rule.clone(),
                });
            } else {
                let message = if rules::ALL.contains(&rule.as_str()) {
                    rules::dead_allow::dead_message(rule)
                } else {
                    rules::dead_allow::unknown_rule_message(rule)
                };
                diagnostics.push(Diagnostic::new(
                    rel_path,
                    dir.line,
                    rules::dead_allow::RULE,
                    message,
                ));
            }
        }
    }
    diagnostics.sort();
    FileLint {
        diagnostics,
        allows,
    }
}

/// Walks the workspace rooted at `root` and lints every `.rs` file and
/// `Cargo.toml` through [`lint_files`], skipping `target/`, VCS
/// metadata, and the lint's own fixture corpus (`**/tests/fixtures/**`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut paths = Vec::new();
    collect(root, Path::new(""), &mut paths)?;
    paths.sort();
    let files = paths
        .iter()
        .map(|rel| {
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            Ok((rel_str, fs::read_to_string(root.join(rel))?))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(lint_files(&files))
}

/// Lints `(workspace-relative path, content)` pairs as one workspace:
/// every per-file rule, then the workspace-wide `test-only-api` pass
/// over the name index all files built, with allow accounting.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    let mut diagnostics = Vec::new();
    let mut allows = Vec::new();
    let mut index = rules::test_only_api::Index::default();
    let mut pending = Vec::new();
    for (rel, content) in files {
        if rel.ends_with("Cargo.toml") {
            let file = lint_manifest_full(rel, content);
            diagnostics.extend(file.diagnostics);
            allows.extend(file.allows);
            continue;
        }
        let scan = scan_source(rel, content);
        index.add_file(rel, &scan.tokens);
        pending.push((rel, scan));
    }
    for (rel, mut scan) in pending {
        rules::test_only_api::check(rel, &scan.items, &index, &mut scan.raw);
        let file = apply_allows(rel, &scan.directives, scan.raw, true);
        diagnostics.extend(file.diagnostics);
        allows.extend(file.allows);
    }
    diagnostics.sort();
    diagnostics.dedup();
    allows.sort();
    allows.dedup();
    LintReport {
        diagnostics,
        allows,
        workspace_rules_judged: files
            .iter()
            .any(|(rel, _)| rules::test_only_api::defines_api(rel)),
        files_scanned: files.len(),
    }
}

fn collect(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let dir = root.join(rel);
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name_str = name.to_string_lossy().into_owned();
        let child = rel.join(&name);
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if name_str == "target" || name_str.starts_with('.') {
                continue;
            }
            if name_str == "fixtures" && rel.file_name().is_some_and(|p| p == "tests") {
                continue;
            }
            collect(root, &child, out)?;
        } else if ty.is_file() && (name_str.ends_with(".rs") || name_str == "Cargo.toml") {
            out.push(child);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_directive_filters_source_diagnostics() {
        let src = "use std::collections::HashMap; // nomc-lint: allow(determinism)\n";
        assert!(lint_source_full("crates/sim/src/x.rs", src)
            .diagnostics
            .is_empty());
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            lint_source_full("crates/sim/src/x.rs", src)
                .diagnostics
                .len(),
            1
        );
    }

    #[test]
    fn diagnostics_are_rule_tagged() {
        let src = "use std::collections::HashMap;\n";
        let d = lint_source_full("crates/sim/src/x.rs", src).diagnostics;
        assert_eq!(d[0].rule, rules::determinism::RULE);
        assert!(rules::ALL.contains(&d[0].rule));
    }

    #[test]
    fn consumed_allows_are_inventoried() {
        let src = "use std::collections::HashMap; // nomc-lint: allow(determinism)\n";
        let file = lint_source_full("crates/sim/src/x.rs", src);
        assert!(file.diagnostics.is_empty());
        assert_eq!(
            file.allows,
            vec![AllowRecord {
                file: "crates/sim/src/x.rs".into(),
                line: 1,
                rule: "determinism".into(),
            }]
        );
    }

    #[test]
    fn dead_allows_are_errors() {
        let src = "// nomc-lint: allow(determinism)\nlet x = 1;\n";
        let file = lint_source_full("crates/sim/src/x.rs", src);
        assert!(file.allows.is_empty());
        assert_eq!(file.diagnostics.len(), 1);
        assert_eq!(file.diagnostics[0].rule, rules::dead_allow::RULE);
        assert_eq!(file.diagnostics[0].line, 1);
        assert!(file.diagnostics[0].message.contains("stale"));
    }

    #[test]
    fn unknown_rule_allows_are_errors() {
        let src = "use std::f64; // nomc-lint: allow(no-such-rule)\n";
        let file = lint_source_full("crates/sim/src/x.rs", src);
        assert_eq!(file.diagnostics.len(), 1);
        assert_eq!(file.diagnostics[0].rule, rules::dead_allow::RULE);
        assert!(file.diagnostics[0].message.contains("unknown rule"));
    }

    #[test]
    fn allow_dead_allow_is_self_defeating() {
        // `dead-allow` findings are generated after suppression, so a
        // directive naming the rule can never consume anything — it is
        // reported dead itself.
        let src = "// nomc-lint: allow(dead-allow)\nlet x = 1;\n";
        let file = lint_source_full("crates/sim/src/x.rs", src);
        assert_eq!(file.diagnostics.len(), 1);
        assert_eq!(file.diagnostics[0].rule, rules::dead_allow::RULE);
    }

    #[test]
    fn multi_rule_directive_accounts_each_rule() {
        // The determinism half is consumed, the unit-safety half is
        // dead: one allow record plus one dead-allow diagnostic.
        let src = "use std::collections::HashMap; // nomc-lint: allow(determinism, unit-safety)\n";
        let file = lint_source_full("crates/sim/src/x.rs", src);
        assert_eq!(file.allows.len(), 1);
        assert_eq!(file.allows[0].rule, "determinism");
        assert_eq!(file.diagnostics.len(), 1);
        assert_eq!(file.diagnostics[0].rule, rules::dead_allow::RULE);
    }

    #[test]
    fn manifest_allows_are_accounted_too() {
        let live = "[dependencies]\nserde = \"1\" # nomc-lint: allow(dep-audit)\n";
        let file = lint_manifest_full("crates/x/Cargo.toml", live);
        assert!(file.diagnostics.is_empty());
        assert_eq!(file.allows.len(), 1);
        let dead = "[dependencies]\n# nomc-lint: allow(dep-audit)\nnomc-json.workspace = true\n";
        let file = lint_manifest_full("crates/x/Cargo.toml", dead);
        assert_eq!(file.diagnostics.len(), 1);
        assert_eq!(file.diagnostics[0].rule, rules::dead_allow::RULE);
    }

    #[test]
    fn report_json_shape_is_stable() {
        let report = LintReport {
            diagnostics: vec![Diagnostic::new("a.rs", 3, "determinism", "msg".into())],
            allows: vec![AllowRecord {
                file: "b.rs".into(),
                line: 9,
                rule: "unit-safety".into(),
            }],
            workspace_rules_judged: true,
            files_scanned: 2,
        };
        let json = report.to_json().dump();
        assert_eq!(
            json,
            "{\"diagnostics\":[{\"file\":\"a.rs\",\"line\":3,\"rule\":\"determinism\",\
             \"message\":\"msg\"}],\"allows\":[{\"file\":\"b.rs\",\"line\":9,\
             \"rule\":\"unit-safety\"}]}"
        );
        assert!(!json.contains("files_scanned"));
    }
}
