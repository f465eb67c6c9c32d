//! Rule `dep-audit`: the dependency graph is hermetic and has no dead
//! edges. It scans every `Cargo.toml` and flags
//!
//! - any dependency that is not a `nomc-*` crate resolved by
//!   `path`/`workspace`: in-tree path crates keep the whole CI gate
//!   offline and results never shift under a registry update, and in a
//!   path-only workspace the manifest graph *is* the full dependency
//!   graph, so no `cargo tree` run is needed;
//! - any `nomc-*` entry under `[dependencies]` or `[dev-dependencies]`
//!   whose crate identifier (`nomc_x`) no `.rs` file of its package
//!   names. The package's files are its `src/`, `tests/` and `benches/`
//!   trees plus the `path` of every `[[example]]`, `[[bench]]`,
//!   `[[bin]]` and `[[test]]` target (`nomc-experiments` owns the root
//!   `examples/` this way). This half needs the package's sources, so
//!   it runs only in a directory lint ([`check_edges`]), and only for a
//!   package whose target paths all lie inside the linted tree.
//!
//! The escape hatch is a TOML comment: `# nomc-lint: allow(dep-audit)`
//! on the dependency line or the line above.

use crate::diag::Diagnostic;
use crate::source::{parse_directive, Directive};
use std::collections::{BTreeMap, BTreeSet};

pub const RULE: &str = "dep-audit";

/// One dependency entry of a manifest.
struct Dep<'a> {
    /// 1-based line.
    line: usize,
    /// Whether it sits in `[dependencies]` or `[dev-dependencies]`,
    /// where [`check_edges`] judges its use.
    edge: bool,
    /// The dependency key (`nomc-units`).
    name: &'a str,
    /// Whether it is resolved by `path` or `workspace`.
    in_tree: bool,
}

/// Every dependency entry of `content`, and the `path` of every
/// `[[example]]`/`[[bench]]`/`[[bin]]`/`[[test]]` target.
fn scan(content: &str) -> (Vec<Dep<'_>>, Vec<&str>) {
    let mut deps = Vec::new();
    let mut targets = Vec::new();
    let mut section = String::new();
    for (idx, raw) in content.lines().enumerate() {
        let (code, _comment) = split_toml_comment(raw);
        let t = code.trim();
        if t.starts_with('[') {
            section = t.trim_matches(['[', ']']).trim().to_string();
            continue;
        }
        let Some((lhs, rhs)) = t.split_once('=') else {
            continue;
        };
        let key = lhs.trim().trim_matches('"');
        let rhs = rhs.trim();
        if matches!(section.as_str(), "example" | "bench" | "bin" | "test") && key == "path" {
            targets.push(rhs.trim_matches('"'));
        }
        if !is_dep_section(&section) {
            continue;
        }
        // Dotted keys: `nomc-units.workspace = true`.
        let (name, dotted) = match key.split_once('.') {
            Some((n, d)) => (n, Some(d)),
            None => (key, None),
        };
        if name.is_empty() {
            continue;
        }
        deps.push(Dep {
            line: idx + 1,
            edge: matches!(section.as_str(), "dependencies" | "dev-dependencies"),
            name,
            in_tree: rhs.contains("path")
                || rhs.contains("workspace")
                || matches!(dotted, Some("path") | Some("workspace")),
        });
    }
    (deps, targets)
}

/// Raw hermeticity findings, *before* allow-directive suppression — the
/// pipeline in the crate root applies [`directives`] so consumption is
/// accounted (a `# nomc-lint: allow(dep-audit)` that suppresses nothing
/// is a `dead-allow` error like any other).
pub fn check(rel_path: &str, content: &str, out: &mut Vec<Diagnostic>) {
    for dep in scan(content).0 {
        let name = dep.name;
        if !name.starts_with("nomc-") {
            out.push(Diagnostic::new(
                rel_path,
                dep.line,
                RULE,
                format!(
                    "external dependency `{name}`; the workspace is hermetic — only \
                     in-tree nomc-* path crates are allowed"
                ),
            ));
        } else if !dep.in_tree {
            out.push(Diagnostic::new(
                rel_path,
                dep.line,
                RULE,
                format!(
                    "dependency `{name}` is not resolved by path/workspace; registry \
                     and git sources are forbidden in the hermetic workspace"
                ),
            ));
        }
    }
}

/// Raw dead-edge findings for the manifest at `rel_path`. `names` maps
/// each linted `.rs` file (relative to the same root) to the `nomc_*`
/// identifiers its code mentions, test code included. A package with a
/// target path outside the linted tree is not judged.
pub fn check_edges(
    rel_path: &str,
    content: &str,
    names: &BTreeMap<String, BTreeSet<String>>,
    out: &mut Vec<Diagnostic>,
) {
    let dir = rel_path.strip_suffix("Cargo.toml").unwrap_or_default();
    let (deps, targets) = scan(content);
    let Some(targets) = targets
        .iter()
        .map(|t| normalize(&format!("{dir}{t}")))
        .collect::<Option<Vec<_>>>()
    else {
        return;
    };
    let in_package = |file: &str| {
        ["src/", "tests/", "benches/"]
            .iter()
            .any(|sub| file.strip_prefix(dir).is_some_and(|f| f.starts_with(sub)))
            || targets.iter().any(|t| t == file)
    };
    for dep in deps {
        if !dep.edge || !dep.name.starts_with("nomc-") {
            continue;
        }
        let ident = dep.name.replace('-', "_");
        let named = names
            .iter()
            .any(|(file, ids)| ids.contains(&ident) && in_package(file));
        if !named {
            out.push(Diagnostic::new(
                rel_path,
                dep.line,
                RULE,
                format!(
                    "dependency `{}` is unused: no `.rs` file of this package names \
                     `{ident}`; delete the edge",
                    dep.name
                ),
            ));
        }
    }
}

/// Resolves `.` and `..` segments; `None` when the path climbs out of
/// the linted tree.
fn normalize(path: &str) -> Option<String> {
    let mut parts: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                parts.pop()?;
            }
            s => parts.push(s),
        }
    }
    Some(parts.join("/"))
}

fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section.ends_with(".dependencies")
        || section.ends_with(".dev-dependencies")
        || section.ends_with(".build-dependencies")
}

/// The allow directives of a TOML manifest (`# nomc-lint: allow(…)`
/// comments), with the same coverage shape as Rust sources: a trailing
/// directive covers its own line; a pure comment line covers itself
/// and the next line.
pub fn directives(content: &str) -> Vec<Directive> {
    let mut out = Vec::new();
    for (idx, raw) in content.lines().enumerate() {
        let (code, comment) = split_toml_comment(raw);
        let Some(rules) = parse_directive(comment) else {
            continue;
        };
        let at = idx + 1;
        let covers = if code.trim().is_empty() {
            vec![at, at + 1]
        } else {
            vec![at]
        };
        out.push(Directive {
            line: at,
            rules,
            covers,
        });
    }
    out
}

/// Splits a TOML line into (code, comment) at the first `#` outside a
/// quoted string.
fn split_toml_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return (&line[..i], &line[i + 1..]),
            _ => {}
        }
    }
    (line, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(toml: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check("crates/x/Cargo.toml", toml, &mut out);
        out
    }

    #[test]
    fn registry_and_git_deps_are_flagged() {
        let toml = "[dependencies]\nserde = \"1.0\"\nrand = { version = \"0.8\" }\ntokio = { git = \"https://example\" }\n";
        let d = lint(toml);
        assert_eq!(d.len(), 3);
        assert!(d[0].message.contains("serde"));
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn nomc_path_and_workspace_deps_pass() {
        let toml = "[dependencies]\nnomc-units.workspace = true\nnomc-json = { path = \"../json\" }\n\n[dev-dependencies]\nnomc-rngcore = { workspace = true }\n";
        assert!(lint(toml).is_empty());
    }

    #[test]
    fn nomc_named_registry_dep_is_flagged() {
        let d = lint("[dependencies]\nnomc-extra = \"1.0\"\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("path/workspace"));
    }

    #[test]
    fn non_dep_sections_are_ignored() {
        let toml = "[package]\nname = \"serde\"\nversion = \"1.0\"\n\n[features]\nrand = []\n";
        assert!(lint(toml).is_empty());
    }

    #[test]
    fn workspace_dependencies_section_is_audited() {
        let d = lint("[workspace.dependencies]\nserde = { version = \"1\" }\n");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn toml_directives_are_extracted_with_coverage() {
        let toml = "[dependencies]\n# nomc-lint: allow(dep-audit)\nserde = \"1.0\"\nrand = \"0.8\" # nomc-lint: allow(dep-audit)\n";
        let d = directives(toml);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].covers, vec![2, 3]);
        assert_eq!(d[1].covers, vec![4]);
        // Raw findings ignore the directives; the pipeline suppresses.
        assert_eq!(lint(toml).len(), 2);
    }
}
