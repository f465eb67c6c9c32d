//! Rule `test-only-api`: no code without a production user. A public
//! item in a library crate that only tests name is dead weight the
//! compiler cannot see — `pub` silences rustc's dead-code lint — and it
//! drifts from the code paths the product actually takes.
//!
//! The rule is workspace-wide and name-based. One pass over every
//! file's tokens (comments, string contents and `#[cfg(test)]` regions
//! already masked) builds the set of identifiers that production
//! sources mention; a `pub fn`, `struct`, `enum`, `const`, `static`,
//! `type` or `trait` whose name is not in the set is a finding.
//!
//! - **Judged:** those items in `crates/*/src`, at any nesting (free,
//!   in a module, associated), except binaries (`src/bin/`,
//!   `main.rs`), `tests.rs` files and the `nomc-bench` harness.
//! - **Users:** everything under `crates/*/src` (binaries and the
//!   bench harness included), `examples/` and `perfbench/src` — the
//!   benchmark is a downstream user like any other.
//! - **Not users:** `tests/`, `crates/*/tests`, `benches/`, `tests.rs`
//!   files, comments and doc comments, the name of a definition itself
//!   (`fn NAME`, `struct NAME`, …), and `use` declarations (a re-export
//!   uses nothing). Traits are the exception to the last: a method call
//!   resolves through the trait's import, so a `use` of a trait counts.
//!
//! Matching by name over-approximates users (two items that share a
//! name keep each other alive), so every finding is a real one. A
//! deliberate oracle or reference implementation keeps its item behind
//! `// nomc-lint: allow(test-only-api)` with a reason, justified in
//! DESIGN.md §8.

use crate::diag::Diagnostic;
use crate::parser::{Token, TokenKind};
use std::collections::BTreeSet;

pub const RULE: &str = "test-only-api";

/// The item keywords whose next identifier is a definition, not a use.
const DEFINES: &[&str] = &["fn", "struct", "enum", "const", "static", "type", "trait"];

/// Whether `rel_path` is library source whose public items are judged.
pub fn defines_api(rel_path: &str) -> bool {
    is_crate_src(rel_path)
        && !rel_path.starts_with("crates/bench/")
        && !rel_path.contains("/src/bin/")
        && !rel_path.ends_with("/main.rs")
}

/// Whether identifiers in `rel_path` count as production users.
fn is_caller(rel_path: &str) -> bool {
    is_crate_src(rel_path)
        || rel_path.starts_with("examples/")
        || rel_path.starts_with("perfbench/src/")
}

/// `crates/<name>/src/**`, minus external `tests.rs` modules.
fn is_crate_src(rel_path: &str) -> bool {
    let mut parts = rel_path.splitn(4, '/');
    parts.next() == Some("crates")
        && parts.next().is_some()
        && parts.next() == Some("src")
        && !rel_path.ends_with("/tests.rs")
}

/// The identifiers production sources mention.
#[derive(Debug, Default)]
pub struct Index {
    /// Mentions outside `use` declarations and definition names.
    mentioned: BTreeSet<String>,
    /// Mentions inside `use` declarations: they keep only traits alive.
    imported: BTreeSet<String>,
}

impl Index {
    /// Adds the mentions in one file's tokens, if the file is a user.
    pub fn add_file(&mut self, rel_path: &str, tokens: &[Token]) {
        if !is_caller(rel_path) {
            return;
        }
        let mut prev_defines = false;
        let mut in_use = false;
        for t in tokens.iter().filter(|t| !t.in_test) {
            if in_use {
                in_use = !(t.kind == TokenKind::Punct && t.text == ";");
                if in_use && t.kind == TokenKind::Ident {
                    insert(&mut self.imported, &t.text);
                }
            } else if t.is_ident("use") {
                in_use = true;
            } else if t.kind == TokenKind::Ident && !prev_defines {
                insert(&mut self.mentioned, &t.text);
            }
            prev_defines = t.kind == TokenKind::Ident && DEFINES.contains(&t.text.as_str());
        }
    }
}

/// Inserts `name` unless present: a `String` per mention would dominate
/// the pass.
fn insert(set: &mut BTreeSet<String>, name: &str) {
    if !set.contains(name) {
        set.insert(name.to_string());
    }
}

/// The bare-`pub` items of one file's production code, as (kind
/// keyword, name token). `pub(crate)` and friends are not public API,
/// and fields (`pub x: T`) and `pub mod`/`pub use` are not items judged.
fn public_items(tokens: &[Token]) -> Vec<(&str, &Token)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.in_test).collect();
    let ident = |i: usize, word: &str| code.get(i).is_some_and(|t| t.is_ident(word));
    let mut out = Vec::new();
    for i in 0..code.len() {
        if !ident(i, "pub") || code.get(i + 1).is_some_and(|t| t.text == "(") {
            continue;
        }
        // Skip function qualifiers: `const fn`, `unsafe fn`, `extern "C" fn`.
        let mut j = i + 1;
        while ["async", "unsafe", "extern"].iter().any(|q| ident(j, q))
            || code.get(j).is_some_and(|t| t.kind == TokenKind::Str)
            || (ident(j, "const")
                && ["fn", "async", "unsafe", "extern"]
                    .iter()
                    .any(|q| ident(j + 1, q)))
        {
            j += 1;
        }
        let Some(kind) = code
            .get(j)
            .filter(|t| DEFINES.iter().any(|k| t.is_ident(k)))
        else {
            continue;
        };
        if ident(j + 1, "mut") {
            j += 1;
        }
        if let Some(name) = code.get(j + 1).filter(|t| t.kind == TokenKind::Ident) {
            out.push((kind.text.as_str(), *name));
        }
    }
    out
}

/// Flags every judged public item in `tokens` that `index` never
/// mentions.
pub fn check(rel_path: &str, tokens: &[Token], index: &Index, out: &mut Vec<Diagnostic>) {
    if !defines_api(rel_path) {
        return;
    }
    for (kind, name) in public_items(tokens) {
        let used = index.mentioned.contains(&name.text)
            || (kind == "trait" && index.imported.contains(&name.text));
        if used {
            continue;
        }
        out.push(Diagnostic::new(
            rel_path,
            name.line,
            RULE,
            format!(
                "`pub {kind} {}` has no production user (only tests, benches or \
                 comments name it); delete it, or keep a deliberate oracle behind \
                 an allow with its reason",
                name.text
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_split_library_code_from_callers() {
        assert!(defines_api("crates/sim/src/engine.rs"));
        assert!(!defines_api("crates/sim/src/runtime/tests.rs"));
        assert!(!defines_api("crates/cli/src/main.rs"));
        assert!(!defines_api(
            "crates/experiments/src/bin/all_experiments.rs"
        ));
        assert!(!defines_api("crates/bench/src/harness.rs"));
        assert!(!defines_api("crates/sim/tests/x.rs"));
        assert!(is_caller("crates/experiments/src/bin/all_experiments.rs"));
        assert!(is_caller("crates/bench/src/harness.rs"));
        assert!(is_caller("examples/quickstart.rs"));
        assert!(is_caller("perfbench/src/main.rs"));
        assert!(!is_caller("perfbench/tests/x.rs"));
        assert!(!is_caller("tests/tests/end_to_end.rs"));
        assert!(!is_caller("crates/bench/benches/sim.rs"));
        assert!(!is_caller("crates/sim/src/runtime/tests.rs"));
    }
}
