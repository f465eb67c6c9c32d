//! Rule `test-only-api`: no code without a production caller. A `pub
//! fn` in a library crate that only tests call is dead weight the
//! compiler cannot see — `pub` silences rustc's dead-code lint — and it
//! drifts from the code paths the product actually takes.
//!
//! The rule is workspace-wide and name-based. One pass over every
//! file's code view (comments, string contents and `#[cfg(test)]`
//! regions already masked) builds the set of identifiers that
//! production sources mention; a `pub fn` whose name is not in the set
//! is a finding.
//!
//! - **Judged:** `pub fn`s in `crates/*/src`, except binaries
//!   (`src/bin/`, `main.rs`), `tests.rs` files and the `nomc-bench`
//!   harness.
//! - **Callers:** everything under `crates/*/src` (binaries and the
//!   bench harness included), `examples/` and `perfbench/src` — the
//!   benchmark is a downstream caller like any other.
//! - **Not callers:** `tests/`, `crates/*/tests`, `benches/`,
//!   `tests.rs` files, comments and doc comments, the `fn NAME` of a
//!   definition itself, and `use` declarations (a re-export calls
//!   nothing).
//!
//! Matching by name over-approximates callers (two fns that share a
//! name keep each other alive), so every finding is a real one. A
//! deliberate oracle or reference implementation keeps its `pub fn`
//! behind `// nomc-lint: allow(test-only-api)` with a reason, justified
//! in DESIGN.md §8.

use crate::diag::Diagnostic;
use crate::parser::{Items, Token, TokenKind};
use std::collections::BTreeSet;

pub const RULE: &str = "test-only-api";

/// Whether `rel_path` is library source whose `pub fn`s are judged.
pub fn defines_api(rel_path: &str) -> bool {
    is_crate_src(rel_path)
        && !rel_path.starts_with("crates/bench/")
        && !rel_path.contains("/src/bin/")
        && !rel_path.ends_with("/main.rs")
}

/// Whether identifiers in `rel_path` count as production callers.
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
    mentioned: BTreeSet<String>,
}

impl Index {
    /// Adds the mentions in one file's tokens, if the file is a caller.
    pub fn add_file(&mut self, rel_path: &str, tokens: &[Token]) {
        if !is_caller(rel_path) {
            return;
        }
        let mut prev_fn = false;
        let mut in_use = false;
        for t in tokens.iter().filter(|t| !t.in_test) {
            if in_use {
                in_use = !(t.kind == TokenKind::Punct && t.text == ";");
            } else if t.is_ident("use") {
                in_use = true;
            } else if t.kind == TokenKind::Ident && !prev_fn {
                // A `String` per mention would dominate the pass; look
                // up first.
                if !self.mentioned.contains(&t.text) {
                    self.mentioned.insert(t.text.clone());
                }
            }
            prev_fn = t.is_ident("fn");
        }
    }
}

/// Flags every judged `pub fn` in `items` that `index` never mentions.
pub fn check(rel_path: &str, items: &Items, index: &Index, out: &mut Vec<Diagnostic>) {
    if !defines_api(rel_path) {
        return;
    }
    for f in &items.fns {
        if f.in_test || f.vis != ["pub"] || index.mentioned.contains(&f.name) {
            continue;
        }
        out.push(Diagnostic::new(
            rel_path,
            f.line,
            RULE,
            format!(
                "`pub fn {}` has no production caller (only tests, benches or \
                 comments name it); delete it, or keep a deliberate oracle behind \
                 an allow with its reason",
                f.name
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
