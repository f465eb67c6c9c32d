//! Rule `panic-hygiene`: the simulator (`crates/sim/src/`, including
//! the `runtime/` event-loop modules) executes millions of events per
//! run; a panic there aborts a whole sweep with no indication of which
//! invariant broke. The sweep supervisor
//! (`crates/experiments/src/sweep/`) and the CLI command layer are
//! held to the same bar: they are the crash-recovery and process-exit
//! machinery, where a panic destroys the typed-error contract the rest
//! of the stack relies on. Outside `#[cfg(test)]`, in-scope sources
//! must not use:
//!
//! - bare `.unwrap()` — use `.expect("…invariant…")` so the abort names
//!   the violated assumption, or return an error;
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`;
//! - slice indexing with a literal index (`xs[0]`) — use `.first()` /
//!   `.get(…)` with an explicit invariant message.
//!
//! Identifier-based indexing (`nodes[id]`) is *not* flagged: the engine
//! mints every `NodeId`/link index itself, so those are in-bounds by
//! construction, and a line scanner cannot separate them from map
//! lookups anyway (see DESIGN.md §8 for the scope rationale).

use crate::diag::Diagnostic;
use crate::rules::ident_positions;
use crate::source::SourceFile;

pub const RULE: &str = "panic-hygiene";

/// Every non-test source under these prefixes is in scope — the
/// runtime decomposition made "the hot path" the whole sim crate, and
/// the sweep supervisor is the crash-recovery machinery itself: a
/// panic while journaling loses exactly the durability the journal
/// exists to provide. The results server is held to the same bar: a
/// panic in a connection handler or worker turns hostile input into a
/// denial of service, which is the attack its total parser exists to
/// survive. Prefixes keep newly added modules covered automatically.
const HOT_PATH_PREFIXES: &[&str] = &[
    "crates/sim/src/",
    "crates/experiments/src/sweep/",
    "crates/serve/src/",
];

/// Integration-style test modules inside in-scope prefixes (whole
/// files that exist only for `#[cfg(test)]`).
const EXEMPT: &[&str] = &[
    "crates/sim/src/runtime/tests.rs",
    "crates/experiments/src/sweep/tests.rs",
];

/// Files outside the hot-path prefixes that are nevertheless covered:
/// the batch runner hosts the `catch_unwind` isolation boundary (a
/// stray panic there defeats the mechanism that confines panics
/// elsewhere), the CLI command layer is the process entry point — a
/// panic there turns a reportable usage error into an abort with no
/// exit-code contract — and the same goes for the bench-guard CI gate
/// binary. The PHY lookup tables run inside every medium query, so
/// they are held to the hot-path bar like the sim crate itself.
const EXTRA: &[&str] = &[
    "crates/experiments/src/runner.rs",
    "crates/cli/src/commands.rs",
    "crates/bench/src/bin/bench_guard.rs",
    "crates/phy/src/lut.rs",
];

const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn in_scope(rel_path: &str) -> bool {
    (HOT_PATH_PREFIXES.iter().any(|p| rel_path.starts_with(p)) || EXTRA.contains(&rel_path))
        && !EXEMPT.contains(&rel_path)
}

pub fn check(rel_path: &str, sf: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_scope(rel_path) {
        return;
    }
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if code.contains(".unwrap()") {
            out.push(Diagnostic::new(
                rel_path,
                idx + 1,
                RULE,
                "bare `.unwrap()` in the sim hot path; use `.expect(\"…invariant…\")` \
                 or return an error"
                    .to_string(),
            ));
        }
        for &m in MACROS {
            if ident_positions(code, m)
                .iter()
                .any(|&p| code.as_bytes().get(p + m.len()) == Some(&b'!'))
            {
                out.push(Diagnostic::new(
                    rel_path,
                    idx + 1,
                    RULE,
                    format!("`{m}!` in the sim hot path; handle the case or return an error"),
                ));
            }
        }
        for literal in literal_indexes(code) {
            out.push(Diagnostic::new(
                rel_path,
                idx + 1,
                RULE,
                format!(
                    "literal slice index `[{literal}]` in the sim hot path can panic; \
                     use `.first()`/`.get({literal})` with an invariant message"
                ),
            ));
        }
    }
}

/// Finds `expr[<integer literal>]` index expressions: a `[` directly
/// following an identifier/`)`/`]`, whose bracketed content is all
/// digits (plus `_` separators).
fn literal_indexes(code: &str) -> Vec<&str> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for i in 1..bytes.len() {
        if bytes[i] != b'[' {
            continue;
        }
        let prev = bytes[i - 1];
        if !(crate::rules::is_ident_byte(prev) || prev == b')' || prev == b']') {
            continue;
        }
        let Some(close) = code[i..].find(']') else {
            continue;
        };
        let inner = &code[i + 1..i + close];
        if !inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit() || b == b'_') {
            out.push(inner);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let sf = SourceFile::parse(src);
        let mut out = Vec::new();
        check("crates/sim/src/engine.rs", &sf, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_panic_and_literal_index() {
        let src = "fn f(xs: &[u64]) -> u64 {\n    let a = xs[0];\n    let b: u64 = s.parse().unwrap();\n    panic!(\"boom\");\n}\n";
        let d = lint(src);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
        assert_eq!(d[2].line, 4);
    }

    #[test]
    fn expect_and_ident_index_are_fine() {
        let src = "fn f(xs: &[u64], i: usize) -> u64 {\n    xs[i] + *xs.first().expect(\"non-empty by construction\")\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn array_type_and_literal_array_are_not_indexes() {
        let src = "fn f() {\n    let a: [u8; 4] = [0, 1, 2, 3];\n    let b = vec![0u8];\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let x = \"1\".parse::<u64>().unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn all_sim_sources_are_in_scope() {
        for path in [
            "crates/sim/src/metrics.rs",
            "crates/sim/src/runtime/mod.rs",
            "crates/sim/src/runtime/tx.rs",
            "crates/sim/src/runtime/faults.rs",
            "crates/sim/src/runtime/shard/partition.rs",
            "crates/sim/src/runtime/shard/merge.rs",
            "crates/sim/src/pool.rs",
            "crates/sim/src/runtime/snapshot.rs",
            "crates/experiments/src/sweep/checkpoint.rs",
        ] {
            let sf = SourceFile::parse("fn f() { panic!(\"x\"); }\n");
            let mut out = Vec::new();
            check(path, &sf, &mut out);
            assert_eq!(out.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn experiment_runner_and_cli_commands_are_in_scope() {
        // The isolation boundary and the CLI entry layer must stay
        // panic-clean; their `#[cfg(test)]` modules are still skipped
        // by the line scanner.
        for path in [
            "crates/experiments/src/runner.rs",
            "crates/cli/src/commands.rs",
        ] {
            let sf = SourceFile::parse("fn f() { panic!(\"x\"); }\n");
            let mut out = Vec::new();
            check(path, &sf, &mut out);
            assert_eq!(out.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn sweep_modules_are_in_scope() {
        // The crash-recovery machinery is covered by prefix, so new
        // sweep modules are picked up automatically.
        for path in [
            "crates/experiments/src/sweep/mod.rs",
            "crates/experiments/src/sweep/journal.rs",
            "crates/experiments/src/sweep/report.rs",
            "crates/experiments/src/sweep/some_future_module.rs",
        ] {
            let sf = SourceFile::parse("fn f() { panic!(\"x\"); }\n");
            let mut out = Vec::new();
            check(path, &sf, &mut out);
            assert_eq!(out.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn serve_modules_are_in_scope() {
        // The results server faces hostile sockets: a panic in any of
        // its modules converts malformed input into a crash, so the
        // whole crate is covered by prefix, future modules included.
        for path in [
            "crates/serve/src/http.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/some_future_module.rs",
        ] {
            let sf = SourceFile::parse("fn f(xs: &[u8]) { xs[0].check().unwrap(); }\n");
            let mut out = Vec::new();
            check(path, &sf, &mut out);
            assert_eq!(out.len(), 2, "{path} must be checked");
        }
    }

    #[test]
    fn non_sim_and_exempt_files_are_not_checked() {
        for path in [
            "crates/mac/src/lib.rs",
            "crates/sim/src/runtime/tests.rs",
            "crates/experiments/src/sweep/tests.rs",
        ] {
            let sf = SourceFile::parse("fn f() { panic!(\"x\"); }\n");
            let mut out = Vec::new();
            check(path, &sf, &mut out);
            assert!(out.is_empty(), "{path} must not be checked");
        }
    }
}
