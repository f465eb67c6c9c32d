//! Rule `determinism`: the report-path crates (`sim`, `mac`, `core`,
//! `experiments`, and the results server `serve`, whose cache dedup
//! and crash recovery both assume byte-identical reports) must stay
//! bit-reproducible for a given scenario + seed — that is what makes
//! the Fig. 4 byte-identical metrics-JSON regression meaningful.
//! Three leak classes are banned there:
//!
//! 1. hash-order containers (`HashMap`/`HashSet`/`RandomState`), whose
//!    iteration order is randomized per process;
//! 2. wall-clock reads (`Instant`, `SystemTime`) — simulated time comes
//!    from `SimTime` only;
//! 3. randomness sources other than `nomc_rngcore` (`thread_rng`,
//!    `OsRng`, `getrandom`, the `rand` crate), which are not seeded from
//!    the scenario.

use crate::diag::Diagnostic;
use crate::rules::ident_positions;
use crate::source::SourceFile;

pub const RULE: &str = "determinism";

const SCOPES: &[&str] = &[
    "crates/sim/src/",
    "crates/mac/src/",
    "crates/core/src/",
    "crates/experiments/src/",
    "crates/serve/src/",
];

const BANNED: &[(&str, &str)] = &[
    (
        "HashMap",
        "hash-order container: iteration order is randomized and can leak into results; \
         use BTreeMap or an index-keyed Vec",
    ),
    (
        "HashSet",
        "hash-order container: iteration order is randomized and can leak into results; \
         use BTreeSet or a sorted Vec",
    ),
    (
        "RandomState",
        "randomized hasher state; report-path crates must be seed-deterministic",
    ),
    (
        "Instant",
        "wall-clock read; report-path crates must derive all times from SimTime",
    ),
    (
        "SystemTime",
        "wall-clock read; report-path crates must derive all times from SimTime",
    ),
    (
        "thread_rng",
        "non-nomc-rngcore randomness; use a nomc_rngcore generator seeded from the scenario",
    ),
    (
        "ThreadRng",
        "non-nomc-rngcore randomness; use a nomc_rngcore generator seeded from the scenario",
    ),
    (
        "OsRng",
        "non-nomc-rngcore randomness; use a nomc_rngcore generator seeded from the scenario",
    ),
    (
        "getrandom",
        "non-nomc-rngcore randomness; use a nomc_rngcore generator seeded from the scenario",
    ),
];

pub fn in_scope(rel_path: &str) -> bool {
    SCOPES.iter().any(|s| rel_path.starts_with(s))
}

pub fn check(rel_path: &str, sf: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !in_scope(rel_path) {
        return;
    }
    for (idx, line) in sf.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for &(word, why) in BANNED {
            if !ident_positions(&line.code, word).is_empty() {
                out.push(Diagnostic::new(
                    rel_path,
                    idx + 1,
                    RULE,
                    format!("`{word}`: {why}"),
                ));
            }
        }
        // The `rand` crate by path (`rand::…`): identifier followed by `::`.
        for pos in ident_positions(&line.code, "rand") {
            if line.code[pos + 4..].trim_start().starts_with("::") {
                out.push(Diagnostic::new(
                    rel_path,
                    idx + 1,
                    RULE,
                    "`rand::` path: non-nomc-rngcore randomness; \
                     use a nomc_rngcore generator seeded from the scenario"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        let sf = SourceFile::parse(src);
        let mut out = Vec::new();
        check(path, &sf, &mut out);
        out
    }

    #[test]
    fn flags_hash_containers_in_scope() {
        let d = lint(
            "crates/sim/src/engine.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].rule, RULE);
    }

    #[test]
    fn out_of_scope_paths_are_ignored() {
        assert!(lint("crates/bench/src/harness.rs", "let t = Instant::now();\n").is_empty());
    }

    #[test]
    fn shard_runtime_is_in_scope() {
        // The sharded merge seam must stay hash-order free: a HashMap
        // in the TxId remapper would make merged ids depend on hashing.
        for path in [
            "crates/sim/src/runtime/shard/partition.rs",
            "crates/sim/src/runtime/shard/merge.rs",
            "crates/sim/src/pool.rs",
        ] {
            let d = lint(path, "use std::collections::HashMap;\n");
            assert_eq!(d.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn serve_sources_are_in_scope() {
        // The results server deduplicates jobs by report bytes and
        // re-serves cached reports byte-identically, so the same
        // determinism bans apply: a wall-clock read anywhere outside
        // its accounted deadline module is a bug.
        for path in [
            "crates/serve/src/server.rs",
            "crates/serve/src/jobs.rs",
            "crates/serve/src/deadline.rs",
        ] {
            let d = lint(path, "let t = Instant::now();\n");
            assert_eq!(d.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn snapshot_and_checkpoint_layers_are_in_scope() {
        // The snapshot codec and the sweep checkpoint store sit on the
        // byte-identity path: hash-order or wall-clock leaks there
        // would make a resumed run diverge from an uninterrupted one.
        for path in [
            "crates/sim/src/runtime/snapshot.rs",
            "crates/experiments/src/sweep/checkpoint.rs",
        ] {
            let d = lint(path, "let t = Instant::now();\n");
            assert_eq!(d.len(), 1, "{path} must be checked");
        }
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(lint("crates/mac/src/engine.rs", src).is_empty());
    }

    #[test]
    fn rand_path_needs_double_colon() {
        assert!(!lint("crates/sim/src/engine.rs", "let x = rand::random();\n").is_empty());
        assert!(lint("crates/sim/src/engine.rs", "let rand = 3; f(rand);\n").is_empty());
    }

    #[test]
    fn prose_and_strings_do_not_trip() {
        let src = "// a HashMap in a comment\nlet s = \"HashMap\";\n";
        assert!(lint("crates/core/src/lib.rs", src).is_empty());
    }
}
