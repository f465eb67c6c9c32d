//! Rule `exhaustive-dispatch`: the event loop's dispatch and fault
//! handling must match the event/fault enums *exhaustively by name*.
//! A `_ =>` (or bare-binding) catch-all arm compiles fine when a new
//! `Event` variant is added — and silently drops the new event class,
//! which is precisely the failure mode that turns an extended simulator
//! into a subtly wrong one. Without the wildcard, adding a variant is a
//! compile error at every dispatch site, so the handling decision is
//! forced at build time.
//!
//! Scope: the files that own event/fault control flow
//! (`sim/src/runtime/dispatch.rs`, `sim/src/runtime/faults.rs`, the
//! shard merger `sim/src/runtime/shard/merge.rs`, whose
//! `BoundaryEvent`/`Event` replay matches must cover every variant a
//! worker can ship, and the snapshot module
//! `sim/src/runtime/snapshot.rs`, whose `event_node` must name every
//! variant or a restored event escapes the node bounds check — the
//! `Event` wire codec there is a `json_enum!`, whose generated encoder
//! names every variant, so the compiler makes it exhaustive — plus the
//! results server's job lifecycle
//! `serve/src/jobs.rs`, whose `JobEvent` transition table must
//! enumerate every state/event pair or a new lifecycle event silently
//! becomes a no-op), and only `match`es whose arms mention an
//! event/fault enum (an `…Event::`/`…Fault…::` path) — matches over
//! line counts or channel indices in the same files are untouched.

use crate::diag::Diagnostic;
use crate::parser::{Items, MatchExpr};

pub const RULE: &str = "exhaustive-dispatch";

/// The files owning event/fault control flow.
const FILES: &[&str] = &[
    "crates/sim/src/runtime/dispatch.rs",
    "crates/sim/src/runtime/faults.rs",
    "crates/sim/src/runtime/shard/merge.rs",
    "crates/sim/src/runtime/snapshot.rs",
    "crates/serve/src/jobs.rs",
];

pub fn in_scope(rel_path: &str) -> bool {
    FILES.contains(&rel_path)
}

pub fn check(rel_path: &str, items: &Items, out: &mut Vec<Diagnostic>) {
    if !in_scope(rel_path) {
        return;
    }
    for f in &items.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.body else { continue };
        for m in &body.matches {
            if !is_event_match(m) {
                continue;
            }
            for arm in &m.arms {
                if arm.is_catch_all() {
                    out.push(Diagnostic::new(
                        rel_path,
                        arm.line,
                        RULE,
                        format!(
                            "catch-all arm `{}` in an event/fault dispatch match; name \
                             every variant so new event kinds fail the build instead \
                             of being silently dropped",
                            arm.pattern.join(" "),
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether any arm pattern references an event/fault enum variant path
/// (`Event::…`, `MacEvent::…`, `FaultKind::…`).
fn is_event_match(m: &MatchExpr) -> bool {
    let watched = |toks: &[String]| {
        toks.windows(2)
            .any(|w| w[1] == "::" && (w[0].ends_with("Event") || w[0].contains("Fault")))
    };
    m.arms.iter().any(|a| watched(&a.pattern)) || watched(&m.scrutinee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use crate::source::SourceFile;

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        let items = parser::parse(&SourceFile::parse(src));
        let mut out = Vec::new();
        check(path, &items, &mut out);
        out
    }

    #[test]
    fn exhaustive_event_match_passes() {
        let src = "fn dispatch(ev: Event) {\n    match ev {\n        Event::TxStart(t) => tx(t),\n        Event::TxEnd { id } => end(id),\n        Event::NodeDown(n) | Event::NodeUp(n) => fault(n),\n    }\n}\n";
        assert!(lint("crates/sim/src/runtime/dispatch.rs", src).is_empty());
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let src = "fn dispatch(ev: Event) {\n    match ev {\n        Event::TxStart(t) => tx(t),\n        _ => {}\n    }\n}\n";
        let d = lint("crates/sim/src/runtime/dispatch.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("catch-all"));
    }

    #[test]
    fn bare_binding_arm_is_flagged() {
        let src = "fn handle(ev: Event) {\n    match ev {\n        Event::NodeDown(n) => down(n),\n        other => ignore(other),\n    }\n}\n";
        let d = lint("crates/sim/src/runtime/faults.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn guarded_wildcard_is_still_a_catch_all() {
        let src = "fn f(ev: Event) {\n    match ev {\n        Event::TxStart(t) => tx(t),\n        e if quiet(&e) => {}\n    }\n}\n";
        assert_eq!(lint("crates/sim/src/runtime/dispatch.rs", src).len(), 1);
    }

    #[test]
    fn non_event_matches_may_use_wildcards() {
        let src =
            "fn f(n: u8) -> u8 {\n    match n {\n        0 => 1,\n        _ => 0,\n    }\n}\n";
        assert!(lint("crates/sim/src/runtime/dispatch.rs", src).is_empty());
    }

    #[test]
    fn shard_merge_boundary_event_wildcard_is_flagged() {
        // The sharded runtime's replay match dispatches on
        // BoundaryEvent — its name ends in "Event" precisely so this
        // rule watches it; a wildcard would silently drop a newly added
        // boundary-record kind at the merge seam.
        let src = "fn replay(ev: BoundaryEvent) {\n    match ev {\n        BoundaryEvent::Popped(e) => pop(e),\n        _ => {}\n    }\n}\n";
        let d = lint("crates/sim/src/runtime/shard/merge.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("catch-all"));
    }

    #[test]
    fn snapshot_codec_event_wildcard_is_flagged() {
        // The snapshot wire codec serializes `Event` variant by
        // variant; a wildcard arm would let a newly added event kind
        // vanish from checkpoints instead of failing the build.
        let src = "fn encode(ev: Event) -> Json {\n    match ev {\n        Event::TxStart(n) => tag(n),\n        _ => Json::Null,\n    }\n}\n";
        let d = lint("crates/sim/src/runtime/snapshot.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("catch-all"));
    }

    #[test]
    fn serve_job_lifecycle_wildcard_is_flagged() {
        // The results server's job state machine matches on
        // (JobState, JobEvent) pairs; a wildcard arm would let a newly
        // added lifecycle event silently become a no-op transition.
        let src = "fn apply(s: &JobState, ev: &JobEvent) {\n    match (s, ev) {\n        (JobState::Queued, JobEvent::Start { total }) => run(total),\n        _ => {}\n    }\n}\n";
        let d = lint("crates/serve/src/jobs.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("catch-all"));
    }

    #[test]
    fn other_files_are_out_of_scope() {
        let src = "fn f(ev: Event) {\n    match ev {\n        Event::TxStart(t) => tx(t),\n        _ => {}\n    }\n}\n";
        assert!(lint("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(ev: Event) { match ev { Event::TxStart(_) => {}, _ => {} } }\n}\n";
        assert!(lint("crates/sim/src/runtime/dispatch.rs", src).is_empty());
    }
}
