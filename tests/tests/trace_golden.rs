//! Golden event-trace regression.
//!
//! The fixture in `tests/fixtures/trace_2net_dcn.jsonl` was recorded
//! before the runtime decomposition (engine split + observer layer +
//! indexed medium) and pins the *full* structured event trace of a
//! small two-network DCN scenario: every CCA reading, every TxStart,
//! every outcome, byte for byte. Unlike the Fig. 4 determinism check
//! (which compares two in-process runs), this catches any behavioral
//! drift relative to the recorded history.
//!
//! The scenario keeps both networks 3 MHz apart, well inside the ACR
//! curve's support, so the indexed medium's far-channel cutoff cannot
//! legitimately perturb it.
//!
//! To re-record after an *intentional* behavior change:
//!
//! ```text
//! NOMC_UPDATE_GOLDEN=1 cargo test -p nomc-integration-tests --test trace_golden
//! ```

use nomc_sim::{engine, trace, NetworkBehavior, RunSpec, Scenario};
use nomc_topology::paper;
use nomc_topology::spectrum::ChannelPlan;
use nomc_units::{Dbm, Megahertz, SimDuration};
use std::path::PathBuf;

/// Two DCN networks, 3 MHz apart, two links each, one simulated second.
fn golden_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(42)
        .record_trace(true);
    b.build().expect("builder-validated golden scenario")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/trace_2net_dcn.jsonl")
}

/// Honors the CI shard matrix: with `NOMC_SHARDS=N` set, the run goes
/// through the sharded engine on `N` worker threads. The two networks
/// sit 3 MHz apart — inside the ACR support, one interaction component
/// — so the fixture must stay byte-identical for every `N`.
fn run_golden(sc: &Scenario) -> nomc_sim::SimResult {
    let spec = RunSpec {
        shards: std::env::var("NOMC_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..RunSpec::default()
    };
    engine::execute(sc, &spec, &mut [])
        .into_done()
        .expect("a run without a pause target finishes")
        .result
}

#[test]
fn golden_trace_is_byte_identical() {
    let result = run_golden(&golden_scenario());
    assert!(!result.trace.is_empty(), "trace recording must be on");
    let jsonl = trace::to_jsonl(&result.trace);
    let path = fixture_path();
    if std::env::var_os("NOMC_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &jsonl).expect("cannot write golden fixture");
        eprintln!(
            "re-recorded {} ({} records)",
            path.display(),
            result.trace.len()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {}: {e}; record it with \
             NOMC_UPDATE_GOLDEN=1 cargo test --test trace_golden",
            path.display()
        )
    });
    if golden != jsonl {
        let diverged = golden
            .lines()
            .zip(jsonl.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(jsonl.lines().count()));
        panic!(
            "event trace diverged from the recorded fixture: \
             {} golden lines vs {} current, first difference at line {} \
             (golden: {:?}, current: {:?})",
            golden.lines().count(),
            jsonl.lines().count(),
            diverged + 1,
            golden.lines().nth(diverged).unwrap_or("<eof>"),
            jsonl.lines().nth(diverged).unwrap_or("<eof>"),
        );
    }
}
