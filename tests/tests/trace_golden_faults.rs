//! Golden event-trace regression with faults injected.
//!
//! Companion to `trace_golden`: the same two-network DCN scenario, now
//! carrying a [`FaultPlan`] that exercises every fault type — a
//! crash/reboot cycle, a transient wideband jammer, an RSSI calibration
//! drift, and a stuck-CCA window. The fixture in
//! `tests/fixtures/trace_2net_dcn_faults.jsonl` pins the full faulted
//! event history byte for byte, so the fault schedule itself is covered
//! by the same seed-stability guarantee as the fault-free runtime: same
//! seed + same plan ⇒ byte-identical trace, forever.
//!
//! A second fixture, `tests/fixtures/trace_4net_partition_faults.jsonl`,
//! pins the *sharded* faulted path: a four-component scenario whose
//! fault plan is scattered across shards. Multi-component runs use
//! per-shard derived seeds, so that fixture is recorded and checked
//! through the sharded engine at every `NOMC_SHARDS` matrix value —
//! thread-count independence is what keeps it stable. A third test pins
//! the snapshot/restore contract against both fixtures: an interrupted
//! run resumed mid-flight must land on the recorded bytes.
//!
//! To re-record after an *intentional* behavior change:
//!
//! ```text
//! NOMC_UPDATE_GOLDEN=1 cargo test -p nomc-integration-tests --test trace_golden_faults
//! ```

use nomc_phy::Shadowing;
use nomc_sim::scenario::Propagation;
use nomc_sim::{
    engine, trace, CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, RecoveryMeter,
    RunSpec, Scenario, SimObserver, StuckCcaFault,
};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Db, Dbm, Megahertz, SimDuration, SimTime};
use std::path::PathBuf;

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// Every fault type at once: node 0 dies at 400 ms and reboots 150 ms
/// later, a −70 dBm jammer keys up on network 0's channel for 200 ms,
/// network 1's first sender (node 4) drifts +3 dB over 200 ms, and
/// node 2's CCA latches busy for 150 ms.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashFault {
            node: 0,
            at: at(400),
            down_for: SimDuration::from_millis(150),
        }],
        jammers: vec![JammerFault {
            frequency: Megahertz::new(2458.0),
            power: Dbm::new(-70.0),
            at: at(300),
            duration: SimDuration::from_millis(200),
        }],
        drifts: vec![DriftFault {
            node: 4,
            at: at(500),
            ramp: SimDuration::from_millis(200),
            peak: Db::new(3.0),
        }],
        stuck_cca: vec![StuckCcaFault {
            node: 2,
            at: at(700),
            duration: SimDuration::from_millis(150),
        }],
    }
}

/// The `trace_golden` scenario (two DCN networks, 3 MHz apart, seed 42)
/// plus the all-types fault plan.
fn faulted_scenario() -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(42)
        .record_trace(true)
        .faults(fault_plan());
    b.build().expect("builder-validated faulted scenario")
}

/// The sharded counterpart: four widely separated DCN networks, one
/// interaction component each, with the fault plan scattered across
/// shards — a crash in network 0, a jammer on network 0's channel, an
/// RSSI drift in network 1, and a stuck CCA in network 2. This pins the
/// *componentized* fault path (per-shard seeds, per-shard fault
/// routing, jammer replication) the single-component fixture above can
/// never reach: there, a sharded run just delegates to the serial
/// engine.
fn partitioned_fault_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashFault {
            node: 0,
            at: at(400),
            down_for: SimDuration::from_millis(150),
        }],
        jammers: vec![JammerFault {
            frequency: Megahertz::new(2410.0),
            power: Dbm::new(-70.0),
            at: at(300),
            duration: SimDuration::from_millis(200),
        }],
        drifts: vec![DriftFault {
            node: 4,
            at: at(500),
            ramp: SimDuration::from_millis(200),
            peak: Db::new(3.0),
        }],
        stuck_cca: vec![StuckCcaFault {
            node: 8,
            at: at(700),
            duration: SimDuration::from_millis(150),
        }],
    }
}

/// Four networks 25 MHz and 60 m apart (shadowing off so distance
/// really decouples them), two links each, seed 42. Node numbering
/// puts network `i`'s first sender at node `4i`, so the fault plan
/// above lands in shards 0, 1, and 2.
fn partitioned_faulted_scenario() -> Scenario {
    let specs = (0..4)
        .map(|i| {
            let freq = Megahertz::new(2410.0 + 25.0 * i as f64);
            let x = 60.0 * i as f64;
            let links = vec![
                LinkSpec::new(Point::new(x, 0.0), Point::new(x + 2.0, 0.0), Dbm::new(0.0)),
                LinkSpec::new(Point::new(x, 1.0), Point::new(x + 2.0, 1.0), Dbm::new(0.0)),
            ];
            NetworkSpec::new(freq, links)
        })
        .collect();
    let mut b = Scenario::builder(Deployment::new(specs));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(42)
        .record_trace(true)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        })
        .faults(partitioned_fault_plan());
    b.build().expect("builder-validated partitioned scenario")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/trace_2net_dcn_faults.jsonl")
}

fn partitioned_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/trace_4net_partition_faults.jsonl")
}

/// The CI matrix thread count: `NOMC_SHARDS` when set, else `None`.
fn matrix_threads() -> Option<usize> {
    std::env::var("NOMC_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Honors the CI shard matrix: with `NOMC_SHARDS=N` set, the faulted
/// run goes through the sharded engine on `N` worker threads; the
/// fixture must stay byte-identical for every `N`.
fn run_golden(sc: &Scenario) -> nomc_sim::SimResult {
    run_on(sc, matrix_threads(), &mut [])
}

/// `sc` run to completion, sharded on `shards` threads or serially.
fn run_on(
    sc: &Scenario,
    shards: Option<usize>,
    observers: &mut [&mut dyn SimObserver],
) -> nomc_sim::SimResult {
    let spec = RunSpec {
        shards,
        ..RunSpec::default()
    };
    engine::execute(sc, &spec, observers)
        .into_done()
        .expect("a run without a pause target finishes")
        .result
}

/// Re-records `path` under `NOMC_UPDATE_GOLDEN=1`, else compares byte
/// for byte and panics with the first diverging line.
fn check_or_update(jsonl: &str, path: &PathBuf) {
    if std::env::var_os("NOMC_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, jsonl).expect("cannot write golden fixture");
        eprintln!(
            "re-recorded {} ({} lines)",
            path.display(),
            jsonl.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {}: {e}; record it with \
             NOMC_UPDATE_GOLDEN=1 cargo test --test trace_golden_faults",
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
            "faulted event trace diverged from the recorded fixture {}: \
             {} golden lines vs {} current, first difference at line {} \
             (golden: {:?}, current: {:?})",
            path.display(),
            golden.lines().count(),
            jsonl.lines().count(),
            diverged + 1,
            golden.lines().nth(diverged).unwrap_or("<eof>"),
            jsonl.lines().nth(diverged).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn faulted_golden_trace_is_byte_identical() {
    let result = run_golden(&faulted_scenario());
    assert!(!result.trace.is_empty(), "trace recording must be on");
    let jsonl = trace::to_jsonl(&result.trace);
    // The plan really fired: the trace carries the crash, the reboot,
    // and both edges of the stuck-CCA window.
    for marker in ["\"down\"", "\"up\"", "\"cca_stuck\"", "\"cca_released\""] {
        assert!(
            jsonl.contains(marker),
            "faulted trace is missing the {marker} fault record"
        );
    }
    check_or_update(&jsonl, &fixture_path());
}

#[test]
fn partitioned_faulted_golden_trace_is_byte_identical() {
    let sc = partitioned_faulted_scenario();
    // The premise of this fixture: the scenario genuinely splits, so
    // the sharded engine exercises its componentized path (per-shard
    // derived seeds) instead of delegating to the serial engine.
    assert_eq!(
        engine::shard_plan(&sc).len(),
        4,
        "partitioned scenario must split into one shard per network"
    );
    // Multi-component sharded semantics differ from the serial global
    // stream by design (componentized seeds), so this fixture is always
    // recorded and checked through the sharded engine. Results are
    // thread-count independent, so any NOMC_SHARDS value — and the
    // env-unset default — must reproduce the same bytes.
    let result = run_on(&sc, Some(matrix_threads().unwrap_or(2)), &mut []);
    assert!(!result.trace.is_empty(), "trace recording must be on");
    let jsonl = trace::to_jsonl(&result.trace);
    for marker in ["\"down\"", "\"up\"", "\"cca_stuck\"", "\"cca_released\""] {
        assert!(
            jsonl.contains(marker),
            "partitioned faulted trace is missing the {marker} fault record"
        );
    }
    check_or_update(&jsonl, &partitioned_fixture_path());
}

#[test]
fn resumed_faulted_runs_reproduce_the_golden_fixtures() {
    // The snapshot contract, pinned against history: run-to-event-K,
    // snapshot, restore, run-to-end must land on the *recorded* faulted
    // fixtures — serial for the coupled scenario, sharded for the
    // partitioned one. Skipped while re-recording so fixture freshness
    // never depends on test order.
    if std::env::var_os("NOMC_UPDATE_GOLDEN").is_some() {
        return;
    }
    let resume = |sc: &Scenario, shards: Option<usize>| -> String {
        let spec = RunSpec {
            shards,
            budget: u64::MAX,
            pause_at: 4_000,
        };
        let paused = match engine::execute(sc, &spec, &mut []) {
            engine::RunProgress::Paused(p) => p,
            engine::RunProgress::Done(_) => panic!("faulted run finished before the pause"),
        };
        let restored = engine::restore(&engine::snapshot(&paused)).expect("snapshot round-trips");
        match engine::resume_bounded(sc, restored, &mut [], u64::MAX)
            .expect("restored snapshot resumes")
        {
            engine::RunProgress::Done(done) => trace::to_jsonl(&done.result.trace),
            engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
        }
    };
    assert_eq!(
        resume(&faulted_scenario(), None),
        std::fs::read_to_string(fixture_path()).expect("coupled fixture readable"),
        "serial snapshot/resume diverged from the coupled faulted fixture"
    );
    assert_eq!(
        resume(&partitioned_faulted_scenario(), Some(1)),
        std::fs::read_to_string(partitioned_fixture_path()).expect("partitioned fixture readable"),
        "sharded snapshot/resume diverged from the partitioned faulted fixture"
    );
}

#[test]
fn faulted_run_is_deterministic_in_process() {
    // Two fresh runs of the same seed + plan, compared record for
    // record — catches nondeterminism the on-disk fixture would only
    // show after the next re-record.
    let sc = faulted_scenario();
    let a = engine::run(&sc);
    let b = engine::run(&sc);
    assert_eq!(trace::to_jsonl(&a.trace), trace::to_jsonl(&b.trace));
    assert_eq!(a, b);
}

#[test]
fn observers_do_not_perturb_faulted_runs() {
    // Observer sinks are write-only even while faults fire: attaching a
    // recovery meter to the faulted run must leave the result
    // bit-identical to the bare run.
    let sc = faulted_scenario();
    let bare = engine::run(&sc);
    let mut meter = RecoveryMeter::new(0, SimDuration::from_millis(100), at(400), sc.warmup);
    let mut sinks: Vec<&mut dyn SimObserver> = vec![&mut meter];
    let observed = run_on(&sc, None, &mut sinks);
    assert_eq!(bare, observed);
    // And the meter saw real traffic around the fault.
    assert!(
        meter.bins().iter().sum::<u64>() > 0,
        "meter counted nothing"
    );
}
