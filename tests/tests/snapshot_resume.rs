//! Snapshot/restore byte-identity (DESIGN.md §14).
//!
//! The snapshot contract in executable form: *run-to-event-K, snapshot,
//! restore, run-to-end is byte-identical to an uninterrupted run* — for
//! the serial engine, for the sharded engine (including its merged
//! external-observer stream), and with every fault type in flight. All
//! comparisons serialize through `nomc-json` and assert on the strings,
//! so "identical" means identical down to the last bit of every float.
//!
//! Corruption totality rides along: truncating, byte-flipping, or
//! version-skewing a serialized snapshot must produce a typed
//! [`engine::SnapshotError`], never a panic — that is what lets the
//! sweep supervisor quarantine a bad checkpoint and fall back to a
//! clean re-run.

use nomc_json::{Json, ToJson};
use nomc_phy::Shadowing;
use nomc_sim::events::Event;
use nomc_sim::runtime::observer::{PowerSample, ThresholdSample, TxOutcomeInfo, TxStartInfo};
use nomc_sim::scenario::Propagation;
use nomc_sim::trace::TraceRecord;
use nomc_sim::{
    engine, BoundedRun, CrashFault, DriftFault, FaultPlan, JammerFault, NetworkBehavior, RunSpec,
    Scenario, SimObserver, SimResult, StuckCcaFault,
};
use nomc_topology::spectrum::ChannelPlan;
use nomc_topology::{paper, Deployment, LinkSpec, NetworkSpec, Point};
use nomc_units::{Db, Dbm, Megahertz, SimDuration, SimTime};

fn at(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// The golden-trace shape: two DCN networks 3 MHz apart (one
/// interaction component), full trace + timeline recording on.
fn coupled_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .record_trace(true)
        .record_timeline(true);
    b.build().expect("valid coupled scenario")
}

/// Widely separated networks: every network its own shard.
fn partitionable_scenario(networks: usize, seed: u64) -> Scenario {
    let specs = (0..networks)
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
        .seed(seed)
        .record_trace(true)
        .record_timeline(true)
        .propagation(Propagation {
            shadowing: Shadowing::disabled(),
            ..Propagation::default()
        });
    b.build().expect("valid partitionable scenario")
}

/// Every fault type at once on the coupled scenario (crash/reboot,
/// transient jammer, RSSI drift, stuck CCA), same schedule as the
/// faulted golden trace.
fn faulted_scenario(seed: u64) -> Scenario {
    let plan = ChannelPlan::with_count(Megahertz::new(2458.0), Megahertz::new(3.0), 2);
    let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
    b.behavior_all(NetworkBehavior::dcn_default())
        .duration(SimDuration::from_secs(1))
        .warmup(SimDuration::from_millis(250))
        .seed(seed)
        .record_trace(true)
        .record_timeline(true)
        .faults(FaultPlan {
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
        });
    b.build().expect("valid faulted scenario")
}

/// Canonical byte representation of a result: the `nomc-json` encoding
/// the snapshot layer itself uses, covering metrics, trace, timeline,
/// MAC stats, and final thresholds bit-for-bit.
fn bytes(result: &SimResult) -> String {
    nomc_json::to_string(result)
}

/// `spec` run straight through (it must set no pause target).
fn finish(sc: &Scenario, spec: &RunSpec) -> BoundedRun {
    engine::execute(sc, spec, &mut [])
        .into_done()
        .expect("a run without a pause target finishes")
}

/// A serial spec that pauses at `pause_at` events.
fn pausing_at(pause_at: u64) -> RunSpec {
    RunSpec {
        pause_at,
        ..RunSpec::default()
    }
}

/// Runs `spec` (asserting it does pause), then resumes leg by leg —
/// each leg pausing `every` events after the previous pause, or running
/// to the end when `every` is `u64::MAX` — round-tripping the snapshot
/// through its JSON wire format at every pause. Returns the finished
/// run and the number of pauses.
fn interrupt_and_resume(sc: &Scenario, spec: &RunSpec, every: u64) -> (BoundedRun, u64) {
    let mut progress = engine::execute(sc, spec, &mut []);
    let mut pause_at = spec.pause_at;
    let mut legs = 0;
    loop {
        match progress {
            engine::RunProgress::Done(done) => {
                assert!(
                    legs > 0,
                    "run finished before the pause at {}",
                    spec.pause_at
                );
                return (done, legs);
            }
            engine::RunProgress::Paused(paused) => {
                legs += 1;
                assert!(legs < 10_000, "runaway pause/resume chain");
                let text = engine::snapshot(&paused);
                let restored = engine::restore(&text).expect("snapshot text round-trips");
                pause_at = pause_at.saturating_add(every);
                progress = engine::resume_bounded(sc, restored, &mut [], pause_at)
                    .expect("restored snapshot resumes against its own scenario");
            }
        }
    }
}

#[test]
fn serial_snapshot_resume_is_byte_identical() {
    let sc = coupled_scenario(42);
    let baseline = engine::run(&sc);
    let golden = bytes(&baseline);
    assert!(baseline.events > 100, "scenario must be non-trivial");
    for pause_after in [1, 137, baseline.events / 2, baseline.events - 1] {
        let (resumed, _) = interrupt_and_resume(&sc, &pausing_at(pause_after), u64::MAX);
        assert_eq!(
            bytes(&resumed.result),
            golden,
            "serial resume from event {pause_after} diverged"
        );
    }
}

#[test]
fn serial_resume_chains_across_many_legs() {
    let sc = coupled_scenario(7);
    let golden = bytes(&engine::run(&sc));
    // Interrupt every 1000 events, round-tripping the wire format at
    // every leg: the final result must not care how often we stopped.
    let (resumed, legs) = interrupt_and_resume(&sc, &pausing_at(1000), 1000);
    assert!(legs > 5, "the chain must actually interrupt repeatedly");
    assert_eq!(bytes(&resumed.result), golden, "chained resume diverged");
}

/// Every run shape pauses and resumes to the bytes, and the `exhausted`
/// flag, of the same spec run straight through: a coupled (one
/// component) and a partitionable (three component) scenario, serial
/// and sharded, with no budget, about half the natural event count, or
/// a tiny one, paused once or as a chain of legs.
#[test]
fn run_spec_table_resumes_byte_identically() {
    for sc in [coupled_scenario(11), partitionable_scenario(3, 42)] {
        for shards in [None, Some(1), Some(3)] {
            let unbounded = RunSpec {
                shards,
                ..RunSpec::default()
            };
            let natural = finish(&sc, &unbounded).result.events;
            for budget in [u64::MAX, natural / 2, 5] {
                let straight = RunSpec {
                    budget,
                    ..unbounded
                };
                let direct = finish(&sc, &straight);
                assert_eq!(
                    direct.exhausted,
                    budget < natural,
                    "{shards:?} shards, budget {budget} of {natural}: only a budget below the \
                     natural event count truncates"
                );
                // The persisted budget must exhaust at exactly the same
                // event whether the run paused once or many times.
                let limit = budget.min(natural);
                for every in [u64::MAX, (limit / 6).max(1)] {
                    let first = if every == u64::MAX { limit / 2 } else { every };
                    let paused = RunSpec {
                        pause_at: first,
                        ..straight
                    };
                    let (resumed, legs) = interrupt_and_resume(&sc, &paused, every);
                    let case = format!("{shards:?} shards, budget {budget}, legs of {every}");
                    assert!(every == u64::MAX || legs > 1, "{case}: must chain");
                    assert_eq!(resumed.exhausted, direct.exhausted, "{case}: exhaustion");
                    assert_eq!(
                        bytes(&resumed.result),
                        bytes(&direct.result),
                        "{case}: resume diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_snapshot_resume_is_byte_identical() {
    let sc = faulted_scenario(42);
    let baseline = engine::run(&sc);
    let golden = bytes(&baseline);
    // Pause points straddling the fault schedule: before any fault,
    // mid-jammer/mid-crash, and deep into the recovery tail.
    for pause_after in [
        baseline.events / 10,
        baseline.events / 2,
        (baseline.events * 9) / 10,
    ] {
        let (resumed, _) = interrupt_and_resume(&sc, &pausing_at(pause_after), u64::MAX);
        assert_eq!(
            bytes(&resumed.result),
            golden,
            "faulted resume from event {pause_after} diverged"
        );
    }
}

/// Records every observer callback as a line of text, so two observer
/// streams can be compared byte for byte.
#[derive(Default)]
struct StreamLog(Vec<String>);

impl SimObserver for StreamLog {
    fn wants_trace(&self) -> bool {
        true
    }
    fn wants_thresholds(&self) -> bool {
        true
    }
    fn on_event(&mut self, now: SimTime, event: &Event) {
        self.0.push(format!("event {now:?} {event:?}"));
    }
    fn on_trace(&mut self, record: &TraceRecord) {
        self.0.push(format!("trace {record:?}"));
    }
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.0.push(format!("tx_start {info:?}"));
    }
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        self.0.push(format!("tx_outcome {info:?}"));
    }
    fn on_abandon(&mut self, link: usize, measured: bool) {
        self.0.push(format!("abandon {link} {measured}"));
    }
    fn on_threshold_change(&mut self, sample: &ThresholdSample) {
        self.0.push(format!("threshold {sample:?}"));
    }
    fn on_power_sample(&mut self, sample: &PowerSample) {
        self.0.push(format!("power {sample:?}"));
    }
}

#[test]
fn sharded_snapshot_resume_is_byte_identical() {
    let sc = partitionable_scenario(4, 42);
    assert!(engine::shard_plan(&sc).len() == 4, "must actually shard");
    let sharded = RunSpec {
        shards: Some(4),
        ..RunSpec::default()
    };
    let mut baseline_log = StreamLog::default();
    let baseline = engine::execute(&sc, &sharded, &mut [&mut baseline_log])
        .into_done()
        .expect("a run without a pause target finishes")
        .result;
    let golden = bytes(&baseline);
    for pause_after in [
        1,
        baseline.events / 3,
        baseline.events / 2,
        baseline.events - 1,
    ] {
        let paused = RunSpec {
            pause_at: pause_after,
            ..sharded
        };
        let (resumed, _) = interrupt_and_resume(&sc, &paused, u64::MAX);
        assert_eq!(
            bytes(&resumed.result),
            golden,
            "sharded resume from event {pause_after} diverged"
        );
    }
    // External observers attached at resume time see the *complete*
    // merged stream, byte-identical to the threaded run's.
    let halfway = RunSpec {
        pause_at: baseline.events / 2,
        ..sharded
    };
    let paused = match engine::execute(&sc, &halfway, &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause mid-run"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    let mut resumed_log = StreamLog::default();
    let resumed = match engine::resume_bounded(&sc, restored, &mut [&mut resumed_log], u64::MAX)
        .expect("resumes")
    {
        engine::RunProgress::Done(done) => done.result,
        engine::RunProgress::Paused(_) => panic!("unbounded resume cannot pause"),
    };
    assert_eq!(bytes(&resumed), golden);
    assert!(!baseline_log.0.is_empty(), "stream must be non-trivial");
    assert_eq!(
        resumed_log.0, baseline_log.0,
        "merged observer stream diverged after resume"
    );
}

#[test]
fn sharded_single_component_plan_snapshots_serially() {
    // A one-component plan delegates to the serial engine, exactly as
    // an unpaused sharded run does: the snapshot kind is serial and
    // resumes fine.
    let sc = coupled_scenario(3);
    let sharded = RunSpec {
        shards: Some(4),
        ..RunSpec::default()
    };
    let golden = bytes(&finish(&sc, &sharded).result);
    let paused = RunSpec {
        pause_at: 500,
        ..sharded
    };
    let (resumed, _) = interrupt_and_resume(&sc, &paused, u64::MAX);
    assert_eq!(bytes(&resumed.result), golden);
}

/// A four-shard run paused halfway, as snapshot JSON: the early ranks
/// are done, and every rank so far has buffered its note log.
fn paused_sharded_snapshot(sc: &Scenario) -> Json {
    let sharded = RunSpec {
        shards: Some(1),
        ..RunSpec::default()
    };
    let total = finish(sc, &sharded).result.events;
    let halfway = RunSpec {
        pause_at: total / 2,
        ..sharded
    };
    match engine::execute(sc, &halfway, &mut []) {
        engine::RunProgress::Paused(p) => engine::snapshot(&p).parse().expect("valid JSON"),
        engine::RunProgress::Done(_) => panic!("must pause mid-run"),
    }
}

/// The array inside `v`, for editing a snapshot tree in place.
fn arr(v: &mut Json) -> &mut Vec<Json> {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// Restores `snapshot`, applies a new budget as the sweep supervisor
/// does on every restored checkpoint, and resumes to the end.
fn resume_tampered(sc: &Scenario, snapshot: &Json) -> Result<(), engine::SnapshotError> {
    let mut restored = engine::restore(&snapshot.dump())?;
    restored.set_budget(1_000_000);
    engine::resume_bounded(sc, restored, &mut [], u64::MAX).map(|_| ())
}

#[test]
fn zero_rank_sharded_snapshot_is_malformed() {
    let sc = partitionable_scenario(4, 42);
    let mut snapshot = paused_sharded_snapshot(&sc);
    snapshot["payload"]["ranks"] = Json::array([]);
    snapshot["payload"]["logs"] = Json::array([]);
    match resume_tampered(&sc, &snapshot) {
        Err(engine::SnapshotError::Malformed(msg)) => {
            assert!(msg.contains("0 ranks"), "unexpected message: {msg}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Every node, link, and network index a sharded snapshot carries in
/// its buffered note logs and finished-rank results is bounds-checked
/// against the rank's shard before anything runs: an out-of-range id is
/// a typed error, never a panic in the final merge.
#[test]
fn sharded_snapshot_ids_are_bounds_checked() {
    let sc = partitionable_scenario(4, 42);
    let snapshot = paused_sharded_snapshot(&sc);
    let bad = 999u64.to_json();
    // (note tag, key path inside the note body) for every id-bearing
    // field of every boundary-event variant.
    let fields: &[(&str, &[&str])] = &[
        ("Popped", &[]),
        ("Trace", &["kind", "Cca", "node"]),
        ("Trace", &["kind", "TxStart", "node"]),
        ("Trace", &["kind", "Outcome", "receiver"]),
        ("TxStart", &["node"]),
        ("TxStart", &["link"]),
        ("TxOutcome", &["receiver"]),
        ("TxOutcome", &["link"]),
        ("Abandon", &["link"]),
        ("Threshold", &["node"]),
        ("Threshold", &["link"]),
        ("Power", &["node"]),
        ("Power", &["link"]),
    ];
    for &(tag, path) in fields {
        let mut tampered = snapshot.clone();
        let logs = arr(&mut tampered["payload"]["logs"]);
        let note = logs
            .iter_mut()
            .flat_map(|log| arr(log).iter_mut())
            .find(|note| {
                let mut body = &note["ev"][tag];
                for key in path {
                    body = &body[*key];
                }
                !body.is_null()
            });
        match note {
            Some(note) => {
                let mut body = &mut note["ev"][tag];
                for key in path {
                    body = &mut body[*key];
                }
                *body = match tag {
                    "Popped" => Json::object([("PacketReady", bad.clone())]),
                    _ => bad.clone(),
                };
            }
            // No such note in this run (frames are rarely abandoned):
            // overwrite the first note with one.
            None => {
                assert_eq!(tag, "Abandon", "run must log a {tag} note with {path:?}");
                arr(&mut logs[0])[0]["ev"] = Json::object([(
                    "Abandon",
                    Json::object([("link", bad.clone()), ("measured", true.to_json())]),
                )]);
            }
        }
        match resume_tampered(&sc, &tampered) {
            Err(engine::SnapshotError::Malformed(_)) => {}
            other => panic!("{tag} {path:?} = 999: expected Malformed, got {other:?}"),
        }
    }
    // Rank 0 finished before the pause: its result's shape and network
    // indices are checked too.
    let mut tampered = snapshot.clone();
    arr(&mut arr(&mut tampered["payload"]["ranks"])[0]["done"]["result"]["links"])[0]["network"] =
        bad.clone();
    let mut truncated = snapshot.clone();
    arr(&mut arr(&mut truncated["payload"]["ranks"])[0]["done"]["result"]["mac_stats"]).pop();
    for corrupt in [tampered, truncated] {
        match resume_tampered(&sc, &corrupt) {
            Err(engine::SnapshotError::Malformed(_)) => {}
            other => panic!("corrupt done rank: expected Malformed, got {other:?}"),
        }
    }
}

#[test]
fn snapshot_rejects_scenario_mismatch() {
    let sc = coupled_scenario(42);
    let other = coupled_scenario(43);
    let paused = match engine::execute(&sc, &pausing_at(100), &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let restored = engine::restore(&engine::snapshot(&paused)).expect("round-trips");
    match engine::resume_bounded(&other, restored, &mut [], u64::MAX) {
        Err(engine::SnapshotError::ScenarioMismatch { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("expected ScenarioMismatch, got {other:?}"),
    }
}

#[test]
fn snapshot_rejects_version_skew() {
    let sc = coupled_scenario(42);
    let paused = match engine::execute(&sc, &pausing_at(100), &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let skewed = text.replacen("\"version\":1", "\"version\":999", 1);
    assert_ne!(text, skewed, "wire format must carry the version field");
    match engine::restore(&skewed) {
        Err(engine::SnapshotError::VersionSkew { found, expected }) => {
            assert_eq!(found, 999);
            assert_eq!(expected, 1);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

/// Exhaustive truncation sweep: every strict prefix of the snapshot
/// text (stepping through all lengths on a stride, plus the exact
/// boundaries) must fail with a typed error, never a panic.
#[test]
fn truncated_snapshots_fail_typed() {
    let sc = coupled_scenario(42);
    let paused = match engine::execute(&sc, &pausing_at(200), &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let stride = (text.len() / 257).max(1);
    for cut in (0..text.len())
        .step_by(stride)
        .chain([0, 1, text.len() - 1])
    {
        let truncated = &text[..cut];
        match engine::restore(truncated) {
            Err(_) => {}
            Ok(_) => panic!("truncation at {cut}/{} parsed as valid", text.len()),
        }
    }
}

/// Byte-flip sweep: corrupting single bytes all through the payload
/// either still parses (a flip inside a string or number can stay
/// structurally valid — the sweep layer's integrity hash catches those)
/// or fails with a typed error; resuming whatever still parses must
/// also never panic.
#[test]
fn byte_flipped_snapshots_never_panic() {
    let sc = coupled_scenario(42);
    let paused = match engine::execute(&sc, &pausing_at(200), &mut []) {
        engine::RunProgress::Paused(p) => p,
        engine::RunProgress::Done(_) => panic!("must pause"),
    };
    let text = engine::snapshot(&paused);
    let bytes = text.as_bytes();
    let stride = (bytes.len() / 509).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        for flip in [0x01u8, 0x20, 0x80] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= flip;
            let Ok(corrupt) = String::from_utf8(corrupt) else {
                continue;
            };
            if let Ok(restored) = engine::restore(&corrupt) {
                // Structurally valid after the flip: resuming must
                // yield a typed error or a clean run, never a panic.
                let _ = engine::resume_bounded(&sc, restored, &mut [], 400);
            }
        }
    }
}

/// Finds, in a run's observer stream, the first frame whose intended
/// receiver synced but failed the FCS, as the event counts of its
/// TxStart and its TxEnd. Such a decode drew bit errors, so its window
/// took the segment path: the interference bound could not settle it.
#[derive(Default)]
struct CrcFailure {
    events: u64,
    starts: std::collections::BTreeMap<u64, u64>,
    found: Option<(u64, u64)>,
}

impl SimObserver for CrcFailure {
    fn on_event(&mut self, _now: SimTime, _event: &Event) {
        self.events += 1;
    }
    fn on_tx_start(&mut self, info: &TxStartInfo) {
        self.starts.insert(info.tx, self.events);
    }
    fn on_tx_outcome(&mut self, info: &TxOutcomeInfo) {
        if self.found.is_none() && info.outcome == nomc_sim::metrics::TxOutcome::CrcFailed {
            self.found = Some((self.starts[&info.tx], self.events));
        }
    }
}

/// Whether each lock a serialized serial snapshot holds has synced.
fn locks_in(text: &str) -> Vec<bool> {
    let snap: Json = text.parse().expect("snapshot is JSON");
    snap["payload"]["nodes"]
        .as_array()
        .expect("serial snapshot nodes")
        .iter()
        .filter(|node| !node["rx"].is_null())
        .map(|node| node["rx"][1].as_bool().expect("rx is (frame, synced)"))
        .collect()
}

/// A reception's running interference bound is not part of a snapshot:
/// a restore re-seeds it from the medium. Pausing at every event count
/// across the life of a frame that fails its FCS under interference —
/// from before its receivers lock, through unsynced and synced locks in
/// flight, to its fallback decode, with a hundred events of margin on
/// either side — and resuming each leg from the serialized snapshot
/// must give the bytes of the unpaused run.
#[test]
fn resume_at_every_event_across_a_fallback_decode_is_byte_identical() {
    let sc = coupled_scenario(5);
    let mut finder = CrcFailure::default();
    let golden = bytes(
        &engine::execute(&sc, &RunSpec::default(), &mut [&mut finder])
            .into_done()
            .expect("a run without a pause target finishes")
            .result,
    );
    let (locked, decoded) = finder.found.expect("some frame fails its FCS");
    // A hundred events either side: frames before and after it lock,
    // sync and decode inside the stretch too.
    let (first, last) = (locked.saturating_sub(100), decoded + 100);
    let mut progress = engine::execute(&sc, &pausing_at(first), &mut []);
    let mut pause_at = first;
    let (mut unsynced, mut synced) = (0, 0);
    let done = loop {
        match progress {
            engine::RunProgress::Done(done) => break done,
            engine::RunProgress::Paused(paused) => {
                let text = engine::snapshot(&paused);
                for is_synced in locks_in(&text) {
                    if is_synced {
                        synced += 1;
                    } else {
                        unsynced += 1;
                    }
                }
                pause_at = if pause_at < last {
                    pause_at + 1
                } else {
                    u64::MAX
                };
                let restored = engine::restore(&text).expect("snapshot text round-trips");
                progress = engine::resume_bounded(&sc, restored, &mut [], pause_at)
                    .expect("restored snapshot resumes against its own scenario");
            }
        }
    };
    assert!(
        unsynced > 0 && synced > 0,
        "the stretch must hold unsynced ({unsynced}) and synced ({synced}) locks"
    );
    assert_eq!(
        bytes(&done.result),
        golden,
        "resuming at every event from {first} to {last} diverged"
    );
}

/// Collects every checkpoint a run hands its observers.
struct Checkpoints {
    every: u64,
    taken: Vec<(u64, String)>,
}

impl SimObserver for Checkpoints {
    fn checkpoint_every(&self) -> u64 {
        self.every
    }
    fn on_checkpoint(&mut self, events: u64, snapshot: &str) {
        self.taken.push((events, snapshot.to_string()));
    }
}

/// The snapshot text of `spec` paused at `events`.
fn paused_text(sc: &Scenario, spec: &RunSpec, events: u64) -> String {
    let paused = RunSpec {
        pause_at: events,
        ..*spec
    };
    match engine::execute(sc, &paused, &mut []) {
        engine::RunProgress::Paused(p) => engine::snapshot(&p),
        engine::RunProgress::Done(_) => panic!("a run of at least {events} events pauses there"),
    }
}

/// Asserts that `taken` holds one checkpoint at each of `from + k·every`
/// up to `total`, each the very text a run of `spec` paused at that
/// count gives.
fn assert_checkpoints_are_pauses(
    case: &str,
    sc: &Scenario,
    spec: &RunSpec,
    taken: &[(u64, String)],
    (from, every, total): (u64, u64, u64),
) {
    let counts: Vec<u64> = taken.iter().map(|(events, _)| *events).collect();
    let expected: Vec<u64> = (1..)
        .map(|k| from + k * every)
        .take_while(|&c| c <= total)
        .collect();
    assert_eq!(counts, expected, "{case}: checkpoint counts");
    for (events, text) in taken {
        assert!(
            *text == paused_text(sc, spec, *events),
            "{case}: checkpoint at {events} differs from the run paused there"
        );
    }
}

/// The checkpoint an observer receives at each cadence point of a run
/// that never stops is byte for byte the snapshot of the same run paused
/// at that count — serial, faulted, sharded and budget-truncated
/// sharded, at a cadence that leaves a remainder and at one that puts
/// the only checkpoint on the run's very last count — and the run's
/// result is the plain run's. A resumed run's checkpoints count on from
/// the snapshot it resumed.
#[test]
fn checkpoint_sink_matches_paused_snapshots() {
    let sharded = RunSpec {
        shards: Some(2),
        ..RunSpec::default()
    };
    let split = partitionable_scenario(3, 9);
    let natural = finish(&split, &sharded).result.events;
    let cases = [
        ("serial", coupled_scenario(5), RunSpec::default()),
        ("faulted", faulted_scenario(42), RunSpec::default()),
        ("sharded", partitionable_scenario(3, 42), sharded),
        (
            "budgeted sharded",
            split,
            RunSpec {
                budget: natural / 2,
                ..sharded
            },
        ),
    ];
    for (name, sc, spec) in &cases {
        let plain = finish(sc, spec);
        let total = plain.result.events;
        for every in [total / 5 + 1, total] {
            let mut sink = Checkpoints {
                every,
                taken: Vec::new(),
            };
            let done = engine::execute(sc, spec, &mut [&mut sink])
                .into_done()
                .expect("checkpoints never pause the run");
            let case = format!("{name}, every {every}");
            assert_eq!(done.exhausted, plain.exhausted, "{case}: exhaustion");
            assert_eq!(bytes(&done.result), bytes(&plain.result), "{case}: result");
            assert_checkpoints_are_pauses(&case, sc, spec, &sink.taken, (0, every, total));
        }
    }
    for (name, sc, spec) in &cases {
        let total = finish(sc, spec).result.events;
        let (from, every) = (total / 3, total / 4);
        let text = paused_text(sc, spec, from);
        let restored = engine::restore(&text).expect("snapshot text round-trips");
        let mut sink = Checkpoints {
            every,
            taken: Vec::new(),
        };
        engine::resume_bounded(sc, restored, &mut [&mut sink], u64::MAX).expect("resumes");
        let case = format!("{name}, resumed at {from}");
        assert_checkpoints_are_pauses(&case, sc, spec, &sink.taken, (from, every, total));
    }
}
