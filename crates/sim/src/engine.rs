//! The simulation entry point.
//!
//! [`execute`] runs a [`Scenario`] as a [`RunSpec`] says — serial or
//! sharded, budgeted or not, to completion or to a pause point —
//! streaming typed notifications to caller-supplied
//! [`crate::runtime::observer::SimObserver`] sinks; [`run`] is its
//! serial, unobserved convenience. A paused [`RunSnapshot`] is
//! serialized by [`snapshot()`], parsed by [`restore`] and continued by
//! [`resume_bounded`]. A run need not stop to be checkpointed: an
//! observer that asks for a cadence
//! ([`SimObserver::checkpoint_every`]) receives the same snapshot text
//! at each cadence point while the run carries on.
//!
//! The machinery behind these lives in [`crate::runtime`]: the event
//! loop ([`runtime`](crate::runtime) dispatch), per-node state and MAC
//! handling, the data-frame and ACK life cycles, power sensing, and the
//! observer fan-out. The serial engine is single-threaded and fully
//! deterministic for a given scenario + seed, and observers are
//! write-only: attaching any combination of them cannot change the
//! simulated outcome.
//!
//! With [`RunSpec::shards`] set, one run executes as deterministic
//! shards: the scenario is partitioned into interaction components
//! (see [`crate::runtime::shard`]), each component runs to completion
//! on its own engine with a derived RNG stream on the shared
//! [`crate::pool`], and a canonical merge of the components' buffered
//! notes rebuilds one serial-looking observer stream. Results depend
//! only on the scenario — never on the thread count.
//!
//! # Examples
//!
//! Count every frame that went on air with a custom observer:
//!
//! ```
//! use nomc_sim::runtime::observer::{SimObserver, TxStartInfo};
//! use nomc_sim::{engine, RunSpec, Scenario};
//! use nomc_topology::{paper, spectrum::ChannelPlan};
//! use nomc_units::{Dbm, Megahertz, SimDuration};
//!
//! #[derive(Default)]
//! struct FrameCounter(u64);
//! impl SimObserver for FrameCounter {
//!     fn on_tx_start(&mut self, _info: &TxStartInfo) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
//! let mut builder = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
//! builder.duration(SimDuration::from_secs(1)).warmup(SimDuration::from_millis(250));
//! let scenario = builder.build()?;
//! let mut counter = FrameCounter::default();
//! let done = engine::execute(&scenario, &RunSpec::default(), &mut [&mut counter])
//!     .into_done()
//!     .expect("a run without a pause target finishes");
//! assert!(!done.exhausted);
//! assert!(counter.0 >= done.result.links.iter().map(|l| l.sent).sum::<u64>());
//! # Ok::<(), String>(())
//! ```

use crate::metrics::SimResult;
use crate::runtime::observer::SimObserver;
use crate::runtime::sinks::checkpoint_every;
use crate::runtime::snapshot::{self, EngineSnapshot, ShardedProgress, ShardedSnapshot, SnapInner};
use crate::runtime::{shard, Cadence, Engine};
use crate::scenario::Scenario;
use nomc_json::FromJson;

pub use crate::runtime::snapshot::SnapshotError;

/// How [`execute`] runs a scenario; the default is a serial run to
/// completion. Both limits count handled events, never wall time, so
/// they are exactly reproducible; `u64::MAX` disables either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// `Some(n)`: run each interaction component as a deterministic
    /// shard; `None`: the serial engine. Without a pause target or a
    /// checkpointing observer the shards run on up to `n` pool threads;
    /// with either they run one at a time on the calling thread and `n`
    /// is not read. Results never depend on `n`, and a single-component
    /// plan runs serially with its seed untouched.
    pub shards: Option<usize>,
    /// Stop after this many events and report [`BoundedRun::exhausted`].
    /// Sharded runs split it over the shards, earlier ones taking the
    /// remainder, so truncation does not depend on the thread count.
    pub budget: u64,
    /// Pause once this many events (summed over shards) have been
    /// handled, before popping the next, and return a resumable
    /// [`RunProgress::Paused`] in exactly the state the uninterrupted
    /// run passes through at that count. Checkpointing does not need
    /// it: an observer's [`SimObserver::checkpoint_every`] gets the
    /// same snapshot at each cadence point from a run that never
    /// stops.
    pub pause_at: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            shards: None,
            budget: u64::MAX,
            pause_at: u64::MAX,
        }
    }
}

/// A finished run: the result plus whether the event budget cut the
/// run short.
#[derive(Debug)]
pub struct BoundedRun {
    /// The (possibly truncated) simulation result.
    pub result: SimResult,
    /// `true` when the run stopped on the event budget instead of
    /// draining naturally — the result covers only the simulated prefix.
    pub exhausted: bool,
}

/// Runs `scenario` as `spec` describes until it finishes
/// ([`RunProgress::Done`]) or reaches [`RunSpec::pause_at`]
/// ([`RunProgress::Paused`]), fanning typed notifications out to
/// `observers`.
///
/// Observers are write-only sinks (the built-ins in
/// [`crate::runtime::sinks`] or any caller-defined [`SimObserver`]):
/// the result is bit-identical to an unobserved run. A sharded run
/// replays the canonical `(time, shard, seq)` merge of its shards'
/// notes into them, so they observe it exactly as a serial run. An
/// observer that asks for checkpoints gets them as the run reaches each
/// cadence point — for a sharded run, before the merged replay.
///
/// # Panics
///
/// Panics if the scenario is internally inconsistent in a way
/// [`Scenario`]'s builder should have rejected (a bug, not an input
/// condition).
pub fn execute(
    scenario: &Scenario,
    spec: &RunSpec,
    observers: &mut [&mut dyn SimObserver],
) -> RunProgress {
    if let Some(threads) = spec.shards {
        let plan = shard::plan(scenario);
        if plan.len() > 1 {
            if spec.pause_at == u64::MAX && checkpoint_every(observers) == u64::MAX {
                let (result, exhausted) =
                    shard::execute(scenario, &plan, observers, spec.budget, threads);
                return RunProgress::Done(BoundedRun { result, exhausted });
            }
            let fresh = ShardedSnapshot::fresh(scenario, spec.budget, plan.len());
            // A fresh snapshot always matches its own scenario and plan.
            let progress =
                snapshot::run_sharded_leg(scenario, &plan, fresh, observers, spec.pause_at)
                    .expect("fresh sharded leg accepts its own snapshot");
            return sharded_progress(progress);
        }
    }
    let mut engine = Engine::new(scenario, observers);
    engine.max_events = spec.budget;
    engine.bootstrap();
    serial_leg(engine, spec.pause_at)
}

/// Runs `scenario` to completion on the serial engine, unobserved.
///
/// # Panics
///
/// Panics under the same (builder-rejected) conditions as [`execute`].
pub fn run(scenario: &Scenario) -> SimResult {
    finished(execute(scenario, &RunSpec::default(), &mut []))
}

/// [`execute`] serially to completion. Kept only for `perfbench` until
/// the benchmark revision moves it onto [`execute`].
pub fn run_with(scenario: &Scenario, observers: &mut [&mut dyn SimObserver]) -> SimResult {
    finished(execute(scenario, &RunSpec::default(), observers))
}

/// [`execute`] sharded on `threads`, to completion. Kept only for
/// `perfbench` until the benchmark revision moves it onto [`execute`].
pub fn run_sharded(scenario: &Scenario, threads: usize) -> SimResult {
    run_sharded_with(scenario, &mut [], threads)
}

/// [`execute`] sharded on `threads`, to completion. Kept only for
/// `perfbench` until the benchmark revision moves it onto [`execute`].
pub fn run_sharded_with(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    threads: usize,
) -> SimResult {
    let spec = RunSpec {
        shards: Some(threads),
        ..RunSpec::default()
    };
    finished(execute(scenario, &spec, observers))
}

/// [`execute`] serially. Kept only for `perfbench` until the benchmark
/// revision moves it onto [`execute`].
pub fn run_until(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
    pause_after: u64,
) -> RunProgress {
    let spec = RunSpec {
        shards: None,
        budget: max_events,
        pause_at: pause_after,
    };
    execute(scenario, &spec, observers)
}

/// [`execute`] sharded. Kept only for `perfbench` until the benchmark
/// revision moves it onto [`execute`].
pub fn run_sharded_until(
    scenario: &Scenario,
    observers: &mut [&mut dyn SimObserver],
    max_events: u64,
    pause_after: u64,
) -> RunProgress {
    let spec = RunSpec {
        shards: Some(1),
        budget: max_events,
        pause_at: pause_after,
    };
    execute(scenario, &spec, observers)
}

/// The result of a run started without a pause target.
fn finished(progress: RunProgress) -> SimResult {
    progress
        .into_done()
        .expect("a run without a pause target runs to the end")
        .result
}

/// The canonical shard plan for `scenario`: one
/// [`shard::ShardSpec`] per interaction component, sorted by minimum
/// network index. Exposed for tests and tooling that want to inspect
/// how a scenario partitions; a sharded [`execute`] computes the same
/// plan internally.
pub fn shard_plan(scenario: &Scenario) -> Vec<shard::ShardSpec> {
    shard::plan(scenario)
}

/// A paused run, opaque to callers: serialize it with [`snapshot()`],
/// bring it back with [`restore`], continue it with [`resume_bounded`].
///
/// Holds everything mutable about the run (event queue with original
/// sequence numbers, RNG stream position, per-node MAC/provider state,
/// medium history, built-in collector state, event budget and count);
/// everything derived is recomputed from the scenario at resume. The
/// contract: *run-to-event-K, snapshot, restore, run-to-end is
/// byte-identical to the uninterrupted run* — results, traces,
/// timelines, and (for sharded runs) the merged observer stream.
#[derive(Debug)]
pub struct RunSnapshot {
    inner: SnapInner,
}

impl RunSnapshot {
    /// Replaces the event budget persisted in the snapshot.
    ///
    /// A supervisor that retries a timed-out run with a doubled budget
    /// resumes from the latest checkpoint rather than starting over;
    /// this lets it graft the new budget onto the saved state. Sharded
    /// snapshots re-split the budget over their ranks exactly as a
    /// fresh bounded run would.
    pub fn set_budget(&mut self, max_events: u64) {
        match &mut self.inner {
            SnapInner::Serial(snap) => snap.max_events = max_events,
            SnapInner::Sharded(snap) => snap.set_budget(max_events),
        }
    }
}

/// An [`execute`] / [`resume_bounded`] outcome: either the run paused
/// at the requested event count, or it finished.
#[derive(Debug)]
pub enum RunProgress {
    /// The pause target was reached first; the run can be snapshotted
    /// and resumed.
    Paused(Box<RunSnapshot>),
    /// The run completed (naturally or on its event budget) before the
    /// pause target.
    Done(BoundedRun),
}

impl RunProgress {
    /// The finished run, or `None` if the run paused.
    pub fn into_done(self) -> Option<BoundedRun> {
        match self {
            RunProgress::Done(done) => Some(done),
            RunProgress::Paused(_) => None,
        }
    }
}

/// Serializes a paused run as self-describing, versioned snapshot JSON
/// (the in-tree `nomc-json` codec; exact `u64`/`f64` round-trips).
///
/// The scenario itself is *not* embedded — only its fingerprint — so a
/// snapshot can only be resumed against the configuration that produced
/// it, and snapshot files stay proportional to live state.
pub fn snapshot(snap: &RunSnapshot) -> String {
    snapshot::encode(&snap.inner)
}

/// Parses snapshot JSON produced by [`snapshot()`] back into a resumable
/// [`RunSnapshot`].
///
/// Total: corrupt payloads (truncation, bit flips, type confusion) are
/// [`SnapshotError::Malformed`], an incompatible format version is
/// [`SnapshotError::VersionSkew`] — never a panic. Scenario agreement
/// is checked at [`resume_bounded`] time, where the scenario is in
/// hand.
pub fn restore(text: &str) -> Result<RunSnapshot, SnapshotError> {
    snapshot::decode(text).map(|inner| RunSnapshot { inner })
}

/// Resumes a paused run against `scenario` until `pause_after` total
/// events, its persisted event budget, or completion — whichever comes
/// first.
///
/// The snapshot remembers whether it was a serial or sharded run and
/// its original `max_events`; `pause_after` is an absolute target on
/// the same counter as [`RunSpec::pause_at`] (pass `u64::MAX` to run to
/// the end), and a checkpointing observer's cadence counts on from the
/// snapshot's own event count. `observers` attach for the remainder of
/// the run: a resumed serial run streams them the suffix only, while a
/// resumed sharded run replays the *complete* buffered note stream at
/// the final merge.
/// Built-in collector state travels inside the snapshot either way, so
/// the returned result, trace, and timeline are byte-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// [`SnapshotError::ScenarioMismatch`] when the snapshot fingerprint
/// does not match `scenario`, [`SnapshotError::Malformed`] when the
/// snapshot's internal invariants do not hold against the scenario
/// (index bounds, state-shape agreement). Never panics on bad input.
pub fn resume_bounded(
    scenario: &Scenario,
    snap: RunSnapshot,
    observers: &mut [&mut dyn SimObserver],
    pause_after: u64,
) -> Result<RunProgress, SnapshotError> {
    match snap.inner {
        SnapInner::Serial(engine_snap) => {
            let engine = Engine::restore_from(scenario, observers, &engine_snap)?;
            Ok(serial_leg(engine, pause_after))
        }
        SnapInner::Sharded(sharded) => {
            let plan = shard::plan(scenario);
            let progress =
                snapshot::run_sharded_leg(scenario, &plan, sharded, observers, pause_after)?;
            Ok(sharded_progress(progress))
        }
    }
}

/// Advances a (fresh or restored) serial engine one leg, handing its
/// observers a checkpoint at every cadence point they ask for, counted
/// from where the engine starts.
fn serial_leg(mut engine: Engine<'_, '_, '_>, pause_after: u64) -> RunProgress {
    let every = engine.obs.checkpoint_every();
    let emit: &mut dyn FnMut(&mut Engine<'_, '_, '_>) = &mut |e| {
        let text = snapshot::encode_serial_live(e);
        e.obs.checkpoint(e.events, &text);
    };
    let mut cadence = Cadence {
        next: engine.events.saturating_add(every),
        every,
        emit,
    };
    let hook = (every != u64::MAX).then_some(&mut cadence);
    match engine.run_leg(pause_after, hook) {
        crate::runtime::LegEnd::Paused => RunProgress::Paused(Box::new(RunSnapshot {
            inner: SnapInner::Serial(Box::new(
                EngineSnapshot::from_json(&engine.state_json())
                    .expect("a live engine's snapshot payload decodes"),
            )),
        })),
        crate::runtime::LegEnd::Over => {
            let exhausted = engine.exhausted;
            RunProgress::Done(BoundedRun {
                result: engine.finalize(),
                exhausted,
            })
        }
    }
}

fn sharded_progress(progress: ShardedProgress) -> RunProgress {
    match progress {
        ShardedProgress::Paused(sharded) => RunProgress::Paused(Box::new(RunSnapshot {
            inner: SnapInner::Sharded(sharded),
        })),
        ShardedProgress::Done(result, exhausted) => {
            RunProgress::Done(BoundedRun { result, exhausted })
        }
    }
}
