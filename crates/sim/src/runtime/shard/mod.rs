//! Deterministic sharded execution of a single simulation run.
//!
//! A scenario's networks fall into *interaction components* — the
//! equivalence classes of the "can possibly interact" relation built
//! from the same [`crate::reach`] predicates the medium's sensing
//! paths use (channel coupling within the ACR support, capture-model
//! sync candidacy, the collision-floor bound for the cutoff-free
//! `was_collided` query, and forwarding traffic). Networks in
//! different components can never exchange power, preamble sync, or
//! frames, so each component simulates as a standalone sub-scenario
//! with its own derived RNG stream, and the sub-results compose
//! exactly.
//!
//! Because components are fully independent, no synchronization
//! protocol is needed: every rank runs its component to completion on
//! the shared [`crate::pool`], logging its boundary notes, and the logs
//! merge once all ranks are done. The module family:
//!
//! * [`partition`] — union-find planning, [`ShardSpec`] / sub-scenario
//!   construction, and the per-rank event-budget split,
//! * `merge` — the boundary-event relay observer and the canonical
//!   `(time, shard rank, seq)` merge that replays one serial-looking
//!   callback stream into external observers,
//! * this module — the one per-rank runner behind both the threaded
//!   executor and the sequential (paused or checkpointed) executor of
//!   [`crate::runtime::snapshot`].
//!
//! # Determinism contract
//!
//! Results of a sharded [`crate::engine::execute`] depend only on the
//! scenario — never on the thread count (`--shards N` sizes the worker
//! pool of a run without a pause target or checkpoints, while paused
//! and checkpointed runs run their ranks one at a time on the calling
//! thread; the partition is
//! canonical) and never on scheduling. A single-component plan
//! delegates to the serial engine with the seed untouched,
//! byte-identical to [`crate::engine::run`]. Multi-component plans run
//! each component exactly as the serial engine would run that
//! component's sub-scenario, with per-shard seeds derived by the sweep
//! layer's keyed-`splitmix64` discipline, and merge the observer
//! streams in canonical order.

pub(crate) mod merge;
pub mod partition;

pub(crate) use partition::split_budget;
pub use partition::{plan, ShardSpec};

use super::snapshot::{EngineSnapshot, RankState, SnapshotError};
use super::{Cadence, Engine, LegEnd};
use crate::metrics::SimResult;
use crate::pool;
use crate::runtime::observer::SimObserver;
use crate::scenario::Scenario;
use merge::{merge_logs, Note, RelayObserver, ShipFlags};
use nomc_json::FromJson;
use nomc_units::SimTime;

/// Runs a multi-shard plan to completion: every rank runs its whole
/// component on up to `threads` pool workers, then the logs merge.
/// Returns the merged result plus whether any shard exhausted its share
/// of `max_events` (split by [`split_budget`]).
pub(crate) fn execute(
    sc: &Scenario,
    plan: &[ShardSpec],
    externals: &mut [&mut dyn SimObserver],
    max_events: u64,
    threads: usize,
) -> (SimResult, bool) {
    let ship = ShipFlags::for_run(sc, externals);
    let budgets = split_budget(max_events, plan.len());
    let (logs, results) = pool::run_indexed(plan.len(), threads, |rank| {
        let (log, state) = run_rank(
            &plan[rank],
            ship,
            RankState::Fresh,
            budgets[rank],
            Vec::new(),
            u64::MAX,
            None,
        )
        .expect("a fresh rank restores no snapshot, so nothing can reject it");
        let done = state
            .into_done()
            .expect("a leg without a pause target runs its rank to the end");
        (log, done)
    })
    .into_iter()
    .unzip();
    merge_logs(sc, plan, logs, results, externals)
}

/// Runs one rank for one leg: a fresh engine with event budget
/// `budget`, or one restored from a paused `state`, advances until it
/// has counted `pause_at` events or its run is over, with `cadence`'s
/// checkpoint hook seeing it on the way. The rank's relay appends every
/// shipped note to `log`, which is handed back together with the rank's
/// new state — paused or done. A done rank is returned unchanged.
///
/// The engine runs with the heavyweight recorders off: the merge
/// rebuilds the trace and timeline from the relayed notes.
pub(crate) fn run_rank(
    spec: &ShardSpec,
    ship: ShipFlags,
    state: RankState,
    budget: u64,
    log: Vec<Note>,
    pause_at: u64,
    cadence: Option<&mut Cadence<'_>>,
) -> Result<(Vec<Note>, RankState), SnapshotError> {
    let (paused, relay) = match state {
        RankState::Fresh => (None, RelayObserver::new(log, ship, 0, SimTime::ZERO)),
        RankState::Paused {
            engine,
            relay_seq,
            relay_now,
        } => (
            Some(engine),
            RelayObserver::new(log, ship, relay_seq, relay_now),
        ),
        done @ RankState::Done { .. } => return Ok((log, done)),
    };
    let mut sub = spec.scenario.clone();
    sub.record_trace = false;
    sub.record_timeline = false;
    let mut engine = match &paused {
        Some(snap) => {
            let mut engine = Engine::restore_from(&sub, &mut [], snap)?;
            engine.obs.attach_relay(relay);
            engine
        }
        None => {
            let mut engine = Engine::new(&sub, &mut []);
            engine.obs.attach_relay(relay);
            engine.max_events = budget;
            engine.bootstrap();
            engine
        }
    };
    let end = engine.run_leg(pause_at, cadence);
    let (log, relay_seq, relay_now) = engine
        .obs
        .relay
        .take()
        .map(RelayObserver::into_parts)
        .expect("the relay stays attached for the whole leg");
    let state = match end {
        LegEnd::Paused => RankState::Paused {
            engine: EngineSnapshot::from_json(&engine.state_json())
                .expect("a live engine's snapshot payload decodes"),
            relay_seq,
            relay_now,
        },
        LegEnd::Over => {
            let exhausted = engine.exhausted;
            RankState::Done {
                result: engine.finalize(),
                exhausted,
            }
        }
    };
    Ok((log, state))
}
