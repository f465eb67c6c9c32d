//! Crash-safe sweep orchestration: journaled checkpoints, deterministic
//! retries, and members scheduled on the work-stealing
//! [`nomc_sim::pool`].
//!
//! The reproduction's figures come from long multi-seed parameter
//! sweeps. A sweep member (one scenario at one seed) already survives
//! its own faults — `catch_unwind` isolation and deterministic event
//! budgets live in [`crate::runner`] — but this module makes the *batch
//! itself* survive the process dying:
//!
//! * [`journal`] — an append-only JSONL checkpoint, atomically replaced
//!   (tmp-write + `fsync` + `rename`) after every concluded member, so
//!   a SIGKILL'd sweep resumes from its last member instead of seed 1;
//! * [`checkpoint`] — optional *mid-member* engine snapshots on an
//!   event cadence ([`SweepConfig::checkpoint_every`]), written with
//!   the same atomic discipline, so a SIGKILL'd sweep resumes a long
//!   member from its last checkpoint instead of its first event — and the
//!   resumed member's report is byte-identical to the uninterrupted
//!   one (the engine's snapshot contract);
//! * [`hash`] — FNV-1a content keys over (serialized scenario, seed,
//!   event budget) that bind journal entries to exactly the sweep that
//!   wrote them, detecting stale journals after scenario edits;
//! * [`report`] — per-member attempt histories with reducers that
//!   refuse (typed error, never a panic, never silent narrowing) to
//!   summarize a sweep where fewer than two members completed.
//!
//! Retries are deterministic: a `Failed`/`TimedOut` member is re-run up
//! to [`SweepConfig::retries`] times with a doubling *event* budget —
//! never a wall clock — and the full history lands in the report.
//!
//! [`Sweep`] holds the journaled state for both callers: [`run_sweep`]
//! fills it from the worker pool, and `nomc serve` one member at a
//! time, so a served job writes the journal and report bytes a
//! `nomc sweep` of its members writes.
//!
//! # Examples
//!
//! ```no_run
//! use nomc_experiments::sweep::{self, SweepConfig};
//! # fn base() -> nomc_sim::Scenario { unimplemented!() }
//!
//! let members = sweep::seed_members(&base(), &[1, 2, 3, 4, 5]);
//! let report = sweep::run_sweep(
//!     &members,
//!     &SweepConfig::default(),
//!     Some(std::path::Path::new("sweep.jsonl")),
//!     true, // resume if the journal already covers some members
//! )?;
//! println!("{:?} -> {:?}", report.counts(), report.throughput_stat());
//! # Ok::<(), nomc_experiments::sweep::SweepError>(())
//! ```

pub mod checkpoint;
pub mod hash;
pub mod journal;
pub mod report;

pub use report::{
    AttemptOutcome, AttemptRecord, MemberMetrics, MemberReport, OutcomeCounts, SweepReport,
};

use crate::runner::{run_isolated, RunOutcome};
use nomc_sim::{pool, RunSpec, Scenario, SimObserver};
use std::path::Path;
use std::sync::Mutex;

/// Why a sweep (or one of its journal lines) could not be processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// The journal's header line is missing or unreadable; the file
    /// cannot be trusted at all.
    BadHeader {
        /// 1-based line number (always 1 today).
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal was written for a different sweep (edited scenarios,
    /// seeds, budget or member count).
    StaleJournal {
        /// This sweep's hash.
        expected: u64,
        /// The hash the journal header carries.
        found: u64,
    },
    /// A member line was unparsable or structurally invalid; only that
    /// member is quarantined (it reruns).
    CorruptLine {
        /// 1-based journal line number.
        line: usize,
        /// Parse/validation failure text.
        reason: String,
    },
    /// A member line's content hash does not match the member it names.
    HashMismatch {
        /// 1-based journal line number.
        line: usize,
        /// The member the line names.
        member: usize,
        /// The hash this sweep computes for that member.
        expected: u64,
        /// The hash the line carries.
        found: u64,
    },
    /// Two journal lines conclude the same member; the later one is
    /// quarantined.
    DuplicateMember {
        /// 1-based journal line number of the duplicate.
        line: usize,
        /// The member both lines name.
        member: usize,
    },
    /// The journal's final line is a partial record and the file does
    /// not end with a newline: the classic torn tail of a write that
    /// was killed mid-flight. Distinguished from [`SweepError::CorruptLine`]
    /// so restart paths can drop it silently (expected after SIGKILL)
    /// instead of warning about mid-file corruption.
    TrailingGarbage {
        /// Byte offset where the torn final line starts.
        offset: usize,
    },
    /// Too few members completed to reduce to a statistic.
    TooFewSamples {
        /// Members whose final attempt completed.
        completed: usize,
        /// Total members in the sweep.
        members: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, message } => write!(f, "journal I/O on {path}: {message}"),
            SweepError::BadHeader { line, reason } => {
                write!(f, "journal line {line}: bad header: {reason}")
            }
            SweepError::StaleJournal { expected, found } => write!(
                f,
                "stale journal: sweep hash {found:#018x} does not match this sweep \
                 ({expected:#018x}); the scenarios, seeds or budget changed since it was written"
            ),
            SweepError::CorruptLine { line, reason } => {
                write!(
                    f,
                    "journal line {line}: corrupt entry quarantined: {reason}"
                )
            }
            SweepError::HashMismatch {
                line,
                member,
                expected,
                found,
            } => write!(
                f,
                "journal line {line}: member {member} hash {found:#018x} does not match \
                 {expected:#018x}; entry quarantined"
            ),
            SweepError::DuplicateMember { line, member } => {
                write!(
                    f,
                    "journal line {line}: duplicate entry for member {member}"
                )
            }
            SweepError::TrailingGarbage { offset } => write!(
                f,
                "journal ends mid-record at byte {offset} (torn final write); partial line dropped"
            ),
            SweepError::TooFewSamples { completed, members } => write!(
                f,
                "only {completed} of {members} members completed; refusing to reduce fewer \
                 than 2 samples to a statistic"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Tuning knobs of a sweep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Extra attempts granted to a `Failed`/`TimedOut` member (0 =
    /// single attempt).
    pub retries: u32,
    /// Event budget of the first attempt; each retry doubles it
    /// (saturating). Budgets count simulation events, never wall-clock
    /// time, so truncation is exactly reproducible.
    pub base_budget: u64,
    /// Worker threads; `None` uses [`pool::default_threads`].
    pub threads: Option<usize>,
    /// Per-member sharded execution: `Some(n)` runs every member
    /// through the sharded engine ([`nomc_sim::RunSpec::shards`]) on `n`
    /// worker threads — except under [`SweepConfig::checkpoint_every`],
    /// where a member's components run one at a time on its sweep
    /// worker's thread and `n` is not read. Results are independent of `n`,
    /// but multi-component members follow the componentized-seed
    /// semantics rather than the legacy serial stream, so the member
    /// hash carries a `sharded` marker (see [`hash::member_hash_with`])
    /// and serial journals are not silently replayed. `None` keeps the
    /// legacy serial engine.
    pub shards: Option<usize>,
    /// Mid-member checkpoint cadence in *events* (never a wall clock):
    /// `Some(n)` persists every member's engine snapshot each `n` events
    /// to [`SweepConfig::snapshot_dir`], without stopping it, so a killed
    /// sweep resumes long members mid-flight. Requires `snapshot_dir`;
    /// `None` (the default) runs members straight through.
    pub checkpoint_every: Option<u64>,
    /// Directory holding one checkpoint file per member (keyed by
    /// member hash). Only consulted when `checkpoint_every` is set.
    pub snapshot_dir: Option<std::path::PathBuf>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            retries: 1,
            // Generous runaway protection: far above any experiment in
            // the tree, small enough to cut an infinite loop short.
            base_budget: 1_000_000_000,
            threads: None,
            shards: None,
            checkpoint_every: None,
            snapshot_dir: None,
        }
    }
}

/// Builds the member list of a seed sweep: `base` with each seed of
/// `seeds` substituted in (the common shape of every figure experiment).
pub fn seed_members(base: &Scenario, seeds: &[u64]) -> Vec<Scenario> {
    seeds
        .iter()
        .map(|&seed| {
            let mut sc = base.clone();
            sc.seed = seed;
            sc
        })
        .collect()
}

/// A sweep's journaled state: one slot per member, keyed by the
/// members' content hashes, and the journal every conclusion is
/// persisted to.
#[derive(Debug)]
pub struct Sweep {
    sweep_hash: u64,
    member_hashes: Vec<u64>,
    journal: Option<std::path::PathBuf>,
    snapshot_dir: Option<String>,
    slots: Vec<Option<MemberReport>>,
    quarantined: Vec<SweepError>,
}

impl Sweep {
    /// Hashes `members` under `cfg` and, with a `journal_path`,
    /// establishes the checkpoint file up front. With `resume`, an
    /// existing journal's trustworthy entries fill their slots first
    /// and the rewrite sheds its quarantined lines; without it, any
    /// previous journal is overwritten.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`]/[`SweepError::BadHeader`]/[`SweepError::StaleJournal`]
    /// when the journal cannot be read, trusted or written.
    pub fn open(
        members: &[Scenario],
        cfg: &SweepConfig,
        journal_path: Option<&Path>,
        resume: bool,
    ) -> Result<Sweep, SweepError> {
        let member_hashes: Vec<u64> = members
            .iter()
            .map(|sc| hash::member_hash_with(sc, cfg.base_budget, cfg.shards.is_some()))
            .collect();
        let mut sweep = Sweep {
            sweep_hash: hash::sweep_hash(&member_hashes),
            slots: vec![None; members.len()],
            member_hashes,
            journal: journal_path.map(Path::to_path_buf),
            snapshot_dir: cfg.snapshot_dir.as_ref().map(|p| p.display().to_string()),
            quarantined: Vec::new(),
        };
        if let (Some(path), true) = (journal_path, resume) {
            if let Some(replay) = journal::load(path, sweep.sweep_hash, &sweep.member_hashes)? {
                sweep.slots = replay.members;
                sweep.quarantined = replay.quarantined;
            }
        }
        sweep.persist()?;
        Ok(sweep)
    }

    /// The journal lines the resume had to reject (their members rerun).
    pub fn quarantined(&self) -> &[SweepError] {
        &self.quarantined
    }

    /// Whether member `index` already has its report.
    pub fn is_concluded(&self, index: usize) -> bool {
        self.slots.get(index).is_some_and(Option::is_some)
    }

    /// Records member `index`'s report, then atomically replaces the
    /// journal, so the member counts as done only once it is durable.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the journal cannot be written; the report
    /// is kept in memory either way.
    pub fn conclude(&mut self, index: usize, report: MemberReport) -> Result<(), SweepError> {
        if let Some(slot) = self.slots.get_mut(index) {
            *slot = Some(report);
        }
        self.persist()
    }

    /// The report over every slot, in member order. A member that never
    /// concluded gets an empty attempt history.
    pub fn into_report(self) -> SweepReport {
        let Sweep {
            sweep_hash,
            member_hashes,
            slots,
            ..
        } = self;
        let members = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or(MemberReport {
                    member: i,
                    hash: member_hashes.get(i).copied().unwrap_or_default(),
                    attempts: Vec::new(),
                })
            })
            .collect();
        SweepReport {
            sweep_hash,
            members,
        }
    }

    fn persist(&self) -> Result<(), SweepError> {
        match &self.journal {
            Some(path) => journal::persist(
                path,
                self.sweep_hash,
                self.snapshot_dir.as_deref(),
                &self.slots,
            ),
            None => Ok(()),
        }
    }
}

/// Runs `members` under the sweep supervisor.
///
/// With a `journal` path, every concluded member is checkpointed by an
/// atomic file replace before the sweep moves on; with `resume`, an
/// existing journal's trustworthy entries are skipped instead of rerun
/// (corrupt lines quarantine only themselves; a stale or unreadable
/// journal is a typed error). The returned report is byte-identically
/// serializable regardless of thread count and of how many times the
/// sweep was killed and resumed along the way.
///
/// # Errors
///
/// [`SweepError::Io`]/[`SweepError::BadHeader`]/[`SweepError::StaleJournal`]
/// for journal problems that make checkpointing impossible or untrustworthy.
/// Member failures are *not* errors — they are recorded outcomes in the
/// report.
pub fn run_sweep(
    members: &[Scenario],
    cfg: &SweepConfig,
    journal_path: Option<&Path>,
    resume: bool,
) -> Result<SweepReport, SweepError> {
    let sweep = Sweep::open(members, cfg, journal_path, resume)?;
    let pending: Vec<usize> = (0..members.len())
        .filter(|&i| !sweep.is_concluded(i))
        .collect();

    let threads = cfg.threads.unwrap_or_else(pool::default_threads);
    let state = Mutex::new((sweep, None::<SweepError>));
    pool::run_indexed(pending.len(), threads, |k| {
        let index = *pending.get(k).expect("k < pending.len() by construction");
        let scenario = members
            .get(index)
            .expect("pending indexes come from 0..members.len()");
        let report = run_one_member(scenario, index, cfg, &mut []);
        // Serialized by the mutex; only the first persist failure is
        // kept (later members still run — losing durability does not
        // lose results).
        let mut state = state.lock().expect("no panic holds the journal lock");
        let (sweep, first_error) = &mut *state;
        if let Err(e) = sweep.conclude(index, report) {
            first_error.get_or_insert(e);
        }
    });

    let (sweep, first_error) = state
        .into_inner()
        .expect("worker scope joined without poisoning");
    match first_error {
        Some(e) => Err(e),
        None => Ok(sweep.into_report()),
    }
}

/// Runs (or resumes) a single sweep member under the full attempt
/// supervisor, streaming progress to `observers`: a first attempt at
/// the base budget, then — for `Failed`/`TimedOut` outcomes — up to
/// `retries` more with a doubling event budget, recording every
/// attempt. [`run_sweep`] schedules members through it on the pool;
/// the results server runs a job's members through it in slot order
/// and records each with [`Sweep::conclude`].
///
/// With checkpoint supervision configured
/// ([`SweepConfig::checkpoint_every`] and [`SweepConfig::snapshot_dir`]),
/// each attempt persists an engine snapshot keyed by the member hash
/// every `checkpoint_every` events, without stopping the engine; a timed-out attempt's last
/// checkpoint carries into the retry (which resumes it under the
/// doubled budget instead of replaying the prefix), and the checkpoint
/// is discarded once the member concludes. The report records nothing
/// about checkpointing — a resumed member's report is byte-identical to
/// an uninterrupted one. Observers are write-only sinks and cannot
/// perturb the run (the engine's observer contract), so attaching a
/// progress channel keeps the report bit-identical to an unobserved run.
pub fn run_one_member(
    scenario: &Scenario,
    index: usize,
    cfg: &SweepConfig,
    observers: &mut [&mut dyn SimObserver],
) -> MemberReport {
    let member_hash = hash::member_hash_with(scenario, cfg.base_budget, cfg.shards.is_some());
    let supervision = match (&cfg.snapshot_dir, cfg.checkpoint_every) {
        (Some(dir), Some(every)) if every > 0 => Some((dir.as_path(), every)),
        _ => None,
    };
    let mut attempts = Vec::new();
    let mut budget = cfg.base_budget;
    for attempt in 0..=cfg.retries {
        let spec = RunSpec {
            shards: cfg.shards,
            budget,
            ..RunSpec::default()
        };
        let run = match supervision {
            // Panic-isolated like `run_isolated`, but checkpointed.
            Some((dir, every)) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                checkpoint::run_legs(scenario, &spec, every, dir, member_hash, attempt, observers).0
            }))
            .unwrap_or_else(|payload| {
                // A panicking attempt cannot vouch for what it left on
                // disk; drop the checkpoint so the retry starts clean.
                checkpoint::discard(dir, member_hash);
                RunOutcome::Failed(crate::runner::panic_message(&*payload))
            }),
            None => run_isolated(scenario, &spec, observers),
        };
        let (outcome, done) = match run {
            RunOutcome::Ok(result) => (AttemptOutcome::Ok(MemberMetrics::of(&result)), true),
            RunOutcome::Failed(message) => (AttemptOutcome::Failed(message), false),
            RunOutcome::TimedOut { events } => (AttemptOutcome::TimedOut { events }, false),
        };
        attempts.push(AttemptRecord { budget, outcome });
        if done {
            break;
        }
        budget = budget.saturating_mul(2);
    }
    // The member is concluded (the caller journals it next); its
    // checkpoint has served its purpose.
    if let Some((dir, _)) = supervision {
        checkpoint::discard(dir, member_hash);
    }
    MemberReport {
        member: index,
        hash: member_hash,
        attempts,
    }
}

#[cfg(test)]
mod tests;
