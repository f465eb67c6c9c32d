//! Job specs, content-addressed job identity, and the job lifecycle
//! state machine.
//!
//! A job is a multi-seed sweep of one scenario, submitted as JSON. Its
//! identity is a content key (FNV-1a over every member's sweep hash
//! plus the retry budget), so resubmitting the same work — byte-for-
//! byte or semantically equal after JSON normalization — lands on the
//! same job and is served from cache instead of re-simulated.
//! `checkpoint_every` is deliberately *excluded* from the key: the
//! engine's resume contract makes the report byte-identical regardless
//! of checkpoint cadence, so two specs differing only there are the
//! same work.
//!
//! The lifecycle (`Queued → Running → Done/Failed`, with
//! `Running → Queued` on drain) is a closed state machine: every
//! (state, event) pair is enumerated in [`apply`], illegal pairs are
//! typed errors, and the exhaustive-dispatch lint watches this file so
//! a new event variant cannot be silently dropped.

use std::fmt;
use std::path::{Path, PathBuf};

use nomc_experiments::sweep;
use nomc_sim::Scenario;

/// Hard cap on per-member retry attempts: each retry doubles the event
/// budget, so 16 retries already multiply it by 65536 — anything above
/// is a typo, not a plan.
pub const MAX_RETRIES: u32 = 16;

/// A submitted job: one scenario swept over `seeds`, each member run
/// with `budget` events (doubling per retry), optionally sharded and
/// checkpoint-supervised.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The base scenario; each member clones it with one of `seeds`.
    pub scenario: Scenario,
    /// Sweep seeds, one member per seed. Must be non-empty and free of
    /// duplicates (duplicate members would share a journal slot key).
    pub seeds: Vec<u64>,
    /// First-attempt event budget per member.
    pub budget: u64,
    /// Extra attempts for `Failed`/`TimedOut` members (0 = single
    /// attempt), capped at [`MAX_RETRIES`].
    pub retries: u32,
    /// `Some(n)`: run members through the sharded engine on `n`
    /// threads — but only when `checkpoint_every` is `None`: a
    /// checkpointed member (the default) runs its shards one at a time
    /// on one thread and `n` is not read. Folded into the content key
    /// (sharded and serial results follow different seed semantics).
    pub shards: Option<usize>,
    /// `Some(n)`: checkpoint each attempt every `n` events so a killed
    /// server resumes mid-member instead of replaying it. `None`
    /// disables mid-member snapshots (whole members still journal).
    pub checkpoint_every: Option<u64>,
}

nomc_json::json_struct!(JobSpec {
    scenario: Scenario,
    seeds: Vec<u64>,
    budget: u64 = 1_000_000_000,
    retries: u32 = 1,
    shards: Option<usize> = None,
    checkpoint_every: Option<u64> = Some(200_000),
});

/// Why a [`JobSpec`] was refused at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The embedded scenario failed its own validation.
    BadScenario {
        /// The scenario's validation message.
        reason: String,
    },
    /// `seeds` was empty — a job must have at least one member.
    NoSeeds,
    /// `seeds` contained the same seed twice.
    DuplicateSeed {
        /// The repeated seed.
        seed: u64,
    },
    /// `budget` was zero — no member could ever conclude.
    ZeroBudget,
    /// `retries` exceeded [`MAX_RETRIES`].
    TooManyRetries {
        /// The requested retry count.
        requested: u32,
    },
    /// `shards` was `Some(0)` — a sharded run needs at least one
    /// worker.
    ZeroShards,
    /// `checkpoint_every` was `Some(0)` — a zero-event checkpoint
    /// cadence would snapshot before any progress, forever.
    ZeroCheckpointEvery,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadScenario { reason } => write!(f, "invalid scenario: {reason}"),
            SpecError::NoSeeds => write!(f, "seeds must name at least one member"),
            SpecError::DuplicateSeed { seed } => {
                write!(f, "seed {seed} appears more than once")
            }
            SpecError::ZeroBudget => write!(f, "budget must be at least 1 event"),
            SpecError::TooManyRetries { requested } => {
                write!(f, "retries {requested} exceeds the cap of {MAX_RETRIES}")
            }
            SpecError::ZeroShards => write!(f, "shards must be at least 1 when set"),
            SpecError::ZeroCheckpointEvery => {
                write!(f, "checkpoint_every must be at least 1 event when set")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl JobSpec {
    /// Checks the spec against every admission rule.
    ///
    /// # Errors
    ///
    /// The first violated rule as a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        self.scenario
            .validate()
            .map_err(|e| SpecError::BadScenario {
                reason: e.to_string(),
            })?;
        if self.seeds.is_empty() {
            return Err(SpecError::NoSeeds);
        }
        let mut sorted = self.seeds.clone();
        sorted.sort_unstable();
        if let Some(dup) = sorted
            .windows(2)
            .find(|w| w.first() == w.get(1))
            .and_then(|w| w.first())
        {
            return Err(SpecError::DuplicateSeed { seed: *dup });
        }
        if self.budget == 0 {
            return Err(SpecError::ZeroBudget);
        }
        if self.retries > MAX_RETRIES {
            return Err(SpecError::TooManyRetries {
                requested: self.retries,
            });
        }
        if self.shards == Some(0) {
            return Err(SpecError::ZeroShards);
        }
        if self.checkpoint_every == Some(0) {
            return Err(SpecError::ZeroCheckpointEvery);
        }
        Ok(())
    }

    /// The per-member scenarios, in seed order (the journal slot
    /// order).
    pub fn members(&self) -> Vec<Scenario> {
        sweep::seed_members(&self.scenario, &self.seeds)
    }

    /// The per-member content hashes, computed exactly as
    /// [`sweep::Sweep::open`] computes them for the job's journal, so
    /// journals and checkpoints interoperate with `nomc sweep`.
    pub fn member_hashes(&self) -> Vec<u64> {
        self.members()
            .iter()
            .map(|sc| sweep::hash::member_hash_with(sc, self.budget, self.shards.is_some()))
            .collect()
    }
}

/// The job's content key: FNV-1a over the sweep hash of every member
/// plus the retry budget (retries shape the report's attempt ladder;
/// checkpoint cadence does not, and is excluded).
pub fn job_id(spec: &JobSpec) -> u64 {
    let hashes = spec.member_hashes();
    let mut h = sweep::hash::Fnv1a::new();
    h.write_u64(sweep::hash::sweep_hash(&hashes));
    h.write_u64(u64::from(spec.retries));
    h.finish()
}

/// Decodes and validates a `POST /jobs` body into its content key and
/// spec.
///
/// # Errors
///
/// The reason the body is refused, as the 400 answer states it.
pub fn decode(body: &[u8]) -> Result<(u64, JobSpec), String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let spec: JobSpec = nomc_json::from_str(text).map_err(|e| format!("bad job spec: {e}"))?;
    spec.validate()
        .map_err(|e| format!("rejected job spec: {e}"))?;
    Ok((job_id(&spec), spec))
}

/// A job id rendered the way every URL and directory name spells it:
/// 16 lowercase hex digits, zero-padded.
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a job id back from its canonical 16-hex-digit spelling.
/// Anything else — wrong length, uppercase trickery is fine but
/// non-hex bytes are not — is `None`, which routes to 404 rather than
/// a parse panic.
pub fn parse_id(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Where one job lives under the server's state directory.
#[derive(Debug, Clone)]
pub struct JobPaths {
    /// `<state>/jobs/<id>` — the job's own directory.
    pub dir: PathBuf,
    /// The submitted spec, persisted before the job is acknowledged so
    /// a restart can re-run it.
    pub spec: PathBuf,
    /// The per-member sweep journal (same format `nomc sweep` writes).
    pub journal: PathBuf,
    /// The final report; its existence *is* the "done" marker on disk.
    pub report: PathBuf,
    /// Mid-member engine snapshots (drained once the job concludes).
    pub snapshots: PathBuf,
}

/// Computes the on-disk layout of job `id` under `state_dir`.
pub fn paths(state_dir: &Path, id: u64) -> JobPaths {
    let dir = state_dir.join("jobs").join(id_hex(id));
    JobPaths {
        spec: dir.join("spec.json"),
        journal: dir.join("journal.jsonl"),
        report: dir.join("report.json"),
        snapshots: dir.join("snapshots"),
        dir,
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is sweeping its members.
    Running {
        /// Members concluded so far.
        done: usize,
        /// Total members.
        total: usize,
    },
    /// The report is on disk and byte-stable.
    Done,
    /// The job hit a non-retryable error; see the stored message.
    Failed,
}

impl JobState {
    /// The state's wire name (the `state` field of every status
    /// response).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A lifecycle event applied to a [`JobState`] via [`apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// A worker picked the job up.
    Start {
        /// Total members it will sweep.
        total: usize,
    },
    /// One member concluded (ran now or recovered from the journal).
    MemberDone,
    /// The server is draining; the job goes back to the queue and
    /// resumes on the next boot.
    Requeue,
    /// Every member concluded and the report is persisted.
    Finish,
    /// A non-retryable error (I/O, corrupt state) ended the job.
    Fail,
}

/// An illegal (state, event) pair — a supervisor bug surfaced as data
/// instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionError {
    /// The state the event was applied to.
    pub from: JobState,
    /// The event that had no legal edge from it.
    pub event: JobEvent,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no transition for event {:?} in state {:?}",
            self.event, self.from
        )
    }
}

impl std::error::Error for TransitionError {}

/// Applies one lifecycle event. Every (state, event) pair is named:
/// the six legal edges produce the next state, the fourteen illegal
/// ones are typed errors, and there is deliberately no catch-all arm —
/// adding a [`JobEvent`] variant fails this build (and the
/// exhaustive-dispatch lint) until its handling is decided.
///
/// # Errors
///
/// [`TransitionError`] for every pair outside the lifecycle diagram.
pub fn apply(state: &JobState, event: &JobEvent) -> Result<JobState, TransitionError> {
    let illegal = || {
        Err(TransitionError {
            from: state.clone(),
            event: event.clone(),
        })
    };
    match (state, event) {
        (JobState::Queued, JobEvent::Start { total }) => Ok(JobState::Running {
            done: 0,
            total: *total,
        }),
        (JobState::Queued, JobEvent::Fail) => Ok(JobState::Failed),
        (JobState::Running { done, total }, JobEvent::MemberDone) => Ok(JobState::Running {
            done: done.saturating_add(1),
            total: *total,
        }),
        (JobState::Running { .. }, JobEvent::Finish) => Ok(JobState::Done),
        (JobState::Running { .. }, JobEvent::Requeue) => Ok(JobState::Queued),
        (JobState::Running { .. }, JobEvent::Fail) => Ok(JobState::Failed),
        (JobState::Queued, JobEvent::MemberDone | JobEvent::Requeue | JobEvent::Finish) => {
            illegal()
        }
        (JobState::Running { .. }, JobEvent::Start { .. }) => illegal(),
        (
            JobState::Done,
            JobEvent::Start { .. }
            | JobEvent::MemberDone
            | JobEvent::Requeue
            | JobEvent::Finish
            | JobEvent::Fail,
        ) => illegal(),
        (
            JobState::Failed,
            JobEvent::Start { .. }
            | JobEvent::MemberDone
            | JobEvent::Requeue
            | JobEvent::Finish
            | JobEvent::Fail,
        ) => illegal(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_topology::{paper, spectrum::ChannelPlan};
    use nomc_units::{Dbm, Megahertz, SimDuration};

    fn test_scenario() -> Scenario {
        let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
        let mut b = Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
        b.duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_secs(1));
        b.build().expect("valid test scenario")
    }

    fn spec() -> JobSpec {
        JobSpec {
            scenario: test_scenario(),
            seeds: vec![1, 2, 3],
            budget: 50_000,
            retries: 1,
            shards: None,
            checkpoint_every: Some(10_000),
        }
    }

    #[test]
    fn valid_spec_passes_and_id_is_stable() {
        let s = spec();
        s.validate().unwrap();
        assert_eq!(job_id(&s), job_id(&s.clone()));
        let hex = id_hex(job_id(&s));
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_id(&hex), Some(job_id(&s)));
    }

    #[test]
    fn every_admission_rule_fires() {
        let mut s = spec();
        s.seeds.clear();
        assert_eq!(s.validate(), Err(SpecError::NoSeeds));

        let mut s = spec();
        s.seeds = vec![7, 1, 7];
        assert_eq!(s.validate(), Err(SpecError::DuplicateSeed { seed: 7 }));

        let mut s = spec();
        s.budget = 0;
        assert_eq!(s.validate(), Err(SpecError::ZeroBudget));

        let mut s = spec();
        s.retries = 17;
        assert_eq!(
            s.validate(),
            Err(SpecError::TooManyRetries { requested: 17 })
        );

        let mut s = spec();
        s.shards = Some(0);
        assert_eq!(s.validate(), Err(SpecError::ZeroShards));

        let mut s = spec();
        s.checkpoint_every = Some(0);
        assert_eq!(s.validate(), Err(SpecError::ZeroCheckpointEvery));
    }

    #[test]
    fn id_depends_on_content_not_checkpoint_cadence() {
        let base = spec();

        // Checkpoint cadence never changes report bytes, so it must
        // not split the cache.
        let mut cadence = base.clone();
        cadence.checkpoint_every = None;
        assert_eq!(job_id(&base), job_id(&cadence));

        // Everything that *does* shape the report splits the key.
        let mut other = base.clone();
        other.seeds = vec![1, 2, 4];
        assert_ne!(job_id(&base), job_id(&other));
        let mut other = base.clone();
        other.budget += 1;
        assert_ne!(job_id(&base), job_id(&other));
        let mut other = base.clone();
        other.retries += 1;
        assert_ne!(job_id(&base), job_id(&other));
        let mut other = base.clone();
        other.shards = Some(2);
        assert_ne!(job_id(&base), job_id(&other));
    }

    #[test]
    fn spec_round_trips_through_json_with_defaults() {
        let s = spec();
        let text = nomc_json::to_string(&s);
        let back: JobSpec = nomc_json::from_str(&text).unwrap();
        assert_eq!(back, s);

        // A minimal submission gets the documented defaults.
        let scenario_json = nomc_json::to_string(&s.scenario);
        let minimal = format!("{{\"scenario\":{scenario_json},\"seeds\":[9]}}");
        let parsed: JobSpec = nomc_json::from_str(&minimal).unwrap();
        assert_eq!(parsed.budget, 1_000_000_000);
        assert_eq!(parsed.retries, 1);
        assert_eq!(parsed.shards, None);
        assert_eq!(parsed.checkpoint_every, Some(200_000));
    }

    #[test]
    fn lifecycle_walks_its_legal_edges_and_rejects_the_rest() {
        let queued = JobState::Queued;
        let running = apply(&queued, &JobEvent::Start { total: 3 }).unwrap();
        assert_eq!(running, JobState::Running { done: 0, total: 3 });
        let after_one = apply(&running, &JobEvent::MemberDone).unwrap();
        assert_eq!(after_one, JobState::Running { done: 1, total: 3 });
        assert_eq!(
            apply(&after_one, &JobEvent::Finish).unwrap(),
            JobState::Done
        );
        assert_eq!(
            apply(&after_one, &JobEvent::Requeue).unwrap(),
            JobState::Queued
        );
        assert_eq!(
            apply(&after_one, &JobEvent::Fail).unwrap(),
            JobState::Failed
        );
        assert_eq!(apply(&queued, &JobEvent::Fail).unwrap(), JobState::Failed);

        for bad in [
            apply(&queued, &JobEvent::MemberDone),
            apply(&queued, &JobEvent::Finish),
            apply(&JobState::Done, &JobEvent::Start { total: 1 }),
            apply(&JobState::Done, &JobEvent::Finish),
            apply(&JobState::Failed, &JobEvent::MemberDone),
            apply(&running, &JobEvent::Start { total: 1 }),
        ] {
            let err = bad.unwrap_err();
            assert!(err.to_string().contains("no transition"));
        }
    }

    #[test]
    fn paths_follow_the_hex_id() {
        let p = paths(Path::new("/tmp/state"), 0xabc);
        assert!(p.dir.ends_with("jobs/0000000000000abc"));
        assert!(p.spec.ends_with("spec.json"));
        assert!(p.journal.ends_with("journal.jsonl"));
        assert!(p.report.ends_with("report.json"));
        assert!(p.snapshots.ends_with("snapshots"));
    }
}
