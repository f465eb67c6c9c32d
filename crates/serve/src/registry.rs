//! In-memory job registry: admission control, the bounded work queue,
//! and per-job event logs.
//!
//! The registry is the server's single source of truth *between*
//! restarts; everything durable (specs, journals, reports) lives on
//! disk and is replayed into a fresh registry at boot. Admission is
//! where backpressure happens: a full queue sheds the request with a
//! typed [`Admission::Shed`] (the HTTP layer turns it into
//! `429 Retry-After`), it never blocks the accept loop and never
//! queues unboundedly.
//!
//! Admission also remembers the canonical spec text of every job it
//! admits as new in this process (the bytes written to `spec.json`,
//! which is what `nomc submit` sends), so a resubmission of those
//! exact bytes names its job by one map lookup instead of a decode and
//! a content hash.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::jobs::{self, JobEvent, JobSpec, JobState};

/// An append-only, closable line log one job streams its progress
/// through. Writers push; any number of `/events` readers poll with
/// [`EventLog::wait_from`] using their own cursors.
#[derive(Debug, Default)]
pub struct EventLog {
    state: Mutex<LogState>,
    grew: Condvar,
}

#[derive(Debug, Default)]
struct LogState {
    lines: Vec<String>,
    closed: bool,
}

impl EventLog {
    /// A fresh, open, empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// A log that is already closed (restored `Done` jobs stream
    /// nothing further).
    pub fn closed() -> EventLog {
        let log = EventLog::default();
        log.close();
        log
    }

    /// Appends a line. Pushing to a closed log is a silent no-op: the
    /// log closes when the job's story is over, and stragglers have
    /// nothing to add to it.
    pub fn push(&self, line: String) {
        let mut state = self.state.lock().expect("event log lock is never poisoned");
        if !state.closed {
            state.lines.push(line);
            self.grew.notify_all();
        }
    }

    /// Marks the log complete; every waiting and future reader sees
    /// end-of-stream once it has drained the lines already present.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("event log lock is never poisoned");
        state.closed = true;
        self.grew.notify_all();
    }

    /// Returns the lines after `cursor`, the advanced cursor, and
    /// whether the log is closed. Blocks up to `max_wait` when there
    /// is nothing new yet.
    pub fn wait_from(&self, cursor: usize, max_wait: Duration) -> (Vec<String>, usize, bool) {
        let mut state = self.state.lock().expect("event log lock is never poisoned");
        if state.lines.len() <= cursor && !state.closed {
            let (next, _timed_out) = self
                .grew
                .wait_timeout(state, max_wait)
                .expect("event log lock is never poisoned");
            state = next;
        }
        let fresh: Vec<String> = state.lines.get(cursor..).unwrap_or_default().to_vec();
        (fresh, state.lines.len(), state.closed)
    }
}

/// The admission decision for one `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// New work: the job was enqueued and the caller owns persisting
    /// its spec.
    New {
        /// The spec's canonical text, `nomc_json::to_string(&spec)`:
        /// the bytes to write to `spec.json`.
        spec_text: String,
    },
    /// The content key already exists; serve from the registry (and
    /// disk) instead of re-simulating.
    Cached {
        /// The existing job's state at admission time.
        state: JobState,
    },
    /// The queue is full; the caller is told when to come back.
    Shed {
        /// Suggested `Retry-After`, scaled to the backlog.
        retry_after_secs: u64,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

struct JobEntry {
    /// The job's scenario and sweep parameters while it waits in the
    /// queue; handed to the worker that picks it up (a requeued job
    /// resumes from its durable `spec.json` on the next boot, so
    /// nothing reads it again).
    spec: Option<JobSpec>,
    state: JobState,
    error: Option<String>,
    events: Arc<EventLog>,
}

struct Inner {
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    draining: bool,
    /// Canonical spec text → job id, for every job admitted as new in
    /// this process. Jobs never leave `jobs`, so every id here is
    /// registered; texts are never dropped either.
    known: BTreeMap<Box<[u8]>, u64>,
}

/// Live queue / running / done / failed counts for `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Jobs admitted but not yet picked up.
    pub queued: usize,
    /// Jobs a worker is currently sweeping.
    pub running: usize,
    /// Jobs whose report is on disk.
    pub done: usize,
    /// Jobs ended by a non-retryable error.
    pub failed: usize,
    /// Whether the server is refusing new work.
    pub draining: bool,
}

/// The shared registry. All locking is internal; every method takes
/// `&self`.
pub struct Registry {
    inner: Mutex<Inner>,
    work: Condvar,
    max_queue: usize,
}

impl Registry {
    /// A registry shedding submissions beyond `max_queue` queued jobs.
    pub fn new(max_queue: usize) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                draining: false,
                known: BTreeMap::new(),
            }),
            work: Condvar::new(),
            max_queue,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock is never poisoned")
    }

    /// Decides what to do with the submission `body`, returning the
    /// job it names and the decision.
    ///
    /// A body byte-equal to the canonical text of a job admitted in
    /// this process names that job directly. Any other body goes
    /// through `decode` (outside the lock), which yields its content
    /// key and spec, or the error that refuses it. Either way the same
    /// decision follows: draining refuses, a registered job is cached,
    /// a full queue sheds, anything else is new.
    ///
    /// The text is remembered only when the job is new, which happens
    /// at most once per job in a process, so a resubmission that varies
    /// only the checkpoint cadence cannot grow the map.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns for an unknown body.
    pub fn admit<E>(
        &self,
        body: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<(u64, JobSpec), E>,
    ) -> Result<(u64, Admission), E> {
        let known = self.lock().known.get(body).copied();
        let (id, spec) = match known {
            Some(id) => (id, None),
            None => {
                let (id, spec) = decode(body)?;
                (id, Some(spec))
            }
        };
        let mut inner = self.lock();
        if inner.draining {
            return Ok((id, Admission::Draining));
        }
        if let Some(entry) = inner.jobs.get(&id) {
            let state = entry.state.clone();
            return Ok((id, Admission::Cached { state }));
        }
        let spec = spec.expect("remembered jobs stay registered");
        if inner.queue.len() >= self.max_queue {
            // Scale the hint to the backlog: a longer queue means a
            // longer wait before a retry can possibly be admitted.
            let retry_after_secs = inner.queue.len().max(1) as u64;
            return Ok((id, Admission::Shed { retry_after_secs }));
        }
        let spec_text = nomc_json::to_string(&spec);
        inner
            .known
            .insert(spec_text.clone().into_bytes().into(), id);
        inner.jobs.insert(
            id,
            JobEntry {
                spec: Some(spec),
                state: JobState::Queued,
                error: None,
                events: Arc::new(EventLog::new()),
            },
        );
        inner.queue.push_back(id);
        self.work.notify_one();
        Ok((id, Admission::New { spec_text }))
    }

    /// Registers a job recovered from disk whose report already
    /// exists. Its event log is born closed.
    pub fn restore_done(&self, id: u64) {
        let mut inner = self.lock();
        inner.jobs.insert(
            id,
            JobEntry {
                spec: None,
                state: JobState::Done,
                error: None,
                events: Arc::new(EventLog::closed()),
            },
        );
    }

    /// Re-enqueues a job recovered from disk that never concluded
    /// (killed mid-run or drained). Bypasses the admission cap: the
    /// work was already accepted in a previous life.
    pub fn restore_pending(&self, id: u64, spec: JobSpec) {
        let mut inner = self.lock();
        inner.jobs.insert(
            id,
            JobEntry {
                spec: Some(spec),
                state: JobState::Queued,
                error: None,
                events: Arc::new(EventLog::new()),
            },
        );
        inner.queue.push_back(id);
        self.work.notify_one();
    }

    /// Blocks until there is a job to run (returning its id and spec,
    /// which leaves the registry with it) or the server is draining
    /// (returning `None`, which tells the worker to exit).
    pub fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut inner = self.lock();
        loop {
            if inner.draining {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let spec = inner.jobs.get_mut(&id).and_then(|entry| entry.spec.take());
                if let Some(spec) = spec {
                    return Some((id, spec));
                }
                // A queued id without a spec is a bug upstream; skip it
                // rather than wedge the worker.
                continue;
            }
            inner = self
                .work
                .wait(inner)
                .expect("registry lock is never poisoned");
        }
    }

    /// Applies a lifecycle event to job `id` and returns the new
    /// state. Workers only emit edges the lifecycle allows, so an
    /// illegal pair here is a supervisor bug worth stopping on.
    pub fn apply(&self, id: u64, event: &JobEvent) -> JobState {
        let mut inner = self.lock();
        let entry = inner
            .jobs
            .get_mut(&id)
            .expect("workers only apply events to registered jobs");
        let next =
            jobs::apply(&entry.state, event).expect("workers only emit legal lifecycle edges");
        entry.state = next.clone();
        next
    }

    /// Fails job `id` with `message` and closes its event log.
    pub fn fail(&self, id: u64, message: String) {
        let mut inner = self.lock();
        if let Some(entry) = inner.jobs.get_mut(&id) {
            if let Ok(next) = jobs::apply(&entry.state, &JobEvent::Fail) {
                entry.state = next;
            }
            entry.error = Some(message);
            entry.events.close();
        }
    }

    /// The state (and failure message, if any) of job `id`.
    pub fn state(&self, id: u64) -> Option<(JobState, Option<String>)> {
        let inner = self.lock();
        inner
            .jobs
            .get(&id)
            .map(|entry| (entry.state.clone(), entry.error.clone()))
    }

    /// The event log of job `id`, shareable with any number of
    /// streaming readers.
    pub fn events(&self, id: u64) -> Option<Arc<EventLog>> {
        let inner = self.lock();
        inner.jobs.get(&id).map(|entry| Arc::clone(&entry.events))
    }

    /// Starts the drain: no new admissions, workers exit once their
    /// current job steps off, and every non-running job's event stream
    /// is ended (the running job's worker closes its own on requeue).
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        for entry in inner.jobs.values() {
            if !matches!(entry.state, JobState::Running { .. }) {
                entry.events.close();
            }
        }
        self.work.notify_all();
    }

    /// Whether a drain has started (workers poll this between
    /// members).
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Live counts for `/healthz`.
    pub fn stats(&self) -> Stats {
        let inner = self.lock();
        let mut stats = Stats {
            queued: 0,
            running: 0,
            done: 0,
            failed: 0,
            draining: inner.draining,
        };
        for entry in inner.jobs.values() {
            match entry.state {
                JobState::Queued => stats.queued += 1,
                JobState::Running { .. } => stats.running += 1,
                JobState::Done => stats.done += 1,
                JobState::Failed => stats.failed += 1,
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;
    use nomc_topology::{paper, spectrum::ChannelPlan};
    use nomc_units::{Dbm, Megahertz, SimDuration};

    /// Admits `spec(id)` as job `id` through the full path: the empty
    /// body equals no remembered text.
    fn admit(reg: &Registry, id: u64) -> Admission {
        let decoded = reg.admit(b"", |_| Ok::<_, ()>((id, spec(id))));
        decoded.expect("decoding cannot fail").1
    }

    fn is_new(admission: &Admission) -> bool {
        matches!(admission, Admission::New { .. })
    }

    fn spec(seed: u64) -> JobSpec {
        let plan = ChannelPlan::with_count(Megahertz::new(2460.0), Megahertz::new(5.0), 1);
        let mut b = nomc_sim::Scenario::builder(paper::line_deployment(&plan, Dbm::new(0.0)));
        b.duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_secs(1));
        JobSpec {
            scenario: b.build().expect("valid test scenario"),
            seeds: vec![seed],
            budget: 10_000,
            retries: 0,
            shards: None,
            checkpoint_every: None,
        }
    }

    #[test]
    fn admission_dedupes_sheds_and_drains() {
        let reg = Registry::new(1);
        assert!(is_new(&admit(&reg, 1)));
        assert_eq!(
            admit(&reg, 1),
            Admission::Cached {
                state: JobState::Queued
            }
        );
        // Queue is full (job 1 still queued): a *different* job sheds.
        assert_eq!(
            admit(&reg, 2),
            Admission::Shed {
                retry_after_secs: 1
            }
        );
        reg.drain();
        assert_eq!(admit(&reg, 3), Admission::Draining);
        // Draining also wakes pollers with None.
        assert!(reg.next_job().is_none());
    }

    #[test]
    fn lifecycle_flows_through_the_registry() {
        let reg = Registry::new(4);
        assert!(is_new(&admit(&reg, 7)));
        let (id, job) = reg.next_job().expect("queued work");
        assert_eq!(id, 7);
        assert_eq!(job.seeds, vec![7]);
        assert_eq!(
            reg.apply(7, &JobEvent::Start { total: 1 }),
            JobState::Running { done: 0, total: 1 }
        );
        assert_eq!(
            reg.apply(7, &JobEvent::MemberDone),
            JobState::Running { done: 1, total: 1 }
        );
        assert_eq!(reg.apply(7, &JobEvent::Finish), JobState::Done);
        assert_eq!(reg.state(7), Some((JobState::Done, None)));
        assert_eq!(reg.stats().done, 1);
    }

    #[test]
    fn a_spec_is_handed_out_once_and_then_released() {
        let reg = Registry::new(4);
        assert!(is_new(&admit(&reg, 5)));
        let (id, job) = reg.next_job().expect("queued work");
        assert_eq!((id, job.seeds), (5, vec![5]));
        let inner = reg.lock();
        let entry = inner.jobs.get(&5).expect("picked-up jobs stay registered");
        assert!(entry.spec.is_none(), "the registry must not keep the spec");
        drop(inner);
        // The job keeps its place in the registry, so a resubmission
        // still dedupes against it.
        assert_eq!(
            admit(&reg, 5),
            Admission::Cached {
                state: JobState::Queued
            }
        );
        reg.drain();
        assert!(reg.next_job().is_none());
    }

    #[test]
    fn failed_jobs_keep_their_message_and_close_their_log() {
        let reg = Registry::new(4);
        admit(&reg, 9);
        let log = reg.events(9).expect("registered");
        reg.fail(9, "disk full".into());
        let (state, error) = reg.state(9).expect("registered");
        assert_eq!(state, JobState::Failed);
        assert_eq!(error.as_deref(), Some("disk full"));
        let (_, _, closed) = log.wait_from(0, Duration::from_millis(1));
        assert!(closed);
    }

    #[test]
    fn event_log_cursors_see_every_line_once_and_the_close() {
        let log = EventLog::new();
        log.push("a".into());
        log.push("b".into());
        let (lines, cursor, closed) = log.wait_from(0, Duration::from_millis(1));
        assert_eq!(lines, vec!["a".to_string(), "b".to_string()]);
        assert!(!closed);
        // Nothing new: times out empty.
        let (lines, cursor2, closed) = log.wait_from(cursor, Duration::from_millis(1));
        assert!(lines.is_empty() && cursor2 == cursor && !closed);
        log.push("c".into());
        log.close();
        log.push("dropped".into());
        let (lines, _, closed) = log.wait_from(cursor, Duration::from_millis(1));
        assert_eq!(lines, vec!["c".to_string()]);
        assert!(closed);
    }

    #[test]
    fn restored_jobs_join_the_registry_correctly() {
        let reg = Registry::new(0); // cap of zero: nothing new admits…
        assert!(matches!(admit(&reg, 1), Admission::Shed { .. }));
        // …but recovered pending work bypasses the cap.
        reg.restore_pending(2, spec(2));
        reg.restore_done(3);
        assert_eq!(reg.state(2), Some((JobState::Queued, None)));
        assert_eq!(reg.state(3), Some((JobState::Done, None)));
        let (_, _, closed) = reg
            .events(3)
            .expect("registered")
            .wait_from(0, Duration::from_millis(1));
        assert!(closed);
        let (id, _) = reg.next_job().expect("restored job is queued");
        assert_eq!(id, 2);
    }

    /// The canonical text of `spec(seed)` with checkpoint cadence
    /// `every`: one job, whatever `every` is.
    fn canonical(seed: u64, every: u64) -> String {
        let mut spec = spec(seed);
        spec.checkpoint_every = Some(every);
        nomc_json::to_string(&spec)
    }

    fn no_decode(_: &[u8]) -> Result<(u64, JobSpec), String> {
        panic!("a remembered body must not be decoded")
    }

    fn remembered(reg: &Registry) -> usize {
        reg.lock().known.len()
    }

    #[test]
    fn a_known_body_is_admitted_without_decoding() {
        let reg = Registry::new(4);
        let body = canonical(1, 100);
        let (id, admission) = reg.admit(body.as_bytes(), jobs::decode).expect("valid");
        assert_eq!(
            admission,
            Admission::New {
                spec_text: body.clone()
            }
        );
        assert_eq!(
            reg.admit(body.as_bytes(), no_decode),
            Ok((
                id,
                Admission::Cached {
                    state: JobState::Queued
                }
            ))
        );
        reg.drain();
        assert_eq!(
            reg.admit(body.as_bytes(), no_decode),
            Ok((id, Admission::Draining))
        );
    }

    #[test]
    fn one_job_resubmitted_at_fifty_cadences_remembers_one_text() {
        let reg = Registry::new(4);
        let first = canonical(1, 1);
        let (id, admission) = reg.admit(first.as_bytes(), jobs::decode).expect("valid");
        assert!(is_new(&admission));
        for every in 2..=51 {
            let (same, admission) = reg
                .admit(canonical(1, every).as_bytes(), jobs::decode)
                .expect("valid");
            assert_eq!(
                (same, admission),
                (
                    id,
                    Admission::Cached {
                        state: JobState::Queued
                    }
                )
            );
        }
        assert_eq!(remembered(&reg), 1);
        assert!(reg.admit(first.as_bytes(), no_decode).is_ok());
    }
}
