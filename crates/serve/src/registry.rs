//! In-memory job registry: admission control, the bounded work queue,
//! per-job event logs, and the resident set of concluded jobs.
//!
//! Everything durable (specs, journals, reports) lives on disk under
//! the state directory; the registry holds what is live (queued and
//! running jobs) and a bounded set of concluded ones: done jobs with
//! their answers already rendered ([`Ready`]) in front of the disk, and
//! failed jobs with their message. At most [`MAX_RESIDENT_DONE`] of
//! them stay resident; the least recently answered one leaves memory
//! first. A done job is then answered from its `report.json` until it
//! is asked for again; a failed one is forgotten, as a restart forgets
//! it, so its status is 404 and a resubmission is new work. Admission
//! is where backpressure happens: a full queue sheds the request with a
//! typed [`Admission::Shed`] (the HTTP layer turns it into `429
//! Retry-After`), it never blocks the accept loop and never queues
//! unboundedly.
//!
//! Admission also indexes the canonical spec text of every job it
//! admits as new in this process (the bytes written to `spec.json`,
//! which is what `nomc submit` sends) by its digest, for as long as the
//! job stays in memory, so a resubmission of those exact bytes names
//! its job by one map lookup and one byte comparison instead of a
//! decode and a content hash.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use nomc_experiments::sweep::hash;
use nomc_json::Json;

use crate::jobs::{self, JobEvent, JobSpec, JobState};

/// Concluded jobs kept in memory: done ones with their rendered
/// answers, failed ones with their message. Beyond this, the least
/// recently answered one leaves memory entirely (a done job is then
/// answered from disk).
pub const MAX_RESIDENT_DONE: usize = 16;

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

    /// A log that is already closed (a done job read back from disk
    /// streams nothing further).
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

/// A done job's answers, rendered once from its report bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ready {
    /// The `GET /jobs/<id>` body:
    /// `{"job":…,"state":"done","report":<the report, compact>}`.
    /// Shared with the responses that answer it, so an answer copies
    /// it once, into the bytes it writes.
    pub status: Arc<[u8]>,
    /// The `GET /jobs/<id>/report` body: the exact bytes of
    /// `report.json`, shared the same way.
    pub report: Arc<[u8]>,
}

impl Ready {
    /// Renders job `id`'s answers from its report bytes. Bytes that
    /// are not a JSON document come back with the reason.
    fn new(id: u64, report: Vec<u8>) -> Result<Ready, Unready> {
        let parsed = match std::str::from_utf8(&report) {
            Ok(text) => Json::parse(text).map_err(|e| e.to_string()),
            // `fs::read_to_string`'s wording, which the status of a
            // done job used when it read the file itself.
            Err(_) => Err("stream did not contain valid UTF-8".to_string()),
        };
        match parsed {
            Ok(parsed) => {
                let status = Json::object([
                    ("job", Json::Str(jobs::id_hex(id))),
                    ("state", Json::Str(JobState::Done.name().into())),
                    ("report", parsed),
                ])
                .dump()
                .into_bytes();
                Ok(Ready {
                    status: status.into(),
                    report: report.into(),
                })
            }
            Err(reason) => Err(Unready {
                bytes: Some(report),
                reason,
            }),
        }
    }
}

/// Why a done job's report could not be made resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unready {
    /// The report bytes, when they were read but do not parse.
    pub bytes: Option<Vec<u8>>,
    /// The read or parse error, worded as a status answer words it.
    pub reason: String,
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
    /// The content key already exists, in memory or on disk; serve it
    /// instead of re-simulating.
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

/// What the registry knows of one job, for a status or report read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A resident done job and its answers.
    Done(Arc<Ready>),
    /// A queued, running or failed job.
    Live {
        /// Where the job is in its lifecycle.
        state: JobState,
        /// The failure message of a failed job.
        error: Option<String>,
    },
    /// A done job whose report could not be read back or parsed.
    Unready(Unready),
}

struct JobEntry {
    /// The job's scenario and sweep parameters while it waits in the
    /// queue; handed to the worker that picks it up (a requeued job
    /// resumes from its durable `spec.json` on the next boot, so
    /// nothing reads it again).
    spec: Option<JobSpec>,
    /// The canonical spec text of a job admitted as new in this
    /// process, which a digest hit is confirmed against. Dropped with
    /// the entry when the job leaves memory.
    spec_text: Option<Box<[u8]>>,
    state: JobState,
    error: Option<String>,
    events: Arc<EventLog>,
    /// A done job's answers; every resident done job has them.
    ready: Option<Arc<Ready>>,
}

impl JobEntry {
    fn queued(spec: JobSpec, spec_text: Option<Box<[u8]>>) -> JobEntry {
        JobEntry {
            spec: Some(spec),
            spec_text,
            state: JobState::Queued,
            error: None,
            events: Arc::new(EventLog::new()),
            ready: None,
        }
    }
}

struct Inner {
    /// Queued and running jobs, and the resident concluded ones.
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    /// The resident done and failed jobs, least recently answered
    /// first; never longer than [`MAX_RESIDENT_DONE`].
    resident: VecDeque<u64>,
    /// Digest of the canonical spec text → job id, for every job in
    /// memory that was admitted as new in this process. An entry leaves
    /// with its job.
    known: BTreeMap<u64, u64>,
    /// Jobs per state, kept on every transition; `done` also counts
    /// done jobs that are only on disk.
    stats: Stats,
}

impl Inner {
    /// Marks `id` as just answered, if it is a resident concluded job.
    fn touch(&mut self, id: u64) {
        if let Some(at) = self.resident.iter().position(|&r| r == id) {
            self.resident.remove(at);
            self.resident.push_back(id);
        }
    }

    /// Drops job `id` from memory, with its digest index entry.
    fn forget(&mut self, id: u64) {
        let text = self.jobs.remove(&id).and_then(|entry| entry.spec_text);
        if let Some(text) = text {
            let digest = hash::fnv1a(&text);
            if self.known.get(&digest) == Some(&id) {
                self.known.remove(&digest);
            }
        }
    }

    /// Applies `event` to job `id`, keeping the per-state counts.
    fn transition(&mut self, id: u64, event: &JobEvent) -> Option<JobState> {
        let entry = self.jobs.get_mut(&id)?;
        let next = jobs::apply(&entry.state, event).ok()?;
        self.stats.shift(&entry.state, &next);
        entry.state = next.clone();
        Some(next)
    }

    /// Keeps done job `id` resident with `ready` as its answers,
    /// sending the least recently answered done job out of memory when
    /// the set is full. Returns the answers the job now has (a
    /// concurrent reader may have made it resident first).
    fn keep(&mut self, id: u64, ready: Ready) -> Arc<Ready> {
        let entry = self.jobs.entry(id).or_insert_with(|| JobEntry {
            spec: None,
            spec_text: None,
            state: JobState::Done,
            error: None,
            events: Arc::new(EventLog::closed()),
            ready: None,
        });
        if let Some(kept) = &entry.ready {
            return Arc::clone(kept);
        }
        let ready = Arc::new(ready);
        // Only done jobs join the resident set: eviction must never
        // drop a live job.
        if entry.state != JobState::Done {
            return ready;
        }
        entry.ready = Some(Arc::clone(&ready));
        self.conclude(id);
        ready
    }

    /// Adds concluded job `id` to the resident set as its most recently
    /// answered member, sending the least recently answered one out of
    /// memory when the set is full.
    fn conclude(&mut self, id: u64) {
        self.resident.push_back(id);
        while self.resident.len() > MAX_RESIDENT_DONE {
            if let Some(oldest) = self.resident.pop_front() {
                self.forget(oldest);
            }
        }
    }
}

/// Live queue / running / done / failed counts for `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

impl Stats {
    fn count(&mut self, state: &JobState) -> &mut usize {
        match state {
            JobState::Queued => &mut self.queued,
            JobState::Running { .. } => &mut self.running,
            JobState::Done => &mut self.done,
            JobState::Failed => &mut self.failed,
        }
    }

    fn shift(&mut self, from: &JobState, to: &JobState) {
        *self.count(from) -= 1;
        *self.count(to) += 1;
    }
}

/// The shared registry. All locking is internal; every method takes
/// `&self`.
pub struct Registry {
    inner: Mutex<Inner>,
    work: Condvar,
    max_queue: usize,
    /// The server's state directory: a job not in memory is looked for
    /// under its `jobs/`.
    state_dir: PathBuf,
}

impl Registry {
    /// A registry over `state_dir`, shedding submissions beyond
    /// `max_queue` queued jobs.
    pub fn new(max_queue: usize, state_dir: impl Into<PathBuf>) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                resident: VecDeque::new(),
                known: BTreeMap::new(),
                stats: Stats::default(),
            }),
            work: Condvar::new(),
            max_queue,
            state_dir: state_dir.into(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock is never poisoned")
    }

    /// Whether job `id` has a report on disk.
    fn on_disk(&self, id: u64) -> bool {
        jobs::paths(&self.state_dir, id).report.exists()
    }

    /// Decides what to do with the submission `body`, returning the
    /// job it names and the decision.
    ///
    /// A body whose digest indexes a job in memory that was admitted as
    /// new in this process, and which is byte-equal to that job's
    /// canonical text, names that job directly. Any other body goes
    /// through `decode` (outside the lock), which yields its content
    /// key and spec, or the error that refuses it. Either way the same
    /// decision follows: draining refuses, a job in memory or with a
    /// report on disk is cached, a full queue sheds, anything else is
    /// new.
    ///
    /// A text is indexed only when its job is new, which happens at
    /// most once per job in a process, so a resubmission that varies
    /// only the checkpoint cadence cannot grow the index.
    ///
    /// # Errors
    ///
    /// Whatever `decode` returns for an unknown body.
    pub fn admit<E>(
        &self,
        body: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<(u64, JobSpec), E>,
    ) -> Result<(u64, Admission), E> {
        {
            let mut inner = self.lock();
            let known = inner.known.get(&hash::fnv1a(body)).copied();
            let hit = known
                .filter(|id| inner.jobs.get(id).and_then(|e| e.spec_text.as_deref()) == Some(body));
            if let Some(id) = hit {
                if let Some(admission) = self.settled(&mut inner, id) {
                    return Ok((id, admission));
                }
            }
        }
        let (id, spec) = decode(body)?;
        let mut inner = self.lock();
        if let Some(admission) = self.settled(&mut inner, id) {
            return Ok((id, admission));
        }
        if inner.queue.len() >= self.max_queue {
            // Scale the hint to the backlog: a longer queue means a
            // longer wait before a retry can possibly be admitted.
            let retry_after_secs = inner.queue.len().max(1) as u64;
            return Ok((id, Admission::Shed { retry_after_secs }));
        }
        let spec_text = nomc_json::to_string(&spec);
        inner
            .known
            .entry(hash::fnv1a(spec_text.as_bytes()))
            .or_insert(id);
        let text = spec_text.clone().into_bytes().into_boxed_slice();
        inner.jobs.insert(id, JobEntry::queued(spec, Some(text)));
        inner.stats.queued += 1;
        inner.queue.push_back(id);
        self.work.notify_one();
        Ok((id, Admission::New { spec_text }))
    }

    /// The decision for a submission naming job `id`, unless it is new
    /// work: draining refuses; a job in memory, or with a report on
    /// disk, is cached.
    fn settled(&self, inner: &mut Inner, id: u64) -> Option<Admission> {
        if inner.stats.draining {
            return Some(Admission::Draining);
        }
        if let Some(state) = inner.jobs.get(&id).map(|entry| entry.state.clone()) {
            inner.touch(id);
            return Some(Admission::Cached { state });
        }
        self.on_disk(id).then_some(Admission::Cached {
            state: JobState::Done,
        })
    }

    /// Counts a job recovered from disk whose report already exists.
    /// It stays on disk until it is asked for.
    pub fn restore_done(&self) {
        self.lock().stats.done += 1;
    }

    /// Re-enqueues a job recovered from disk that never concluded
    /// (killed mid-run or drained). Bypasses the admission cap: the
    /// work was already accepted in a previous life.
    pub fn restore_pending(&self, id: u64, spec: JobSpec) {
        let mut inner = self.lock();
        inner.jobs.insert(id, JobEntry::queued(spec, None));
        inner.stats.queued += 1;
        inner.queue.push_back(id);
        self.work.notify_one();
    }

    /// Blocks until there is a job to run (returning its id and spec,
    /// which leaves the registry with it) or the server is draining
    /// (returning `None`, which tells the worker to exit).
    pub fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut inner = self.lock();
        loop {
            if inner.stats.draining {
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
    /// illegal pair here is a supervisor bug worth stopping on. A
    /// job's `Finish` goes through [`Registry::finish`], which also
    /// keeps its answers.
    pub fn apply(&self, id: u64, event: &JobEvent) -> JobState {
        self.lock()
            .transition(id, event)
            .expect("workers only emit legal lifecycle edges of registered jobs")
    }

    /// Finishes job `id`, whose `report` bytes are on disk, and keeps
    /// it resident with the answers rendered from them. Bytes that do
    /// not parse send the job out of memory at once, to be answered
    /// from disk.
    pub fn finish(&self, id: u64, report: Vec<u8>) {
        let ready = Ready::new(id, report).ok();
        let mut inner = self.lock();
        inner
            .transition(id, &JobEvent::Finish)
            .expect("workers only finish running jobs");
        match ready {
            Some(ready) => {
                inner.keep(id, ready);
            }
            None => inner.forget(id),
        }
    }

    /// Reads the report of done job `id` back from disk and makes the
    /// job resident again, with the answers rendered from it; an
    /// [`Unready`] when the report cannot be read or does not parse.
    fn reload(&self, id: u64) -> Result<Arc<Ready>, Unready> {
        let bytes = fs::read(jobs::paths(&self.state_dir, id).report).map_err(|e| Unready {
            bytes: None,
            reason: e.to_string(),
        })?;
        let ready = Ready::new(id, bytes)?;
        Ok(self.lock().keep(id, ready))
    }

    /// Fails job `id` with `message`, closes its event log and makes
    /// it a resident concluded job.
    pub fn fail(&self, id: u64, message: String) {
        let mut inner = self.lock();
        let failed = inner.transition(id, &JobEvent::Fail).is_some();
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.error = Some(message);
            entry.events.close();
        }
        if failed {
            inner.conclude(id);
        }
    }

    /// What is known of job `id`: a done job (now resident and the
    /// most recently answered, read back from disk if it was not), a
    /// live one, or a done one whose report cannot be read back; `None`
    /// when there is no such job.
    pub fn lookup(&self, id: u64) -> Option<Lookup> {
        {
            let mut inner = self.lock();
            if let Some(entry) = inner.jobs.get(&id) {
                let found = match &entry.ready {
                    Some(ready) => Lookup::Done(Arc::clone(ready)),
                    None => Lookup::Live {
                        state: entry.state.clone(),
                        error: entry.error.clone(),
                    },
                };
                inner.touch(id);
                return Some(found);
            }
        }
        if !self.on_disk(id) {
            return None;
        }
        Some(match self.reload(id) {
            Ok(ready) => Lookup::Done(ready),
            Err(unready) => Lookup::Unready(unready),
        })
    }

    /// The event log of job `id`, shareable with any number of
    /// streaming readers. A done job that is not resident streams
    /// nothing: its log is born closed.
    pub fn events(&self, id: u64) -> Option<Arc<EventLog>> {
        if let Some(entry) = self.lock().jobs.get(&id) {
            return Some(Arc::clone(&entry.events));
        }
        self.on_disk(id).then(|| Arc::new(EventLog::closed()))
    }

    /// Starts the drain: no new admissions, workers exit once their
    /// current job steps off, and every queued job's event stream is
    /// ended (done and failed logs are already closed; a running job's
    /// worker closes its own on requeue, as does a worker that took a
    /// job from the queue and has not started it yet).
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.stats.draining = true;
        for id in &inner.queue {
            if let Some(entry) = inner.jobs.get(id) {
                entry.events.close();
            }
        }
        self.work.notify_all();
    }

    /// Whether a drain has started (workers poll this between
    /// members).
    pub fn draining(&self) -> bool {
        self.lock().stats.draining
    }

    /// Live counts for `/healthz`.
    pub fn stats(&self) -> Stats {
        self.lock().stats
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

    /// A registry over an empty state directory of its own.
    fn registry(max_queue: usize, name: &str) -> Registry {
        let dir = std::env::temp_dir()
            .join("nomc-serve-registry")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("jobs")).expect("state dir creatable");
        Registry::new(max_queue, dir)
    }

    /// The answers of a done job `id` whose report is `{"seed":id}`.
    fn ready(id: u64) -> Ready {
        Ready::new(id, format!("{{\"seed\":{id}}}").into_bytes()).expect("a JSON report")
    }

    /// Writes job `id`'s spec and report, as a job done by this or an
    /// earlier process leaves them.
    fn plant_done(reg: &Registry, id: u64) {
        let paths = jobs::paths(&reg.state_dir, id);
        std::fs::create_dir_all(&paths.dir).expect("job dir creatable");
        std::fs::write(&paths.spec, nomc_json::to_string(&spec(id))).expect("spec written");
        std::fs::write(&paths.report, ready(id).report).expect("report written");
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
        let reg = registry(1, "admission_dedupes_sheds_and_drains");
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
        let reg = registry(4, "lifecycle_flows_through_the_registry");
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
        reg.finish(7, ready(7).report.to_vec());
        assert_eq!(reg.lookup(7), Some(Lookup::Done(Arc::new(ready(7)))));
        assert_eq!(reg.stats().done, 1);
    }

    #[test]
    fn a_spec_is_handed_out_once_and_then_released() {
        let reg = registry(4, "a_spec_is_handed_out_once_and_then_released");
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
        let reg = registry(4, "failed_jobs_keep_their_message_and_close_their_log");
        admit(&reg, 9);
        let log = reg.events(9).expect("registered");
        reg.fail(9, "disk full".into());
        assert_eq!(
            reg.lookup(9),
            Some(Lookup::Live {
                state: JobState::Failed,
                error: Some("disk full".into())
            })
        );
        let (_, _, closed) = log.wait_from(0, Duration::from_millis(1));
        assert!(closed);
    }

    #[test]
    fn failed_jobs_beyond_the_bound_are_forgotten() {
        let reg = registry(4, "failed_jobs_beyond_the_bound");
        let total = MAX_RESIDENT_DONE as u64 + 1;
        for id in 1..=total {
            assert!(is_new(&admit(&reg, id)));
            assert_eq!(reg.next_job().map(|(next, _)| next), Some(id));
            reg.fail(id, format!("failure {id}"));
        }
        {
            let inner = reg.lock();
            assert_eq!(inner.jobs.len(), MAX_RESIDENT_DONE);
            assert_eq!(inner.resident.len(), MAX_RESIDENT_DONE);
            assert_eq!(inner.known.len(), MAX_RESIDENT_DONE);
        }
        assert_eq!(reg.stats().failed, MAX_RESIDENT_DONE + 1);
        // The first failure is forgotten as a restart forgets it: no
        // status, and a resubmission is new work.
        assert_eq!(reg.lookup(1), None);
        assert!(reg.events(1).is_none());
        assert!(is_new(&admit(&reg, 1)));
        // A resident failed job still answers as one.
        assert_eq!(
            admit(&reg, total),
            Admission::Cached {
                state: JobState::Failed
            }
        );
        assert_eq!(
            reg.lookup(total),
            Some(Lookup::Live {
                state: JobState::Failed,
                error: Some(format!("failure {total}"))
            })
        );
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
        // A cap of zero: nothing new admits…
        let reg = registry(0, "restored_jobs_join_the_registry_correctly");
        assert!(matches!(admit(&reg, 1), Admission::Shed { .. }));
        // …but recovered pending work bypasses the cap.
        reg.restore_pending(2, spec(2));
        // A done job is counted, and read from disk when asked for.
        plant_done(&reg, 3);
        reg.restore_done();
        assert_eq!(
            reg.lookup(2),
            Some(Lookup::Live {
                state: JobState::Queued,
                error: None
            })
        );
        let (_, _, closed) = reg
            .events(3)
            .expect("a done job on disk has a log")
            .wait_from(0, Duration::from_millis(1));
        assert!(closed);
        assert!(!resident(&reg, 3));
        assert_eq!(reg.lookup(3), Some(Lookup::Done(Arc::new(ready(3)))));
        assert!(resident(&reg, 3));
        assert_eq!(reg.lookup(4), None);
        assert_eq!((reg.stats().queued, reg.stats().done), (1, 1));
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

    /// Whether job `id` is in memory as a resident done job.
    fn resident(reg: &Registry, id: u64) -> bool {
        reg.lock().resident.contains(&id)
    }

    #[test]
    fn a_known_body_is_admitted_without_decoding() {
        let reg = registry(4, "a_known_body_is_admitted_without_decoding");
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
        let reg = registry(
            4,
            "one_job_resubmitted_at_fifty_cadences_remembers_one_text",
        );
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

    /// Runs queued job `id` to its end: its report on disk, its answers
    /// kept.
    fn run_to_done(reg: &Registry, id: u64) {
        let (next, _) = reg.next_job().expect("queued work");
        assert_eq!(next, id);
        reg.apply(id, &JobEvent::Start { total: 1 });
        reg.apply(id, &JobEvent::MemberDone);
        plant_done(reg, id);
        reg.finish(id, ready(id).report.to_vec());
    }

    #[test]
    fn done_jobs_beyond_the_bound_leave_memory_but_stay_counted() {
        let reg = registry(4, "done_jobs_beyond_the_bound");
        let total = 3 * MAX_RESIDENT_DONE as u64;
        for id in 1..=total {
            assert!(is_new(&admit(&reg, id)));
            run_to_done(&reg, id);
        }
        let inner = reg.lock();
        assert_eq!(inner.jobs.len(), MAX_RESIDENT_DONE);
        assert_eq!(inner.resident.len(), MAX_RESIDENT_DONE);
        // Only resident jobs hold spec text and a digest entry.
        let texts = inner.jobs.values().filter(|e| e.spec_text.is_some());
        assert_eq!(texts.count(), MAX_RESIDENT_DONE);
        assert_eq!(inner.known.len(), MAX_RESIDENT_DONE);
        drop(inner);
        let done = usize::try_from(total).expect("small");
        assert_eq!(
            reg.stats(),
            Stats {
                done,
                ..Stats::default()
            }
        );
        // The newest stay resident; the oldest answer from disk, and an
        // answered one comes back without being counted twice.
        assert_eq!(
            reg.lookup(total),
            Some(Lookup::Done(Arc::new(ready(total))))
        );
        assert!(!resident(&reg, 1));
        assert_eq!(reg.lookup(1), Some(Lookup::Done(Arc::new(ready(1)))));
        assert!(resident(&reg, 1));
        assert_eq!(reg.lock().jobs.len(), MAX_RESIDENT_DONE);
        assert_eq!(reg.stats().done, done);
        // The drain walks the queue, not the history, and a done job's
        // log is already closed.
        reg.drain();
        let (_, _, closed) = reg
            .events(2)
            .expect("a done job has a log")
            .wait_from(0, Duration::from_millis(1));
        assert!(closed);
    }

    #[test]
    fn the_least_recently_answered_done_job_leaves_first() {
        let reg = registry(4, "least_recently_answered");
        let bound = MAX_RESIDENT_DONE as u64;
        for id in 1..=bound {
            admit(&reg, id);
            run_to_done(&reg, id);
        }
        // Job 1 is answered, then job 2 is resubmitted: job 3 is now the
        // least recently answered.
        assert!(matches!(reg.lookup(1), Some(Lookup::Done(_))));
        assert_eq!(
            admit(&reg, 2),
            Admission::Cached {
                state: JobState::Done
            }
        );
        admit(&reg, bound + 1);
        run_to_done(&reg, bound + 1);
        assert!(!resident(&reg, 3));
        for id in [1, 2, 4, bound + 1] {
            assert!(resident(&reg, id), "{id}");
        }
    }

    #[test]
    fn an_evicted_or_restored_job_is_cached_by_any_spelling() {
        let reg = registry(4, "evicted_job_any_spelling");
        let body = canonical(1, 100);
        let (id, _) = reg.admit(body.as_bytes(), jobs::decode).expect("valid");
        run_to_done(&reg, id);
        for filler in 1..=MAX_RESIDENT_DONE as u64 {
            admit(&reg, filler);
            run_to_done(&reg, filler);
        }
        assert!(!resident(&reg, id));
        assert_eq!(reg.lock().known.get(&hash::fnv1a(body.as_bytes())), None);
        let cached = Ok((
            id,
            Admission::Cached {
                state: JobState::Done,
            },
        ));
        // The job left memory with its text, so every spelling, the
        // canonical one too, decodes to the job, whose report is on disk.
        for text in [body.clone(), canonical(1, 7)] {
            let mut decoded = 0;
            let counting = |b: &[u8]| {
                decoded += 1;
                jobs::decode(b)
            };
            assert_eq!(reg.admit(text.as_bytes(), counting), cached);
            assert_eq!(decoded, 1);
        }
        // Admission answers without bringing the job back into memory.
        assert_eq!(reg.lock().jobs.len(), MAX_RESIDENT_DONE);

        // A restarted registry over the same directory knows no text,
        // counts the job as done and never admits it as new.
        let again = Registry::new(4, reg.state_dir.clone());
        again.restore_done();
        assert_eq!(again.admit(body.as_bytes(), jobs::decode), cached);
        assert_eq!(again.stats().queued, 0);
    }
}
