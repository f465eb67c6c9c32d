//! Mid-member engine checkpoints: the sweep-side persistence layer over
//! [`nomc_sim::engine::snapshot`].
//!
//! A checkpointed member's engine hands over a snapshot of its live
//! state every *N events* (an event cadence, never a wall clock —
//! cadence is part of what makes the resumed run reproduce the
//! uninterrupted one) and keeps running; the snapshot text is the one a
//! run paused at that count would give. It is written, synchronously on
//! the run's thread, to `<dir>/<member_hash:016x>.ckpt.json` with the
//! same atomic tmp-write, `fsync` and `rename` discipline as the sweep
//! journal. A SIGKILL therefore leaves either the previous
//! complete checkpoint or the new complete checkpoint, and a resumed
//! sweep restarts the member from the latest one instead of from
//! scratch.
//!
//! Reading is defensive: checkpoints live on disk where anything can
//! happen to them. Every defect — truncation, a flipped byte, a version
//! bump, a checkpoint written for a different member or attempt, an
//! integrity-hash mismatch — surfaces as a typed [`CheckpointError`],
//! never a panic, and the supervisor's answer to all of them is the
//! same graceful degradation: discard the file and re-run the member
//! from a clean start (which, by the engine's snapshot contract,
//! produces byte-identical results anyway — corruption costs time, not
//! correctness).
//!
//! [`run_legs`] is the one checkpointed run: sweep members and
//! `nomc run --checkpoint-every` both run through it.

use super::hash::Fnv1a;
use super::journal::write_atomic;
use super::SweepError;
use crate::runner::RunOutcome;
use nomc_sim::{engine, RunSpec, Scenario, SimObserver};
use std::path::{Path, PathBuf};

/// Checkpoint format version; bump on any incompatible layout change.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Why a checkpoint file could not be trusted. Every variant quarantines
/// only the file it names — the member falls back to a clean re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error text.
        message: String,
    },
    /// The file is not a parsable checkpoint (truncated, torn, or not
    /// JSON at all).
    Malformed {
        /// Path of the rejected file.
        path: String,
        /// Parse/validation failure text.
        reason: String,
    },
    /// The file was written by an incompatible checkpoint format.
    VersionSkew {
        /// Path of the rejected file.
        path: String,
        /// Version tag the file carries.
        found: u64,
        /// Version this build understands.
        expected: u64,
    },
    /// The file names a different member than the one loading it (a
    /// stale file surviving a scenario edit, or a hash collision in the
    /// file name).
    MemberMismatch {
        /// Path of the rejected file.
        path: String,
        /// Member hash the file carries.
        found: u64,
        /// Member hash this load expects.
        expected: u64,
    },
    /// The payload's stored FNV-1a digest does not match its bytes —
    /// the snapshot text was corrupted after it was written.
    Integrity {
        /// Path of the rejected file.
        path: String,
        /// Digest the file carries.
        stored: u64,
        /// Digest computed over the payload actually present.
        computed: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O on {path}: {message}")
            }
            CheckpointError::Malformed { path, reason } => {
                write!(f, "checkpoint {path}: malformed: {reason}")
            }
            CheckpointError::VersionSkew {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {path}: version {found} not supported (expected {expected})"
            ),
            CheckpointError::MemberMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {path}: member hash {found:#018x} does not match {expected:#018x}"
            ),
            CheckpointError::Integrity {
                path,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint {path}: payload digest {computed:#018x} does not match the stored \
                 {stored:#018x}; the snapshot was corrupted on disk"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The on-disk checkpoint envelope. The engine snapshot rides as an
/// opaque `payload` string (the engine owns its own versioning and
/// validation); `payload_fnv` lets this layer reject bit rot before
/// the engine ever parses it.
#[derive(Debug, Clone, PartialEq)]
struct CheckpointFile {
    /// Format version tag (doubles as the magic key).
    nomc_member_checkpoint: u64,
    /// [`super::hash::member_hash_with`] of the member that wrote it.
    member_hash: u64,
    /// 0-based attempt the checkpoint belongs to. A resumed sweep
    /// replays the attempt ladder from attempt 0; a checkpoint from a
    /// *later* attempt must not leak into an earlier one or the
    /// reconstructed attempt history would diverge from the
    /// uninterrupted sweep's.
    attempt: u32,
    /// Global engine event count at the checkpoint that wrote this file.
    events_done: u64,
    /// The encoded [`nomc_sim::RunSnapshot`].
    payload: String,
    /// FNV-1a digest over the payload bytes plus the `attempt` and
    /// `events_done` fields (see [`digest`]), so a flipped byte in any
    /// of the three is caught before the supervisor acts on it.
    payload_fnv: u64,
}

/// The integrity digest: payload bytes, then the attempt and event
/// counters folded in, so the digest covers everything the supervisor
/// trusts when deciding whether and where to resume.
fn digest(payload: &str, attempt: u32, events_done: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload.as_bytes());
    h.write_u64(u64::from(attempt));
    h.write_u64(events_done);
    h.finish()
}

nomc_json::json_struct!(CheckpointFile {
    nomc_member_checkpoint: u64,
    member_hash: u64,
    attempt: u32,
    events_done: u64,
    payload: String,
    payload_fnv: u64,
});

/// A checkpoint recovered from disk, ready to resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// 0-based attempt the checkpoint was written under.
    pub attempt: u32,
    /// Global engine event count already executed.
    pub events_done: u64,
    /// The encoded engine snapshot, integrity-verified at this layer
    /// but not yet parsed (that is [`nomc_sim::engine::restore`]'s job,
    /// with its own typed errors).
    pub payload: String,
}

/// The checkpoint file for one member: one file per member, keyed by
/// the member's content hash so stale files from edited sweeps can
/// never be mistaken for current ones.
pub fn path_for(dir: &Path, member_hash: u64) -> PathBuf {
    dir.join(format!("{member_hash:016x}.ckpt.json"))
}

/// Atomically writes the checkpoint for `member_hash` (creating `dir`
/// if needed): tmp-write, `fsync`, `rename`, directory `fsync`.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any filesystem failure. The supervisor
/// treats that as lost durability, not a lost run — the member keeps
/// executing and simply has an older (or no) checkpoint to fall back
/// on.
pub fn save(
    dir: &Path,
    member_hash: u64,
    attempt: u32,
    events_done: u64,
    payload: &str,
) -> Result<(), CheckpointError> {
    std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let file = CheckpointFile {
        nomc_member_checkpoint: CHECKPOINT_VERSION,
        member_hash,
        attempt,
        events_done,
        payload: payload.to_string(),
        payload_fnv: digest(payload, attempt, events_done),
    };
    let path = path_for(dir, member_hash);
    write_atomic(&path, &nomc_json::to_string(&file)).map_err(|e| match e {
        SweepError::Io { path, message } => CheckpointError::Io { path, message },
        other => CheckpointError::Io {
            path: path.display().to_string(),
            message: other.to_string(),
        },
    })
}

/// Loads and verifies the checkpoint for `member_hash`; `Ok(None)` when
/// no checkpoint exists (a clean start, not an error).
///
/// # Errors
///
/// Every way the file can be wrong is a typed [`CheckpointError`]:
/// unreadable ([`Io`](CheckpointError::Io)), truncated or unparsable
/// ([`Malformed`](CheckpointError::Malformed)), from an incompatible
/// format ([`VersionSkew`](CheckpointError::VersionSkew)), written for
/// a different member ([`MemberMismatch`](CheckpointError::MemberMismatch)),
/// or bit-rotted ([`Integrity`](CheckpointError::Integrity)). Callers
/// discard the file and fall back to a clean re-run.
pub fn load(dir: &Path, member_hash: u64) -> Result<Option<Recovered>, CheckpointError> {
    let path = path_for(dir, member_hash);
    let shown = path.display().to_string();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: shown,
                message: e.to_string(),
            })
        }
    };
    let file: CheckpointFile =
        nomc_json::from_str(&text).map_err(|e| CheckpointError::Malformed {
            path: shown.clone(),
            reason: e.to_string(),
        })?;
    if file.nomc_member_checkpoint != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionSkew {
            path: shown,
            found: file.nomc_member_checkpoint,
            expected: CHECKPOINT_VERSION,
        });
    }
    if file.member_hash != member_hash {
        return Err(CheckpointError::MemberMismatch {
            path: shown,
            found: file.member_hash,
            expected: member_hash,
        });
    }
    let computed = digest(&file.payload, file.attempt, file.events_done);
    if computed != file.payload_fnv {
        return Err(CheckpointError::Integrity {
            path: shown,
            stored: file.payload_fnv,
            computed,
        });
    }
    Ok(Some(Recovered {
        attempt: file.attempt,
        events_done: file.events_done,
        payload: file.payload,
    }))
}

/// Removes the checkpoint for `member_hash`, if any. Best-effort: a
/// missing file is the desired end state, and a failed unlink only
/// means a stale file lingers — the next load rejects or ignores it by
/// attempt/hash, so nothing is silently replayed.
pub fn discard(dir: &Path, member_hash: u64) {
    let _ = std::fs::remove_file(path_for(dir, member_hash));
}

/// Something [`run_legs`] noticed on the way that a user-facing caller
/// may want to report. None of it changes the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notice {
    /// The attempt resumed from the checkpoint taken at this global
    /// event count.
    Resumed {
        /// Events the checkpoint had already executed.
        events_done: u64,
    },
    /// The checkpoint on disk could not be used (the text says why) and
    /// was discarded; the attempt started from the beginning.
    Discarded(String),
    /// A checkpoint could not be written (the text says why);
    /// the run continued with an older one or none.
    SaveFailed(String),
}

/// One checkpointed attempt: resume from the latest trustworthy
/// checkpoint under `member_hash` in `dir` (falling back to a clean
/// start on *any* defect — typed errors all the way down, never a
/// panic), then one engine run that saves a checkpoint atomically every
/// `every` events (counted from where it starts) until it finishes or
/// exhausts `spec.budget`. `spec.shards` picks the engine as for
/// [`engine::execute`], and `spec.pause_at` is not read; a sharded
/// checkpointed run executes its components one at a time on the
/// calling thread.
///
/// Returns the attempt's outcome, exactly as an uncheckpointed run's,
/// and the resume, discard and failed-save notices in the order they
/// happened. The checkpoint is left on disk; the caller discards it
/// once the run has concluded (a timed-out attempt's checkpoint carries
/// into the retry).
pub fn run_legs(
    scenario: &Scenario,
    spec: &RunSpec,
    every: u64,
    dir: &Path,
    member_hash: u64,
    attempt: u32,
    observers: &mut [&mut dyn SimObserver],
) -> (RunOutcome, Vec<Notice>) {
    let mut notices = Vec::new();
    let discard_for = |notices: &mut Vec<Notice>, why: String| {
        discard(dir, member_hash);
        notices.push(Notice::Discarded(why));
    };

    // Recover a prior checkpoint, if it can be trusted. A defective
    // file (corrupt, version-skewed, wrong member) is discarded and the
    // attempt degrades to a clean start — by the engine's snapshot
    // contract the results are byte-identical either way, so
    // corruption costs time, never correctness.
    let recovered = match load(dir, member_hash) {
        Ok(found) => found,
        Err(e) => {
            discard_for(&mut notices, e.to_string());
            None
        }
    };
    // A checkpoint written by a *later* attempt must not leak into an
    // earlier one: a resumed sweep replays the attempt ladder from 0,
    // and attempt `k` has to reproduce the uninterrupted attempt `k`
    // exactly. The file is left in place — this attempt overwrites it
    // at its own first checkpoint.
    let resumable = recovered
        .filter(|rec| rec.attempt <= attempt)
        .and_then(|rec| match engine::restore(&rec.payload) {
            Ok(mut snap) => {
                // Graft this attempt's budget onto the saved state (a
                // retry resumes a timed-out attempt's checkpoint under
                // the doubled budget).
                snap.set_budget(spec.budget);
                Some((rec.events_done, snap))
            }
            Err(e) => {
                discard_for(&mut notices, e.to_string());
                None
            }
        });

    let spec = RunSpec {
        pause_at: u64::MAX,
        ..*spec
    };
    let mut writer = Writer {
        dir,
        member_hash,
        attempt,
        every,
        failed: Vec::new(),
    };
    let progress = {
        let mut sinks: Vec<&mut dyn SimObserver> = observers
            .iter_mut()
            .map(|o| &mut **o as &mut dyn SimObserver)
            .collect();
        sinks.push(&mut writer);
        let resumed = resumable.map(|(events_done, snap)| {
            let progress = engine::resume_bounded(scenario, snap, &mut sinks, u64::MAX);
            (events_done, progress)
        });
        match resumed {
            Some((events_done, Ok(progress))) => {
                notices.push(Notice::Resumed { events_done });
                progress
            }
            Some((_, Err(e))) => {
                discard_for(&mut notices, e.to_string());
                engine::execute(scenario, &spec, &mut sinks)
            }
            None => engine::execute(scenario, &spec, &mut sinks),
        }
    };
    notices.extend(writer.failed);
    let done = progress
        .into_done()
        .expect("a run without a pause target runs to the end");
    (done.into(), notices)
}

/// The checkpoint sink of one attempt: saves every snapshot the running
/// engine hands over and notes each save that fails.
struct Writer<'d> {
    dir: &'d Path,
    member_hash: u64,
    attempt: u32,
    every: u64,
    /// [`Notice::SaveFailed`] for each checkpoint that was not written.
    failed: Vec<Notice>,
}

impl SimObserver for Writer<'_> {
    fn checkpoint_every(&self) -> u64 {
        self.every
    }

    fn on_checkpoint(&mut self, events: u64, snapshot: &str) {
        // A failed save loses durability, not the run: the member keeps
        // executing with an older (or no) checkpoint to fall back on
        // after a crash.
        if let Err(e) = save(self.dir, self.member_hash, self.attempt, events, snapshot) {
            self.failed.push(Notice::SaveFailed(e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nomc-checkpoint-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_discard_round_trip() {
        let dir = test_dir("roundtrip");
        assert_eq!(load(&dir, 0xabcd).unwrap(), None, "no file = clean start");
        save(&dir, 0xabcd, 1, 5_000, "payload text").unwrap();
        let got = load(&dir, 0xabcd).unwrap().expect("checkpoint exists");
        assert_eq!(got.attempt, 1);
        assert_eq!(got.events_done, 5_000);
        assert_eq!(got.payload, "payload text");
        // Re-saving replaces atomically; no scratch file lingers.
        save(&dir, 0xabcd, 1, 10_000, "later payload").unwrap();
        assert_eq!(load(&dir, 0xabcd).unwrap().unwrap().events_done, 10_000);
        assert!(!dir.join("000000000000abcd.ckpt.json.tmp").exists());
        discard(&dir, 0xabcd);
        assert_eq!(load(&dir, 0xabcd).unwrap(), None);
        // Discarding an absent checkpoint is a no-op, not a panic.
        discard(&dir, 0xabcd);
    }

    #[test]
    fn version_skew_and_member_mismatch_are_typed() {
        let dir = test_dir("skew");
        save(&dir, 7, 0, 100, "p").unwrap();
        let path = path_for(&dir, 7);
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            "\"nomc_member_checkpoint\":1",
            "\"nomc_member_checkpoint\":9",
            1,
        );
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            load(&dir, 7),
            Err(CheckpointError::VersionSkew {
                found: 9,
                expected: CHECKPOINT_VERSION,
                ..
            })
        ));
        // A file claiming a different member (renamed or collided).
        save(&dir, 8, 0, 100, "p").unwrap();
        std::fs::rename(path_for(&dir, 8), path_for(&dir, 9)).unwrap();
        assert!(matches!(
            load(&dir, 9),
            Err(CheckpointError::MemberMismatch {
                found: 8,
                expected: 9,
                ..
            })
        ));
    }

    #[test]
    fn truncation_and_byte_flips_never_panic() {
        let dir = test_dir("corrupt");
        save(&dir, 42, 0, 1_000, "a moderately long snapshot payload").unwrap();
        let path = path_for(&dir, 42);
        let pristine = std::fs::read_to_string(&path).unwrap();
        // Every truncation point: either a typed error or (for the
        // empty/whitespace prefixes) Malformed — never Ok, never panic.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                load(&dir, 42).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Byte flips anywhere in the file: rejected with a typed error,
        // never a panic and never a silently-wrong payload.
        for i in 0..pristine.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut bytes = pristine.clone().into_bytes();
                bytes[i] ^= mask;
                std::fs::write(&path, &bytes).unwrap();
                match load(&dir, 42) {
                    Err(_) => {}
                    Ok(got) => {
                        // A flip inside the payload string that keeps the
                        // JSON valid must still be caught by the digest —
                        // the only acceptable Ok is the pristine content.
                        let got = got.expect("file exists");
                        assert_eq!(
                            got.payload, "a moderately long snapshot payload",
                            "flip at byte {i} mask {mask:#x} yielded a corrupt payload"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integrity_digest_catches_payload_tampering() {
        let dir = test_dir("integrity");
        save(&dir, 3, 0, 500, "original payload").unwrap();
        let path = path_for(&dir, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("original payload", "tampered payload", 1);
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            load(&dir, 3),
            Err(CheckpointError::Integrity { .. })
        ));
    }
}
