//! `nomc-serve`: a crash-safe, deterministic results server.
//!
//! The server turns the sweep subsystem into a network service without
//! giving up any of its guarantees:
//!
//! - **Determinism.** A job is a content-addressed sweep; its report
//!   is byte-identical however it is produced — straight through,
//!   resumed after a SIGKILL, or re-served from cache. The only
//!   wall-clock reads in the crate sit at the socket edge
//!   ([`deadline`]); everything behind it runs in simulation event
//!   time.
//! - **Crash safety.** Specs, journals, and reports are written with
//!   atomic replace; boot recovery replays the state directory, so a
//!   killed server restarted on the same `--state-dir` resumes
//!   in-flight jobs (mid-member, via engine checkpoints) and re-serves
//!   completed ones byte-identically.
//! - **Admission control.** Submissions are deduplicated by content
//!   key (a resubmission of the canonical spec bytes by a byte lookup,
//!   without decoding it) and bounded by a queue cap; overflow is shed with
//!   `429 Retry-After`, drain mode refuses new work with `503`, and a
//!   hostile or broken client can at worst burn one connection until
//!   its I/O deadline expires.
//!
//! The HTTP layer ([`http`]) is a total, `std`-only HTTP/1.1 subset
//! codec: every byte sequence parses to a message, a typed error, or
//! "need more bytes" — never a panic. See DESIGN.md §15 for the full
//! protocol and recovery contract.

pub mod deadline;
pub mod http;
pub mod jobs;
pub mod registry;
pub mod server;

pub use jobs::{JobSpec, JobState, SpecError, MAX_RETRIES};
pub use registry::{Admission, Registry};
pub use server::{signals, ServeConfig, ServeError, Server};
