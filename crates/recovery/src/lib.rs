//! # nomc-recovery
//!
//! Partial packet recovery, modelled on PPR (Jamieson & Balakrishnan,
//! SIGCOMM 2007), for the paper's §VII-A discussion (Figs. 28-29): most
//! CRC-failed packets under severe inter-channel interference carry only
//! a small fraction of error bits, so a recovery scheme can rescue them
//! instead of discarding the whole frame.
//!
//! * [`stats`] — the fraction-based recoverability criterion and the
//!   paper's Fig. 29 statistic over error-bit fractions,
//! * [`adaptive`] — the paper's §VII-A future-work direction: an online
//!   per-link detector that enables recovery only while demand exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod stats;

pub use adaptive::{AdaptiveRecovery, FrameOutcome};
pub use stats::{fraction_at_or_below, recoverable_by_fraction};
