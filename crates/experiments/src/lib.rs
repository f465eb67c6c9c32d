//! # nomc-experiments
//!
//! The reproduction harness: one module per table/figure of *"Design of
//! Non-orthogonal Multi-channel Sensor Networks"* (ICDCS 2010), plus
//! ablations of the reproduction's own design choices.
//!
//! Every experiment follows the same contract:
//!
//! * it is a pure function of an [`ExpConfig`] (duration, seeds,
//!   fidelity), deterministic for a given config,
//! * it returns a [`report::Report`] — a table of measured values next
//!   to the paper's reported values, with commentary notes,
//! * [`experiments::REGISTRY`] maps its report id to the function
//!   that produces it: `cargo run -p nomc-experiments --bin
//!   all_experiments` regenerates the whole evaluation section, and
//!   `-- --only <id,…>` just the listed reports.
//!
//! # Examples
//!
//! ```no_run
//! use nomc_experiments::{experiments::fig04, ExpConfig};
//!
//! for report in fig04::run(&ExpConfig::quick()) {
//!     println!("{report}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod sweep;

use nomc_units::SimDuration;

/// Shared experiment configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpConfig {
    /// Simulated time per run.
    pub duration: SimDuration,
    /// Measurement warmup (excluded from metrics; long enough for DCN's
    /// initializing phase plus queue settling).
    pub warmup: SimDuration,
    /// Seeds to average over; more seeds → tighter error bars.
    pub seeds: Vec<u64>,
}

impl ExpConfig {
    /// Full-fidelity configuration: 20 simulated seconds × 5 seeds.
    pub fn full() -> Self {
        ExpConfig {
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(5),
            seeds: vec![1, 2, 3, 4, 5],
        }
    }

    /// Fast configuration for CI / smoke tests: 6 s × 2 seeds.
    pub fn quick() -> Self {
        ExpConfig {
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(2),
            seeds: vec![1, 2],
        }
    }

    /// Picks [`ExpConfig::quick`] when `--quick` appears in the process
    /// arguments or `NOMC_QUICK` is set, else [`ExpConfig::full`].
    pub fn from_env() -> Self {
        let quick =
            std::env::args().any(|a| a == "--quick") || std::env::var_os("NOMC_QUICK").is_some();
        if quick {
            ExpConfig::quick()
        } else {
            ExpConfig::full()
        }
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_sane() {
        for c in [ExpConfig::full(), ExpConfig::quick()] {
            assert!(c.warmup < c.duration);
            assert!(!c.seeds.is_empty());
        }
    }
}
