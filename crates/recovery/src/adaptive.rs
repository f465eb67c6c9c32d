//! Online, per-link recovery-demand detection — the paper's §VII-A
//! future-work direction.
//!
//! PPR-style recovery is only worth its feedback/patch overhead on links
//! that actually lose packets to CRC failures ("inter-channel
//! interference with much higher transmission power than the concurrent
//! working link"). [`AdaptiveRecovery`] watches a sliding window of
//! recent frame outcomes per link and switches recovery on only while
//! the CRC-failure rate exceeds a demand threshold, with hysteresis so
//! the decision doesn't flap.

use std::collections::VecDeque;

/// The outcome of one frame, as the receiver sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Decoded clean.
    Ok,
    /// FCS failed (a recovery candidate).
    CrcFailed,
}

/// Frames in the sliding window.
const WINDOW: usize = 50;
/// Failure rate above which recovery turns on.
const ON_THRESHOLD: f64 = 0.05;
/// Failure rate below which recovery turns off (hysteresis: below
/// [`ON_THRESHOLD`]).
const OFF_THRESHOLD: f64 = 0.01;

/// Sliding-window recovery-demand detector for one link.
#[derive(Debug, Clone)]
pub struct AdaptiveRecovery {
    window: VecDeque<FrameOutcome>,
    enabled: bool,
    switches: u64,
}

impl AdaptiveRecovery {
    /// A practical default: 50-frame window, turn on above 5 % failures,
    /// off below 1 %.
    pub fn practical_default() -> Self {
        AdaptiveRecovery {
            window: VecDeque::with_capacity(WINDOW),
            enabled: false,
            switches: 0,
        }
    }

    /// Records one frame outcome and returns whether recovery is enabled
    /// *for the next frame*.
    pub fn observe(&mut self, outcome: FrameOutcome) -> bool {
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(outcome);
        let rate = self.failure_rate();
        let was = self.enabled;
        if !self.enabled && rate > ON_THRESHOLD {
            self.enabled = true;
        } else if self.enabled && rate < OFF_THRESHOLD {
            self.enabled = false;
        }
        if was != self.enabled {
            self.switches += 1;
        }
        self.enabled
    }

    /// Current CRC-failure rate over the window (0 for an empty window).
    fn failure_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let failed = self
            .window
            .iter()
            .filter(|&&o| o == FrameOutcome::CrcFailed)
            .count();
        failed as f64 / self.window.len() as f64
    }

    /// How many times the decision has flipped.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_off_on_a_clean_link() {
        let mut a = AdaptiveRecovery::practical_default();
        for _ in 0..500 {
            assert!(!a.observe(FrameOutcome::Ok));
        }
        assert_eq!(a.switch_count(), 0);
        assert_eq!(a.failure_rate(), 0.0);
    }

    #[test]
    fn turns_on_under_sustained_failures() {
        let mut a = AdaptiveRecovery::practical_default();
        for _ in 0..45 {
            a.observe(FrameOutcome::Ok);
        }
        // A burst of failures crosses the 5% threshold quickly.
        for _ in 0..5 {
            a.observe(FrameOutcome::CrcFailed);
        }
        assert!(a.enabled);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut a = AdaptiveRecovery::practical_default();
        // One failure in 25 frames: every full window holds two, a 4 %
        // rate between the off (1 %) and on (5 %) thresholds. The first
        // frame fails, so it turns on at once and must stay on.
        for i in 0..200 {
            let o = if i % 25 == 0 {
                FrameOutcome::CrcFailed
            } else {
                FrameOutcome::Ok
            };
            a.observe(o);
        }
        assert!(a.switch_count() <= 1, "flapped {} times", a.switch_count());
    }

    #[test]
    fn turns_off_when_the_interferer_leaves() {
        let mut a = AdaptiveRecovery::practical_default();
        for _ in 0..WINDOW {
            a.observe(FrameOutcome::CrcFailed);
        }
        assert!(a.enabled);
        for _ in 0..2 * WINDOW {
            a.observe(FrameOutcome::Ok);
        }
        assert!(!a.enabled);
        assert_eq!(a.switch_count(), 2);
    }

    #[test]
    fn window_is_sliding() {
        let mut a = AdaptiveRecovery::practical_default();
        for _ in 0..WINDOW {
            a.observe(FrameOutcome::CrcFailed);
        }
        assert_eq!(a.failure_rate(), 1.0);
        for _ in 0..WINDOW {
            a.observe(FrameOutcome::Ok);
        }
        assert_eq!(a.failure_rate(), 0.0, "old failures must age out");
    }
}
