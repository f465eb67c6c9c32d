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

/// Sliding-window recovery-demand detector for one link.
#[derive(Debug, Clone)]
pub struct AdaptiveRecovery {
    window: VecDeque<FrameOutcome>,
    capacity: usize,
    /// Failure rate above which recovery turns on.
    on_threshold: f64,
    /// Failure rate below which recovery turns off (hysteresis:
    /// `off_threshold < on_threshold`).
    off_threshold: f64,
    enabled: bool,
    switches: u64,
}

impl AdaptiveRecovery {
    /// Creates a detector over the last `capacity` frames with the given
    /// on/off thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, thresholds are outside `[0, 1]`, or
    /// `off_threshold > on_threshold`.
    pub fn new(capacity: usize, on_threshold: f64, off_threshold: f64) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&on_threshold) && (0.0..=1.0).contains(&off_threshold),
            "thresholds must be fractions"
        );
        assert!(
            off_threshold <= on_threshold,
            "hysteresis requires off ≤ on"
        );
        AdaptiveRecovery {
            window: VecDeque::with_capacity(capacity),
            capacity,
            on_threshold,
            off_threshold,
            enabled: false,
            switches: 0,
        }
    }

    /// A practical default: 50-frame window, turn on above 5 % failures,
    /// off below 1 %.
    pub fn practical_default() -> Self {
        AdaptiveRecovery::new(50, 0.05, 0.01)
    }

    /// Records one frame outcome and returns whether recovery is enabled
    /// *for the next frame*.
    pub fn observe(&mut self, outcome: FrameOutcome) -> bool {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(outcome);
        let rate = self.failure_rate();
        let was = self.enabled;
        if !self.enabled && rate > self.on_threshold {
            self.enabled = true;
        } else if self.enabled && rate < self.off_threshold {
            self.enabled = false;
        }
        if was != self.enabled {
            self.switches += 1;
        }
        self.enabled
    }

    /// Current CRC-failure rate over the window (0 for an empty window).
    pub fn failure_rate(&self) -> f64 {
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

impl Default for AdaptiveRecovery {
    fn default() -> Self {
        AdaptiveRecovery::practical_default()
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
        let mut a = AdaptiveRecovery::new(20, 0.3, 0.1);
        // Alternate at a rate between off (0.1) and on (0.3) thresholds:
        // ~20% failures. Once on, it must stay on.
        for i in 0..200 {
            let o = if i % 5 == 0 {
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
        let mut a = AdaptiveRecovery::new(20, 0.3, 0.1);
        for _ in 0..20 {
            a.observe(FrameOutcome::CrcFailed);
        }
        assert!(a.enabled);
        for _ in 0..40 {
            a.observe(FrameOutcome::Ok);
        }
        assert!(!a.enabled);
        assert_eq!(a.switch_count(), 2);
    }

    #[test]
    fn window_is_sliding() {
        let mut a = AdaptiveRecovery::new(10, 0.5, 0.1);
        for _ in 0..10 {
            a.observe(FrameOutcome::CrcFailed);
        }
        assert_eq!(a.failure_rate(), 1.0);
        for _ in 0..10 {
            a.observe(FrameOutcome::Ok);
        }
        assert_eq!(a.failure_rate(), 0.0, "old failures must age out");
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let _ = AdaptiveRecovery::new(10, 0.1, 0.3);
    }
}
