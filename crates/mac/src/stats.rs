//! Per-transmitter MAC statistics.

/// Counters a node's MAC accumulates over a run; the experiment harness
/// aggregates these into the paper's throughput/PRR metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacStats {
    /// Frames handed to the MAC by the traffic source.
    pub enqueued: u64,
    /// Frames whose transmission actually started.
    pub transmitted: u64,
    /// Transmissions forced out by the transmit-anyway failure policy.
    pub forced_transmissions: u64,
    /// Frames dropped after channel-access failure (drop policy).
    pub access_failures: u64,
    /// Individual CCA operations that came back busy.
    pub cca_busy: u64,
    /// Individual CCA operations that came back clear.
    pub cca_clear: u64,
    /// Retransmission attempts after missing ACKs (acknowledged mode).
    pub retransmissions: u64,
    /// Frames abandoned after `macMaxFrameRetries` (acknowledged mode).
    pub abandoned: u64,
}

impl MacStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        MacStats::default()
    }

    /// Merges another node's counters into this one (for per-network
    /// aggregation).
    pub fn merge(&mut self, other: &MacStats) {
        self.enqueued += other.enqueued;
        self.transmitted += other.transmitted;
        self.forced_transmissions += other.forced_transmissions;
        self.access_failures += other.access_failures;
        self.cca_busy += other.cca_busy;
        self.cca_clear += other.cca_clear;
        self.retransmissions += other.retransmissions;
        self.abandoned += other.abandoned;
    }
}

nomc_json::json_struct!(MacStats {
    enqueued: u64,
    transmitted: u64,
    forced_transmissions: u64,
    access_failures: u64,
    cca_busy: u64,
    cca_clear: u64,
    retransmissions: u64,
    abandoned: u64,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = MacStats {
            enqueued: 1,
            transmitted: 2,
            forced_transmissions: 3,
            access_failures: 4,
            cca_busy: 5,
            cca_clear: 6,
            retransmissions: 7,
            abandoned: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.enqueued, 2);
        assert_eq!(a.transmitted, 4);
        assert_eq!(a.forced_transmissions, 6);
        assert_eq!(a.access_failures, 8);
        assert_eq!(a.cca_busy, 10);
        assert_eq!(a.cca_clear, 12);
        assert_eq!(a.retransmissions, 14);
        assert_eq!(a.abandoned, 16);
    }
}
