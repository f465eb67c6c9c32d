//! Block-oriented partial packet recovery.
//!
//! PPR's observable behaviour: the receiver keeps the frame, identifies
//! which chunks are trustworthy, and asks the sender to retransmit only
//! the bad ones. A frame is *recoverable* when the corrupted portion is
//! small enough that the retransmission request plus patch costs less
//! than a full retransmission — modelled here as a bound on the fraction
//! of corrupted blocks.

/// A block-recovery scheme: `block_bytes`-sized chunks, recoverable while
/// at most `max_corrupt_fraction` of the blocks are corrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockScheme {
    block_bytes: u32,
    max_corrupt_fraction: f64,
}

/// The verdict for one corrupted frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Number of blocks in the frame.
    pub total_blocks: u32,
    /// Number of blocks containing at least one error bit.
    pub corrupted_blocks: u32,
    /// Whether the scheme can rescue the frame.
    pub recoverable: bool,
}

impl BlockScheme {
    /// Creates a scheme.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or the fraction is outside
    /// `[0, 1]`.
    pub fn new(block_bytes: u32, max_corrupt_fraction: f64) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        assert!(
            (0.0..=1.0).contains(&max_corrupt_fraction),
            "fraction out of range: {max_corrupt_fraction}"
        );
        BlockScheme {
            block_bytes,
            max_corrupt_fraction,
        }
    }

    /// The PPR-like default: 8-byte blocks, recoverable up to half the
    /// blocks corrupted (one feedback round plus a patch retransmission
    /// is still cheaper than resending the frame).
    pub fn ppr_default() -> Self {
        BlockScheme::new(8, 0.5)
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Analyzes a corrupted frame.
    ///
    /// `error_positions` are bit indices into the frame (any order,
    /// duplicates tolerated); `frame_bytes` is the full frame length.
    /// Positions beyond the frame are ignored (they cannot occur with a
    /// well-formed simulator but a defensive bound keeps the result
    /// meaningful).
    // nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
    pub fn analyze(&self, error_positions: &[u32], frame_bytes: u32) -> RecoveryOutcome {
        let total_blocks = frame_bytes.div_ceil(self.block_bytes).max(1);
        let mut corrupted = vec![false; total_blocks as usize];
        for &bit in error_positions {
            let byte = bit / 8;
            if byte < frame_bytes {
                corrupted[(byte / self.block_bytes) as usize] = true;
            }
        }
        let corrupted_blocks = corrupted.iter().filter(|&&c| c).count() as u32;
        RecoveryOutcome {
            total_blocks,
            corrupted_blocks,
            recoverable: f64::from(corrupted_blocks)
                <= self.max_corrupt_fraction * f64::from(total_blocks),
        }
    }

    /// Convenience for records that only kept an error *count*: assumes
    /// the worst case of maximally spread errors (each error hits its own
    /// block).
    // nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
    pub fn analyze_spread(&self, error_bits: u32, frame_bytes: u32) -> RecoveryOutcome {
        let total_blocks = frame_bytes.div_ceil(self.block_bytes).max(1);
        let corrupted_blocks = error_bits.min(total_blocks);
        RecoveryOutcome {
            total_blocks,
            corrupted_blocks,
            recoverable: f64::from(corrupted_blocks)
                <= self.max_corrupt_fraction * f64::from(total_blocks),
        }
    }
}

impl Default for BlockScheme {
    fn default() -> Self {
        BlockScheme::ppr_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_frame_trivially_recoverable() {
        let out = BlockScheme::ppr_default().analyze(&[], 51);
        assert_eq!(out.corrupted_blocks, 0);
        assert!(out.recoverable);
        assert_eq!(out.total_blocks, 7); // ceil(51 / 8)
    }

    #[test]
    fn clustered_errors_corrupt_one_block() {
        let scheme = BlockScheme::new(8, 0.5);
        // Errors in bits 0..10 → bytes 0-1 → block 0 only.
        let out = scheme.analyze(&[0, 3, 9, 10], 51);
        assert_eq!(out.corrupted_blocks, 1);
        assert!(out.recoverable);
    }

    #[test]
    fn spread_errors_corrupt_many_blocks() {
        let scheme = BlockScheme::new(8, 0.5);
        // One error every 8 bytes (64 bits) → every block corrupted.
        let positions: Vec<u32> = (0..7).map(|b| b * 64).collect();
        let out = scheme.analyze(&positions, 51);
        assert_eq!(out.corrupted_blocks, 7);
        assert!(!out.recoverable);
    }

    #[test]
    fn threshold_is_inclusive() {
        let scheme = BlockScheme::new(8, 0.5);
        // 56-byte frame → 7 blocks; 3 corrupted = 0.43 ≤ 0.5 → ok;
        // 4 corrupted = 0.57 → not recoverable.
        let three: Vec<u32> = vec![0, 64, 128];
        assert!(scheme.analyze(&three, 56).recoverable);
        let four: Vec<u32> = vec![0, 64, 128, 192];
        assert!(!scheme.analyze(&four, 56).recoverable);
    }

    #[test]
    fn out_of_range_positions_ignored() {
        let scheme = BlockScheme::ppr_default();
        let out = scheme.analyze(&[10_000], 51);
        assert_eq!(out.corrupted_blocks, 0);
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let scheme = BlockScheme::ppr_default();
        let out = scheme.analyze(&[5, 5, 6, 7], 51);
        assert_eq!(out.corrupted_blocks, 1);
    }

    #[test]
    fn spread_estimate_is_pessimistic() {
        let scheme = BlockScheme::new(8, 0.5);
        let exact = scheme.analyze(&[0, 1, 2, 3, 4], 51);
        let spread = scheme.analyze_spread(5, 51);
        assert!(spread.corrupted_blocks >= exact.corrupted_blocks);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        let _ = BlockScheme::new(0, 0.5);
    }
}
