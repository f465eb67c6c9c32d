//! IEEE 802.15.4 2.4 GHz PHY timing.
//!
//! The 2.4 GHz O-QPSK PHY runs at 62 500 symbols/s; each symbol carries
//! 4 bits, so a byte is 2 symbols = 32 µs and the data rate is 250 kb/s.
//! All MAC timing (backoff period, CCA duration, turnaround) is specified
//! in symbol units by the standard.

use nomc_units::SimDuration;

/// One PHY symbol: 16 µs.
pub const SYMBOL: SimDuration = SimDuration::from_micros(16);

/// One octet on air: 2 symbols = 32 µs.
pub const BYTE: SimDuration = SimDuration::from_micros(32);

/// The CSMA/CA unit backoff period: `aUnitBackoffPeriod` = 20 symbols
/// = 320 µs.
pub const UNIT_BACKOFF: SimDuration = SimDuration::from_micros(320);

/// CCA detection time: 8 symbols = 128 µs (also the RSSI averaging
/// window of the CC2420).
pub const CCA_DURATION: SimDuration = SimDuration::from_micros(128);

/// RX-to-TX (and TX-to-RX) turnaround: `aTurnaroundTime` = 12 symbols
/// = 192 µs.
pub const TURNAROUND: SimDuration = SimDuration::from_micros(192);

/// The PPDU overhead preceding the PSDU: 4 preamble bytes + 1 SFD byte
/// + 1 frame-length byte.
pub const PPDU_HEADER_BYTES: u32 = 6;

/// The preamble + SFD portion a receiver must correlate against to sync:
/// 5 bytes = 40 bits.
pub const SYNC_HEADER_BYTES: u32 = 5;

/// On-air duration of a PPDU of `ppdu_bytes` total bytes (including the
/// 6-byte PPDU header).
///
/// # Examples
///
/// ```
/// use nomc_radio::timing::airtime;
/// use nomc_units::SimDuration;
/// // A 133-byte PPDU (maximum frame) lasts 4.256 ms.
/// assert_eq!(airtime(133), SimDuration::from_micros(4256));
/// ```
pub fn airtime(ppdu_bytes: u32) -> SimDuration {
    BYTE * u64::from(ppdu_bytes)
}

/// On-air duration of just the sync header (preamble + SFD).
pub fn sync_header_duration() -> SimDuration {
    BYTE * u64::from(SYNC_HEADER_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_byte_relation() {
        assert_eq!(BYTE.as_nanos(), SYMBOL.as_nanos() * 2);
    }

    #[test]
    fn standard_constants() {
        assert_eq!(UNIT_BACKOFF, SimDuration::from_micros(320));
        assert_eq!(CCA_DURATION, SimDuration::from_micros(128));
        assert_eq!(TURNAROUND, SimDuration::from_micros(192));
    }

    #[test]
    fn airtime_scales_linearly() {
        assert_eq!(airtime(0), SimDuration::ZERO);
        assert_eq!(airtime(1), BYTE);
        assert_eq!(airtime(99), SimDuration::from_micros(99 * 32));
    }

    #[test]
    fn sync_header_is_five_bytes() {
        assert_eq!(sync_header_duration(), SimDuration::from_micros(160));
    }
}
