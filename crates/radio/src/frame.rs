//! Frame geometry and concrete MPDU images.
//!
//! Most of the simulation only needs frame *sizes* (for airtime and
//! bit-error budgets); the packet-recovery experiments additionally need
//! concrete *bytes* so that FCS verification and block re-checksumming
//! operate on real data. [`FrameSpec`] provides the former,
//! [`FrameSpec::build_mpdu`] the latter.

use crate::crc;
use crate::timing;

/// Sizes of a data frame, from which all airtime/bit budgets derive.
///
/// # Examples
///
/// ```
/// use nomc_radio::frame::FrameSpec;
/// let spec = FrameSpec::default_data_frame();
/// assert_eq!(spec.mpdu_bytes(), 51);
/// assert_eq!(spec.ppdu_bytes(), 57);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameSpec {
    /// MAC header bytes (FCF + seq + addressing). 9 bytes models the
    /// short-address data frames TinyOS sends.
    pub mac_header_bytes: u32,
    /// MAC payload bytes.
    pub payload_bytes: u32,
}

/// The FCS length (CRC-16) in bytes.
pub const FCS_BYTES: u32 = 2;

/// The maximum MPDU the standard allows (`aMaxPHYPacketSize`).
pub const MAX_MPDU_BYTES: u32 = 127;

nomc_json::json_struct!(FrameSpec {
    mac_header_bytes: u32,
    payload_bytes: u32,
});

impl FrameSpec {
    /// Creates a frame spec.
    ///
    /// # Errors
    ///
    /// Returns an error if the resulting MPDU would exceed
    /// [`MAX_MPDU_BYTES`].
    pub fn new(mac_header_bytes: u32, payload_bytes: u32) -> Result<Self, FrameTooLong> {
        let spec = FrameSpec {
            mac_header_bytes,
            payload_bytes,
        };
        if spec.mpdu_bytes() > MAX_MPDU_BYTES {
            return Err(FrameTooLong(spec.mpdu_bytes()));
        }
        Ok(spec)
    }

    /// The saturated-traffic data frame used throughout the reproduction:
    /// 9-byte MAC header + 40-byte payload + FCS = 51-byte MPDU
    /// (57-byte PPDU, 1.824 ms on air). Sized, together with
    /// [`nomc-mac`'s post-TX processing gap], so a single link tops out
    /// near the paper's ~150 packets/s (Fig. 6) and a saturated 2-link
    /// network near its ~260-270 packets/s (Table I).
    ///
    /// [`nomc-mac`'s post-TX processing gap]: FrameSpec
    pub fn default_data_frame() -> Self {
        FrameSpec::new(9, 40).expect("default frame fits")
    }

    /// MPDU length: MAC header + payload + FCS.
    pub fn mpdu_bytes(self) -> u32 {
        self.mac_header_bytes + self.payload_bytes + FCS_BYTES
    }

    /// Full PPDU length on air, including preamble/SFD/length header.
    pub fn ppdu_bytes(self) -> u32 {
        timing::PPDU_HEADER_BYTES + self.mpdu_bytes()
    }

    /// On-air duration of the whole PPDU.
    pub fn airtime(self) -> nomc_units::SimDuration {
        timing::airtime(self.ppdu_bytes())
    }

    /// Builds a concrete MPDU image (with valid FCS) for this spec.
    ///
    /// The header encodes `src` and `seq`; the payload is a deterministic
    /// pattern derived from both, so two frames never share bytes by
    /// accident and recovery experiments can verify reassembly.
    pub fn build_mpdu(self, src: u32, seq: u32) -> Vec<u8> {
        let mut body = Vec::with_capacity((self.mac_header_bytes + self.payload_bytes) as usize);
        body.push(0x41); // FCF low: data frame, intra-PAN
        body.push(0x88); // FCF high: short addressing
        body.push(seq as u8);
        body.extend_from_slice(&(src as u16).to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        while body.len() < self.mac_header_bytes as usize {
            body.push(0);
        }
        body.truncate(self.mac_header_bytes as usize);
        let mut state = (u64::from(src) << 32) | u64::from(seq);
        for _ in 0..self.payload_bytes {
            // splitmix64 step keeps the payload cheap and deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            body.push((z ^ (z >> 31)) as u8);
        }
        crc::append_fcs(&body)
    }
}

impl Default for FrameSpec {
    fn default() -> Self {
        FrameSpec::default_data_frame()
    }
}

/// Error: the requested frame would exceed the 127-byte MPDU limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong(pub u32);

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MPDU of {} bytes exceeds the 127-byte limit", self.0)
    }
}

impl std::error::Error for FrameTooLong {}

#[cfg(test)]
mod tests {
    use super::*;
    use nomc_units::SimDuration;

    #[test]
    fn default_frame_sizes() {
        let s = FrameSpec::default_data_frame();
        assert_eq!(s.mpdu_bytes(), 51);
        assert_eq!(s.ppdu_bytes(), 57);
        assert_eq!(s.airtime(), SimDuration::from_micros(57 * 32));
    }

    #[test]
    fn max_frame_accepted_oversize_rejected() {
        assert!(FrameSpec::new(9, 116).is_ok()); // 127-byte MPDU
        let err = FrameSpec::new(9, 117).unwrap_err();
        assert_eq!(err, FrameTooLong(128));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn built_mpdu_has_declared_length_and_valid_fcs() {
        let s = FrameSpec::default_data_frame();
        let mpdu = s.build_mpdu(7, 1234);
        assert_eq!(mpdu.len() as u32, s.mpdu_bytes());
        assert!(crc::verify_fcs(&mpdu));
    }

    #[test]
    fn mpdu_is_deterministic_and_distinct() {
        let s = FrameSpec::default_data_frame();
        assert_eq!(s.build_mpdu(1, 2), s.build_mpdu(1, 2));
        assert_ne!(s.build_mpdu(1, 2), s.build_mpdu(1, 3));
        assert_ne!(s.build_mpdu(1, 2), s.build_mpdu(2, 2));
    }

    #[test]
    fn header_encodes_src_and_seq() {
        let s = FrameSpec::default_data_frame();
        let mpdu = s.build_mpdu(0x0BEE, 0x0102_0304);
        assert_eq!(mpdu[2], 0x04); // low byte of seq
        assert_eq!(u16::from_le_bytes([mpdu[3], mpdu[4]]), 0x0BEE);
    }
}
