//! CSMA/CA parameters.

use nomc_radio::timing;
use nomc_units::SimDuration;

/// What the MAC does when `NB` exceeds `macMaxCSMABackoffs` (every CCA
/// came back busy).
///
/// The standard says "declare a channel-access failure"; what the *stack*
/// then does differs. The paper's observed mote behaviour (Fig. 6: a
/// ~45 packets/s floor even at thresholds that render the channel
/// permanently busy) matches stacks that force the transmission out after
/// exhausting backoffs, so that is the default here; `DropPacket` models
/// a strictly standard-compliant stack and is used in ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CcaFailurePolicy {
    /// Transmit the frame anyway after the final busy CCA.
    #[default]
    TransmitAnyway,
    /// Discard the frame and report failure.
    DropPacket,
}

/// Parameters of the unslotted CSMA/CA algorithm plus the stack-level
/// knobs the paper's experiments exercise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsmaParams {
    /// `macMinBE`: initial backoff exponent (standard default 3).
    pub min_be: u8,
    /// `macMaxBE`: maximum backoff exponent (standard default 5).
    pub max_be: u8,
    /// `macMaxCSMABackoffs`: CCA retries before failure (default 4).
    pub max_csma_backoffs: u8,
    /// One backoff period (20 symbols = 320 µs).
    pub unit_backoff: SimDuration,
    /// CCA duration (8 symbols = 128 µs).
    pub cca_duration: SimDuration,
    /// RX→TX turnaround after a clear CCA (12 symbols = 192 µs).
    pub turnaround: SimDuration,
    /// Post-transmission processing gap before the next frame can be
    /// queued (SPI transfer + OS overhead on a MicaZ; calibrated so a
    /// saturated 2-link network tops out near the paper's ~260 pkts/s).
    pub post_tx_processing: SimDuration,
    /// Whether the carrier-sense module is enabled at all. The paper
    /// disables it to generate guaranteed collisions (§III-B).
    pub carrier_sense: bool,
    /// Behaviour on channel-access failure.
    pub on_failure: CcaFailurePolicy,
    /// Acknowledged transfers: request a MAC ACK for every data frame and
    /// retransmit on timeout. The paper's saturated streams are
    /// unacknowledged (the default); this models ZigBee reliable unicast.
    pub acknowledged: bool,
    /// `macMaxFrameRetries`: retransmissions after a missing ACK.
    pub max_frame_retries: u8,
    /// `macAckWaitDuration`: 54 symbols = 864 µs.
    pub ack_wait: SimDuration,
}

fn default_max_frame_retries() -> u8 {
    3
}

fn default_ack_wait() -> SimDuration {
    SimDuration::from_micros(864)
}

nomc_json::json_enum!(CcaFailurePolicy {
    TransmitAnyway = "TransmitAnyway",
    DropPacket = "DropPacket",
});

nomc_json::json_struct!(CsmaParams {
    min_be: u8,
    max_be: u8,
    max_csma_backoffs: u8,
    unit_backoff: SimDuration,
    cca_duration: SimDuration,
    turnaround: SimDuration,
    post_tx_processing: SimDuration,
    carrier_sense: bool,
    on_failure: CcaFailurePolicy,
    acknowledged: bool = false,
    max_frame_retries: u8 = default_max_frame_retries(),
    ack_wait: SimDuration = default_ack_wait(),
});

impl CsmaParams {
    /// Standard-default unslotted CSMA/CA with the reproduction's
    /// calibrated stack overheads.
    pub fn ieee802154_default() -> Self {
        CsmaParams {
            min_be: 3,
            max_be: 5,
            max_csma_backoffs: 4,
            unit_backoff: timing::UNIT_BACKOFF,
            cca_duration: timing::CCA_DURATION,
            turnaround: timing::TURNAROUND,
            post_tx_processing: SimDuration::from_micros(2600),
            carrier_sense: true,
            on_failure: CcaFailurePolicy::default(),
            acknowledged: false,
            max_frame_retries: 3,
            ack_wait: SimDuration::from_micros(864),
        }
    }

    /// The paper's "attacker"/collision-generator configuration: carrier
    /// sensing disabled entirely, frames go straight out.
    pub fn carrier_sense_disabled() -> Self {
        CsmaParams {
            carrier_sense: false,
            ..CsmaParams::ieee802154_default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the exponents are inverted or out of the
    /// standard's 0-8 range.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_be > self.max_be {
            return Err(format!(
                "macMinBE ({}) exceeds macMaxBE ({})",
                self.min_be, self.max_be
            ));
        }
        if self.max_be > 8 {
            return Err(format!("macMaxBE ({}) exceeds 8", self.max_be));
        }
        if self.acknowledged && self.ack_wait.is_zero() {
            return Err("acknowledged mode needs a positive ack_wait".into());
        }
        Ok(())
    }
}

impl Default for CsmaParams {
    fn default() -> Self {
        CsmaParams::ieee802154_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_standard() {
        let p = CsmaParams::ieee802154_default();
        assert_eq!(p.min_be, 3);
        assert_eq!(p.max_be, 5);
        assert_eq!(p.max_csma_backoffs, 4);
        assert_eq!(p.unit_backoff, SimDuration::from_micros(320));
        assert!(p.carrier_sense);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn attacker_has_no_carrier_sense() {
        assert!(!CsmaParams::carrier_sense_disabled().carrier_sense);
    }

    #[test]
    fn acknowledged_defaults() {
        let p = CsmaParams {
            acknowledged: true,
            ..CsmaParams::ieee802154_default()
        };
        assert_eq!(p.max_frame_retries, 3);
        assert_eq!(p.ack_wait, SimDuration::from_micros(864));
        assert!(p.validate().is_ok());
        let bad = CsmaParams {
            ack_wait: SimDuration::ZERO,
            ..p
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_catches_inverted_exponents() {
        let p = CsmaParams {
            min_be: 6,
            max_be: 5,
            ..CsmaParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_oversized_be() {
        let p = CsmaParams {
            max_be: 9,
            ..CsmaParams::default()
        };
        assert!(p.validate().is_err());
    }
}
