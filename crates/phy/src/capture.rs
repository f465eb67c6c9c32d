//! Receiver sync/capture models — the locus of the paper's "uniqueness of
//! 802.15.4" observation (§III-B, Fig. 2).
//!
//! In 802.11b, a receiver's sync logic locks onto *any* decodable DSSS
//! preamble, including ones transmitted up to three channels (15 MHz)
//! away; while it is busy decoding that foreign packet it deafens itself
//! to a co-channel packet it actually wants. In 802.15.4, the paper
//! observes that a mote "cannot decode packets from inter-channels, even
//! … 1 MHz … away" — adjacent-channel energy is noise, never a competing
//! sync target. This asymmetry is exactly why non-orthogonal concurrency
//! works for ZigBee and not for Wi-Fi.

use nomc_units::{Dbm, Megahertz};

/// Decides whether a receiver tuned to one channel will attempt to sync
/// to (i.e. be *captured by*) a transmission on a possibly different
/// channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CaptureModel {
    /// IEEE 802.15.4 behaviour: sync only to co-channel transmissions
    /// (CFD below `co_channel_tolerance`, defaulting to effectively 0).
    Ieee802154 {
        /// Maximum CFD still treated as "the same channel" (MHz). Real
        /// radios tolerate crystal offsets of tens of kHz; 0.5 MHz is a
        /// generous default that still excludes a 1 MHz neighbour.
        co_channel_tolerance: Megahertz,
    },
    /// 802.11b-like behaviour: sync to any transmission whose *coupled*
    /// power clears the sync threshold, out to `decode_band` of CFD
    /// (15 MHz = three 802.11 channels, per Mishra et al.).
    Dot11bLike {
        /// Maximum CFD at which a foreign packet can still capture the
        /// receiver's correlator.
        decode_band: Megahertz,
    },
}

nomc_json::json_enum!(CaptureModel {
    Ieee802154 { co_channel_tolerance } = "Ieee802154",
    Dot11bLike { decode_band } = "Dot11bLike",
});

impl CaptureModel {
    /// The standard 802.15.4 model.
    pub fn ieee802154() -> Self {
        CaptureModel::Ieee802154 {
            co_channel_tolerance: Megahertz::new(0.5),
        }
    }

    /// The 802.11b-like contrast model with the literature's 15 MHz
    /// decode band.
    pub fn dot11b_like() -> Self {
        CaptureModel::Dot11bLike {
            decode_band: Megahertz::new(15.0),
        }
    }

    /// Whether a transmission at centre-frequency distance `cfd` is a
    /// potential sync target for this receiver (power permitting).
    pub fn is_sync_candidate(&self, cfd: Megahertz) -> bool {
        match *self {
            CaptureModel::Ieee802154 {
                co_channel_tolerance,
            } => cfd.value() <= co_channel_tolerance.value(),
            CaptureModel::Dot11bLike { decode_band } => cfd.value() <= decode_band.value(),
        }
    }

    /// Whether `coupled_power` (after channel-filter rejection) suffices
    /// to capture an idle receiver with the given sensitivity.
    pub fn clears_sensitivity(&self, coupled_power: Dbm, sensitivity: Dbm) -> bool {
        coupled_power >= sensitivity
    }
}

impl Default for CaptureModel {
    fn default() -> Self {
        CaptureModel::ieee802154()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ieee802154_rejects_adjacent_channels() {
        let m = CaptureModel::ieee802154();
        assert!(m.is_sync_candidate(Megahertz::new(0.0)));
        assert!(!m.is_sync_candidate(Megahertz::new(1.0)));
        assert!(!m.is_sync_candidate(Megahertz::new(3.0)));
    }

    #[test]
    fn dot11b_syncs_out_to_three_channels() {
        let m = CaptureModel::dot11b_like();
        assert!(m.is_sync_candidate(Megahertz::new(5.0)));
        assert!(m.is_sync_candidate(Megahertz::new(15.0)));
        assert!(!m.is_sync_candidate(Megahertz::new(16.0)));
    }

    #[test]
    fn sensitivity_gate() {
        let m = CaptureModel::default();
        let sens = Dbm::new(-95.0);
        assert!(m.clears_sensitivity(Dbm::new(-90.0), sens));
        assert!(!m.clears_sensitivity(Dbm::new(-96.0), sens));
    }
}
