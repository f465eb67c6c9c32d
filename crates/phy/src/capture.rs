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

use nomc_units::{Db, Dbm, Megahertz};

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

impl nomc_json::ToJson for CaptureModel {
    fn to_json(&self) -> nomc_json::Json {
        use nomc_json::Json;
        match self {
            CaptureModel::Ieee802154 {
                co_channel_tolerance,
            } => Json::object([(
                "Ieee802154",
                Json::object([("co_channel_tolerance", co_channel_tolerance.to_json())]),
            )]),
            CaptureModel::Dot11bLike { decode_band } => Json::object([(
                "Dot11bLike",
                Json::object([("decode_band", decode_band.to_json())]),
            )]),
        }
    }
}

impl nomc_json::FromJson for CaptureModel {
    fn from_json(value: &nomc_json::Json) -> Result<Self, nomc_json::Error> {
        use nomc_json::{Error, FromJson};
        let obj = value
            .as_object()
            .filter(|m| m.len() == 1)
            .ok_or_else(|| Error::new("CaptureModel: expected single-variant object"))?;
        let (variant, body) = obj.iter().next().unwrap();
        match variant {
            "Ieee802154" => Ok(CaptureModel::Ieee802154 {
                co_channel_tolerance: FromJson::from_json(
                    body.get("co_channel_tolerance")
                        .ok_or_else(|| Error::new("Ieee802154: missing co_channel_tolerance"))?,
                )?,
            }),
            "Dot11bLike" => Ok(CaptureModel::Dot11bLike {
                decode_band: FromJson::from_json(
                    body.get("decode_band")
                        .ok_or_else(|| Error::new("Dot11bLike: missing decode_band"))?,
                )?,
            }),
            other => Err(Error::new(format!("unknown CaptureModel variant: {other}"))),
        }
    }
}

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

    /// Minimum preamble SINR for a *mid-preamble* newcomer to steal the
    /// correlator from the frame currently being received. 802.15.4
    /// radios of the CC2420 generation have no message-in-message
    /// capture, so this returns `None` for [`CaptureModel::Ieee802154`];
    /// the 802.11b-like model allows a 10 dB capture margin.
    // nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
    pub fn mid_frame_capture_margin(&self) -> Option<Db> {
        match self {
            CaptureModel::Ieee802154 { .. } => None,
            CaptureModel::Dot11bLike { .. } => Some(Db::new(10.0)),
        }
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

    #[test]
    fn midframe_capture_only_for_dot11b() {
        assert!(CaptureModel::ieee802154()
            .mid_frame_capture_margin()
            .is_none());
        assert!(CaptureModel::dot11b_like()
            .mid_frame_capture_margin()
            .is_some());
    }
}
