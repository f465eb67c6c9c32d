//! # nomc-radio
//!
//! A CC2420-class IEEE 802.15.4 transceiver model: PPDU framing and FCS
//! ([`frame`], [`crc`]), the 2.4 GHz PHY's symbol timing ([`timing`]),
//! transmit power levels ([`power`]), the RSSI register's clamping and
//! quantization semantics ([`rssi`]), and a bundled [`RadioConfig`] that
//! the simulator hands to every node.
//!
//! The paper's DCN scheme lives entirely above this layer — it only reads
//! RSSI values of received co-channel packets and in-channel sensed power,
//! and writes the CCA threshold. This crate pins down exactly what those
//! reads and writes mean on CC2420-era hardware.
//!
//! # Examples
//!
//! ```
//! use nomc_radio::{frame::FrameSpec, timing, RadioConfig};
//! use nomc_units::SimDuration;
//!
//! let spec = FrameSpec::default_data_frame();
//! let airtime = timing::airtime(spec.ppdu_bytes());
//! assert_eq!(airtime, SimDuration::from_micros((6 + 51) as u64 * 32));
//!
//! let radio = RadioConfig::cc2420();
//! assert_eq!(radio.default_cca_threshold.value(), -77.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod frame;
pub mod power;
pub mod rssi;
pub mod timing;

use nomc_phy::{BerModel, CaptureModel};
use nomc_units::{Db, Dbm};

/// The static configuration of one radio, bundling the hardware-ish
/// parameters the simulator and MAC need.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Minimum co-channel received power for frame sync (−95 dBm on CC2420).
    pub sensitivity: Dbm,
    /// Factory-default CCA threshold (−77 dBm per the paper / datasheet).
    pub default_cca_threshold: Dbm,
    /// The demodulator's SINR → BER characteristic.
    pub ber_model: BerModel,
    /// Which transmissions can capture the receiver's correlator.
    pub capture_model: CaptureModel,
    /// RSSI register behaviour (clamping + quantization).
    pub rssi: rssi::RssiRegister,
    /// Valid range the CCA threshold register can actually express.
    pub cca_threshold_range: (Dbm, Dbm),
    /// Effective SINR bonus the preamble correlator enjoys over payload
    /// demodulation: the preamble/SFD is a *known* sequence, so the sync
    /// correlator detects it several dB below the payload's decoding
    /// threshold. This is why most interference-induced losses are CRC
    /// failures (recoverable, §VII-A) rather than missed preambles.
    pub sync_margin: Db,
}

nomc_json::json_struct!(RadioConfig {
    sensitivity: Dbm,
    default_cca_threshold: Dbm,
    ber_model: BerModel,
    capture_model: CaptureModel,
    rssi: rssi::RssiRegister,
    cca_threshold_range: (Dbm, Dbm),
    sync_margin: Db,
});

impl RadioConfig {
    /// The CC2420 profile used throughout the reproduction.
    pub fn cc2420() -> Self {
        RadioConfig {
            sensitivity: Dbm::new(-95.0),
            default_cca_threshold: Dbm::new(-77.0),
            ber_model: BerModel::Oqpsk802154,
            capture_model: CaptureModel::ieee802154(),
            rssi: rssi::RssiRegister::cc2420(),
            cca_threshold_range: (Dbm::new(-95.0), Dbm::new(0.0)),
            sync_margin: Db::new(8.0),
        }
    }

    /// An 802.11b-like profile for the Fig. 2 uniqueness comparison: same
    /// timing/geometry, but the receiver syncs to adjacent-channel packets
    /// and demodulates with the DBPSK curve.
    pub fn dot11b_like() -> Self {
        RadioConfig {
            ber_model: BerModel::Dsss80211b,
            capture_model: CaptureModel::dot11b_like(),
            sync_margin: Db::new(3.0),
            ..RadioConfig::cc2420()
        }
    }

    /// Clamps a requested CCA threshold into the register's expressible
    /// range, mirroring what writing the CC2420 `CCA_THR` register does.
    pub fn clamp_cca_threshold(&self, requested: Dbm) -> Dbm {
        requested.clamp(self.cca_threshold_range.0, self.cca_threshold_range.1)
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig::cc2420()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc2420_profile_values() {
        let r = RadioConfig::cc2420();
        assert_eq!(r.sensitivity, Dbm::new(-95.0));
        assert_eq!(r.default_cca_threshold, Dbm::new(-77.0));
        assert_eq!(r.ber_model, BerModel::Oqpsk802154);
    }

    #[test]
    fn cca_threshold_clamps_to_register_range() {
        let r = RadioConfig::cc2420();
        assert_eq!(r.clamp_cca_threshold(Dbm::new(-120.0)), Dbm::new(-95.0));
        assert_eq!(r.clamp_cca_threshold(Dbm::new(10.0)), Dbm::new(0.0));
        assert_eq!(r.clamp_cca_threshold(Dbm::new(-77.0)), Dbm::new(-77.0));
    }

    #[test]
    fn sync_margin_profiles() {
        assert_eq!(RadioConfig::cc2420().sync_margin, Db::new(8.0));
        assert_eq!(RadioConfig::dot11b_like().sync_margin, Db::new(3.0));
    }

    #[test]
    fn dot11b_profile_differs_only_in_receiver() {
        let a = RadioConfig::cc2420();
        let b = RadioConfig::dot11b_like();
        assert_eq!(a.sensitivity, b.sensitivity);
        assert_ne!(a.ber_model, b.ber_model);
        assert_ne!(a.capture_model, b.capture_model);
    }
}
