//! Receiver noise floor.

use nomc_units::{Dbm, MilliWatts};

/// The receiver's noise floor: thermal noise over the channel bandwidth
/// plus the receiver noise figure.
///
/// For the 2 MHz 802.15.4 channel: `−174 dBm/Hz + 10·log10(2e6) ≈ −111 dBm`
/// thermal, and a CC2420-class noise figure of ≈ 13 dB puts the default
/// floor at −98 dBm — consistent with the −95 dBm datasheet sensitivity
/// (the O-QPSK demodulator needs only ≈ 2-3 dB of SNR).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseFloor {
    level: Dbm,
}

nomc_json::json_struct!(NoiseFloor { level: Dbm });

impl NoiseFloor {
    /// Creates a noise floor at the given level.
    pub fn new(level: Dbm) -> Self {
        NoiseFloor { level }
    }

    /// The default CC2420-class floor: −98 dBm.
    pub fn cc2420_default() -> Self {
        NoiseFloor::new(Dbm::new(-98.0))
    }

    /// The floor in dBm.
    pub fn level(&self) -> Dbm {
        self.level
    }

    /// The floor in linear milliwatts (for interference sums).
    pub fn power(&self) -> MilliWatts {
        self.level.to_milliwatts()
    }
}

impl Default for NoiseFloor {
    fn default() -> Self {
        NoiseFloor::cc2420_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_minus_98() {
        assert_eq!(NoiseFloor::default().level(), Dbm::new(-98.0));
    }

    #[test]
    fn linear_power_matches() {
        let n = NoiseFloor::cc2420_default();
        assert!((n.power().to_dbm().value() - (-98.0)).abs() < 1e-9);
    }
}
