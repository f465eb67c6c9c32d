//! Receiver noise floor.

use nomc_units::{Db, Dbm, Megahertz, MilliWatts};

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

    /// Computes a floor from channel bandwidth and receiver noise
    /// figure: `−174 + 10·log10(bw_hz) + nf_db`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive.
    // nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
    pub fn from_bandwidth(bandwidth: Megahertz, noise_figure: Db) -> Self {
        assert!(bandwidth.value() > 0.0, "bandwidth must be positive");
        let bandwidth_hz = bandwidth.value() * 1e6;
        NoiseFloor::new(Dbm::new(
            -174.0 + 10.0 * bandwidth_hz.log10() + noise_figure.value(),
        ))
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
    fn bandwidth_formula() {
        let n = NoiseFloor::from_bandwidth(Megahertz::new(2.0), Db::new(13.0));
        assert!((n.level().value() - (-98.0)).abs() < 0.1, "{}", n.level());
    }

    #[test]
    fn linear_power_matches() {
        let n = NoiseFloor::cc2420_default();
        assert!((n.power().to_dbm().value() - (-98.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = NoiseFloor::from_bandwidth(Megahertz::new(0.0), Db::new(10.0));
    }
}
