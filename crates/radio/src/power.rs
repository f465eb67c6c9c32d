//! Transmit power levels.
//!
//! The CC2420 PA has 8 documented register settings between 0 dBm and
//! −25 dBm; MicaZ deployments (and the paper) additionally quote
//! intermediate and lower effective radiated powers (−0.6, −22, −33 dBm …)
//! that arise from antenna and matching differences. We therefore model a
//! transmit power as an arbitrary dBm value.

use nomc_units::Dbm;

/// CC2420 current draw (mA at 3 V) per datasheet operating conditions.
pub mod current {
    use nomc_units::Dbm;

    /// RX / listen current: 18.8 mA.
    pub const RX_MA: f64 = 18.8;

    /// TX current as a function of output power, interpolated from the
    /// datasheet's PA operating points (8.5 mA at −25 dBm to 17.4 mA at
    /// 0 dBm).
    pub fn tx_ma(power: Dbm) -> f64 {
        const TABLE: [(f64, f64); 8] = [
            (-25.0, 8.5),
            (-15.0, 9.9),
            (-10.0, 11.2),
            (-7.0, 12.5),
            (-5.0, 13.9),
            (-3.0, 15.2),
            (-1.0, 16.5),
            (0.0, 17.4),
        ];
        let p = power.value();
        if p <= TABLE[0].0 {
            return TABLE[0].1;
        }
        if p >= TABLE[TABLE.len() - 1].0 {
            return TABLE[TABLE.len() - 1].1;
        }
        for w in TABLE.windows(2) {
            let ((p0, i0), (p1, i1)) = (w[0], w[1]);
            if p >= p0 && p <= p1 {
                return i0 + (i1 - i0) * (p - p0) / (p1 - p0);
            }
        }
        unreachable!("power {p} not bracketed")
    }
}

/// A transmitter output power.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TxPower(Dbm);

impl TxPower {
    /// Full power: 0 dBm.
    pub fn max() -> Self {
        TxPower(Dbm::new(0.0))
    }

    /// An arbitrary output power in dBm.
    ///
    /// # Panics
    ///
    /// Panics if `dbm` is above +10 dBm or below −60 dBm — outside any
    /// plausible mote PA range, almost certainly a sign/ordering bug.
    pub fn new(dbm: Dbm) -> Self {
        assert!(
            (-60.0..=10.0).contains(&dbm.value()),
            "implausible TX power {dbm}"
        );
        TxPower(dbm)
    }

    /// The output power in dBm.
    pub fn dbm(self) -> Dbm {
        self.0
    }
}

impl Default for TxPower {
    fn default() -> Self {
        TxPower::max()
    }
}

impl From<Dbm> for TxPower {
    fn from(dbm: Dbm) -> Self {
        TxPower::new(dbm)
    }
}

impl std::fmt::Display for TxPower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TX {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_is_zero_dbm() {
        assert_eq!(TxPower::max().dbm(), Dbm::new(0.0));
        assert_eq!(TxPower::default(), TxPower::max());
    }

    #[test]
    fn paper_power_values_accepted() {
        // The paper sweeps these exact values.
        for p in [
            -33.0, -22.0, -15.0, -11.0, -8.0, -6.0, -5.0, -3.0, -2.0, -0.6, 0.0,
        ] {
            let _ = TxPower::new(Dbm::new(p));
        }
    }

    #[test]
    #[should_panic(expected = "implausible")]
    fn absurd_power_rejected() {
        let _ = TxPower::new(Dbm::new(30.0));
    }

    #[test]
    fn tx_current_interpolates_and_clamps() {
        assert!((current::tx_ma(Dbm::new(0.0)) - 17.4).abs() < 1e-9);
        assert!((current::tx_ma(Dbm::new(-25.0)) - 8.5).abs() < 1e-9);
        assert!((current::tx_ma(Dbm::new(-40.0)) - 8.5).abs() < 1e-9);
        let mid = current::tx_ma(Dbm::new(-2.0));
        assert!(mid > 15.2 && mid < 16.5, "{mid}");
        // Monotone in power.
        let mut prev = 0.0;
        for p in [-30.0, -20.0, -10.0, -5.0, -1.0, 0.0] {
            let i = current::tx_ma(Dbm::new(p));
            assert!(i >= prev);
            prev = i;
        }
    }
}
