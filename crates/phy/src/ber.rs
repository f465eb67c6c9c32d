//! SINR → bit-error-rate models.
//!
//! Two demodulator models are provided:
//!
//! * [`BerModel::Oqpsk802154`] — the standard analytic BER of the 2.4 GHz
//!   IEEE 802.15.4 O-QPSK DSSS PHY (16-ary orthogonal signalling over
//!   32-chip pseudo-noise sequences),
//! * [`BerModel::Dsss80211b`] — a DBPSK approximation of 802.11b's 1 Mb/s
//!   mode, used only for the paper's Fig. 2 contrast experiment.
//!
//! The O-QPSK curve is famously steep: the packet success probability for
//! a ~100-byte frame transitions from ≈ 0 to ≈ 1 within about 3 dB of
//! SINR. The paper's smooth measured CPRR curves arise from per-packet
//! shadowing on top of this cliff (see [`crate::shadowing`]).

use nomc_units::Db;

/// A demodulator's SINR → BER characteristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BerModel {
    /// IEEE 802.15.4 2.4 GHz O-QPSK with DSSS (250 kb/s).
    #[default]
    Oqpsk802154,
    /// 802.11b-like DBPSK (1 Mb/s), for the Fig. 2 uniqueness comparison.
    Dsss80211b,
}

nomc_json::json_enum!(BerModel {
    Oqpsk802154 = "Oqpsk802154",
    Dsss80211b = "Dsss80211b",
});

impl BerModel {
    /// Bit-error rate at the given SINR.
    ///
    /// The result is clamped into `[0, 0.5]` (0.5 = guessing).
    #[inline]
    pub fn bit_error_rate(self, sinr: Db) -> f64 {
        let snr = sinr.to_linear();
        let ber = match self {
            BerModel::Oqpsk802154 => oqpsk_dsss_ber(snr),
            BerModel::Dsss80211b => dbpsk_ber(snr),
        };
        ber.clamp(0.0, 0.5)
    }

    /// The linear SINR `R` at or above which [`BerModel::bit_error_rate`]
    /// is exactly 0.0: the model's total-underflow bound (75 for O-QPSK,
    /// 750/5.5 for DBPSK) raised by a 76/75 margin.
    ///
    /// A caller that knows `signal ≥ R · (interference + noise)` in
    /// linear milliwatts may skip the BER evaluation outright. The 1.3 %
    /// margin dwarfs both errors between that linear comparison and the
    /// value the formula sees: the `log10`/`powf` round trip of a [`Db`]
    /// SINR (a few ulps), and the rounding of an interference sum taken
    /// in a different order or over a subset of the same terms (about
    /// n·2⁻⁵³ relative for n terms).
    pub fn error_free_sinr(self) -> f64 {
        self.underflow_snr() * 76.0 / 75.0
    }

    /// The linear SNR at which the model's formula underflows to exactly
    /// 0.0 (the shortcut in `oqpsk_dsss_ber` and `dbpsk_ber`).
    fn underflow_snr(self) -> f64 {
        match self {
            BerModel::Oqpsk802154 => OQPSK_UNDERFLOW_SNR,
            BerModel::Dsss80211b => DBPSK_UNDERFLOW_SNR,
        }
    }

    /// Probability that `bits` consecutive bits are all received correctly
    /// at the given SINR.
    ///
    /// # Examples
    ///
    /// ```
    /// use nomc_phy::BerModel;
    /// use nomc_units::Db;
    ///
    /// let m = BerModel::Oqpsk802154;
    /// // A strong signal gets a ~100-byte frame through essentially always…
    /// assert!(m.frame_success_probability(Db::new(10.0), 800) > 0.999);
    /// // …while a 0 dB collision usually still succeeds only marginally,
    /// // and a −3 dB one essentially never does.
    /// assert!(m.frame_success_probability(Db::new(-3.0), 800) < 0.01);
    /// ```
    pub fn frame_success_probability(self, sinr: Db, bits: u32) -> f64 {
        // `(1 − ber)^bits`, evaluated in the ln domain for numerical
        // stability with large frames. Exact ±0 test via bits; `ber` is
        // total here (see DESIGN.md §8).
        let ber = self.bit_error_rate(sinr);
        if ber.abs().to_bits() == 0 {
            return 1.0;
        }
        (f64::from(bits) * (1.0 - ber).ln()).exp()
    }
}

/// Linear SNR at which every term of `oqpsk_dsss_ber` underflows.
const OQPSK_UNDERFLOW_SNR: f64 = 75.0;

/// Linear SNR at which `dbpsk_ber`'s exponential underflows.
const DBPSK_UNDERFLOW_SNR: f64 = 750.0 / 5.5;

/// IEEE 802.15.4 2.4 GHz O-QPSK DSSS bit-error rate.
///
/// `BER = (8/15)·(1/16)·Σ_{k=2}^{16} (−1)^k C(16,k) e^{20·SNR·(1/k − 1)}`
/// where SNR is linear per-chip… (standard form, e.g. IEEE 802.15.4-2006
/// Annex E). The alternating sum is evaluated in f64, which is accurate in
/// the regime of interest (BER ≥ 1e-16).
fn oqpsk_dsss_ber(snr_linear: f64) -> f64 {
    const BINOM_16: [f64; 17] = [
        1.0, 16.0, 120.0, 560.0, 1820.0, 4368.0, 8008.0, 11440.0, 12870.0, 11440.0, 8008.0, 4368.0,
        1820.0, 560.0, 120.0, 16.0, 1.0,
    ];
    // Total-underflow shortcut (bit-identical, not an approximation):
    // the least negative exponent below is k = 2's, −10·SNR. At
    // SNR ≥ 75 every exponent is ≤ −750, far below ln(2⁻¹⁰⁷⁵) ≈ −745.2
    // where `exp` rounds to exactly +0.0, so every term is ±0.0 and the
    // sum is exactly 0.0 — the same value the loop would produce after
    // fifteen wasted `exp` calls. Receptions at healthy SINR (≥ ~19 dB,
    // the common case) take this path.
    if snr_linear >= OQPSK_UNDERFLOW_SNR {
        return 0.0;
    }
    let mut sum = 0.0;
    for k in 2..=16u32 {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        let exponent = 20.0 * snr_linear * (1.0 / f64::from(k) - 1.0);
        sum += sign * BINOM_16[k as usize] * exponent.exp();
    }
    (8.0 / 15.0) * (1.0 / 16.0) * sum
}

/// DBPSK bit-error rate: `0.5·e^{−SNR}` (with a small processing-gain
/// factor of 11/2 folded in to represent the Barker-code DSSS of 802.11b
/// relative to its 2 MHz noise bandwidth).
fn dbpsk_ber(snr_linear: f64) -> f64 {
    // Same total-underflow shortcut as `oqpsk_dsss_ber`: at
    // SNR ≥ 750/5.5 the exponent is ≤ −750, `exp` is exactly +0.0, and
    // 0.5·0.0 is the 0.0 the full expression would return.
    if snr_linear >= DBPSK_UNDERFLOW_SNR {
        return 0.0;
    }
    0.5 * (-(11.0 / 2.0) * snr_linear).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oqpsk_reference_points() {
        // Published reference curve values (approximate).
        let m = BerModel::Oqpsk802154;
        let b0 = m.bit_error_rate(Db::new(0.0));
        assert!((b0 - 1.8e-4).abs() < 4e-5, "BER(0 dB) ≈ 1.8e-4, got {b0}");
        let bm2 = m.bit_error_rate(Db::new(-2.0));
        assert!(bm2 > 5e-3 && bm2 < 2e-2, "BER(-2 dB) ≈ 7e-3, got {bm2}");
        assert!(m.bit_error_rate(Db::new(5.0)) < 1e-12);
    }

    #[test]
    fn underflow_shortcut_is_bit_identical() {
        // The full alternating sum with no shortcut; must agree with
        // `oqpsk_dsss_ber` *exactly* (same bits) on both sides of the
        // SNR ≥ 75 early-out.
        fn full(snr_linear: f64) -> f64 {
            const BINOM_16: [f64; 17] = [
                1.0, 16.0, 120.0, 560.0, 1820.0, 4368.0, 8008.0, 11440.0, 12870.0, 11440.0, 8008.0,
                4368.0, 1820.0, 560.0, 120.0, 16.0, 1.0,
            ];
            let mut sum = 0.0;
            for k in 2..=16u32 {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                let exponent = 20.0 * snr_linear * (1.0 / f64::from(k) - 1.0);
                sum += sign * BINOM_16[k as usize] * exponent.exp();
            }
            (8.0 / 15.0) * (1.0 / 16.0) * sum
        }
        for i in 0..600 {
            let snr = 0.25 * f64::from(i); // 0 .. 150, straddles 75
            let got = oqpsk_dsss_ber(snr);
            let want = full(snr);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "shortcut diverged at linear SNR {snr}: {got:e} vs {want:e}"
            );
        }
        assert_eq!(dbpsk_ber(750.0 / 5.5).to_bits(), 0.0f64.to_bits());
        let below: f64 = 750.0 / 5.5 - 0.01;
        assert_eq!(
            dbpsk_ber(below).to_bits(),
            (0.5 * (-(11.0 / 2.0) * below).exp()).to_bits()
        );
    }

    #[test]
    fn error_free_sinr_is_sound_and_tight() {
        use crate::sinr::sinr_linear;
        use nomc_units::{Dbm, MilliWatts};
        for model in [BerModel::Oqpsk802154, BerModel::Dsss80211b] {
            let r = model.error_free_sinr();
            let bound = model.underflow_snr();
            assert!(
                r >= bound,
                "{model:?}: R {r} below its underflow bound {bound}"
            );
            assert!(
                r <= 1.02 * bound,
                "{model:?}: R {r} looser than 1.02 × {bound}"
            );
            // Signals across the receiver's range, denominators for
            // linear ratios from R to R·10⁶: the BER seen through the dB
            // round trip must be exactly +0.0.
            for dbm in -100..=0 {
                let signal = Dbm::new(f64::from(dbm)).to_milliwatts();
                for step in 0..=600 {
                    let ratio = r * 10f64.powf(f64::from(step) / 100.0);
                    let denom = MilliWatts::new(signal.value() / ratio);
                    let ber = model.bit_error_rate(sinr_linear(signal, denom));
                    assert_eq!(
                        ber.to_bits(),
                        0.0f64.to_bits(),
                        "{model:?}: BER {ber:e} at {dbm} dBm, ratio {ratio}"
                    );
                }
            }
        }
    }

    #[test]
    fn ber_is_monotone_decreasing_in_sinr() {
        for model in [BerModel::Oqpsk802154, BerModel::Dsss80211b] {
            let mut prev = 1.0;
            for s in -20..=20 {
                let b = model.bit_error_rate(Db::new(f64::from(s)));
                assert!(b <= prev + 1e-15, "{model:?} not monotone at {s} dB");
                prev = b;
            }
        }
    }

    #[test]
    fn ber_bounded() {
        for s in [-100.0, -10.0, 0.0, 10.0, 100.0] {
            let b = BerModel::Oqpsk802154.bit_error_rate(Db::new(s));
            assert!((0.0..=0.5).contains(&b));
        }
    }

    #[test]
    fn frame_success_extremes() {
        let m = BerModel::Oqpsk802154;
        assert!(m.frame_success_probability(Db::new(20.0), 8000) > 0.999_999);
        assert!(m.frame_success_probability(Db::new(-10.0), 800) < 1e-9);
    }

    #[test]
    fn oqpsk_cliff_location() {
        // The 50% success point for a ~100-byte frame sits near -0.7 dB
        // (within 0.5 dB): this anchors the Fig. 4 calibration.
        let m = BerModel::Oqpsk802154;
        assert!(m.frame_success_probability(Db::new(-1.2), 856) < 0.5);
        assert!(m.frame_success_probability(Db::new(-0.2), 856) > 0.5);
    }

    #[test]
    fn dot11b_needs_more_sinr_headroom_shape() {
        // Both models decode easily at high SINR.
        let b = BerModel::Dsss80211b.frame_success_probability(Db::new(10.0), 8000);
        assert!(b > 0.99);
    }
}
