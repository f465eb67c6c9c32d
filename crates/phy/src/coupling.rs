//! Spectral coupling between channels: the adjacent-channel-rejection
//! (ACR) curve.
//!
//! This curve is the physical heart of the paper. An 802.15.4 O-QPSK
//! signal occupies roughly 2 MHz; a receiver's channel filter attenuates
//! energy whose centre frequency is offset from its own. The paper's
//! Fig. 4 (collided-packet receive rate vs. CFD) is the composition of
//! this rejection curve with the steep DSSS BER curve; the default table
//! here is calibrated so that the simulated Fig. 4 reproduces the measured
//! one (CPRR ≈ 100 % at CFD ≥ 4 MHz, ≈ 97 % at 3 MHz, ≈ 70 % at 2 MHz,
//! < 20 % at 1 MHz, given the paper's testbed-like geometry).

use nomc_units::{Db, Megahertz};

/// Receiver channel-filter rejection as a function of centre-frequency
/// distance (CFD).
///
/// Monotone non-decreasing, piecewise-linear between sample points; CFDs
/// beyond the last point use the last rejection (the "orthogonal" floor).
///
/// # Examples
///
/// ```
/// use nomc_phy::coupling::AcrCurve;
/// use nomc_units::Megahertz;
///
/// let acr = AcrCurve::cc2420_calibrated();
/// assert_eq!(acr.rejection(Megahertz::new(0.0)).value(), 0.0);
/// // Rejection grows with CFD:
/// assert!(acr.rejection(Megahertz::new(3.0)) > acr.rejection(Megahertz::new(2.0)));
/// // Far channels are orthogonal:
/// assert_eq!(
///     acr.rejection(Megahertz::new(9.0)),
///     acr.rejection(Megahertz::new(25.0))
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcrCurve {
    /// `(cfd_mhz, rejection_db)` pairs, strictly increasing in CFD.
    points: Vec<(f64, f64)>,
}

nomc_json::json_struct!(AcrCurve {
    points: Vec<(f64, f64)>,
});

impl AcrCurve {
    /// The default curve, calibrated against the paper's Fig. 4 with the
    /// CC2420 datasheet as a sanity bound (adjacent-channel rejection
    /// ≈ 30 dB at 5 MHz, ≈ 53 dB alternate-channel).
    ///
    /// | CFD (MHz) | 0 | 1   | 2  | 3  | 4  | 5  | 6  | 7  | 8  | ≥9 |
    /// |-----------|---|-----|----|----|----|----|----|----|----|----|
    /// | rejection | 0 | 1.5 | 10 | 20 | 28 | 33 | 38 | 42 | 46 | 50 |
    pub fn cc2420_calibrated() -> Self {
        AcrCurve::from_points(vec![
            (0.0, 0.0),
            (1.0, 1.5),
            (2.0, 10.0),
            (3.0, 20.0),
            (4.0, 28.0),
            (5.0, 33.0),
            (6.0, 38.0),
            (7.0, 42.0),
            (8.0, 46.0),
            (9.0, 50.0),
        ])
        .expect("built-in table is valid")
    }

    /// An 802.11b-like rejection curve, for the paper's Fig. 2 contrast
    /// experiment: 11 MHz-wide DSSS signals on a 5 MHz channel grid
    /// overlap heavily, so rejection grows far more slowly with CFD than
    /// an 802.15.4 channel filter's (a packet three channels — 15 MHz —
    /// away still couples strongly enough to capture the correlator,
    /// per Mishra et al.).
    pub fn dot11b_like() -> Self {
        AcrCurve::from_points(vec![
            (0.0, 0.0),
            (5.0, 2.0),
            (10.0, 8.0),
            (15.0, 18.0),
            (20.0, 35.0),
            (25.0, 50.0),
        ])
        .expect("built-in table is valid")
    }

    /// Builds a curve from `(cfd_mhz, rejection_db)` sample points.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two points are given, if CFDs are not
    /// strictly increasing starting at 0, or if rejections are negative or
    /// decreasing (a channel filter cannot amplify off-channel energy).
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self, AcrCurveError> {
        if points.len() < 2 {
            return Err(AcrCurveError::TooFewPoints(points.len()));
        }
        if points[0].0.abs().to_bits() != 0 {
            return Err(AcrCurveError::MustStartAtZero(points[0].0));
        }
        for w in points.windows(2) {
            let ((c0, r0), (c1, r1)) = (w[0], w[1]);
            if c1 <= c0 {
                return Err(AcrCurveError::NonIncreasingCfd(c0, c1));
            }
            if r1 < r0 {
                return Err(AcrCurveError::DecreasingRejection(c1));
            }
        }
        if points
            .iter()
            .any(|&(c, r)| !c.is_finite() || !r.is_finite() || r < 0.0)
        {
            return Err(AcrCurveError::InvalidValue);
        }
        Ok(AcrCurve { points })
    }

    /// Rejection at the given centre-frequency distance.
    ///
    /// Piecewise-linear between sample points; clamped to the final value
    /// beyond the table.
    pub fn rejection(&self, cfd: Megahertz) -> Db {
        let c = cfd.value().abs();
        let last = self.points.len() - 1;
        if c >= self.points[last].0 {
            return Db::new(self.points[last].1);
        }
        // Find the bracketing segment. The table is tiny (≈10 points), so a
        // linear scan beats binary search in practice.
        for w in self.points.windows(2) {
            let ((c0, r0), (c1, r1)) = (w[0], w[1]);
            if c >= c0 && c <= c1 {
                let t = (c - c0) / (c1 - c0);
                return Db::new(r0 + t * (r1 - r0));
            }
        }
        unreachable!("cfd {c} not bracketed by a validated table");
    }

    /// The linear power fraction that leaks through the filter at `cfd`
    /// (i.e. `10^(-rejection/10)`), convenient for interference sums.
    pub fn leakage_factor(&self, cfd: Megahertz) -> f64 {
        (-self.rejection(cfd)).to_linear()
    }

    /// The CFD beyond which rejection saturates (the "orthogonality"
    /// distance of this curve).
    pub fn saturation_cfd(&self) -> Megahertz {
        Megahertz::new(self.points[self.points.len() - 1].0)
    }

    /// The sample points `(cfd_mhz, rejection_db)` defining the curve.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl Default for AcrCurve {
    fn default() -> Self {
        AcrCurve::cc2420_calibrated()
    }
}

/// Errors constructing an [`AcrCurve`].
#[derive(Debug, Clone, PartialEq)]
pub enum AcrCurveError {
    /// Fewer than two sample points were provided.
    TooFewPoints(usize),
    /// The first sample point is not at CFD = 0.
    MustStartAtZero(f64),
    /// CFDs are not strictly increasing.
    NonIncreasingCfd(f64, f64),
    /// Rejection decreases with CFD.
    DecreasingRejection(f64),
    /// A non-finite or negative value was provided.
    InvalidValue,
}

impl std::fmt::Display for AcrCurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcrCurveError::TooFewPoints(n) => {
                write!(f, "ACR curve needs at least two points, got {n}")
            }
            AcrCurveError::MustStartAtZero(c) => {
                write!(f, "ACR curve must start at CFD 0, got {c}")
            }
            AcrCurveError::NonIncreasingCfd(a, b) => {
                write!(
                    f,
                    "ACR curve CFDs must be strictly increasing ({a} then {b})"
                )
            }
            AcrCurveError::DecreasingRejection(c) => {
                write!(f, "ACR rejection decreases at CFD {c}")
            }
            AcrCurveError::InvalidValue => write!(f, "ACR curve contains an invalid value"),
        }
    }
}

impl std::error::Error for AcrCurveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_calibrated() {
        assert_eq!(AcrCurve::default(), AcrCurve::cc2420_calibrated());
    }

    #[test]
    fn cochannel_has_zero_rejection() {
        let acr = AcrCurve::cc2420_calibrated();
        assert_eq!(acr.rejection(Megahertz::new(0.0)), Db::ZERO);
    }

    #[test]
    fn rejection_is_monotone() {
        let acr = AcrCurve::cc2420_calibrated();
        let mut prev = Db::new(-1.0);
        for tenths in 0..=120 {
            let r = acr.rejection(Megahertz::new(tenths as f64 / 10.0));
            assert!(r >= prev, "not monotone at {tenths} tenths");
            prev = r;
        }
    }

    #[test]
    fn interpolation_between_points() {
        let acr = AcrCurve::cc2420_calibrated();
        // Halfway between (2,10) and (3,20) is 15 dB.
        let mid = acr.rejection(Megahertz::new(2.5));
        assert!((mid.value() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn saturates_beyond_table() {
        let acr = AcrCurve::cc2420_calibrated();
        assert_eq!(acr.rejection(Megahertz::new(9.0)), Db::new(50.0));
        assert_eq!(acr.rejection(Megahertz::new(40.0)), Db::new(50.0));
        assert_eq!(acr.saturation_cfd(), Megahertz::new(9.0));
    }

    #[test]
    fn leakage_factor_matches_rejection() {
        let acr = AcrCurve::cc2420_calibrated();
        let f = acr.leakage_factor(Megahertz::new(3.0));
        assert!(
            (f - 0.01).abs() < 1e-9,
            "20 dB rejection = 1% leakage, got {f}"
        );
    }

    #[test]
    fn ideal_orthogonal_kills_offchannel() {
        let acr = AcrCurve::from_points(vec![(0.0, 0.0), (0.5, 300.0)]).expect("valid");
        assert_eq!(acr.rejection(Megahertz::new(0.0)), Db::ZERO);
        assert!(acr.leakage_factor(Megahertz::new(1.0)) < 1e-29);
    }

    #[test]
    fn dot11b_curve_is_flatter_than_cc2420() {
        let wifi = AcrCurve::dot11b_like();
        let zig = AcrCurve::cc2420_calibrated();
        for mhz in [3.0, 5.0, 10.0, 15.0] {
            assert!(
                wifi.rejection(Megahertz::new(mhz)) < zig.rejection(Megahertz::new(mhz)),
                "at {mhz} MHz"
            );
        }
    }

    #[test]
    fn rejects_bad_tables() {
        assert_eq!(
            AcrCurve::from_points(vec![(0.0, 0.0)]),
            Err(AcrCurveError::TooFewPoints(1))
        );
        assert_eq!(
            AcrCurve::from_points(vec![(1.0, 0.0), (2.0, 1.0)]),
            Err(AcrCurveError::MustStartAtZero(1.0))
        );
        assert_eq!(
            AcrCurve::from_points(vec![(0.0, 0.0), (0.0, 1.0)]),
            Err(AcrCurveError::NonIncreasingCfd(0.0, 0.0))
        );
        assert_eq!(
            AcrCurve::from_points(vec![(0.0, 5.0), (1.0, 1.0)]),
            Err(AcrCurveError::DecreasingRejection(1.0))
        );
    }

    #[test]
    fn error_display_nonempty() {
        let e = AcrCurve::from_points(vec![]).unwrap_err();
        assert!(!e.to_string().is_empty());
    }
}
