//! A quantized lookup table for the ACR leakage kernel, bit-exact by
//! construction.
//!
//! The ACR leakage factor (piecewise-linear interpolation plus a
//! `powf`, see [`crate::coupling`]) is a pure function whose inputs, in
//! the workloads that hammer it, come from a small *grid*:
//! centre-frequency distances are differences of channel-plan
//! frequencies, i.e. multiples of the channel spacing.
//!
//! [`AcrLut`] precomputes the analytic result over such a quantized
//! grid under one contract: **a lookup input that reconstructs a grid
//! point bit-for-bit returns the precomputed entry; any other input
//! falls back to the analytic evaluation.** Because every table entry
//! was itself produced by the analytic code on the identical input
//! bits, the table is an *identity-preserving cache*, not an
//! approximation — for every possible input, on-grid or off, the result
//! carries exactly the bits the direct computation would have produced.
//! The `acr_lut_is_bit_exact` test below pins that contract the same
//! way `underflow_shortcut_is_bit_identical` pins the early-outs in
//! [`crate::ber`].
//!
//! Grid-hit detection is exact, not tolerance-based: the candidate
//! index is recovered by division, then the grid point is re-derived
//! with the same `i·step` expression used at build time and compared
//! to the input via [`f64::to_bits`]. The default step is a negative
//! power of two, so grid points built that way are exact in f64 and
//! inputs generated by the same arithmetic hit reliably; any rounding
//! mismatch merely demotes a lookup to the analytic path.

use crate::coupling::AcrCurve;
use nomc_units::{Db, Megahertz};

/// Recovers the grid index of `v` on the grid `i·step` (`i < len`),
/// or `None` unless the reconstructed grid point equals `v`
/// bit-for-bit. NaN and out-of-range inputs never match.
#[inline]
fn grid_index(v: f64, step: f64, len: usize) -> Option<usize> {
    let idx = v / step;
    if !(idx >= 0.0 && idx < len as f64) {
        return None;
    }
    // Truncation floors the candidate; the bitwise reconstruction check
    // below rejects anything that is not exactly a grid point, so a
    // division that rounds across an integer boundary only costs the
    // shortcut, never correctness.
    let i = idx as usize;
    if (i as f64 * step).to_bits() == v.to_bits() {
        Some(i)
    } else {
        None
    }
}

/// An [`AcrCurve`] with its leakage factor and rejection precomputed
/// over a quantized CFD grid.
///
/// Centre-frequency distances in a running network are differences of
/// channel-plan frequencies — multiples of the channel spacing — so a
/// small table over multiples of 0.25 MHz catches essentially every
/// query on integer-, half-, and quarter-MHz plans. Off-grid CFDs (and
/// anything past the tabulated range) fall back to the analytic curve;
/// see the module docs for the bit-exactness contract.
///
/// # Examples
///
/// ```
/// use nomc_phy::{AcrCurve, AcrLut};
/// use nomc_units::Megahertz;
///
/// let curve = AcrCurve::cc2420_calibrated();
/// let lut = AcrLut::new(curve.clone());
/// for mhz in [0.0, 3.0, -5.0, 1.37] {
///     assert_eq!(
///         lut.leakage_factor(Megahertz::new(mhz)).to_bits(),
///         curve.leakage_factor(Megahertz::new(mhz)).to_bits(),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AcrLut {
    curve: AcrCurve,
    /// Grid step, MHz.
    step: f64,
    /// `leakage[i] = curve.leakage_factor(i·step)`.
    leakage: Vec<f64>,
    /// `rejection[i] = curve.rejection(i·step)` in dB.
    rejection: Vec<f64>,
}

impl AcrLut {
    /// Tabulates `curve` on a 0.25 MHz grid from 0 out past
    /// [`AcrCurve::saturation_cfd`].
    pub fn new(curve: AcrCurve) -> Self {
        AcrLut::with_step(curve, Megahertz::new(0.25))
    }

    /// Tabulates `curve` on a `step` grid from 0 out past the curve's
    /// saturation CFD (plus one spare point, so the saturation CFD
    /// itself is always on the grid when it is a grid multiple).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not finite and positive.
    pub fn with_step(curve: AcrCurve, step: Megahertz) -> Self {
        let step = step.value();
        assert!(
            step.is_finite() && step > 0.0,
            "grid step must be finite and positive"
        );
        let len = (curve.saturation_cfd().value() / step).ceil() as usize + 2;
        let leakage = (0..len)
            .map(|i| curve.leakage_factor(Megahertz::new(i as f64 * step)))
            .collect();
        let rejection = (0..len)
            .map(|i| curve.rejection(Megahertz::new(i as f64 * step)).value())
            .collect();
        AcrLut {
            curve,
            step,
            leakage,
            rejection,
        }
    }

    /// The tabulated curve.
    pub fn curve(&self) -> &AcrCurve {
        &self.curve
    }

    /// Grid index for `cfd`, if its magnitude lands exactly on the
    /// grid. The analytic curve is symmetric in CFD (it takes
    /// `abs()` first), so negative inputs index by magnitude — the
    /// table value is the analytic value for the signed input too.
    #[inline]
    fn index_of(&self, cfd: Megahertz) -> Option<usize> {
        grid_index(cfd.value().abs(), self.step, self.leakage.len())
    }

    /// Linear leakage factor at `cfd`; table read on a grid hit,
    /// analytic [`AcrCurve::leakage_factor`] otherwise. Identical bits
    /// either way.
    #[inline]
    pub fn leakage_factor(&self, cfd: Megahertz) -> f64 {
        match self.index_of(cfd) {
            Some(i) => self.leakage[i],
            None => self.curve.leakage_factor(cfd),
        }
    }

    /// Rejection at `cfd`; table read on a grid hit, analytic
    /// [`AcrCurve::rejection`] otherwise. Identical bits either way.
    #[inline]
    pub fn rejection(&self, cfd: Megahertz) -> Db {
        match self.index_of(cfd) {
            Some(i) => Db::new(self.rejection[i]),
            None => self.curve.rejection(cfd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acr_lut_is_bit_exact() {
        for curve in [
            AcrCurve::cc2420_calibrated(),
            AcrCurve::dot11b_like(),
            AcrCurve::from_points(vec![(0.0, 0.0), (0.5, 300.0)]).expect("valid"),
        ] {
            let lut = AcrLut::new(curve.clone());
            let sat = curve.saturation_cfd().value();
            // Channel-plan CFDs: every multiple of 0.25 MHz out past
            // saturation, both signs, must hit the table.
            let grid_pts = (sat / 0.25) as usize + 2;
            for i in 0..grid_pts {
                for sign in [1.0, -1.0] {
                    let cfd = Megahertz::new(sign * i as f64 * 0.25);
                    assert!(lut.index_of(cfd).is_some(), "grid miss at {cfd}");
                    assert_eq!(
                        lut.leakage_factor(cfd).to_bits(),
                        curve.leakage_factor(cfd).to_bits(),
                        "leakage at {cfd} diverged"
                    );
                    assert_eq!(
                        lut.rejection(cfd).value().to_bits(),
                        curve.rejection(cfd).value().to_bits(),
                        "rejection at {cfd} diverged"
                    );
                }
            }
            // Off-grid CFDs (incommensurate stride) fall back,
            // bit-identically.
            for i in 0..500 {
                let cfd = Megahertz::new(-2.0 + f64::from(i) * 0.037);
                assert_eq!(
                    lut.leakage_factor(cfd).to_bits(),
                    curve.leakage_factor(cfd).to_bits(),
                    "off-grid leakage at {cfd} diverged"
                );
                assert_eq!(
                    lut.rejection(cfd).value().to_bits(),
                    curve.rejection(cfd).value().to_bits(),
                    "off-grid rejection at {cfd} diverged"
                );
            }
        }
    }

    #[test]
    fn acr_lut_handles_signed_zero_and_range_edges() {
        let curve = AcrCurve::cc2420_calibrated();
        let lut = AcrLut::new(curve.clone());
        for v in [0.0, -0.0] {
            let cfd = Megahertz::new(v);
            assert!(lut.index_of(cfd).is_some());
            assert_eq!(
                lut.leakage_factor(cfd).to_bits(),
                curve.leakage_factor(cfd).to_bits()
            );
        }
        // Far past saturation: off the table, still identical via
        // fallback (the analytic curve clamps to its last point).
        let far = Megahertz::new(80.0);
        assert!(lut.index_of(far).is_none());
        assert_eq!(
            lut.leakage_factor(far).to_bits(),
            curve.leakage_factor(far).to_bits()
        );
    }

    #[test]
    fn custom_grids_are_validated() {
        let r = std::panic::catch_unwind(|| {
            AcrLut::with_step(AcrCurve::cc2420_calibrated(), Megahertz::new(-1.0))
        });
        assert!(r.is_err(), "negative step must be rejected");
        let r = std::panic::catch_unwind(|| {
            AcrLut::with_step(AcrCurve::cc2420_calibrated(), Megahertz::new(f64::NAN))
        });
        assert!(r.is_err(), "NaN step must be rejected");
    }
}
