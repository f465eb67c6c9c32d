//! Large-scale path-loss models.
//!
//! The paper's testbed is indoor (lab benches, office rooms, a large random
//! region for Case III). We provide the classic free-space model and the
//! log-distance model with configurable exponent; per-packet randomness is
//! layered on top by [`crate::shadowing`].

use nomc_units::{Db, Megahertz, Meters};

/// A deterministic large-scale path-loss model.
///
/// Implementors return the mean attenuation for a link of a given length.
/// Per-packet variation is *not* part of this trait — it is sampled
/// separately so that calibration of the mean and of the spread stay
/// independent.
pub trait PathLoss: Send + Sync {
    /// Mean attenuation over a link of length `distance`.
    ///
    /// Distances below the model's reference distance are clamped to it, so
    /// colocated nodes get a finite, maximal coupling instead of infinite
    /// gain.
    fn loss(&self, distance: Meters) -> Db;
}

/// Free-space (Friis) path loss.
///
/// `L(d) = 20 log10(d) + 20 log10(f) + 32.44` with `d` in km and `f` in
/// MHz; at 2.44 GHz the 1 m reference loss is ≈ 40.2 dB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSpace {
    /// Carrier frequency.
    freq_mhz: Megahertz,
    /// Minimum modelled distance (defaults to 0.1 m).
    min_distance: Meters,
}

nomc_json::json_struct!(FreeSpace {
    freq_mhz: Megahertz,
    min_distance: Meters,
});

impl FreeSpace {
    /// Free-space loss at carrier frequency `freq`.
    ///
    /// # Panics
    ///
    /// Panics if `freq` is not strictly positive.
    pub fn new(freq: Megahertz) -> Self {
        assert!(freq.value() > 0.0, "carrier frequency must be positive");
        FreeSpace {
            freq_mhz: freq,
            min_distance: Meters::new(0.1),
        }
    }
}

impl PathLoss for FreeSpace {
    fn loss(&self, distance: Meters) -> Db {
        let d_km = distance.max(self.min_distance).value() / 1000.0;
        Db::new(20.0 * d_km.log10() + 20.0 * self.freq_mhz.value().log10() + 32.44)
    }
}

/// Log-distance path loss: `L(d) = L0 + 10·n·log10(d / d0)`.
///
/// `L0` is the loss at reference distance `d0`; `n` is the path-loss
/// exponent (2 in free space, 2.5-4 indoors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    reference_loss: Db,
    reference_distance: Meters,
    exponent: f64,
}

nomc_json::json_struct!(LogDistance {
    reference_loss: Db,
    reference_distance: Meters,
    exponent: f64,
});

impl LogDistance {
    /// Creates a log-distance model.
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is not positive or `reference_distance` is zero.
    pub fn new(reference_loss: Db, reference_distance: Meters, exponent: f64) -> Self {
        assert!(exponent > 0.0, "path-loss exponent must be positive");
        assert!(
            reference_distance.value() > 0.0,
            "reference distance must be positive"
        );
        LogDistance {
            reference_loss,
            reference_distance,
            exponent,
        }
    }

    /// The indoor 2.4 GHz instance used by the reproduction's testbed-like
    /// scenarios: 40.2 dB at 1 m, exponent 3.0.
    ///
    /// With 0 dBm transmitters this puts a 2 m link at ≈ −49 dBm received
    /// power and an 8 m cross-room interferer at ≈ −67 dBm — the regime the
    /// paper's Figs. 6-10 sweep over.
    pub fn indoor_2_4ghz() -> Self {
        LogDistance::new(Db::new(40.2), Meters::new(1.0), 3.0)
    }

    /// The path-loss exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Loss at the reference distance.
    pub fn reference_loss(&self) -> Db {
        self.reference_loss
    }
}

impl PathLoss for LogDistance {
    fn loss(&self, distance: Meters) -> Db {
        let d = distance.max(self.reference_distance);
        let ratio = d.value() / self.reference_distance.value();
        self.reference_loss + Db::new(10.0 * self.exponent * ratio.log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_reference_value() {
        // Classic check: 2440 MHz at 1 m ≈ 40.2 dB.
        let l = FreeSpace::new(Megahertz::new(2440.0)).loss(Meters::new(1.0));
        assert!((l.value() - 40.2).abs() < 0.1, "got {l}");
    }

    #[test]
    fn free_space_doubles_distance_adds_6db() {
        let m = FreeSpace::new(Megahertz::new(2440.0));
        let d1 = m.loss(Meters::new(4.0));
        let d2 = m.loss(Meters::new(8.0));
        assert!(((d2 - d1).value() - 6.02).abs() < 0.01);
    }

    #[test]
    fn log_distance_exponent_scales_slope() {
        let m = LogDistance::new(Db::new(40.0), Meters::new(1.0), 3.0);
        let d1 = m.loss(Meters::new(1.0));
        let d10 = m.loss(Meters::new(10.0));
        assert!(((d10 - d1).value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn distances_below_reference_clamp() {
        let m = LogDistance::indoor_2_4ghz();
        assert_eq!(m.loss(Meters::new(0.0)), m.loss(Meters::new(1.0)));
        assert_eq!(m.loss(Meters::new(0.5)), m.loss(Meters::new(1.0)));
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        let m = LogDistance::indoor_2_4ghz();
        let mut prev = m.loss(Meters::new(1.0));
        for d in [2.0, 3.0, 5.0, 8.0, 13.0, 21.0] {
            let l = m.loss(Meters::new(d));
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn zero_exponent_rejected() {
        let _ = LogDistance::new(Db::new(40.0), Meters::new(1.0), 0.0);
    }

    #[test]
    fn trait_object_usable() {
        let models: Vec<Box<dyn PathLoss>> = vec![
            Box::new(FreeSpace::new(Megahertz::new(2440.0))),
            Box::new(LogDistance::indoor_2_4ghz()),
        ];
        for m in &models {
            assert!(m.loss(Meters::new(5.0)).value() > 0.0);
        }
    }
}
