//! Simulated time.
//!
//! The discrete-event simulator uses integer nanoseconds so event ordering
//! is exact and platform-independent. An IEEE 802.15.4 symbol at 2.4 GHz is
//! 16 µs, so nanosecond resolution leaves ample headroom for sub-symbol
//! bookkeeping while `u64` still covers ~584 years of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock (nanoseconds since start).
///
/// # Examples
///
/// ```
/// use nomc_units::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_nanos(), 3_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

nomc_json::json_newtype!(SimTime: u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

nomc_json::json_newtype!(SimDuration: u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after the epoch.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds after the epoch.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, which is
    /// convenient for defensive metric code.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` for the empty duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracting a later SimTime from an earlier one"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow (before the epoch).
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A measured wall- or simulated-time span in fractional seconds.
///
/// Unlike [`SimDuration`] (exact integer nanoseconds for event
/// ordering), `Seconds` is the *reporting* unit: sweep reports and
/// experiment summaries that already live in the floating domain. The
/// JSON form is the raw `f64` (via `json_newtype!`), so adopting the
/// newtype changes no serialized bytes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

nomc_json::json_newtype!(Seconds: f64);

impl Seconds {
    /// Wraps a raw fractional-seconds value.
    #[inline]
    pub const fn new(secs: f64) -> Self {
        Seconds(secs)
    }

    /// The raw fractional-seconds value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// A measured wall-clock duration in fractional nanoseconds.
///
/// The bench harness reports `mean_ns`/`min_ns`/`max_ns` as fractional
/// nanoseconds (a mean over iterations is not integral); the newtype
/// keeps those from mixing with other raw floats. JSON form is the raw
/// `f64`, so committed `BENCH_*.json` files are byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanos(f64);

nomc_json::json_newtype!(Nanos: f64);

impl Nanos {
    /// Wraps a raw fractional-nanoseconds value.
    #[inline]
    pub const fn new(ns: f64) -> Self {
        Nanos(ns)
    }

    /// The raw fractional-nanoseconds value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}us", self.0 as f64 / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn add_duration_advances_clock() {
        let t = SimTime::from_millis(5) + SimDuration::from_micros(320);
        assert_eq!(t.as_nanos(), 5_320_000);
    }

    #[test]
    fn subtracting_times_gives_duration() {
        let d = SimTime::from_secs(2) - SimTime::from_secs(1);
        assert_eq!(d, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let d = SimTime::from_secs(1).saturating_since(SimTime::from_secs(2));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn duration_ratio() {
        let airtime = SimDuration::from_micros(4256);
        let second = SimDuration::from_secs(1);
        let max_rate = second / airtime;
        assert!((max_rate - 234.96).abs() < 0.1);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_millis(3),
            SimTime::ZERO,
            SimTime::from_micros(1),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_millis(3));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SimTime::ZERO.to_string().is_empty());
        assert!(SimDuration::from_micros(128).to_string().contains("us"));
        assert!(SimDuration::from_millis(3).to_string().contains("ms"));
        assert!(SimDuration::from_secs(3).to_string().contains('s'));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
