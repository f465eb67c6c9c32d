//! Order statistics and failure accounting for the benchmark's reports.

use std::collections::BTreeMap;

/// Fewest samples a reported tail percentile must leave beyond it: a
/// p90 over fewer than 100 samples rests on a single slow outlier or
/// two and is not reported as a p90.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0 < p < 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method); `None` below two
/// samples. The driver of a benchmark run judges spread this way, so the
/// benchmark's own spread report uses the same definition.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i as f64 + 1.0) * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

/// The highest whole percentile that still leaves
/// [`TAIL_SAMPLES_BEYOND`] samples above it, for `n` samples; `None`
/// when no percentile does (fewer than 11 samples).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let beyond = TAIL_SAMPLES_BEYOND as f64 / n as f64;
    Some(((1.0 - beyond) * 100.0).floor() as u32)
}

/// Whether `n` samples are enough to report the `p`-th percentile.
pub fn supports_percentile(n: usize, p: u32) -> bool {
    highest_supported_percentile(n).is_some_and(|top| top >= p)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Why one attempted operation did not count as a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The program panicked.
    Panic,
    /// An output differed from its reference (digest, byte identity,
    /// thread-count or traced-vs-untraced agreement).
    Mismatch,
    /// An event budget ran out before the run finished.
    BudgetExhausted,
    /// The server answered outside 2xx.
    Status(u16),
    /// The server shed the request (429).
    Shed,
    /// The server refused the request while draining or over its
    /// connection cap (503).
    Unavailable,
    /// No complete answer arrived within the client deadline, or the
    /// connection broke.
    Timeout,
}

impl Failure {
    /// Classifies an HTTP status; `None` for success.
    pub fn from_status(status: u16) -> Option<Failure> {
        match status {
            200..=299 => None,
            429 => Some(Failure::Shed),
            503 => Some(Failure::Unavailable),
            other => Some(Failure::Status(other)),
        }
    }

    fn label(self) -> String {
        match self {
            Failure::Panic => "panic".into(),
            Failure::Mismatch => "mismatch".into(),
            Failure::BudgetExhausted => "budget_exhausted".into(),
            Failure::Status(code) => format!("http_{code}"),
            Failure::Shed => "http_429".into(),
            Failure::Unavailable => "http_503".into(),
            Failure::Timeout => "timeout".into(),
        }
    }
}

/// Attempted and failed operations, with failures broken down by cause.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    failures: BTreeMap<Failure, u64>,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one attempt and its outcome.
    pub fn record(&mut self, outcome: Result<(), (Failure, String)>) {
        self.attempted += 1;
        if let Err((failure, note)) = outcome {
            *self.failures.entry(failure).or_default() += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{}: {note}", failure.label()));
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (failure, count) in other.failures {
            *self.failures.entry(failure).or_default() += count;
        }
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Failed operations of every cause.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failures of one cause.
    pub fn count(&self, failure: Failure) -> u64 {
        self.failures.get(&failure).copied().unwrap_or(0)
    }

    /// Failed over attempted operations (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// `cause=count` pairs for the report.
    pub fn breakdown(&self) -> String {
        let parts: Vec<String> = self
            .failures
            .iter()
            .map(|(f, n)| format!("{}={n}", f.label()))
            .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // Python extrapolates past the extremes for tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), Some([1.0, 5.0, 9.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert!(!supports_percentile(99, 90));
        assert!(supports_percentile(100, 90));
    }

    #[test]
    fn refusals_and_timeouts_count_as_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        for status in [200u16, 202, 429, 503, 500] {
            t.record(Failure::from_status(status).map_or(Ok(()), |f| Err((f, String::new()))));
        }
        t.record(Err((Failure::Timeout, "read deadline".into())));
        assert_eq!(t.attempted, 7);
        assert_eq!(t.failed(), 4);
        assert_eq!(t.count(Failure::Shed), 1);
        assert_eq!(t.count(Failure::Unavailable), 1);
        assert_eq!(t.count(Failure::Timeout), 1);
        assert!((t.failed_frac() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.breakdown(), "http_500=1 http_429=1 http_503=1 timeout=1");

        let mut other = Tally::default();
        other.record(Err((Failure::Mismatch, "digest".into())));
        t.merge(other);
        assert_eq!((t.attempted, t.failed()), (8, 5));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
