//! Error-bit statistics: empirical CDFs for the paper's Fig. 29.

/// Empirical CDF of `values`: returns sorted `(x, F(x))` points where
/// `F(x)` is the fraction of values ≤ `x`.
///
/// # Examples
///
/// ```
/// let cdf = nomc_recovery::ecdf(&[0.2, 0.1, 0.4]);
/// assert_eq!(cdf.len(), 3);
/// assert_eq!(cdf[0], (0.1, 1.0 / 3.0));
/// assert_eq!(cdf[2], (0.4, 1.0));
/// ```
// nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
pub fn ecdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (x, (i + 1) as f64 / n))
        .collect()
}

/// Fraction of values at or below `threshold` — the paper reads
/// `fraction_at_or_below(fractions, 0.1) ≈ 0.87` off its Fig. 29.
///
/// Returns `None` for an empty input.
pub fn fraction_at_or_below(values: &[f64], threshold: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let count = values.iter().filter(|&&v| v <= threshold).count();
    Some(count as f64 / values.len() as f64)
}

/// PPR-style recoverability by error fraction: a frame whose error bits
/// are at most `max_fraction` of its total is worth patching (chunk
/// retransmission or soft-decoding) instead of a full retransmission —
/// the criterion the paper's Fig. 28 "Recoverable" line uses.
pub fn recoverable_by_fraction(error_fraction: f64, max_fraction: f64) -> bool {
    error_fraction <= max_fraction
}

/// Summary of a set of error-bit fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBitSummary {
    /// Number of CRC-failed frames observed.
    pub count: usize,
    /// Mean error-bit fraction.
    pub mean: f64,
    /// Median error-bit fraction.
    pub median: f64,
    /// Fraction of frames with ≤ 10 % error bits (the paper's headline).
    pub at_most_10_percent: f64,
}

/// Summarizes error-bit fractions.
///
/// Returns `None` for an empty input.
// nomc-lint: allow(test-only-api) — no production caller; deleted with its tests later
pub fn summarize(fractions: &[f64]) -> Option<ErrorBitSummary> {
    if fractions.is_empty() {
        return None;
    }
    let mut sorted = fractions.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    Some(ErrorBitSummary {
        count: n,
        mean: sorted.iter().sum::<f64>() / n as f64,
        median: if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        },
        at_most_10_percent: fraction_at_or_below(&sorted, 0.1).expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_is_monotone_and_ends_at_one() {
        let cdf = ecdf(&[0.5, 0.1, 0.3, 0.3]);
        assert_eq!(cdf.len(), 4);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn ecdf_empty() {
        assert!(ecdf(&[]).is_empty());
    }

    #[test]
    fn fraction_at_or_below_counts_inclusively() {
        let v = [0.05, 0.1, 0.2, 0.5];
        assert_eq!(fraction_at_or_below(&v, 0.1), Some(0.5));
        assert_eq!(fraction_at_or_below(&v, 0.04), Some(0.0));
        assert_eq!(fraction_at_or_below(&v, 1.0), Some(1.0));
        assert_eq!(fraction_at_or_below(&[], 0.1), None);
    }

    #[test]
    fn fraction_criterion() {
        assert!(recoverable_by_fraction(0.05, 0.25));
        assert!(recoverable_by_fraction(0.25, 0.25));
        assert!(!recoverable_by_fraction(0.3, 0.25));
    }

    #[test]
    fn summary_values() {
        let s = summarize(&[0.02, 0.05, 0.08, 0.3]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.median - 0.065).abs() < 1e-12);
        assert!((s.at_most_10_percent - 0.75).abs() < 1e-12);
        assert!((s.mean - 0.1125).abs() < 1e-12);
        assert_eq!(summarize(&[]), None);
    }
}
