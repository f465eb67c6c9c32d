//! Error-bit statistics for the paper's Figs. 28-29.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
