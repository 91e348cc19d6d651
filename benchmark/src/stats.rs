//! Quantiles from raw samples.
//!
//! Every timing the benchmark reports is a quantile of the samples it
//! took itself — never an estimate read back from a log2 histogram — and a
//! tail percentile is reported only when at least [`TAIL_MARGIN`] samples
//! lie beyond it, so a p90 needs 100 samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// Nearest-rank quantile of `samples` (`0 < q <= 1`): the smallest sample
/// with at least `q` of the samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Tail quantile under the "ten samples beyond" rule: refuses unless at
/// least [`TAIL_MARGIN`] samples rank above the reported one.
pub fn tail_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(if n == 0 { 0 } else { rank(n, q) });
    if beyond < TAIL_MARGIN {
        return Err(format!(
            "p{:.0} refused: {n} samples leave {beyond} beyond it, need {TAIL_MARGIN}",
            q * 100.0
        ));
    }
    Ok(quantile(samples, q))
}

/// Quantile counted from the fast end, the mirror image of [`quantile`]:
/// the largest sample with at least `1 - q` of the samples at or above it.
/// The p10 of 100 samples is the 11th smallest.
pub fn low_quantile(samples: &[f64], q: f64) -> f64 {
    let mirrored: Vec<f64> = samples.iter().map(|x| -x).collect();
    -quantile(&mirrored, 1.0 - q)
}

/// [`low_quantile`] under the "ten samples beyond" rule: refuses unless at
/// least [`TAIL_MARGIN`] samples rank below the reported one.
pub fn low_tail_quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let mirrored: Vec<f64> = samples.iter().map(|x| -x).collect();
    match tail_quantile(&mirrored, 1.0 - q) {
        Ok(x) => Ok(-x),
        Err(_) => Err(format!(
            "p{:.0} refused: {} samples leave fewer than {TAIL_MARGIN} below it",
            q * 100.0,
            samples.len()
        )),
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The small slack keeps 0.9 * 100 (= 90.00000000000001 in binary)
    // from rounding up to rank 91.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_of_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.9), Ok(90.0));
        assert!(tail_quantile(&v[..99], 0.9).is_err());
        assert!(tail_quantile(&[], 0.9).is_err());
        // p50 of 20 samples has exactly ten beyond it.
        assert_eq!(tail_quantile(&v[..20], 0.5), Ok(10.0));
        assert!(tail_quantile(&v[..19], 0.5).is_err());
    }

    #[test]
    fn p10_needs_ten_samples_below_it() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(low_tail_quantile(&v, 0.1), Ok(11.0));
        assert!(low_tail_quantile(&v[..99], 0.1).is_err());
        assert!(low_tail_quantile(&[], 0.1).is_err());
        assert_eq!(low_quantile(&v[..20], 0.1), 83.0);
        assert_eq!(low_quantile(&[3.0], 0.1), 3.0);
    }
}
