//! Order statistics for host timings.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the run is too short to support it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`.
///
/// # Errors
/// Refuses when fewer than [`TAIL_SAMPLES`] samples lie strictly above
/// the percentile (so p90 needs at least 100 samples).
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let Some(&value) = sorted.get(rank - 1) else {
        return Err(format!("p{:.0} of an empty sample", p * 100.0));
    };
    let beyond = sorted.iter().filter(|&&x| x > value).count();
    if beyond < TAIL_SAMPLES {
        return Err(format!(
            "p{:.0} needs {TAIL_SAMPLES} samples beyond it; {n} samples leave {beyond}",
            p * 100.0
        ));
    }
    Ok(value)
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_without_ten_samples_beyond_it() {
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            percentile(&short, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.9), Ok(90.0));
        assert!(percentile(&[], 0.5).is_err());
        // Ties at the percentile do not count as beyond it.
        let tied: Vec<f64> = (0..200).map(|i| if i < 195 { 1.0 } else { 2.0 }).collect();
        assert!(percentile(&tied, 0.9).is_err());
    }

    #[test]
    fn p50_and_median_agree_on_odd_counts() {
        let samples: Vec<f64> = (0..41).map(|i| f64::from((i * 7) % 41)).collect();
        assert_eq!(percentile(&samples, 0.5), Ok(20.0));
        assert_eq!(median(&samples), 20.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
