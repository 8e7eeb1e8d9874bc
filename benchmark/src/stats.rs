//! Medians and percentiles over repetitions.

/// Median of a non-empty sample (mean of the two middle values when even).
///
/// # Panics
/// Panics on an empty sample: every caller has run at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q` quantile (0 < q < 1) of one repetition's samples, by linear
/// interpolation between closest ranks.
///
/// # Errors
/// Fewer than ten samples lie beyond the quantile: a percentile is only
/// reported when the sample supports it.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let beyond = q.max(1.0 - q);
    let tail = samples.len() as f64 * (1.0 - beyond);
    if tail < 10.0 {
        return Err(format!(
            "p{:.0} of {} samples has only {tail:.1} beyond it (need 10)",
            q * 100.0,
            samples.len()
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    Ok(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// The quantile of each repetition, then the median across repetitions, so
/// one disturbed repetition cannot move the result.
///
/// # Errors
/// Any repetition has too few samples for the quantile.
pub fn median_of_quantiles(reps: &[Vec<f64>], q: f64) -> Result<f64, String> {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| quantile(r, q))
        .collect::<Result<_, _>>()?;
    Ok(median(&per_rep))
}

/// `(max − min) ÷ median`: how far apart the repetitions of one run were.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_and_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.5), Ok(49.5));
        // p95 of 100 samples has 5 beyond it; of 200 it has 10.
        assert!(quantile(&hundred, 0.95).is_err());
        let two_hundred: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = quantile(&two_hundred, 0.95).unwrap();
        assert!((p95 - 189.05).abs() < 1e-9, "{p95}");
        assert!(
            quantile(&hundred[..19], 0.5).is_err(),
            "p50 needs 20 samples"
        );
    }

    #[test]
    fn quantile_per_repetition_then_median_resists_one_bad_repetition() {
        let calm: Vec<f64> = (0..200).map(|i| 1.0 + f64::from(i) / 1000.0).collect();
        let disturbed: Vec<f64> = calm.iter().map(|x| x * 10.0).collect();
        let reps = vec![calm.clone(), disturbed, calm.clone()];
        let got = median_of_quantiles(&reps, 0.95).unwrap();
        assert_eq!(got, quantile(&calm, 0.95).unwrap());
        let thin = vec![calm, vec![1.0; 5]];
        assert!(median_of_quantiles(&thin, 0.95).is_err());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
    }
}
