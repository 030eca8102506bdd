//! Order statistics over timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `q`-quantile (nearest rank on the sorted samples); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `p50 / highest percentile with at least ten samples beyond it`, with the
/// sample count, for the human-readable part of the output.
pub fn describe_ms(samples_ms: &[f64]) -> String {
    let n = samples_ms.len();
    let tail = [(0.99, "p99"), (0.95, "p95"), (0.90, "p90"), (0.75, "p75")]
        .into_iter()
        .find(|(q, _)| (n as f64 * (1.0 - q)).floor() >= 10.0);
    match tail {
        Some((q, label)) => format!(
            "p50 {:.3} ms, {label} {:.3} ms (n={n})",
            median(samples_ms),
            quantile(samples_ms, q)
        ),
        None => format!(
            "p50 {:.3} ms (n={n}, too few for a tail percentile)",
            median(samples_ms)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.95), 95.0);
        assert_eq!(quantile(&hundred, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(describe_ms(&two_hundred).contains("p95"));
        assert!(describe_ms(&two_hundred[..19]).contains("too few"));
    }
}
