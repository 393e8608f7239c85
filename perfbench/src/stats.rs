//! Order statistics for latency samples.

/// Percentiles the tail figure may report, highest first. A run reports
/// the highest one that leaves at least [`TAIL_BEYOND`] samples above
/// it; the ladder is coarse so that runs of one workload, whose sample
/// counts differ by a few percent, land on the same percentile.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of `samples`: `(Some(p), value)` for the highest percentile
/// `p` of [`TAIL_LADDER`] with at least [`TAIL_BEYOND`] samples beyond
/// it (nearest-rank definition), or `(None, median)` when no rung
/// qualifies — with fewer than 40 samples a "tail" would be a handful
/// of points, so the median stands in.
pub fn tail(samples: &[f64]) -> (Option<f64>, f64) {
    let n = samples.len();
    let s = sorted(samples);
    for p in TAIL_LADDER {
        let rank = nearest_rank(p, n);
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return (Some(p), s[rank - 1]);
        }
    }
    (None, median(samples))
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil() as usize
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn under_forty_samples_reports_the_median_alone() {
        for n in [1, 10, 39] {
            let v = ramp(n);
            assert_eq!(tail(&v), (None, median(&v)), "n={n}");
        }
    }

    #[test]
    fn forty_samples_reach_p75_with_ten_beyond() {
        // Nearest rank of p75 in 40 is 30: values 31..=40 lie beyond.
        assert_eq!(tail(&ramp(40)), (Some(75.0), 30.0));
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)), (Some(90.0), 90.0));
        // 199: p95 rank 190 leaves 9 beyond, so p90 (rank 180) it is.
        assert_eq!(tail(&ramp(199)), (Some(90.0), 180.0));
        assert_eq!(tail(&ramp(200)), (Some(95.0), 190.0));
        assert_eq!(tail(&ramp(1000)), (Some(99.0), 990.0));
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 40..600 {
            let v = ramp(n);
            let (p, value) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(p.is_some() && beyond >= TAIL_BEYOND, "n={n}");
        }
    }
}
