//! Order statistics for the ledger: medians, quartiles and the tail
//! percentile rule.

/// Percentiles the tail rule may pick, in basis points, highest first.
const TAIL_LADDER_BP: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sort a copy of `v` ascending.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the middle two for an even count); `None`
/// when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank index (0-based) of percentile `bp` (basis points) in a
/// sorted sample of `n`.
fn rank_index(n: usize, bp: u64) -> usize {
    let rank = (n as u64 * bp).div_ceil(10_000).max(1);
    rank as usize - 1
}

/// The highest percentile of [`TAIL_LADDER_BP`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`;
/// `None` when even the median has fewer than ten samples above it.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    TAIL_LADDER_BP.iter().find_map(|&bp| {
        let i = rank_index(n, bp);
        (n > 0 && n - (i + 1) >= TAIL_MIN_BEYOND).then(|| (bp as f64 / 100.0, s[i]))
    })
}

/// First and third quartile, interpolated the way Python's
/// `statistics.quantiles(v, n=4)` does (the "exclusive" method), so the
/// ledger's spread figures match an external check of the same values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |j: usize| {
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - i as f64;
        s[i - 1] + (s[i] - s[i - 1]) * frac
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: the median has only 9 above it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is the 10th, leaving exactly 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 100 samples: p90 leaves 10, p99 only 1.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 999 samples: p99 is rank 990, leaving 9, so p90 is reported.
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 leaves exactly 10; p99.99 only 1.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // 100000 samples: p99.99 leaves 10.
        assert_eq!(tail(&ramp(100_000)), Some((99.99, 99_990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(100);
        v.reverse();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
