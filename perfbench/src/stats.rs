//! The benchmark's own statistics: medians, quartiles, tail percentiles,
//! and the metric-name rule.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method), so
/// the spread printed here matches the spread the acceptance rule uses.
///
/// # Panics
///
/// Panics with fewer than two samples, as Python does.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// The nearest-rank `p`-th percentile of `xs`, but only when at least
/// ten samples lie beyond it; `None` otherwise, so a tail figure is never
/// reported from too few samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// Whether `name` is a legal metric or workload name: a letter or digit
/// first, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&xs, 50.0), Some(50.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(tail_percentile(&xs, 99.0), None);
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "run_s",
            "eval.hit_us",
            "a-b.c_d",
            "0x",
            "runtime.queue_wait_ms",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
