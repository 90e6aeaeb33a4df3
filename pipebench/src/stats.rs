//! Order statistics for reported timings.

/// `xs` sorted ascending (total order, so a stray NaN cannot panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile `q` in `[0, 1]`; NaN when `xs` is
/// empty. `quantile(xs, 0.5)` is the median.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `(q1, median, q3)` of `xs`, the spread reported beside a median.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    (quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

/// Percentiles a tail latency may be reported at, in per mille, highest
/// first (integers keep the nearest-rank arithmetic exact). A fixed
/// ladder keeps the label comparable between runs.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The ladder percentile reported.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked beyond it (at least [`TAIL_MIN_BEYOND`]).
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples ranked beyond it (nearest-rank definition); `None` when a run
/// has too few samples for any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let v = sorted(xs);
    TAIL_LADDER.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000).max(1);
        (rank <= n && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: pm as f64 / 10.0,
            value: v[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the rule cannot rely on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_interpolate_like_numpy_linear() {
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q1, m, q3), (1.75, 2.5, 3.25));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_omitted_below_ten_samples_beyond_the_median() {
        assert_eq!(tail(&ramp(0)), None);
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples support p50");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_climbs_the_ladder_only_with_ten_samples_beyond() {
        // 199 samples: p95 would leave 9 beyond, so p90 is reported.
        let t = tail(&ramp(199)).expect("tail");
        assert_eq!((t.percentile, t.beyond), (90.0, 19));
        // 200 samples: exactly 10 beyond p95.
        let t = tail(&ramp(200)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.beyond, t.samples), (99.0, 10, 1000));
        assert!(tail(&ramp(10_000)).expect("tail").percentile == 99.9);
    }
}
