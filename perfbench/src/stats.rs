//! Order statistics: the median / tail-percentile picker every timing is
//! printed with, and the quartile spread `compare` judges repeatability by.

/// Sort ascending (NaN-free inputs only: every sample is a measured time).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted values; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        0.0
    } else {
        nearest_rank(&v, q)
    }
}

/// The tail percentiles a summary may quote, most extreme first, each with
/// the share of samples beyond it in thousandths (integers: 10 000 × 0.1 %
/// must count as exactly ten).
const TAILS: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile with at least ten samples beyond it, or `None`
/// when even p75 has fewer (under 40 samples): a tail quoted from a handful
/// of points is the maximum under another name.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .find(|(_, beyond)| n * beyond / 1000 >= 10)
        .map(|(q, _)| *q)
}

/// Median, supported tail and count of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        p50: median(&v),
        tail: tail_percentile(v.len()).map(|q| (q, nearest_rank(&v, q))),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        if let Some((q, v)) = self.tail {
            write!(f, "  p{q} {v:.4}")?;
        }
        write!(f, "  n={}", self.n)
    }
}

/// Mean / p50 / p99 of the pooled first-store stalls, in microseconds.
pub fn stall_profile(stall_ns: &mut [u32]) -> (f64, f64, f64) {
    if stall_ns.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    stall_ns.sort_unstable();
    let sum: u64 = stall_ns.iter().map(|&x| x as u64).sum();
    (
        sum as f64 / stall_ns.len() as f64 / 1e3,
        nearest_rank(stall_ns, 50.0) as f64 / 1e3,
        nearest_rank(stall_ns, 99.0) as f64 / 1e3,
    )
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them — the acceptance procedure
/// uses that function, so `compare` must agree with it digit for digit.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (the repeatability
/// figure); `None` for fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_picks_nearest_rank_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.p50), (100, 50.5));
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&[5.0]).tail, None);
    }

    #[test]
    fn stall_profile_is_mean_p50_p99_in_us() {
        let mut ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        ns.reverse();
        let (mean, p50, p99) = stall_profile(&mut ns);
        assert_eq!((mean, p50, p99), (50.5, 50.0, 99.0));
        assert_eq!(stall_profile(&mut []), (0.0, 0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
