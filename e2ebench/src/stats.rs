//! Order statistics the benchmark reports: median, the `.tail` percentile
//! rule, and the geometric mean.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `.tail` of a sample: the highest percentile of [`TAIL_LADDER`]
/// that still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// Samples a `.tail` must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a `.tail` is chosen from. A fixed ladder keeps the
/// reported percentile the same from run to run at a given sample count.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `p` of ascending `s`, as `(rank, value)`.
fn nearest_rank(s: &[f64], p: f64) -> (usize, f64) {
    // In hundredths of a percent, so 99.9% of 10 000 is exactly 9990.
    let hundredths = (p * 100.0).round() as usize;
    let rank = (hundredths * s.len()).div_ceil(10_000).clamp(1, s.len()) - 1;
    (rank, s[rank])
}

/// The `.tail` of `xs`. With fewer samples than even the median leaves
/// ten beyond, the median itself is reported, and the sample count gives
/// that away. `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - 1 - nearest_rank(&s, p).0 >= TAIL_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Some(Tail {
        value: nearest_rank(&s, p).1,
        percentile: p,
        samples: n,
    })
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
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
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
        let upto = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: p90 (value 90) leaves 10 beyond, p95 only 5.
        let t = tail(&upto(100)).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 100));
        assert_eq!(upto(100).iter().filter(|&&x| x > t.value).count(), 10);
        // 62 samples (two tune-cold passes): p75, 15 beyond.
        let t = tail(&upto(62)).unwrap();
        assert_eq!((t.value, t.percentile), (47.0, 75.0));
        // 1000: p99 leaves exactly 10; 10 000: p99.9 leaves exactly 10.
        assert_eq!(tail(&upto(1000)).unwrap().percentile, 99.0);
        assert_eq!(tail(&upto(10_000)).unwrap().value, 9990.0);
        assert_eq!(tail(&upto(10_000)).unwrap().percentile, 99.9);
        // 99 999 samples are one short of p99.99.
        assert_eq!(tail(&upto(99_999)).unwrap().percentile, 99.9);
        assert_eq!(tail(&upto(100_000)).unwrap().percentile, 99.99);
    }

    #[test]
    fn tail_is_order_independent_and_degrades_to_the_median() {
        let mut xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let a = tail(&xs).unwrap();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap(), a);
        assert_eq!((a.value, a.percentile), (29.0, 75.0));

        let few = tail(&[5.0, 7.0, 6.0]).unwrap();
        assert_eq!((few.value, few.percentile, few.samples), (6.0, 50.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn geomean_matches_the_definition() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[2.0, f64::NAN]), None);
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        // Scale-equivariant: geomean(k·x) = k·geomean(x).
        let xs = [3.0e-6, 7.5e-5, 1.2e-4];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 1e6).collect();
        let (a, b) = (geomean(&xs).unwrap() * 1e6, geomean(&scaled).unwrap());
        assert!((a - b).abs() / b < 1e-12);
    }
}
