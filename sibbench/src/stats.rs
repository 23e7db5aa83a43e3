//! The benchmark's arithmetic: percentiles, quartiles, spreads and the
//! compare verdicts. Kept free of I/O so the tests below pin it down.

/// Nearest-rank percentile of ascending `sorted` samples, `p` in
/// `0..=100`: the smallest sample with at least `p`% of the samples at
/// or below it. `NaN` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// product is formed before dividing, and a rounding residue is dropped,
/// so that e.g. p90 of 100 samples is rank 90, not 91.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method)
/// computes them. With one sample both quartiles are that sample.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds are checked against.
pub fn relative_spread(sorted: &[f64]) -> f64 {
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / median(sorted).abs()
}

/// Sorts a copy of `values` ascending (total order; NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The highest of the standard tail percentiles with at least ten
/// samples beyond it, or `None` when even p90 has fewer.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples.saturating_sub(rank(p, samples)) >= 10)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }

    /// Whether `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Self::Lower => a < b,
            Self::Higher => a > b,
        }
    }

    /// How much worse `change` is than `parent`, as a share of `parent`
    /// (negative when it is better).
    pub fn worse_by(self, parent: f64, change: f64) -> f64 {
        match self {
            Self::Lower => (change - parent) / parent.abs(),
            Self::Higher => (parent - change) / parent.abs(),
        }
    }
}

/// The outcome of comparing one metric on one workload across two
/// result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's own interquartile distance.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in the compare table.
    pub fn label(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Applies the bound and the nine-tenths rule to one metric.
/// `pairs` are `(parent, change)` values of runs made with the same
/// seed; `parent` and `change` are every run of each side.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: f64,
) -> Verdict {
    let (p, c) = (sorted(parent), sorted(change));
    if p.is_empty() || c.is_empty() {
        return Verdict::Unresolved;
    }
    let (med_p, med_c) = (median(&p), median(&c));
    let worse_by = better.worse_by(med_p, med_c);
    let all_better = c.iter().all(|&x| p.iter().all(|&y| better.beats(x, y)));
    let all_worse = c.iter().all(|&x| p.iter().all(|&y| better.beats(y, x)));
    if all_worse && worse_by > bound {
        return Verdict::Worse;
    }
    let spread = relative_spread(&p).max(relative_spread(&c));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let wins = pairs.iter().filter(|(x, y)| better.beats(*y, *x)).count();
    let (q1, q3) = quartiles(&p);
    let improved = !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better.beats(med_c, med_p)
        && (med_c - med_p).abs() > q3 - q1;
    if improved {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// A deterministic 64-bit generator (SplitMix64): every workload input
/// is drawn from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
        // statistics.quantiles([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], n=4)
        // == [6.75, 9.0, 15.25]
        let v = [3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0];
        assert_eq!(quartiles(&v), (6.75, 15.25));
        assert!((relative_spread(&v) - (15.25 - 6.75) / 9.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_nine_tenths_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Every run 20% faster: wins every pair, beyond the parent IQR.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&parent, &fast, &paired(&parent, &fast), Better::Lower, 0.1),
            Verdict::Improved
        );
        // Same for a rate where higher is better.
        let more: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&parent, &more, &paired(&parent, &more), Better::Higher, 0.1),
            Verdict::Improved
        );
        // Identical runs: unchanged.
        assert_eq!(
            verdict(
                &parent,
                &parent,
                &paired(&parent, &parent),
                Better::Lower,
                0.1
            ),
            Verdict::Unchanged
        );
        // 15% slower against a 10% bound: worse.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            verdict(&parent, &slow, &paired(&parent, &slow), Better::Lower, 0.1),
            Verdict::Worse
        );
        // 5% slower against a 10% bound: unchanged.
        let bit: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&parent, &bit, &paired(&parent, &bit), Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_is_better() {
        let parent = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|x| x * 1.02).collect();
        assert_eq!(
            verdict(
                &parent,
                &change,
                &paired(&parent, &change),
                Better::Lower,
                0.1
            ),
            Verdict::Unresolved
        );
        // Every change run below every parent run: not unresolved.
        let change = [10.0, 11.0, 12.0, 10.5, 11.5, 10.2, 11.8, 10.9, 11.1, 11.0];
        assert_eq!(
            verdict(
                &parent,
                &change,
                &paired(&parent, &change),
                Better::Lower,
                0.1
            ),
            Verdict::Improved
        );
        // Every change run far above every parent run: worse, however
        // wide the spread.
        let change = [500.0, 510.0, 520.0, 530.0, 540.0];
        assert_eq!(
            verdict(&parent, &change, &[], Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let parent = [100.0; 10];
        let mut change = [80.0; 10];
        change[0] = 120.0;
        change[1] = 120.0;
        assert_eq!(
            verdict(
                &parent,
                &change,
                &paired(&parent, &change),
                Better::Lower,
                0.25
            ),
            Verdict::Unchanged
        );
        let mut change = [80.0; 10];
        change[0] = 120.0;
        assert_eq!(
            verdict(
                &parent,
                &change,
                &paired(&parent, &change),
                Better::Lower,
                0.25
            ),
            Verdict::Improved
        );
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }
}
