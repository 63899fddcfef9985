//! Summary statistics and turn accounting shared by every workload.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

/// Median of unsorted samples: the middle one, or the mean of the two
/// middle ones for an even count.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Tail quantiles a timing may report, highest first.
const TAILS: [f64; 3] = [0.999, 0.99, 0.9];

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A timing distribution as the benchmark reports it: the median, and
/// the highest tail quantile that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(quantile, value)` of the reported tail, if any quantile
    /// qualifies (needs at least 100 samples).
    pub tail: Option<(f64, f64)>,
}

impl Dist {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = TAILS.iter().find_map(|&q| {
            let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
            (n - rank >= TAIL_MIN_BEYOND).then(|| (q, v[rank - 1]))
        });
        Dist {
            n,
            p50: percentile(&v, 0.5),
            tail,
        }
    }

    /// `p50=1.2 p99=3.4 n=1000`, values scaled by `scale`.
    #[must_use]
    pub fn render(&self, scale: f64) -> String {
        let tail = self.tail.map_or_else(String::new, |(q, v)| {
            format!(" p{}={:.3}", q * 100.0, v * scale)
        });
        format!("p50={:.3}{tail} n={}", self.p50 * scale, self.n)
    }
}

/// Per-turn outcome accounting. A turn that failed its correctness check
/// counts as attempted and failed, and never as a cache hit: a wrong
/// answer served from cache is a miss, not a saving.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Turns attempted.
    pub attempted: u64,
    /// Turns that failed a check (or never completed).
    pub failed: u64,
    /// Correct turns served from cache.
    pub hits: u64,
}

impl Tally {
    /// Records one turn.
    pub fn record(&mut self, ok: bool, cache_hit: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if cache_hit {
            self.hits += 1;
        }
    }

    /// Correct cache hits over attempted turns (0 when nothing ran).
    #[must_use]
    pub fn hit_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_quantile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&xs);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.0);
        // p99.9 leaves 1 sample beyond; p99 leaves exactly 10.
        assert_eq!(d.tail, Some((0.99, 990.0)));

        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).tail, Some((0.9, 90.0)));

        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(Dist::of(&xs).tail, Some((0.999, 19_980.0)));
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let d = Dist::of(&xs);
        assert_eq!(d.tail, None);
        assert_eq!(d.p50, 50.0);
        assert!(d.render(1.0).ends_with("n=99"));
    }

    #[test]
    fn samples_need_not_be_sorted() {
        assert_eq!(Dist::of(&[3.0, 1.0, 2.0]).p50, 2.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_turns_count_as_misses() {
        let mut t = Tally::default();
        t.record(true, true);
        t.record(false, true); // a wrong answer from cache is not a hit
        t.record(true, false);
        t.record(false, false);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!(t.hits, 1);
        assert!((t.hit_frac() - 0.25).abs() < 1e-12);
    }
}
