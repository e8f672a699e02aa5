//! Percentiles, medians and the metric records the report prints.

use crate::gen::SplitMix;

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it names is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples (the
/// epsilon keeps `99.9 % of 10 000` at rank 9990 despite binary rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when there are too few samples for even the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile; reorders `xs`. `NaN` for no samples.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let k = rank(xs.len(), p) - 1;
    *xs.select_nth_unstable_by(k, f64::total_cmp).1
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A uniform sample of at most `cap` values from a stream of any length
/// (Algorithm R, seeded), so latency logs take constant memory however many
/// operations a run makes. Below `cap` it holds every value.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: usize,
    xs: Vec<f64>,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            seen: 0,
            xs: Vec::new(),
            rng: SplitMix::new(cap as u64),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.xs.len() < self.cap {
            self.xs.push(x);
        } else {
            let j = (self.rng.next_u64() % self.seen as u64) as usize;
            if j < self.cap {
                self.xs[j] = x;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Estimated total of every value offered.
    pub fn sum(&self) -> f64 {
        let held: f64 = self.xs.iter().fold(0.0, |a, x| a + x);
        held * self.seen as f64 / self.xs.len().max(1) as f64
    }

    /// Pool another repetition's sample into this one. Repetitions of one
    /// schedule offer equally many values, so the pool stays uniform.
    pub fn absorb(&mut self, other: &Reservoir) {
        self.xs.extend_from_slice(&other.xs);
        self.seen += other.seen;
    }

    /// The `p`-th percentile as a metric whose sample count is every value
    /// offered; the tail rule is applied to the values held.
    pub fn metric(&mut self, name: &str, unit: &'static str, p: f64) -> Result<Metric, String> {
        let mut m = percentile_metric(name, unit, &mut self.xs, p)?;
        m.samples = self.seen;
        Ok(m)
    }
}

/// One reported number: name, unit, value and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// The `p`-th percentile of `xs` as a metric, refusing a percentile the
/// samples cannot support (the caller sizes workloads so they always can).
pub fn percentile_metric(
    name: &str,
    unit: &'static str,
    xs: &mut [f64],
    p: f64,
) -> Result<Metric, String> {
    let n = xs.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "{name}: p{p} needs {MIN_BEYOND} samples beyond it, have {n} samples \
             (highest supported: {:?})",
            tail_percentile(n)
        ));
    }
    Ok(Metric::new(name, unit, percentile(xs, p), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_samples_above() {
        let mut r = Reservoir::new(1_000);
        (0..500).for_each(|i| r.push(i as f64));
        assert_eq!((r.seen(), r.xs.len()), (500, 500));
        assert_eq!(r.metric("x", "ms", 50.0).unwrap().value, 249.0);
        let mut r = Reservoir::new(1_000);
        (0..100_000).for_each(|i| r.push(i as f64));
        assert_eq!((r.seen(), r.xs.len()), (100_000, 1_000));
        let m = r.metric("x", "ms", 50.0).unwrap();
        assert_eq!(m.samples, 100_000);
        assert!(
            (m.value - 50_000.0).abs() < 5_000.0,
            "uniform sample: {}",
            m.value
        );
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None, "the median of 10 has 5 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0), "p90 of 99 has 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 90.0), 90.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_metric_reports_count_and_refuses_thin_tails() {
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        let m = percentile_metric("admit.ms_p90", "ms", &mut xs, 90.0).unwrap();
        assert_eq!((m.value, m.samples), (89.0, 100));
        let mut thin: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(percentile_metric("admit.ms_p90", "ms", &mut thin, 90.0).is_err());
        assert!(percentile_metric("x", "ms", &mut [], 50.0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
