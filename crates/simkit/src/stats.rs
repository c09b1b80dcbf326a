//! Statistics collection: histograms and time series.
//!
//! Every number in `EXPERIMENTS.md` is produced by one of these types, so
//! they favour exactness and introspectability over speed.

/// A histogram with fixed-width linear buckets plus an overflow bucket.
///
/// Also maintains exact count/sum/min/max so means are not quantized.
///
/// # Example
///
/// ```
/// use simkit::Histogram;
/// let mut h = Histogram::new("latency", 10, 10); // 10 buckets of width 10
/// for v in [3, 14, 97, 205] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(205));
/// assert!(h.mean() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    name: String,
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates a histogram with `nbuckets` linear buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `nbuckets` is zero.
    pub fn new(name: impl Into<String>, bucket_width: u64, nbuckets: usize) -> Histogram {
        assert!(bucket_width > 0, "bucket width must be non-zero");
        assert!(nbuckets > 0, "histogram needs at least one bucket");
        Histogram {
            name: name.into(),
            bucket_width,
            buckets: vec![0; nbuckets],
            overflow: 0,
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, v: u64) {
        let idx = (v / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v as u128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Returns the histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all recorded samples; 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Number of samples that fell beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bucket upper
    /// bounds and clamped to the exact recorded maximum (so a sparse
    /// histogram never reports a quantile above any observed sample).
    /// Samples that landed in the overflow bucket resolve to the maximum.
    /// Returns `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        // count > 0 implies a recorded max; `?` keeps this panic-free
        // on the export path either way.
        let max = self.max?;
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(((i as u64 + 1) * self.bucket_width).min(max));
            }
        }
        self.max
    }

    /// Per-bucket counts (not including overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// [`Histogram::quantile`] plus the sample-size context needed to
    /// judge it: the recorded sample count and whether that count is
    /// large enough for quantile `q` to be *resolvable* — i.e. whether
    /// at least one sample is expected above the quantile, so the
    /// estimate is not just an alias for [`Histogram::max`].
    ///
    /// A p999 over 50 samples silently equals the maximum; callers that
    /// report extreme quantiles (tail-latency sweeps) must carry this
    /// flag so a small-sample tail is never mistaken for a measured one.
    ///
    /// Returns `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_est(&self, q: f64) -> Option<QuantileEstimate> {
        let value = self.quantile(q)?;
        // Resolvable iff the expected number of samples strictly above
        // the q-quantile, (1-q)·count, is at least one. q=1 is by
        // definition the maximum and always "resolved".
        let resolvable = q >= 1.0 || (1.0 - q) * self.count as f64 >= 1.0;
        Some(QuantileEstimate {
            value,
            samples: self.count,
            resolvable,
        })
    }
}

/// A quantile estimate qualified by its sample size
/// ([`Histogram::quantile_est`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileEstimate {
    /// The bucket-resolved quantile value (see [`Histogram::quantile`]).
    pub value: u64,
    /// Number of samples the estimate was computed over.
    pub samples: u64,
    /// Whether `samples` is large enough that the quantile is
    /// distinguishable from the recorded maximum (`(1-q)·samples ≥ 1`).
    /// When `false` the value is an alias for [`Histogram::max`] and
    /// must not be reported as a measured tail.
    pub resolvable: bool,
}

/// A `(time, value)` series sampled during a simulation, e.g. scratchpad
/// occupancy over time (Fig. 10).
///
/// # Example
///
/// ```
/// use simkit::{Cycle, TimeSeries};
/// let mut ts = TimeSeries::new("scratchpad.bytes");
/// ts.record(Cycle(0), 0.0);
/// ts.record(Cycle(100), 4096.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((Cycle(100), 4096.0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(u64, f64)>,
}

use crate::clock::Cycle;

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point. Time must be nondecreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous point.
    pub fn record(&mut self, t: Cycle, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t.raw() >= last, "time series must be monotonic");
        }
        self.points.push((t.raw(), v));
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last recorded point.
    pub fn last(&self) -> Option<(Cycle, f64)> {
        self.points.last().map(|&(t, v)| (Cycle(t), v))
    }

    /// Iterates over `(time, value)` points.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, f64)> + '_ {
        self.points.iter().map(|&(t, v)| (Cycle(t), v))
    }

    /// Maximum value in the series; `None` if empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::max)
    }

    /// Mean of values over the *tail* fraction of points — used to measure
    /// equilibrium values after warmup (e.g. Fig. 10's steady state).
    ///
    /// # Panics
    ///
    /// Panics if `tail_fraction` is not within `(0, 1]`.
    pub fn tail_mean(&self, tail_fraction: f64) -> f64 {
        assert!(
            tail_fraction > 0.0 && tail_fraction <= 1.0,
            "tail fraction out of range"
        );
        if self.points.is_empty() {
            return 0.0;
        }
        let skip = ((1.0 - tail_fraction) * self.points.len() as f64) as usize;
        let tail = &self.points[skip..];
        tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new("h", 10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(50));
        assert!((h.mean() - 23.6).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new("h", 1, 100);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new("h", 1, 4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn histogram_quantile_clamps_to_recorded_max() {
        // A single sample of 0 lands in bucket [0, 10); the bucket's upper
        // bound is 10, but no sample that large was ever seen.
        let mut h = Histogram::new("h", 10, 4);
        h.record(0);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(1.0), Some(0));
    }

    #[test]
    fn histogram_quantile_single_bucket() {
        let mut h = Histogram::new("h", 100, 1);
        for v in [3, 7, 42] {
            h.record(v);
        }
        // Everything is in one bucket; the best resolution is its upper
        // bound, clamped to the true max.
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.quantile(1.0), Some(42));
    }

    #[test]
    fn histogram_quantile_extremes() {
        let mut h = Histogram::new("h", 1, 100);
        for v in 10..20 {
            h.record(v);
        }
        // q=0 resolves to the first occupied bucket, q=1 to the last.
        assert_eq!(h.quantile(0.0), Some(11));
        assert_eq!(h.quantile(1.0), Some(19));
    }

    #[test]
    fn histogram_quantile_overflow_bucket() {
        let mut h = Histogram::new("h", 10, 2); // covers [0, 20)
        h.record(5);
        h.record(1000); // overflow
        h.record(2000); // overflow
                        // The upper quantiles live in the overflow bucket, which has no
                        // upper bound; they resolve to the exact recorded max.
        assert_eq!(h.quantile(0.1), Some(10)); // bucket [0, 10) upper bound
        assert_eq!(h.quantile(0.9), Some(2000));
        assert_eq!(h.quantile(1.0), Some(2000));
    }

    #[test]
    fn quantile_est_empty_is_none() {
        let h = Histogram::new("h", 1, 4);
        assert_eq!(h.quantile_est(0.999), None);
        assert_eq!(h.quantile_est(0.5), None);
    }

    #[test]
    fn quantile_est_flags_small_samples() {
        // 1 sample: every quantile aliases the single value; p50 needs
        // (1-0.5)*1 = 0.5 < 1 samples above it, so it is flagged too.
        let mut h = Histogram::new("h", 1, 2000);
        h.record(7);
        let e = h.quantile_est(0.999).expect("non-empty");
        assert_eq!((e.value, e.samples, e.resolvable), (7, 1, false));
        assert!(!h.quantile_est(0.5).expect("non-empty").resolvable);

        // 2 samples: p50 becomes resolvable ((1-0.5)*2 = 1), p999 not.
        h.record(9);
        assert!(h.quantile_est(0.5).expect("non-empty").resolvable);
        let e = h.quantile_est(0.999).expect("non-empty");
        assert!(!e.resolvable, "p999 over 2 samples aliases max");
        assert_eq!(e.value, h.max().expect("max"));
    }

    #[test]
    fn quantile_est_p999_boundary_at_1000_samples() {
        let mut h = Histogram::new("h", 1, 2000);
        for v in 0..999 {
            h.record(v);
        }
        // 999 samples: (1-0.999)*999 = 0.999 < 1 — still flagged.
        let e = h.quantile_est(0.999).expect("non-empty");
        assert_eq!(e.samples, 999);
        assert!(!e.resolvable, "p999 on 999 samples must be flagged");
        // The 1000th sample tips it over: (1-0.999)*1000 = 1.0.
        h.record(999);
        let e = h.quantile_est(0.999).expect("non-empty");
        assert_eq!(e.samples, 1000);
        assert!(e.resolvable);
        assert_eq!(e.value, 999);
    }

    #[test]
    fn quantile_est_q1_is_always_resolved() {
        let mut h = Histogram::new("h", 1, 10);
        h.record(3);
        let e = h.quantile_est(1.0).expect("non-empty");
        assert!(e.resolvable, "q=1 is the max by definition");
        assert_eq!(e.value, 3);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_quantile_rejects_out_of_range() {
        let mut h = Histogram::new("h", 1, 4);
        h.record(1);
        let _ = h.quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_zero_width_rejected() {
        let _ = Histogram::new("h", 0, 4);
    }

    #[test]
    fn time_series_monotonic_and_tail() {
        let mut ts = TimeSeries::new("t");
        for i in 0..10 {
            ts.record(Cycle(i), i as f64);
        }
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.max_value(), Some(9.0));
        // Tail 50% = values 5..=9, mean 7.0.
        assert!((ts.tail_mean(0.5) - 7.0).abs() < 1e-12);
        assert_eq!(ts.iter().count(), 10);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn time_series_rejects_backwards() {
        let mut ts = TimeSeries::new("t");
        ts.record(Cycle(5), 1.0);
        ts.record(Cycle(4), 2.0);
    }
}
