//! Latency histograms for the serving path.
//!
//! A [`Histogram`] is a plain value type (no global registry): the serving
//! loop owns one per metric, records raw samples, and renders a percentile
//! summary into the metrics document at the end of the run. Samples are
//! kept exactly rather than bucketed — serving runs record at most a few
//! hundred thousand values, and exact nearest-rank percentiles keep the
//! reported p50/p95/p99 bit-reproducible across runs of the same trace.

use crate::json::{InexactUint, Json};

/// An exact-sample histogram with nearest-rank percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
}

/// Percentile summary of a [`Histogram`], the shape embedded in metrics
/// documents and `BENCH_suite.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median (nearest-rank 50th percentile).
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite values are dropped (a NaN latency is
    /// a bug upstream; the percentiles must stay meaningful).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Absorbs all samples of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Nearest-rank percentile: the smallest sample such that at least
    /// `p`% of samples are ≤ it. Returns 0 for an empty histogram; `p` is
    /// clamped to `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    /// The full percentile summary.
    pub fn summary(&self) -> HistogramSummary {
        if self.samples.is_empty() {
            return HistogramSummary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = |p: f64| sorted[(((p / 100.0) * n as f64).ceil() as usize).max(1) - 1];
        HistogramSummary {
            count: n as u64,
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
            p50: rank(50.0),
            p95: rank(95.0),
            p99: rank(99.0),
        }
    }
}

impl HistogramSummary {
    /// Renders the summary as a JSON object (the metrics-document shape).
    ///
    /// # Errors
    ///
    /// [`InexactUint`] if the sample count is above 2⁵³.
    pub fn to_json(&self) -> Result<Json, InexactUint> {
        Ok(Json::obj([
            ("count", Json::try_uint(self.count)?),
            ("mean", Json::num(self.mean)),
            ("min", Json::num(self.min)),
            ("max", Json::num(self.max)),
            ("p50", Json::num(self.p50)),
            ("p95", Json::num(self.p95)),
            ("p99", Json::num(self.p99)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(95.0), 95.0);
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn summary_of_empty_histogram_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn summary_matches_manual_stats() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        h.record(f64::NAN); // dropped
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.summary().max, 2.0);
    }

    #[test]
    fn summary_renders_to_json() {
        let mut h = Histogram::new();
        h.record(1.5);
        let j = h.summary().to_json().unwrap();
        assert_eq!(j.get("count").and_then(Json::as_num), Some(1.0));
        assert_eq!(j.get("p99").and_then(Json::as_num), Some(1.5));
    }
}
