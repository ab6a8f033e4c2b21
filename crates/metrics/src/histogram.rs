//! Fixed-bucket histograms with atomic buckets and quantile estimation.
//!
//! The bucket layout is fixed at construction (Prometheus `le`
//! semantics: bucket `i` counts observations `v ≤ bounds[i]`, with an
//! implicit `+Inf` overflow bucket), so recording is a single atomic
//! increment plus three atomic folds (count, sum, min/max) — no locks,
//! no allocation, safe to call from every worker thread concurrently.
//!
//! Quantile estimation interpolates linearly inside the bucket where
//! the cumulative count crosses the requested rank. Because the true
//! rank-`k` observation lies in exactly that bucket, the estimate is
//! always bounded by the bucket that contains the exact quantile — the
//! property the proptests in this module pin down.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically fold an `f64` into an `AtomicU64` holding float bits.
pub(crate) fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A concurrent fixed-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the `+Inf` overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (an implicit
    /// `+Inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The default layout for host wall-clock durations in seconds:
    /// 1-2-5 decades from 1 µs to 100 s (24 finite buckets + overflow).
    /// Wide enough for a cache lookup and a class-B simulation alike.
    pub fn time_seconds() -> Self {
        let mut bounds = Vec::new();
        for decade in -6..2 {
            let base = 10f64.powi(decade);
            bounds.extend([base, 2.0 * base, 5.0 * base]);
        }
        Histogram::new(&bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Index of the bucket an observation lands in (`le` semantics:
    /// the first bucket whose bound is ≥ `v`, else the overflow slot).
    pub fn bucket_index(&self, v: f64) -> usize {
        self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len())
    }

    /// The finite upper bounds (excluding the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, overflow last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (`NaN` before any observation).
    pub fn min(&self) -> f64 {
        let m = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if m.is_infinite() {
            f64::NAN
        } else {
            m
        }
    }

    /// Largest observation (`NaN` before any observation).
    pub fn max(&self) -> f64 {
        let m = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if m.is_infinite() {
            f64::NAN
        } else {
            m
        }
    }

    /// Mean of all observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`). See
    /// [`HistogramSnapshot::quantile`] for the estimator; this is a
    /// convenience that snapshots first. Returns `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A consistent-enough point-in-time copy of the histogram state,
    /// detached from the atomics (serializable, cheap to pass around).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.bucket_counts(),
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
        }
    }

    /// Merge another histogram's buckets into this one. Both histograms
    /// must share the same bucket layout.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different buckets");
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + other.sum());
        let (omin, omax) = (other.min(), other.max());
        if !omin.is_nan() {
            atomic_f64_update(&self.min_bits, |m| m.min(omin));
        }
        if !omax.is_nan() {
            atomic_f64_update(&self.max_bits, |m| m.max(omax));
        }
    }
}

/// A frozen, serializable copy of a [`Histogram`]'s state. This is what
/// crosses crate boundaries: the registry snapshot embeds one per
/// histogram series, the Prometheus renderer reads from it, and
/// `powerscale stats` computes its p50/p95 columns on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite upper bucket bounds (`le` semantics), ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`NaN` when empty).
    pub min: f64,
    /// Largest observation (`NaN` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean of all observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Pool this snapshot with another of the same bucket layout
    /// (panics otherwise) — used to aggregate sibling series, e.g. all
    /// gears of one benchmark into a per-kernel row.
    pub fn merged(&self, other: &Self) -> Self {
        assert_eq!(self.bounds, other.bounds, "merging snapshots with different buckets");
        let fold = |a: f64, b: f64, f: fn(f64, f64) -> f64| match (a.is_nan(), b.is_nan()) {
            (true, _) => b,
            (_, true) => a,
            _ => f(a, b),
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().zip(&other.counts).map(|(a, b)| a + b).collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            min: fold(self.min, other.min, f64::min),
            max: fold(self.max, other.max, f64::max),
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the bucket where the cumulative count
    /// crosses rank `max(1, ceil(q·n))`, clamped to the observed
    /// `[min, max]`. Returns `NaN` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count;
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut before: u64 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if before + c >= rank {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1].max(self.min) };
                let hi =
                    if i < self.bounds.len() { self.bounds[i].min(self.max) } else { self.max };
                let frac = (rank - before) as f64 / c as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            before += c;
        }
        self.max // unreachable unless counters raced mid-snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn observations_land_in_le_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - 21.9).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 7.0);
    }

    #[test]
    fn empty_histogram_reports_nan() {
        let h = Histogram::time_seconds();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn time_layout_covers_microseconds_to_minutes() {
        let h = Histogram::time_seconds();
        assert_eq!(h.bounds().len(), 24);
        assert!(h.bucket_index(3e-6) < h.bounds().len());
        assert!(h.bucket_index(30.0) < h.bounds().len());
        assert_eq!(h.bucket_index(1e9), h.bounds().len()); // overflow
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn merging_mismatched_layouts_panics() {
        Histogram::new(&[1.0]).merge(&Histogram::new(&[2.0]));
    }

    #[test]
    fn snapshot_merge_pools_counts_and_extremes() {
        let a = Histogram::time_seconds();
        let b = Histogram::time_seconds();
        a.observe(0.5);
        a.observe(2.0);
        b.observe(0.01);
        let pooled = a.snapshot().merged(&b.snapshot());
        assert_eq!(pooled.count, 3);
        assert!((pooled.sum - 2.51).abs() < 1e-12);
        assert_eq!((pooled.min, pooled.max), (0.01, 2.0));
        // Merging with an empty sibling preserves the extremes.
        let with_empty = a.snapshot().merged(&Histogram::time_seconds().snapshot());
        assert_eq!((with_empty.min, with_empty.max), (0.5, 2.0));
    }

    /// The exact rank-k order statistic and the histogram estimate fall
    /// in the same bucket, so the estimate is bounded by that bucket.
    fn assert_quantile_bounded(values: &[f64], q: f64) {
        let h = Histogram::time_seconds();
        for &v in values {
            h.observe(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = h.quantile(q);
        let idx = h.bucket_index(exact);
        let lo = if idx == 0 { h.min() } else { h.bounds()[idx - 1] };
        let hi = if idx < h.bounds().len() { h.bounds()[idx].min(h.max()) } else { h.max() };
        assert!(
            est >= lo - 1e-12 && est <= hi + 1e-12,
            "q={q}: estimate {est} outside bucket [{lo}, {hi}] of exact {exact}"
        );
    }

    proptest! {
        #[test]
        fn quantile_estimate_is_bounded_by_the_exact_bucket(
            values in proptest::collection::vec(1e-6f64..50.0, 1..200),
            q in 0.0f64..1.0,
        ) {
            assert_quantile_bounded(&values, q);
        }

        #[test]
        fn quantiles_are_monotone_in_q(
            values in proptest::collection::vec(1e-6f64..50.0, 1..100),
        ) {
            let h = Histogram::time_seconds();
            for &v in &values { h.observe(v); }
            let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
            for w in qs.windows(2) {
                prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]) + 1e-12);
            }
        }

        /// merge(a, merge(b, c)) and merge(merge(a, b), c) agree bucket
        /// by bucket, in count, and bitwise in min/max.
        #[test]
        fn merge_is_associative(
            a in proptest::collection::vec(1e-6f64..50.0, 0..50),
            b in proptest::collection::vec(1e-6f64..50.0, 0..50),
            c in proptest::collection::vec(1e-6f64..50.0, 0..50),
        ) {
            let fill = |vals: &[f64]| {
                let h = Histogram::time_seconds();
                for &v in vals { h.observe(v); }
                h
            };
            let left = fill(&a);
            left.merge(&fill(&b));
            left.merge(&fill(&c));
            let inner = fill(&b);
            inner.merge(&fill(&c));
            let right = fill(&a);
            right.merge(&inner);
            prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.min().to_bits(), right.min().to_bits());
            prop_assert_eq!(left.max().to_bits(), right.max().to_bits());
            prop_assert!((left.sum() - right.sum()).abs() <= 1e-9 * left.sum().abs().max(1.0));
        }

        /// Merging preserves every quantile's bucket-bounding property.
        #[test]
        fn merged_quantiles_match_pooled_data(
            a in proptest::collection::vec(1e-6f64..50.0, 1..60),
            b in proptest::collection::vec(1e-6f64..50.0, 1..60),
        ) {
            let pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
            let ha = Histogram::time_seconds();
            for &v in &a { ha.observe(v); }
            let hb = Histogram::time_seconds();
            for &v in &b { hb.observe(v); }
            ha.merge(&hb);
            let direct = Histogram::time_seconds();
            for &v in &pooled { direct.observe(v); }
            for q in [0.1, 0.5, 0.95] {
                let m = ha.quantile(q);
                let d = direct.quantile(q);
                prop_assert!((m - d).abs() <= 1e-9 * d.abs().max(1e-12),
                    "q={}: merged {} vs direct {}", q, m, d);
            }
        }
    }

    #[test]
    fn concurrent_observation_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::time_seconds());
        let threads = 8;
        let per = 1000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.observe(1e-4 * (t * per + i + 1) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), (threads * per) as u64);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), (threads * per) as u64);
        let exact_sum: f64 = (1..=threads * per).map(|i| 1e-4 * i as f64).sum();
        assert!((h.sum() - exact_sum).abs() < 1e-6 * exact_sum);
    }
}
