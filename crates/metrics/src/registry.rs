//! A metrics registry whose hot path is lock-free.
//!
//! The registry mutex guards only *registration* — creating or looking
//! up a series handle. Every handle ([`Counter`], [`FloatCounter`],
//! [`Gauge`], or an `Arc<Histogram>`) owns its own atomic storage, so
//! updating a metric from eight worker threads at once never contends
//! on anything wider than a single cache line.
//!
//! Series are keyed by `(family name, label pairs)`. Families are kept
//! in a `BTreeMap` so a [`Snapshot`] — and therefore the Prometheus
//! rendering and the JSONL event log — is deterministically ordered no
//! matter what order threads registered things in.

use crate::histogram::{atomic_f64_update, Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What kind of series a metric family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone `u64` event count.
    Counter,
    /// Monotone `f64` accumulation (e.g. total seconds spent on I/O).
    FloatCounter,
    /// A point-in-time `f64` that can move both ways.
    Gauge,
    /// A fixed-bucket [`Histogram`].
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn prometheus_type(&self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::FloatCounter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing integer counter handle. Cloning shares
/// the underlying atomic.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing float accumulator handle (seconds of I/O,
/// bytes-as-f64, …). Cloning shares the underlying atomic.
#[derive(Debug, Clone)]
pub struct FloatCounter(Arc<AtomicU64>);

impl FloatCounter {
    /// Accumulate `v` (callers must keep it non-negative to preserve
    /// counter semantics).
    pub fn add(&self, v: f64) {
        atomic_f64_update(&self.0, |s| s + v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A point-in-time float gauge handle. Cloning shares the underlying
/// atomic.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Move the gauge by `d` (either sign).
    pub fn add(&self, d: f64) {
        atomic_f64_update(&self.0, |g| g + d);
    }

    /// Track a high-water mark: keep the larger of the current value
    /// and `v`.
    pub fn record_max(&self, v: f64) {
        atomic_f64_update(&self.0, |g| g.max(v));
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// One series' storage.
#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    FloatCounter(FloatCounter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

/// One metric family: a help string, a kind, and its labeled series.
#[derive(Debug, Default)]
struct Family {
    help: String,
    series: BTreeMap<Vec<(String, String)>, Slot>,
}

/// The registry. See the module docs for the locking story.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, (MetricKind, Family)>>,
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Look up or create the slot for `(name, labels)`, enforcing that
    /// a family never changes kind.
    fn slot(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Slot,
    ) -> Slot {
        let mut families = self.families.lock().unwrap();
        let (have, family) = families
            .entry(name.to_string())
            .or_insert_with(|| (kind, Family { help: help.to_string(), series: BTreeMap::new() }));
        assert!(
            *have == kind,
            "metric family {name:?} already registered as {have:?}, cannot reuse as {kind:?}"
        );
        family.series.entry(own_labels(labels)).or_insert_with(make).clone()
    }

    /// Get or create a [`Counter`] series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.slot(name, help, labels, MetricKind::Counter, || {
            Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Counter(c) => c,
            _ => unreachable!("kind enforced above"),
        }
    }

    /// Get or create a [`FloatCounter`] series.
    pub fn float_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> FloatCounter {
        match self.slot(name, help, labels, MetricKind::FloatCounter, || {
            Slot::FloatCounter(FloatCounter(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Slot::FloatCounter(c) => c,
            _ => unreachable!("kind enforced above"),
        }
    }

    /// Get or create a [`Gauge`] series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.slot(name, help, labels, MetricKind::Gauge, || {
            Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Slot::Gauge(g) => g,
            _ => unreachable!("kind enforced above"),
        }
    }

    /// Get or create a [`Histogram`] series with the standard
    /// [`Histogram::time_seconds`] layout.
    pub fn time_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.slot(name, help, labels, MetricKind::Histogram, || {
            Slot::Histogram(Arc::new(Histogram::time_seconds()))
        }) {
            Slot::Histogram(h) => h,
            _ => unreachable!("kind enforced above"),
        }
    }

    /// A deterministic point-in-time copy of every series, ordered by
    /// family name then label set.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().unwrap();
        let mut samples = Vec::new();
        for (name, (kind, family)) in families.iter() {
            for (labels, slot) in &family.series {
                samples.push(Sample {
                    name: name.clone(),
                    help: family.help.clone(),
                    kind: *kind,
                    labels: labels.clone(),
                    value: match slot {
                        Slot::Counter(c) => SampleValue::Int(c.get()),
                        Slot::FloatCounter(c) => SampleValue::Float(c.get()),
                        Slot::Gauge(g) => SampleValue::Float(g.get()),
                        Slot::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    },
                });
            }
        }
        Snapshot { samples }
    }
}

/// One observed series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Family name (e.g. `engine_cache_lookups_total`).
    pub name: String,
    /// Family help string.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: SampleValue,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Scalar view of the value: counters and gauges as `f64`,
    /// histograms as their observation count.
    pub fn scalar(&self) -> f64 {
        match &self.value {
            SampleValue::Int(n) => *n as f64,
            SampleValue::Float(v) => *v,
            SampleValue::Histogram(h) => h.count as f64,
        }
    }
}

/// A sample's payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SampleValue {
    /// Integer counter value.
    Int(u64),
    /// Float counter or gauge value.
    Float(f64),
    /// Frozen histogram state.
    Histogram(HistogramSnapshot),
}

/// A deterministic point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Every series, ordered by family name then label set.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// All samples of the family `name`.
    pub fn family(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The single sample matching `name` and all of `labels` (which may
    /// be a subset of the sample's labels), if any.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(v)))
    }

    /// Sum of [`Sample::scalar`] across the family `name` (`0.0` — not
    /// `-0.0`, which an empty `f64` sum yields — for a missing family).
    pub fn family_total(&self, name: &str) -> f64 {
        self.family(name).iter().fold(0.0, |acc, s| acc + s.scalar())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_and_registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", "requests", &[("kind", "x")]);
        let b = reg.counter("requests_total", "requests", &[("kind", "x")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.get("requests_total", &[("kind", "x")]).unwrap().scalar(), 3.0);
    }

    #[test]
    fn label_sets_are_distinct_series() {
        let reg = Registry::new();
        reg.counter("c_total", "c", &[("k", "a")]).inc();
        reg.counter("c_total", "c", &[("k", "b")]).add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.family("c_total").len(), 2);
        assert_eq!(snap.family_total("c_total"), 6.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.counter("thing_total", "c", &[]);
        reg.gauge("thing_total", "g", &[]);
    }

    #[test]
    fn gauge_and_float_counter_semantics() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(4.0);
        g.add(-1.0);
        g.record_max(2.5); // below current value: no-op
        assert_eq!(g.get(), 3.0);
        g.record_max(7.5);
        assert_eq!(g.get(), 7.5);
        let f = reg.float_counter("io_seconds_total", "io", &[]);
        f.add(0.25);
        f.add(0.5);
        assert!((f.get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_order_is_deterministic_and_serializable() {
        let reg = Registry::new();
        reg.counter("z_total", "z", &[]).inc();
        reg.counter("a_total", "a", &[("k", "b")]).inc();
        reg.counter("a_total", "a", &[("k", "a")]).inc();
        reg.time_histogram("h_seconds", "h", &[]).observe(0.01);
        let snap = reg.snapshot();
        let names: Vec<_> =
            snap.samples.iter().map(|s| format!("{}{:?}", s.name, s.labels)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be ordered");
        let json = serde::json::to_string(&snap);
        let back: Snapshot = serde::json::from_str(&json).unwrap();
        assert_eq!(back, snap, "snapshot must round-trip through JSON");
    }

    #[test]
    fn counters_are_monotone_under_concurrent_increments() {
        let reg = Registry::new();
        let c = reg.counter("hits_total", "hits", &[]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..1000 {
                        c.inc();
                        let now = c.get();
                        assert!(now > last, "counter went backwards");
                        last = now;
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
