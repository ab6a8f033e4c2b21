//! Host-side self-profiling spans.
//!
//! A [`SpanRecord`] is one interval of host wall-clock attributed to a
//! named activity on a logical lane (`tid` — worker index, or 0 for
//! the coordinating thread). The engine records what *it* spent time
//! on — a plan's worker pool, executing a run, serializing a cache
//! entry — and
//! `psc-telemetry` turns the records into a Chrome/Perfetto trace
//! (`--self-trace-out`) on the same timeline the [`crate::clock`]
//! epoch defines.
//!
//! Recording is a short mutex push (cold path compared to the atomic
//! metrics); exports sort records into a deterministic order.

use crate::clock::Stopwatch;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// One completed host-side interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Activity name (e.g. `"pool"`, `"run"`, `"cache.disk_write"`).
    pub name: String,
    /// Coarse category for trace-viewer filtering (e.g. `"engine"`,
    /// `"cache"`, `"run"`).
    pub cat: String,
    /// Logical lane: worker index + 1, or 0 for the coordinator.
    pub tid: u64,
    /// Start, in microseconds since the process epoch.
    pub t_start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Free-form detail pairs (kernel name, gear, cache outcome, …).
    pub args: Vec<(String, String)>,
}

/// Collects [`SpanRecord`]s from any thread.
#[derive(Debug, Default)]
pub struct Profiler {
    spans: Mutex<Vec<SpanRecord>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Record the interval measured by `sw` (started earlier, ends
    /// now) as a span.
    pub fn record(&self, name: &str, cat: &str, tid: u64, sw: &Stopwatch, args: &[(&str, String)]) {
        let rec = SpanRecord {
            name: name.to_string(),
            cat: cat.to_string(),
            tid,
            t_start_us: sw.started_us(),
            dur_us: sw.elapsed_us(),
            args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        self.spans.lock().unwrap().push(rec);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every span, sorted by start time, then lane, then
    /// name — a deterministic order for a given set of records.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().unwrap().clone();
        spans.sort_by(|a, b| {
            a.t_start_us
                .partial_cmp(&b.t_start_us)
                .unwrap()
                .then(a.tid.cmp(&b.tid))
                .then(a.name.cmp(&b.name))
        });
        spans
    }

    /// Drop all recorded spans.
    pub fn clear(&self) {
        self.spans.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_the_stopwatch_interval() {
        let p = Profiler::new();
        let sw = Stopwatch::start();
        p.record("resolve", "engine", 0, &sw, &[("specs", "5".to_string())]);
        let recs = p.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "resolve");
        assert_eq!(recs[0].t_start_us, sw.started_us());
        assert!(recs[0].dur_us >= 0.0);
        assert_eq!(recs[0].args, vec![("specs".to_string(), "5".to_string())]);
    }

    #[test]
    fn records_are_sorted_and_clear_empties() {
        let p = Profiler::new();
        let sw = Stopwatch::start();
        p.record("b", "engine", 2, &sw, &[]);
        p.record("a", "engine", 1, &sw, &[]);
        let recs = p.records();
        assert_eq!((recs[0].tid, recs[1].tid), (1, 2), "ties break by lane");
        p.clear();
        assert!(p.is_empty());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..100 {
                        let sw = Stopwatch::start();
                        p.record("run", "run", t + 1, &sw, &[]);
                    }
                });
            }
        });
        assert_eq!(p.len(), 400);
    }
}
