//! Sweep manifests: one JSON record per measurement campaign.
//!
//! Where a [`crate::RunManifest`] describes a single run, a
//! [`SweepManifest`] describes the *execution* of a whole sweep: how
//! many runs the plan named, how many actually executed, how the run
//! cache performed (hits, misses, disk hits), the worker count, and the
//! host wall-clock spent. The `paper` campaign and the CLI write one per
//! sweep under `results/`, so every published curve is accompanied by a
//! record of how much work produced it.

use serde::{json, Deserialize, Serialize};

/// A record of one sweep execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepManifest {
    /// What the sweep was (e.g. `"fig1"`, `"sweep-cg-test"`).
    pub label: String,
    /// Worker pool size used.
    pub jobs: usize,
    /// Number of runs the plan asked for (counting duplicates).
    pub total_specs: u64,
    /// Number of simulations actually executed (= cache misses).
    pub unique_runs: u64,
    /// Lookups served from the cache or deduplicated in-plan.
    pub cache_hits: u64,
    /// Lookups that executed a run.
    pub cache_misses: u64,
    /// The subset of hits served by the disk layer (cross-process
    /// reuse).
    pub disk_hits: u64,
    /// Host wall-clock the sweep took, seconds.
    pub wall_s: f64,
}

impl SweepManifest {
    /// Fraction of requested runs that were served without executing,
    /// in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// The manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }

    /// Parse a manifest back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        json::from_str(text)
    }

    /// A one-line human summary for binary stdout.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} run(s) requested, {} executed, {} cached ({} from disk), \
             {:.0}% hit rate, {} worker(s), {:.2} s wall",
            self.label,
            self.total_specs,
            self.unique_runs,
            self.cache_hits,
            self.disk_hits,
            self.hit_rate() * 100.0,
            self.jobs,
            self.wall_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepManifest {
        SweepManifest {
            label: "fig1".into(),
            jobs: 4,
            total_specs: 36,
            unique_runs: 30,
            cache_hits: 6,
            cache_misses: 30,
            disk_hits: 2,
            wall_s: 1.25,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let m = sample();
        let back = SweepManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let m = sample();
        assert!((m.hit_rate() - 6.0 / 36.0).abs() < 1e-12);
        let empty = SweepManifest { cache_hits: 0, cache_misses: 0, ..sample() };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn summary_mentions_the_label_and_counts() {
        let s = sample().summary();
        assert!(s.contains("fig1"));
        assert!(s.contains("36 run(s) requested"));
        assert!(s.contains("30 executed"));
    }
}
