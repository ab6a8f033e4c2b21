//! Engine self-observability: the bridge between the sweep engine and
//! `psc-metrics`.
//!
//! [`EngineMetrics`] owns a metrics [`Registry`] and a span
//! [`Profiler`] and exposes the narrow set of hooks the engine and the
//! run cache call. Everything here is **observation-only** (analyzer
//! rule M001): hooks read host clocks and bump atomics, but nothing
//! they produce can reach a cache key, a [`crate::RunSpec`], or a
//! simulated result — figure CSVs are byte-identical whether metrics
//! are enabled or disabled, at any worker count.
//!
//! ## Metric families
//!
//! | name | kind | labels | meaning |
//! |---|---|---|---|
//! | `engine_plans_total` | counter | — | `execute()` calls |
//! | `engine_specs_total` | counter | — | specs across all plans |
//! | `engine_runs_total` | counter | `outcome` | per-spec outcome: `executed`, `mem_hit`, `disk_hit`, `dedup_join`, `inflight_join` |
//! | `engine_runs_simulated` | counter | — | simulations actually executed — under in-flight dedup, exactly one per unique cache key |
//! | `engine_runs_replayed_total` | counter | — | the simulations among those that re-timed a recorded skeleton instead of running the kernel |
//! | `engine_skeletons` | gauge | — | `(kernel, class, nodes)` tuples whose skeleton the engine holds |
//! | `engine_skeleton_bytes` | gauge | — | heap bytes of those skeletons |
//! | `engine_run_wall_seconds` | histogram | `bench`, `gear`, `tier` | host wall-clock per *executed* run; `tier` is `full` (kernel ran) or `replay` |
//! | `engine_des_events_total` | counter | — | rank dispatches across recordings (`tier=full` runs): turns handed out in wake order, the same count under the DES and the threaded driver; a re-timing reports none |
//! | `engine_des_stack_high_water_bytes` | gauge | — | peak rank-coroutine stack usage across recordings (a re-timing has no coroutine stacks, and the threaded backend reports 0) |
//! | `engine_cache_lookups_total` | counter | `result` | cache layer answers: `mem_hit`, `disk_hit`, `miss` |
//! | `engine_cache_corrupt_total` | counter | — | damaged disk entries healed by re-execution |
//! | `engine_cache_serialize_seconds_total` | counter (f64) | — | time serializing results for disk |
//! | `engine_cache_disk_read_seconds_total` | counter (f64) | — | time reading + parsing disk entries |
//! | `engine_cache_disk_write_seconds_total` | counter (f64) | — | time in the atomic write + rename |
//! | `engine_queue_depth` | gauge | — | high-water mark of the miss queue (most keys one plan simulated) |
//! | `engine_queue_wait_seconds` | histogram | — | enqueue → start latency per executed run (0 for `run`, which has no queue) |
//! | `engine_worker_busy_seconds_total` | counter (f64) | — | summed per-worker execution time |
//! | `engine_pool_wall_seconds_total` | counter (f64) | — | wall time the pool was open |
//! | `engine_pool_slot_seconds_total` | counter (f64) | — | `workers × pool wall` (capacity) |
//!
//! Worker utilization is `busy / slot`; the gap between `slot` and
//! `busy` is exactly the idle time a bare wall-clock speedup figure
//! hides.
//!
//! ## Handles and by-name lookups
//!
//! A series whose labels come from a closed set — the `Lookup`
//! answers of `engine_cache_lookups_total` and the `Outcome`s of
//! `engine_runs_total` — is a handle in an array indexed by its enum,
//! resolved on first use, so it enters a snapshot exactly when its
//! first event happens. Those hooks fire on every cache hit, and a hit
//! then takes no registry lock and allocates nothing. Every other
//! series is looked up by name per event: the per-run and per-plan
//! hooks (`on_run_executed`, `on_plan`, `on_pool_closed`,
//! `on_skeletons`) observe at least half a millisecond of work each,
//! the disk-layer hooks time a file read or write, and
//! `engine_run_wall_seconds{bench,gear,tier}` has an open label set.

use crate::engine::Tier;
use psc_metrics::{Counter, FloatCounter, Profiler, Registry, Snapshot, SpanRecord, Stopwatch};
use std::sync::{Arc, OnceLock};

/// Which cache layer answered a lookup: the `result` label of
/// `engine_cache_lookups_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lookup {
    /// The memory layer held the key.
    MemHit,
    /// A disk entry was read and promoted into memory.
    DiskHit,
    /// Neither layer could answer; the spec will be simulated.
    Miss,
}

impl Lookup {
    fn label(self) -> &'static str {
        match self {
            Lookup::MemHit => "mem_hit",
            Lookup::DiskHit => "disk_hit",
            Lookup::Miss => "miss",
        }
    }
}

/// How one requested spec obtained its result: the `outcome` label of
/// `engine_runs_total`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// Simulated here (a counted cache miss).
    Executed,
    /// Answered by the memory layer.
    MemHit,
    /// Answered by a disk entry.
    DiskHit,
    /// A duplicate inside one plan shared its first occurrence's run.
    DedupJoin,
    /// Joined a run another caller had in flight.
    InflightJoin,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Executed => "executed",
            Outcome::MemHit => "mem_hit",
            Outcome::DiskHit => "disk_hit",
            Outcome::DedupJoin => "dedup_join",
            Outcome::InflightJoin => "inflight_join",
        }
    }
}

/// Self-observability state shared by an [`crate::Engine`] and its
/// [`crate::RunCache`]. Cheap to clone behind an [`Arc`]; a disabled
/// instance turns every hook into a no-op (used by the ledger's
/// `metrics.engine_overhead_frac`, by `tests/metrics_identity.rs`, and
/// by callers that want a guaranteed-untouched engine).
#[derive(Debug)]
pub struct EngineMetrics {
    enabled: bool,
    registry: Registry,
    profiler: Profiler,
    /// `engine_cache_lookups_total{result}`, indexed by [`Lookup`].
    lookups: [OnceLock<Counter>; 3],
    /// `engine_runs_total{outcome}`, indexed by [`Outcome`].
    outcomes: [OnceLock<Counter>; 5],
}

impl EngineMetrics {
    fn with_enabled(enabled: bool) -> Arc<Self> {
        Arc::new(EngineMetrics {
            enabled,
            registry: Registry::new(),
            profiler: Profiler::new(),
            lookups: Default::default(),
            outcomes: Default::default(),
        })
    }

    /// An enabled instance.
    pub fn new() -> Arc<Self> {
        Self::with_enabled(true)
    }

    /// A disabled instance: every hook is a no-op, the registry stays
    /// empty.
    pub fn disabled() -> Arc<Self> {
        Self::with_enabled(false)
    }

    /// The underlying registry (for export and for tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span profiler (for export and for tests).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// A deterministic point-in-time copy of every metric series.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Every recorded span, deterministically ordered.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.profiler.records()
    }

    // ---- engine hooks (crate-internal) --------------------------------

    /// A plan entered `execute()`.
    pub(crate) fn on_plan(&self, specs: usize) {
        if !self.enabled {
            return;
        }
        self.registry.counter("engine_plans_total", "Plan executions.", &[]).inc();
        self.registry
            .counter("engine_specs_total", "Specs across all executed plans.", &[])
            .add(specs as u64);
    }

    /// A per-spec outcome was decided.
    pub(crate) fn on_outcome(&self, outcome: Outcome) {
        if !self.enabled {
            return;
        }
        self.outcomes[outcome as usize]
            .get_or_init(|| {
                let labels = [("outcome", outcome.label())];
                self.registry.counter("engine_runs_total", "Per-spec outcomes.", &labels)
            })
            .inc();
    }

    /// One run actually executed on a worker lane, by running the
    /// kernel or by re-timing its skeleton (`tier`). `backend` carries
    /// a recording's dispatch count and coroutine stack high-water mark
    /// (both 0 for a re-timing, which reports none; the high-water mark
    /// is also 0 under the threaded backend, whose ranks run on
    /// OS-thread stacks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_run_executed(
        &self,
        bench: &str,
        gear: &str,
        tier: Tier,
        lane: u64,
        queue_wait_s: f64,
        backend: psc_mpi::BackendStats,
        sw: &Stopwatch,
    ) {
        if !self.enabled {
            return;
        }
        self.registry
            .time_histogram(
                "engine_run_wall_seconds",
                "Host wall-clock per executed run.",
                &[("bench", bench), ("gear", gear), ("tier", tier.label())],
            )
            .observe(sw.elapsed_s());
        if tier == Tier::Replay {
            self.registry
                .counter(
                    "engine_runs_replayed_total",
                    "Simulations answered by re-timing a recorded skeleton.",
                    &[],
                )
                .inc();
        }
        if backend.events_processed > 0 {
            self.registry
                .counter(
                    "engine_des_events_total",
                    "Rank dispatches across recordings, in wake order (re-timings report none).",
                    &[],
                )
                .add(backend.events_processed);
        }
        if backend.stack_high_water_bytes > 0 {
            self.registry
                .gauge(
                    "engine_des_stack_high_water_bytes",
                    "Peak rank-coroutine stack usage across recordings (re-timings have no stacks).",
                    &[],
                )
                .record_max(backend.stack_high_water_bytes as f64);
        }
        self.registry
            .time_histogram(
                "engine_queue_wait_seconds",
                "Enqueue-to-start latency per executed run.",
                &[],
            )
            .observe(queue_wait_s);
        self.registry
            .counter(
                "engine_runs_simulated",
                "Simulations actually executed (one per unique cache key under dedup).",
                &[],
            )
            .inc();
        self.on_outcome(Outcome::Executed);
        self.profiler.record(
            "run",
            "run",
            lane,
            sw,
            &[("bench", bench.to_string()), ("gear", gear.to_string())],
        );
    }

    /// The skeleton store now holds `count` skeletons in `bytes` of heap.
    pub(crate) fn on_skeletons(&self, count: usize, bytes: usize) {
        if !self.enabled {
            return;
        }
        self.registry
            .gauge("engine_skeletons", "Kernel/class/nodes tuples with a recorded skeleton.", &[])
            .set(count as f64);
        self.registry
            .gauge("engine_skeleton_bytes", "Heap bytes held by recorded skeletons.", &[])
            .set(bytes as f64);
    }

    /// A plan's pool closed: `workers` lanes were open for the
    /// stopwatch's interval, simulated `misses` of the plan's keys and
    /// spent `busy_s` host seconds doing so.
    pub(crate) fn on_pool_closed(
        &self,
        workers: usize,
        misses: usize,
        busy_s: f64,
        sw: &Stopwatch,
    ) {
        if !self.enabled {
            return;
        }
        self.registry
            .gauge("engine_queue_depth", "High-water mark of the miss queue.", &[])
            .record_max(misses as f64);
        let wall = sw.elapsed_s();
        self.float("engine_pool_wall_seconds_total", "Wall time the worker pool was open.", wall);
        self.float(
            "engine_pool_slot_seconds_total",
            "Worker-seconds of pool capacity (workers x wall).",
            workers as f64 * wall,
        );
        self.float("engine_worker_busy_seconds_total", "Summed per-worker execution time.", busy_s);
        self.profiler.record("pool", "engine", 0, sw, &[("workers", workers.to_string())]);
    }

    fn float(&self, name: &str, help: &str, v: f64) {
        self.registry.float_counter(name, help, &[]).add(v);
    }

    /// Start a stopwatch only when hooks will consume it — keeps the
    /// disabled path free of clock reads.
    pub(crate) fn stopwatch(&self) -> Option<Stopwatch> {
        if self.enabled {
            Some(Stopwatch::start())
        } else {
            None
        }
    }

    /// The cache-side handle bundle for this instance (no-op when
    /// disabled).
    pub(crate) fn cache_hooks(self: &Arc<Self>) -> CacheHooks {
        CacheHooks { metrics: Arc::clone(self) }
    }
}

/// The run cache's view of [`EngineMetrics`]: counts layer outcomes and
/// accumulates I/O time. A thin wrapper so `cache.rs` never touches the
/// registry directly.
#[derive(Debug, Clone)]
pub(crate) struct CacheHooks {
    metrics: Arc<EngineMetrics>,
}

impl CacheHooks {
    fn float(&self, name: &str, help: &str) -> Option<FloatCounter> {
        if !self.metrics.enabled {
            return None;
        }
        Some(self.metrics.registry.float_counter(name, help, &[]))
    }

    /// A lookup was answered by the given layer; a hit is also that
    /// spec's outcome.
    pub(crate) fn on_lookup(&self, result: Lookup) {
        let m = &self.metrics;
        if !m.enabled {
            return;
        }
        m.lookups[result as usize]
            .get_or_init(|| {
                let labels = [("result", result.label())];
                m.registry.counter(
                    "engine_cache_lookups_total",
                    "Cache lookups by layer answer.",
                    &labels,
                )
            })
            .inc();
        match result {
            Lookup::MemHit => m.on_outcome(Outcome::MemHit),
            Lookup::DiskHit => m.on_outcome(Outcome::DiskHit),
            Lookup::Miss => {}
        }
    }

    /// A damaged disk entry was detected (it reads as a miss and is
    /// healed by the re-executed result's insert).
    pub(crate) fn on_corrupt(&self) {
        if self.metrics.enabled {
            self.metrics
                .registry
                .counter(
                    "engine_cache_corrupt_total",
                    "Damaged disk entries healed by re-execution.",
                    &[],
                )
                .inc();
        }
    }

    /// An in-plan duplicate joined the first occurrence's run.
    pub(crate) fn on_dedup_join(&self) {
        self.metrics.on_outcome(Outcome::DedupJoin);
    }

    /// A caller joined a run that another caller had in flight (the
    /// engine's cross-caller dedup table).
    pub(crate) fn on_inflight_join(&self) {
        self.metrics.on_outcome(Outcome::InflightJoin);
    }

    /// Start a stopwatch only when enabled.
    pub(crate) fn stopwatch(&self) -> Option<Stopwatch> {
        self.metrics.stopwatch()
    }

    /// Account time spent serializing a result for disk.
    pub(crate) fn add_serialize(&self, sw: Option<Stopwatch>) -> Option<Stopwatch> {
        if let (Some(sw), Some(f)) = (
            sw,
            self.float(
                "engine_cache_serialize_seconds_total",
                "Time serializing results for the disk layer.",
            ),
        ) {
            f.add(sw.elapsed_s());
        }
        self.stopwatch()
    }

    /// Account time spent reading + parsing a disk entry.
    pub(crate) fn add_disk_read(&self, sw: Option<Stopwatch>) {
        if let (Some(sw), Some(f)) = (
            sw,
            self.float(
                "engine_cache_disk_read_seconds_total",
                "Time reading and parsing disk entries.",
            ),
        ) {
            f.add(sw.elapsed_s());
        }
    }

    /// Account time spent in the atomic temp-write + rename.
    pub(crate) fn add_disk_write(&self, sw: Option<Stopwatch>) {
        if let (Some(sw), Some(f)) = (
            sw,
            self.float(
                "engine_cache_disk_write_seconds_total",
                "Time in the atomic disk write + rename.",
            ),
        ) {
            f.add(sw.elapsed_s());
        }
    }
}

/// Derived utilization view over a metrics [`Snapshot`] — the numbers
/// `powerscale stats` reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolUtilization {
    /// Summed per-worker execution seconds.
    pub busy_s: f64,
    /// Worker-seconds of capacity while pools were open.
    pub slot_s: f64,
    /// Wall seconds pools were open.
    pub pool_wall_s: f64,
}

impl PoolUtilization {
    /// Read the pool counters out of a snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let total = |name: &str| snap.get(name, &[]).map(|s| s.scalar()).unwrap_or(0.0);
        PoolUtilization {
            busy_s: total("engine_worker_busy_seconds_total"),
            slot_s: total("engine_pool_slot_seconds_total"),
            pool_wall_s: total("engine_pool_wall_seconds_total"),
        }
    }

    /// Busy fraction of pool capacity, in `[0, 1]` (0 when no pool ran).
    pub fn utilization(&self) -> f64 {
        if self.slot_s > 0.0 {
            (self.busy_s / self.slot_s).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = EngineMetrics::disabled();
        m.on_plan(5);
        m.on_outcome(Outcome::Executed);
        assert!(m.stopwatch().is_none());
        let hooks = m.cache_hooks();
        hooks.on_lookup(Lookup::Miss);
        hooks.on_corrupt();
        hooks.add_disk_read(None);
        assert!(m.snapshot().samples.is_empty());
        assert!(m.spans().is_empty());
    }

    #[test]
    fn enabled_hooks_accumulate() {
        let m = EngineMetrics::new();
        m.on_plan(3);
        m.on_plan(2);
        let hooks = m.cache_hooks();
        hooks.on_lookup(Lookup::MemHit);
        hooks.on_lookup(Lookup::Miss);
        hooks.on_dedup_join();
        let snap = m.snapshot();
        assert_eq!(snap.get("engine_plans_total", &[]).unwrap().scalar(), 2.0);
        assert_eq!(snap.get("engine_specs_total", &[]).unwrap().scalar(), 5.0);
        assert_eq!(
            snap.get("engine_cache_lookups_total", &[("result", "mem_hit")]).unwrap().scalar(),
            1.0
        );
        assert_eq!(
            snap.get("engine_runs_total", &[("outcome", "dedup_join")]).unwrap().scalar(),
            1.0
        );
        // A hit is also the spec's outcome, and the handle is the same
        // series a by-name lookup finds.
        hooks.on_lookup(Lookup::MemHit);
        let snap = m.snapshot();
        assert_eq!(snap.get("engine_runs_total", &[("outcome", "mem_hit")]).unwrap().scalar(), 2.0);
        let by_name = m.registry().counter(
            "engine_cache_lookups_total",
            "Cache lookups by layer answer.",
            &[("result", "mem_hit")],
        );
        assert_eq!(by_name.get(), 2);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let m = EngineMetrics::new();
        let sw = m.stopwatch().unwrap();
        m.on_pool_closed(4, 0, 1.0, &sw);
        let mut u = PoolUtilization::from_snapshot(&m.snapshot());
        assert!(u.slot_s >= 4.0 * u.pool_wall_s - 1e-9);
        u.busy_s = u.slot_s / 2.0;
        assert!((u.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(PoolUtilization::default().utilization(), 0.0);
    }
}
