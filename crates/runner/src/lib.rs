//! # psc-runner
//!
//! The sweep-execution engine: runs a [`RunPlan`] of independent
//! benchmark measurements across a bounded worker pool, memoizing every
//! result in a content-addressed [`RunCache`].
//!
//! A measurement campaign — an energy-time curve, a node-count sweep, a
//! gear profile, a whole figure suite — is a list of *independent*
//! [`RunSpec`]s: `(benchmark, problem class, node count, gears)`. The
//! [`Engine`] executes such a plan with three properties:
//!
//! 1. **Parallel and deterministic.** Runs execute on up to
//!    `jobs` worker threads (`--jobs` / `PSC_JOBS`, default = available
//!    parallelism), but because the simulator advances only *virtual*
//!    time, results are bit-identical to a serial execution regardless
//!    of worker count or host scheduling. Results come back in plan
//!    order.
//! 2. **Memoized.** Each spec is hashed — together with the cluster's
//!    node spec, network model, and wattmeter configuration — into a
//!    content key. Duplicate runs (the gear-1 point shared by an
//!    energy-time curve and a node-count sweep, say) execute once; a
//!    disk layer extends the memoization across processes, so `table1`
//!    reuses the curves `fig1` already measured.
//! 3. **Accounted.** Hit/miss/disk-hit counters are exposed via
//!    [`Engine::cache_stats`] and flow into telemetry manifests, so a
//!    sweep always reports how much work it actually did.
//!
//! Environment knobs:
//!
//! * `PSC_JOBS=N` — default worker count ([`default_jobs`]).
//! * `PSC_CACHE_DIR=path` — disk cache location (default
//!   `target/psc-run-cache`).
//! * `PSC_CACHE=0` — disable the disk layer (memory-only memoization).
//!
//! The disk cache is keyed by *configuration*, not by kernel source: if
//! you edit a kernel, wipe the cache directory (or set `PSC_CACHE=0`)
//! to avoid reusing stale measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod plan;

pub use cache::{CacheStats, RunCache};
pub use engine::{default_jobs, Engine, RunOutcome};
pub use metrics::{EngineMetrics, PoolUtilization};
pub use plan::{RunPlan, RunSpec};
/// The host stopwatch, re-exported so sweep drivers time themselves on
/// the same clock the engine profiles with.
pub use psc_metrics::Stopwatch;
