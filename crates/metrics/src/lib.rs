//! # psc-metrics
//!
//! Engine-side self-observability for the host half of the system: the
//! sweep engine, its run cache, and its worker pool. Where
//! `psc-telemetry` makes the *simulated* cluster observable (per-phase
//! energy attribution, per-rank traces), this crate makes the *host
//! machinery that drives simulations* observable — without ever being
//! allowed to influence what those simulations compute.
//!
//! * [`registry`] — a metrics registry whose hot path is lock-free:
//!   counters, float counters, and gauges are single atomics; histogram
//!   recording touches only atomic bucket slots. The registry mutex is
//!   taken only to create or look up a metric handle, never to update
//!   one.
//! * [`histogram`] — fixed-bucket histograms with atomic buckets,
//!   bitwise-exact merge, and quantile estimation bounded by the bucket
//!   that contains the true quantile.
//! * [`prometheus`] — renders a registry snapshot in the Prometheus
//!   text exposition format (`--metrics-out`), ready to be scraped by
//!   the future sweep job server.
//! * [`span`] — a host-side profiling span layer ([`Profiler`]): the
//!   engine records what *it* spent wall-clock on (resolving a plan,
//!   waiting in queue, executing a run, serializing a cache entry), and
//!   `psc-telemetry` exports the records as a flamegraph-able Chrome
//!   trace (`--self-trace-out`).
//! * [`jsonl`] — a structured JSONL event log (`--events-out`): one
//!   JSON object per line, spans and metric samples interleaved, for
//!   machine consumption without a trace viewer.
//! * [`clock`] — the workspace's **only** wall-clock access, exempt
//!   from clippy's clock ban by `#[allow]`; sweep binaries time
//!   themselves with its [`Stopwatch`] too.
//!
//! ## The observation-only contract (analyzer rule M001)
//!
//! Metrics observe the host; they must never steer the simulation.
//! Nothing metrics-derived may enter a cache key, a `RunSpec`, or a
//! `RunResult` — figure CSVs are byte-identical with metrics enabled or
//! disabled, at any worker count. `psc-analyze` rule M001 enforces this
//! boundary statically: simulation crates other than the runner may not
//! depend on this crate at all, and inside the runner the cache-key and
//! spec-execution paths must stay metrics-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod histogram;
pub mod jsonl;
pub mod prometheus;
pub mod registry;
pub mod span;

pub use clock::Stopwatch;
pub use histogram::{Histogram, HistogramSnapshot};
pub use jsonl::events_jsonl;
pub use prometheus::{render_prometheus, validate_exposition};
pub use registry::{
    Counter, FloatCounter, Gauge, MetricKind, Registry, Sample, SampleValue, Snapshot,
};
pub use span::{Profiler, SpanRecord};
