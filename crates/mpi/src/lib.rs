//! # psc-mpi
//!
//! A virtual-time message-passing runtime with an MPI-style API, used to
//! execute real parallel programs (the kernels in `psc-kernels`) on a
//! *simulated* power-scalable cluster.
//!
//! ## How it works
//!
//! Every rank owns a **virtual clock** (seconds, `f64`). Under the
//! default [`cluster::RuntimeBackend::Des`] backend all ranks run as
//! coroutines of a single-threaded discrete-event scheduler,
//! suspended at blocking operations and resumed in wake order (the
//! order their messages are delivered); the
//! [`cluster::RuntimeBackend::Threaded`] backend runs each rank on an
//! OS thread instead, one at a time, handing a baton on in the same
//! order. It is the fallback where no context switch exists, and the
//! identity suites' reference. The two produce byte-identical results.
//! Two things advance the clock:
//!
//! * [`comm::Comm::compute`] — executing a work block, charged by the
//!   node's CPU model at the rank's current gear (CPU time scales with
//!   frequency; memory-stall time does not);
//! * message-passing calls — charged by the [`network::NetworkModel`]
//!   (latency + bytes/bandwidth), **independent of the gear**, exactly as
//!   the paper observes ("the time for communication is independent of
//!   the energy gear").
//!
//! Messages carry their virtual arrival time; a receive completes at
//! `max(post time, arrival time)` and the difference is *idle time*. An
//! interception layer ([`trace`]) records the enter/exit timestamps of
//! every call — the paper's Step 1 instrumentation — from which the
//! active/idle decomposition `T^A`/`T^I` is recovered.
//!
//! Collectives ([`comm::Comm::barrier`], `bcast`, `reduce`, `allreduce`,
//! `allgather`, `alltoall`, …) are implemented algorithmically over
//! point-to-point messages (binomial trees, dissemination, ring, pairwise
//! exchange), so their logarithmic/linear/quadratic scaling — which the
//! paper classifies per benchmark — emerges from the actual message
//! pattern rather than from an analytic shortcut.
//!
//! Execution is deterministic: receives name their source and tag, there
//! are no wildcard receives, and the virtual-time arithmetic does not
//! depend on thread scheduling.
//!
//! It is also *re-timable*: what a program asks of its `Comm` does not
//! depend on the gear, the policy or the fault plan, so
//! [`cluster::Cluster::run_recorded`] hands back the program's
//! [`skeleton::Skeleton`] and [`cluster::Cluster::retime`] runs it again
//! under any other configuration — bit-identically, without the
//! program's arithmetic, and without coroutines: each rank's recorded
//! ops are stepped by a cursor that parks at a receive whose message has
//! not arrived (DESIGN.md §12). The two rank drivers above therefore
//! run only full runs, the recordings among them.

// Only `des::coro` may write `unsafe` (it allows `unsafe_code` for
// itself), and clippy holds every block, impl and fn there to a
// `// SAFETY:` comment or a `# Safety` section.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod comm;
pub(crate) mod des;
pub mod network;
pub mod payload;
pub mod policyhook;
pub mod reduce;
pub(crate) mod retime;
pub(crate) mod router;
pub mod skeleton;
pub mod trace;

pub use cluster::{
    BackendStats, Cluster, ClusterConfig, GearSelection, RankResult, RunResult, RuntimeBackend,
};
pub use comm::{Comm, RecvRequest};
/// Stack size of each DES rank coroutine (for interpreting
/// [`BackendStats::stack_high_water_bytes`]).
pub use des::coro::STACK_BYTES as DES_STACK_BYTES;
pub use network::NetworkModel;
pub use policyhook::{ClusterPolicy, InertRankPolicy, Observation, PolicyEvent, RankPolicy};
pub use reduce::ReduceOp;
pub use skeleton::{RankSkeleton, Skeleton};
pub use trace::{
    FaultEvent, FaultKind, GearShift, MpiOp, PhaseSpan, PolicyDecision, RankTrace, TraceEvent,
};
