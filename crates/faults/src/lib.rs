//! Deterministic, seed-driven fault injection for the simulated cluster.
//!
//! A real power-scalable cluster is noisy: per-rank clock jitter,
//! straggler nodes stuck at a slow gear, memory-pressure bursts from
//! co-resident daemons, lossy links that force retransmission, and
//! wall-outlet multimeters that drop samples and read a little high or
//! low. The paper's conclusions (the slowdown bound, the case-1/2/3
//! taxonomy, CG's energy headline) are only credible in a reproduction
//! if they are *shape-stable* under exactly those perturbations.
//!
//! This crate defines the [`FaultPlan`] — a serde round-trippable
//! description of scheduled perturbations — and the deterministic
//! machinery that applies it:
//!
//! * [`rng::FaultRng`] — a SplitMix64-style counter RNG. Every draw is
//!   a pure function of `(plan seed, rank, stream, event index)`, so
//!   injection is independent of host thread scheduling and of the
//!   sweep engine's `--jobs` level: identical seed + plan ⇒
//!   byte-identical results.
//! * [`RankFaults`] — per-rank runtime state handed to each simulated
//!   rank. Perturbations are keyed by *logical indices* (compute-block
//!   number, message number), never by virtual time, so the same
//!   perturbation lands on the same operation at every gear. That is
//!   what keeps the paper's gear-relative invariants provable under
//!   noise (see `DESIGN.md` notes in each component's docs).

#![forbid(unsafe_code)]

pub mod plan;
pub mod rng;

pub use plan::{
    ClockJitter, ComputePerturb, FaultPlan, MemoryBurst, NetworkFaults, RankFaults, SendPerturb,
    Straggler, WattmeterFaults, DEFAULT_NOISE_LEVEL,
};
pub use rng::FaultRng;
