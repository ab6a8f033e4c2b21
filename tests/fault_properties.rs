//! Paper invariants under fault injection.
//!
//! The fault layer is built so its perturbations are *gear-invariant*:
//! clock jitter multiplies compute time by the same factor at every
//! gear (it is keyed by logical block index, not wall time), and
//! memory/network faults add frequency-independent time. Both therefore
//! preserve the paper's slowdown bound
//!
//! ```text
//! 1 ≤ T(i+1) / T(i) ≤ f(i) / f(i+1)
//! ```
//!
//! for adjacent gears i, i+1. These tests check that claim end-to-end —
//! every kernel, at each of its valid node counts, across every
//! adjacent gear pair, with and without a fault plan — and that a
//! faulted run is a pure function of (plan, seed), independent of the
//! engine's worker count.

use powerscale::faults::{FaultPlan, DEFAULT_NOISE_LEVEL};
use powerscale::kernels::{Benchmark, ProblemClass};
use powerscale::mpi::{Cluster, RuntimeBackend};
use powerscale::policy::PolicySpec;
use powerscale::runner::{Engine, RunPlan, RunSpec};
use proptest::prelude::*;

fn engine(jobs: usize) -> Engine {
    // Serial base = memory-only cache: hermetic against the disk cache.
    Engine::serial(Cluster::athlon_fast_ethernet()).with_jobs(jobs)
}

/// Assert the slowdown bound across all six gears of one configuration.
fn assert_bound(e: &Engine, bench: Benchmark, nodes: usize, faults: Option<&FaultPlan>) {
    let spec = |gear: usize| {
        let s = RunSpec::uniform(bench, ProblemClass::Test, nodes, gear);
        match faults {
            Some(p) => s.with_faults(p.clone()),
            None => s,
        }
    };
    let times: Vec<f64> = (1..=6).map(|g| e.run(&spec(g)).time_s).collect();
    for g in 1..6 {
        let ratio = times[g] / times[g - 1];
        let bound = e.cluster().node.gears.frequency_ratio(g, g + 1);
        assert!(
            ratio >= 1.0 - 1e-9,
            "{} n={nodes} gear {g}->{}: slower gear got faster (ratio {ratio}) faults={}",
            bench.name(),
            g + 1,
            faults.is_some(),
        );
        assert!(
            ratio <= bound + 1e-9,
            "{} n={nodes} gear {g}->{}: ratio {ratio} exceeds frequency ratio {bound} faults={}",
            bench.name(),
            g + 1,
            faults.is_some(),
        );
    }
}

/// The tentpole invariant, exhaustively: every kernel × valid node
/// count × adjacent gear pair, clean and under the default noise plan.
#[test]
fn slowdown_bound_every_kernel_and_node_count() {
    let e = engine(4);
    let noisy = FaultPlan::noise(42, DEFAULT_NOISE_LEVEL);
    for bench in Benchmark::ALL {
        for nodes in bench.valid_nodes(4) {
            assert_bound(&e, bench, nodes, None);
            assert_bound(&e, bench, nodes, Some(&noisy));
        }
    }
}

/// Identical plan + seed ⇒ byte-identical results at any worker count.
/// This is the property the CI fault matrix enforces across processes;
/// here it is checked in-process down to the serialized trace bytes.
#[test]
fn faulted_sweep_identical_at_any_jobs() {
    let plan: RunPlan = RunPlan::gear_sweep(Benchmark::Cg, ProblemClass::Test, 2, 6)
        .specs
        .into_iter()
        .map(|s| s.with_faults(FaultPlan::noise(7, 0.05)))
        .collect();
    let serial = engine(1).execute(&plan);
    let parallel = engine(8).execute(&plan);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.measured_energy_j.to_bits(), b.measured_energy_j.to_bits());
        let (ja, jb) = (serde::json::to_string(&**a), serde::json::to_string(&**b));
        assert_eq!(ja, jb, "full serialized runs (traces included) must be byte-identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized fault plans are backend-invariant: the DES scheduler
    /// and the threaded driver agree bit-for-bit on faulted runs (the
    /// exhaustive clean/faulted sweep lives in `backend_identity.rs`).
    #[test]
    fn faulted_runs_are_backend_invariant(seed in 0u64..u64::MAX, level in 0.001..0.20f64) {
        let spec = RunSpec::uniform(Benchmark::Lu, ProblemClass::Test, 2, 4)
            .with_faults(FaultPlan::noise(seed, level));
        let on = |b| Engine::serial(Cluster::athlon_fast_ethernet().with_backend(b)).run(&spec);
        let (des, threaded) = (on(RuntimeBackend::Des), on(RuntimeBackend::Threaded));
        prop_assert_eq!(des.time_s.to_bits(), threaded.time_s.to_bits());
        prop_assert_eq!(des.energy_j.to_bits(), threaded.energy_j.to_bits());
        let (a, b) = (serde::json::to_string(&*des), serde::json::to_string(&*threaded));
        prop_assert_eq!(a, b, "serialized faulted runs must not depend on the backend");
    }

    /// Randomized fault plans — arbitrary seed and noise level up to an
    /// aggressive 20% — never break the bound on a 2-node CG sweep.
    #[test]
    fn slowdown_bound_survives_random_plans(
        seed in 0u64..u64::MAX,
        level in 0.001..0.20f64,
        bench_idx in 0usize..3,
    ) {
        let bench = [Benchmark::Cg, Benchmark::Ep, Benchmark::Mg][bench_idx];
        let e = engine(2);
        assert_bound(&e, bench, 2, Some(&FaultPlan::noise(seed, level)));
    }

    /// A faulted run is deterministic in (seed, level): re-running the
    /// same spec on a fresh engine reproduces it bit-for-bit, and a
    /// different seed genuinely perturbs the result.
    #[test]
    fn faulted_runs_reproduce_bitwise(seed in 0u64..u64::MAX) {
        let spec = RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 2, 3)
            .with_faults(FaultPlan::noise(seed, 0.05));
        let a = engine(1).run(&spec);
        let b = engine(4).run(&spec);
        prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        prop_assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        prop_assert_eq!(a.measured_energy_j.to_bits(), b.measured_energy_j.to_bits());

        let other = RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 2, 3)
            .with_faults(FaultPlan::noise(seed.wrapping_add(1), 0.05));
        let c = engine(1).run(&other);
        prop_assert_ne!(a.time_s.to_bits(), c.time_s.to_bits());
    }

    /// A policy-driven run still accounts for every joule: the cluster
    /// energy the run reports is the integral of the per-rank power
    /// traces, gear shifts and all — under any fault plan.
    #[test]
    fn policy_energy_sums_to_power_trace_integral(
        seed in 0u64..u64::MAX,
        level in 0.0..0.15f64,
        limit in 1.0..1.5f64,
    ) {
        let spec = RunSpec::uniform(Benchmark::Jacobi, ProblemClass::Test, 4, 1)
            .with_faults(FaultPlan::noise(seed, level))
            .with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: limit });
        let run = engine(1).run(&spec);
        let integral: f64 = run.ranks.iter().map(|r| r.power.exact_energy_j()).sum();
        let err = (run.energy_j - integral).abs() / integral.max(1e-12);
        prop_assert!(err < 1e-9, "energy {} vs power integral {integral}", run.energy_j);
    }

    /// The recorded gear shifts of a policy run are exactly its decision
    /// log, realized: same count and order, monotone non-decreasing in
    /// time, each shift landing one transition stall after its decision
    /// with the decision's gears.
    #[test]
    fn policy_shifts_match_the_decision_log(
        seed in 0u64..u64::MAX,
        level in 0.0..0.15f64,
        limit in 1.0..1.5f64,
    ) {
        let spec = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 1)
            .with_faults(FaultPlan::noise(seed, level))
            .with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: limit });
        let run = engine(1).run(&spec);
        for r in &run.ranks {
            let shifts = r.trace.gear_shifts();
            let decisions = r.trace.decisions();
            prop_assert_eq!(
                shifts.len(), decisions.len(),
                "rank {}: {} shift(s) vs {} decision(s)", r.rank, shifts.len(), decisions.len()
            );
            for window in shifts.windows(2) {
                prop_assert!(window[0].t_s <= window[1].t_s, "shifts out of order");
            }
            for (s, d) in shifts.iter().zip(decisions) {
                prop_assert!(
                    (s.t_s - s.stall_s - d.t_s).abs() < 1e-12,
                    "rank {}: shift at {} (stall {}) does not match decision at {}",
                    r.rank, s.t_s, s.stall_s, d.t_s
                );
                prop_assert_eq!(s.from_gear, d.from_gear);
                prop_assert_eq!(s.to_gear, d.to_gear);
            }
        }
    }

    /// The power cap holds at every instant of the power trace: at any
    /// sample time, the summed draw of all ranks stays under the budget
    /// (`busy_w` is the worst-case draw the cap gear guarantees).
    #[test]
    fn power_cap_budget_holds_at_every_sample(
        seed in 0u64..u64::MAX,
        level in 0.0..0.15f64,
        frac in 0.0..1.0f64,
    ) {
        let nodes = 4;
        let node = Cluster::athlon_fast_ethernet().node;
        let floor = nodes as f64 * node.power.busy_w(node.gears.slowest());
        let ceil = nodes as f64 * node.power.busy_w(node.gears.fastest());
        let budget_w = floor + frac * (ceil - floor);
        let spec = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, nodes, 1)
            .with_faults(FaultPlan::noise(seed, level))
            .with_policy(PolicySpec::PowerCap { budget_w });
        let run = engine(1).run(&spec);
        // Sample at the midpoint of every segment of every rank's trace:
        // the traces are step functions, so if the cap held at all
        // midpoints it held everywhere.
        for r in &run.ranks {
            for seg in r.power.segments() {
                let t = seg.t0_s + 0.5 * seg.duration_s();
                let draw: f64 = run.ranks.iter().map(|q| q.power.power_at(t)).sum();
                prop_assert!(
                    draw <= budget_w + 1e-6,
                    "cluster draw {draw} W exceeds budget {budget_w} W at t={t}"
                );
            }
        }
    }
}
