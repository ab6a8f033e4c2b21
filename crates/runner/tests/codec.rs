//! The disk entry codec on real runs: for every kernel under every
//! kind of fault plan and policy, decoding an encoded result gives back
//! the same result — by `==` and by the identity suites' own measure,
//! byte-equal JSON — so a result read from disk is indistinguishable
//! from the one that was simulated. (Hand-built and hostile inputs:
//! `psc-mpi`'s `trace::tests::codec`.)

use psc_faults::plan::{ClockJitter, MemoryBurst, NetworkFaults, Straggler, WattmeterFaults};
use psc_faults::FaultPlan;
use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::{Cluster, RunResult};
use psc_policy::PolicySpec;
use psc_runner::{Engine, RunSpec};

const NODES: usize = 4;

/// Drops, latency spikes and wattmeter faults, plus a straggler, a
/// memory burst and clock jitter: every `FaultKind` fires.
fn heavy_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        clock_jitter: Some(ClockJitter { amplitude: 0.03 }),
        stragglers: vec![Straggler { rank: NODES - 1, gear: 5 }],
        memory_bursts: vec![MemoryBurst { rank: 0, start_block: 1, blocks: 4, miss_factor: 3.0 }],
        network: Some(NetworkFaults {
            spike_prob: 0.2,
            spike_latency_s: 2e-3,
            drop_prob: 0.2,
            max_retries: 4,
            retry_timeout_s: 1e-3,
            backoff: 2.0,
        }),
        wattmeter: Some(WattmeterFaults { dropout_prob: 0.1, noise_sigma: 0.05 }),
    }
}

#[test]
fn every_kernel_fault_plan_and_policy_round_trips_to_identical_json() {
    let engine = Engine::serial(Cluster::athlon_fast_ethernet());
    let node = &engine.cluster().node;
    let (floor, ceil) =
        (node.power.busy_w(node.gears.slowest()), node.power.busy_w(node.gears.fastest()));
    let policies = [
        None,
        Some(PolicySpec::Static { gear: 3 }),
        Some(PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 }),
        Some(PolicySpec::PowerCap { budget_w: NODES as f64 * (floor + 0.4 * (ceil - floor)) }),
    ];
    let plans = [None, Some(FaultPlan::noise(11, 0.05)), Some(heavy_faults(12))];

    let (mut fault_events, mut decisions, mut gear_shifts) = (0, 0, 0);
    for bench in Benchmark::ALL {
        for (p, policy) in policies.iter().enumerate() {
            for (f, faults) in plans.iter().enumerate() {
                let mut spec = RunSpec::uniform(bench, ProblemClass::Test, NODES, 1 + (p + f) % 6);
                spec.policy = policy.clone();
                spec.faults = faults.clone();
                let run = engine.run(&spec);
                let back = RunResult::from_bytes(&run.to_bytes())
                    .unwrap_or_else(|e| panic!("{spec:?} does not decode: {e}"));
                assert_eq!(back, *run, "{spec:?}");
                assert_eq!(
                    serde::json::to_string(&back),
                    serde::json::to_string(&*run),
                    "{spec:?}"
                );
                for r in &run.ranks {
                    fault_events += r.trace.fault_events().len();
                    decisions += r.trace.decisions().len();
                    gear_shifts += r.trace.gear_shifts().len();
                }
            }
        }
    }
    // The matrix reached the optional logs, not just events and power.
    assert!(fault_events > 0 && decisions > 0 && gear_shifts > 0);
}
