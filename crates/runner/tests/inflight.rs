//! In-flight dedup: N concurrent callers with overlapping spec sets
//! must trigger exactly one simulation per unique cache key, and every
//! caller must observe results byte-identical to serial execution.
//!
//! This is the property the job server (psc-serve) leans on: its worker
//! lanes all call `Engine::run` on one shared engine, so cross-request
//! dedup lives here, not in the server. It holds on every entry point:
//! `Engine::execute` resolves its keys through the same in-flight
//! table, so overlapping plans — and plans racing single runs — still
//! simulate each key once.

use psc_kernels::{Benchmark, ProblemClass};
use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache, RunPlan, RunSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};

/// Seeded LCG (Numerical Recipes constants) — deterministic spec picks
/// without any ambient RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small universe of distinct specs (two benches × node counts ×
/// gears) the clients draw from with heavy overlap.
fn universe() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for bench in [Benchmark::Ep, Benchmark::Cg] {
        for nodes in [1usize, 2] {
            for gear in 1..=4 {
                specs.push(RunSpec::uniform(bench, ProblemClass::Test, nodes, gear));
            }
        }
    }
    specs
}

fn engine() -> Engine {
    Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory())
}

/// Even-numbered clients submit their picks as one plan through
/// `Engine::execute` (in-plan duplicates included), odd-numbered ones
/// loop over `Engine::run` — so plans overlap plans, plans race single
/// runs, and runs race runs, all on one in-flight table.
#[test]
fn concurrent_overlapping_clients_simulate_each_key_once() {
    let universe = universe();
    let shared = Arc::new(engine().with_jobs(2));

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 24;

    // Each client draws a deterministic overlapping subset.
    let picks: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = Lcg(0x5eed_0000 + c as u64);
            (0..REQUESTS_PER_CLIENT).map(|_| rng.pick(universe.len())).collect()
        })
        .collect();
    let unique: BTreeSet<u64> =
        picks.iter().flatten().map(|&i| shared.cache_key(&universe[i])).collect();

    // Fire all clients at once (barrier maximizes in-flight overlap).
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut results: Vec<Vec<(usize, String)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(c, client_picks)| {
                let (shared, barrier) = (Arc::clone(&shared), Arc::clone(&barrier));
                let specs: Vec<RunSpec> =
                    client_picks.iter().map(|&i| universe[i].clone()).collect();
                scope.spawn(move || {
                    barrier.wait();
                    let runs = if c % 2 == 0 {
                        shared.execute(&RunPlan { specs })
                    } else {
                        specs.iter().map(|s| shared.run(s)).collect()
                    };
                    client_picks
                        .iter()
                        .zip(&runs)
                        .map(|(&i, run)| (i, serde::json::to_string(&**run)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        results.extend(handles.into_iter().map(|h| h.join().expect("client panicked")));
    });

    // Exactly one simulation per unique key — the metrics counter is
    // the ground truth the issue asks us to assert on.
    let snap = shared.metrics().snapshot();
    assert_eq!(
        snap.get("engine_runs_simulated", &[]).expect("counter present").scalar(),
        unique.len() as f64,
        "every unique key must simulate exactly once across {CLIENTS} concurrent clients"
    );

    // Cache accounting: one lookup-equivalent per call, misses == runs.
    let stats = shared.cache_stats();
    assert_eq!(stats.misses, unique.len() as u64);
    assert_eq!(stats.lookups(), (CLIENTS * REQUESTS_PER_CLIENT) as u64);

    // Byte-identity against a fresh serial engine.
    let serial = engine();
    let expected: BTreeMap<usize, String> = picks
        .iter()
        .flatten()
        .map(|&i| (i, serde::json::to_string(&*serial.run(&universe[i]))))
        .collect();
    for client in &results {
        for (i, json) in client {
            assert_eq!(json, &expected[i], "spec {i} diverged from serial execution");
        }
    }
}

/// The forced-collision case: every client asks for the *same* uncached
/// spec at the same instant. One simulation; everyone else joins it
/// (in flight) or hits the freshly filled memory layer — both are hits.
#[test]
fn identical_simultaneous_requests_share_one_simulation() {
    let shared = Arc::new(engine());
    let spec = RunSpec::uniform(Benchmark::Mg, ProblemClass::Test, 2, 3);

    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut blobs: Vec<String> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (shared, barrier, spec) =
                    (Arc::clone(&shared), Arc::clone(&barrier), spec.clone());
                scope.spawn(move || {
                    barrier.wait();
                    serde::json::to_string(&*shared.run(&spec))
                })
            })
            .collect();
        blobs.extend(handles.into_iter().map(|h| h.join().expect("client panicked")));
    });

    let snap = shared.metrics().snapshot();
    assert_eq!(snap.get("engine_runs_simulated", &[]).unwrap().scalar(), 1.0);
    let stats = shared.cache_stats();
    assert_eq!(stats.misses, 1, "one owner");
    assert_eq!(stats.hits, (CLIENTS - 1) as u64, "everyone else shared it");
    // No disk and no plan-level dedup involved here: the hits are
    // in-flight joins plus memory hits from after the owner published.
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.shared_hits, 0);
    assert!(stats.inflight_joins <= stats.hits);
    for blob in &blobs {
        assert_eq!(blob, &blobs[0], "every client got the same bytes");
    }
}

/// Each `(kernel, class, nodes)` tuple is recorded once at any worker
/// count: the specs of a fresh tuple that race through the pool claim
/// the tuple as keys are claimed, so one records it and the rest wait
/// and re-time its skeleton. Every executed spec but one per tuple is
/// a replay.
#[test]
fn each_tuple_is_recorded_once_at_any_worker_count() {
    let plan = RunPlan { specs: universe() };
    let tuples: BTreeSet<_> = plan.specs.iter().map(|s| (s.bench, s.nodes)).collect();
    for jobs in [1, 2, 8] {
        let e = engine().with_jobs(jobs);
        e.execute(&plan);
        let executed = e.cache_stats().misses;
        assert_eq!(executed, plan.len() as u64, "jobs {jobs}: every spec is distinct");
        let snap = e.metrics().snapshot();
        let replayed = snap.get("engine_runs_replayed_total", &[]).map_or(0.0, |s| s.scalar());
        assert_eq!(replayed, (executed - tuples.len() as u64) as f64, "jobs {jobs}");
        assert_eq!(snap.get("engine_skeletons", &[]).unwrap().scalar(), tuples.len() as f64);
    }
}
