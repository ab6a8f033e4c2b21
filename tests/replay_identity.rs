//! The skeleton-replay differential gate, end to end: a spec answered
//! by re-timing a recorded skeleton must be **byte-identical** to the
//! same spec answered by running the kernel — compared on the
//! serialized `RunResult`, so every per-rank counter, trace event,
//! span, gear shift, fault activation, policy decision and power
//! segment is covered, not just time and energy.
//!
//! Each cell of the matrix is checked the same way. A *fresh* engine's
//! first run of a `(kernel, class, nodes)` tuple is by construction a
//! full run; the cells of one tuple form a ring of fresh engines, each
//! running its own cell in full and then replaying its neighbours'
//! cells from the skeleton that full run recorded — under another gear
//! selection, policy and fault plan than it was recorded under. Every
//! replay is compared to the neighbour's full run, and the engines'
//! own counters prove which tier answered.
//!
//! The matrix: all ten kernels × Test and class B × node counts
//! {1, 2, 4, 8 (9 for the square-grid kernels), 16} × 30 run
//! configurations = {uniform, per-rank gears} × {no policy, `static:G`,
//! `phase-adaptive`, `power-cap`, `oracle`} × {clean, `FaultPlan::noise`,
//! drops + latency spikes + straggler + memory burst + wattmeter
//! faults}, on engines alternating between both `RuntimeBackend`s and
//! between `jobs` 1 and 8. It is a covering design, not the full
//! product (a cell costs a full run): every kernel meets every one of
//! the 30 configurations at Test class (asserted), every tuple is
//! checked under at least two, and class B walks the 30 across its
//! tuples.

use powerscale::faults::{ClockJitter, MemoryBurst, NetworkFaults, Straggler, WattmeterFaults};
use powerscale::kernels::{Benchmark, ProblemClass};
use powerscale::machine::WorkBlock;
use powerscale::mpi::{GearSelection, ReduceOp, RuntimeBackend};
use powerscale::policy::OracleStep;
use powerscale::prelude::*;
use powerscale::runner::RunOutcome;
use std::collections::BTreeSet;

/// Configurations per tuple: {uniform, per-rank} × 5 policies × 3 plans.
const CONFIGS: usize = 30;

fn json(run: &RunResult) -> String {
    serde::json::to_string(run)
}

/// The issue's node counts, where the kernel supports them: 8 for the
/// power-of-two kernels, 9 for the square-grid ones.
fn node_counts(bench: Benchmark) -> Vec<usize> {
    let eight = if bench.supports_nodes(8) { 8 } else { 9 };
    [1, 2, 4, eight, 16].into_iter().filter(|&n| bench.supports_nodes(n)).collect()
}

/// A plan with every kind of fault the runtime injects at once.
fn heavy_faults(seed: u64, nodes: usize) -> FaultPlan {
    FaultPlan {
        seed,
        clock_jitter: Some(ClockJitter { amplitude: 0.03 }),
        stragglers: vec![Straggler { rank: nodes - 1, gear: 5 }],
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

/// Run configuration `config` (`0..CONFIGS`) of a tuple: faults vary
/// fastest, then the policy, then the gear mode. `salt` varies the
/// gears and seeds between cells that share a configuration.
fn spec(
    bench: Benchmark,
    class: ProblemClass,
    nodes: usize,
    config: usize,
    salt: usize,
) -> RunSpec {
    let (fault_kind, policy_kind, per_rank) = (config % 3, config / 3 % 5, config / 15 == 1);
    let gears = if per_rank {
        GearSelection::PerRank((0..nodes).map(|r| 1 + (salt + 5 * r) % 6).collect())
    } else {
        GearSelection::Uniform(1 + salt % 6)
    };
    let mut spec = RunSpec::uniform(bench, class, nodes, 1);
    spec.gears = gears;
    let node = Cluster::athlon_fast_ethernet().node;
    let (floor, ceil) =
        (node.power.busy_w(node.gears.slowest()), node.power.busy_w(node.gears.fastest()));
    spec.policy = match policy_kind {
        0 => None,
        1 => Some(PolicySpec::Static { gear: 1 + (salt + 2) % 6 }),
        2 => Some(PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 }),
        3 => Some(PolicySpec::PowerCap { budget_w: nodes as f64 * (floor + 0.4 * (ceil - floor)) }),
        _ => Some(PolicySpec::Oracle {
            schedule: [(0, 3), (1, 5), (3, 2), (6, 4)]
                .map(|(phase, gear)| OracleStep { phase, gear })
                .to_vec(),
        }),
    };
    spec.faults = match fault_kind {
        0 => None,
        1 => Some(FaultPlan::noise(1000 + salt as u64, 0.05)),
        _ => Some(heavy_faults(2000 + salt as u64, nodes)),
    };
    spec
}

/// A fresh engine; backend and worker count alternate with `i` on
/// different periods, so all four combinations appear in every ring of
/// four or more.
fn engine(i: usize) -> Engine {
    let jobs = if i.is_multiple_of(2) { 1 } else { 8 };
    Engine::serial(Cluster::athlon_fast_ethernet().with_backend(backend(i))).with_jobs(jobs)
}

fn backend(i: usize) -> RuntimeBackend {
    if (i / 2).is_multiple_of(2) {
        RuntimeBackend::Des
    } else {
        RuntimeBackend::Threaded
    }
}

fn counter(e: &Engine, name: &str) -> f64 {
    e.metrics().snapshot().get(name, &[]).map_or(0.0, |s| s.scalar())
}

/// Check one ring: engine `i` runs `specs[i]` in full, then answers the
/// next two specs of the ring (one plan, so `jobs = 8` engines replay
/// them concurrently) from the skeleton it recorded.
fn check_ring(specs: &[RunSpec]) {
    let k = specs.len();
    assert!(k >= 2, "a ring needs a neighbour to replay");
    let engines: Vec<Engine> = (0..k).map(engine).collect();
    let full: Vec<String> = engines.iter().zip(specs).map(|(e, s)| json(&e.run(s))).collect();
    for (i, e) in engines.iter().enumerate() {
        assert_eq!(counter(e, "engine_runs_replayed_total"), 0.0, "a fresh engine runs in full");
        let others: Vec<usize> = (1..k.min(3)).map(|d| (i + d) % k).collect();
        let plan = RunPlan { specs: others.iter().map(|&j| specs[j].clone()).collect() };
        for (&j, run) in others.iter().zip(e.execute(&plan)) {
            assert!(
                json(&run) == full[j],
                "replay diverged from the full run\n  spec:        {:?}\n  recorded as: {:?}\n  \
                 replayed on: engine {i} (jobs {}, {:?})",
                specs[j],
                specs[i],
                e.jobs(),
                backend(i),
            );
        }
        // The audit that makes the comparison mean something: those
        // answers were replays, and still counted simulations.
        assert_eq!(counter(e, "engine_runs_replayed_total"), others.len() as f64);
        assert_eq!(counter(e, "engine_runs_simulated"), 1.0 + others.len() as f64);
        assert_eq!(e.cache_stats().misses, 1 + others.len() as u64);
    }
}

/// The matrix rows of one kernel at one class. `cells(nodes)` is how
/// many configurations each tuple is checked under; a running cell
/// counter strides through the 30 configurations (7 is coprime to 30,
/// so neighbours in a ring differ in faults *and* policy and any 30
/// consecutive cells cover every configuration).
fn check_kernel(bench: Benchmark, class: ProblemClass, cells: impl Fn(usize) -> usize) {
    let mut cell = Benchmark::ALL.iter().position(|&b| b == bench).unwrap() * 11;
    let mut covered = BTreeSet::new();
    for nodes in node_counts(bench) {
        let ring: Vec<RunSpec> = (0..cells(nodes))
            .map(|_| {
                cell += 1;
                covered.insert(cell * 7 % CONFIGS);
                spec(bench, class, nodes, cell * 7 % CONFIGS, cell)
            })
            .collect();
        check_ring(&ring);
    }
    if class == ProblemClass::Test {
        assert_eq!(covered.len(), CONFIGS, "{} must meet every configuration", bench.name());
    }
}

macro_rules! kernel_matrix {
    ($($module:ident => $bench:expr),* $(,)?) => {$(
        mod $module {
            use super::*;

            #[test]
            fn test_class_every_configuration() {
                check_kernel($bench, ProblemClass::Test, |nodes| if nodes <= 4 { 10 } else { 5 });
            }

            #[test]
            fn class_b_every_node_count() {
                check_kernel($bench, ProblemClass::B, |_| 2);
            }
        }
    )*};
}

kernel_matrix! {
    bt => Benchmark::Bt,
    cg => Benchmark::Cg,
    ep => Benchmark::Ep,
    lu => Benchmark::Lu,
    mg => Benchmark::Mg,
    sp => Benchmark::Sp,
    ft => Benchmark::Ft,
    is => Benchmark::Is,
    jacobi => Benchmark::Jacobi,
    synthetic => Benchmark::Synthetic,
}

/// The two directions the issue names explicitly, for every kernel:
/// recorded under faults *and* a policy then replayed clean, and
/// recorded clean then replayed under faults and a policy. Nothing a
/// policy or a fault plan did while the skeleton was recorded may leak
/// into it.
#[test]
fn faulted_policy_recordings_replay_clean_and_clean_recordings_replay_faulted() {
    for bench in Benchmark::ALL {
        let nodes = 4;
        let clean = RunSpec::uniform(bench, ProblemClass::Test, nodes, 2);
        let mut noisy = RunSpec::uniform(bench, ProblemClass::Test, nodes, 1)
            .with_faults(heavy_faults(77, nodes))
            .with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 });
        noisy.gears = GearSelection::PerRank(vec![3, 1, 6, 2]);
        check_ring(&[clean, noisy]);
    }
}

/// An engine-level default fault plan reaches replays exactly as it
/// reaches full runs.
#[test]
fn engine_default_fault_plan_applies_to_replays() {
    let plan = FaultPlan::noise(5, 0.05);
    let spec = |gear| RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, gear);
    let full = engine(0).with_faults(Some(plan.clone())).run(&spec(3));
    let primed = engine(0).with_faults(Some(plan));
    primed.run(&spec(1));
    assert_eq!(json(&primed.run(&spec(3))), json(&full));
    assert_eq!(counter(&primed, "engine_runs_replayed_total"), 1.0);
}

/// Nothing above the engine can tell a replay from a full run: it is a
/// counted miss, reported `executed`, cached like any result.
#[test]
fn a_replay_is_a_counted_miss_reported_as_executed() {
    let e = engine(0);
    let spec = |gear| RunSpec::uniform(Benchmark::Mg, ProblemClass::Test, 2, gear);
    assert_eq!(e.run_traced(&spec(1)).1, RunOutcome::Executed);
    let (replayed, outcome, _) = e.run_traced(&spec(4));
    assert_eq!(outcome, RunOutcome::Executed);
    assert_eq!(e.cache_stats().misses, 2);
    let (again, outcome, _) = e.run_traced(&spec(4));
    assert_eq!(outcome, RunOutcome::CacheHit);
    assert!(std::sync::Arc::ptr_eq(&replayed, &again));

    let snap = e.metrics().snapshot();
    assert_eq!(snap.get("engine_skeletons", &[]).unwrap().scalar(), 1.0);
    assert!(snap.get("engine_skeleton_bytes", &[]).unwrap().scalar() > 0.0);
    let walls = |tier| {
        let series = snap.family("engine_run_wall_seconds");
        series.iter().filter(|s| s.label("tier") == Some(tier)).count()
    };
    assert_eq!((walls("full"), walls("replay")), (1, 1), "tiers are separate histogram series");
}

/// A rank program touching every `Comm` operation the kernels do not
/// all use (nonblocking receives, prefix scans, rooted collectives,
/// tuple payloads, nested and unclosed spans, a mid-run wire scale).
fn every_operation(comm: &mut Comm) -> f64 {
    let (rank, n) = (comm.rank(), comm.size());
    let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
    comm.span("setup", |c| {
        c.compute(&WorkBlock::with_upm(3.0e8, 70.0));
        c.barrier();
    });
    let req = comm.irecv::<(u64, Vec<f64>)>(left, 7);
    comm.isend(right, 7, (rank as u64, vec![rank as f64; 100]));
    comm.compute(&WorkBlock::with_upm(1.0e8, 8.6));
    let (from, halo) = comm.wait(req);
    comm.set_wire_scale(37.5);
    let got: Vec<f64> = comm.sendrecv(right, 9, halo, left, 9);
    comm.span_begin("outer");
    comm.span("inner", |c| {
        c.compute(&WorkBlock::with_upm(2.0e8, 844.0));
        c.allreduce_scalar(from as f64, ReduceOp::Sum)
    });
    let scanned = comm.scan(vec![got.len() as f64], ReduceOp::Sum);
    let ex = comm.exscan(scanned.clone(), ReduceOp::Max);
    let gathered = comm.gather(1 % n, ex);
    let mine = comm.scatter(1 % n, gathered);
    let root_only = comm.reduce(n - 1, mine, ReduceOp::Sum);
    let all = comm.bcast(n - 1, root_only.unwrap_or_default());
    let blocks = comm.allgather(all);
    let shuffled = comm.alltoall(blocks);
    let mine = comm.reduce_scatter(shuffled, ReduceOp::Min);
    if rank == 0 {
        comm.send(n - 1, 11, mine.clone());
    } else if rank == n - 1 {
        let _: Vec<f64> = comm.recv(0, 11);
    }
    // "outer" stays open: finalize closes it, in full runs and replays.
    mine.iter().sum()
}

#[test]
fn every_comm_operation_replays_under_another_configuration() {
    for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
        let c = Cluster::athlon_fast_ethernet().with_backend(backend);
        for nodes in [2usize, 3, 5, 8] {
            let recorded_under = ClusterConfig::uniform(nodes, 1);
            let policy = PolicySpec::PhaseAdaptive { slowdown_limit: 1.1 };
            let faults = heavy_faults(9, nodes);
            let (_, _, _, skeleton) =
                c.run_recorded(&recorded_under, Some(&faults), Some(&policy), every_operation);

            let gears = GearSelection::PerRank((0..nodes).map(|r| 1 + (2 + r) % 6).collect());
            let cfg = ClusterConfig { nodes, gears };
            for (faults, policy) in [
                (None, None),
                (Some(FaultPlan::noise(3, 0.05)), None),
                (Some(heavy_faults(4, nodes)), Some(PolicySpec::Static { gear: 4 })),
            ] {
                let policy = policy.as_ref().map(|p| p as &dyn powerscale::mpi::ClusterPolicy);
                let (full, _) = c.run_with_policy(&cfg, faults.as_ref(), policy, every_operation);
                let replayed = c.retime(&cfg, faults.as_ref(), policy, &skeleton);
                assert!(json(&replayed) == json(&full), "{backend:?} n={nodes} {faults:?}");
            }
        }
    }
}

/// A gear change the *program* asks for is part of the program and is
/// replayed; one a *policy* asked for while recording is not.
#[test]
fn program_gear_requests_are_replayed_and_policy_shifts_are_not() {
    let program = |comm: &mut Comm| {
        comm.span("ep-like", |c| c.compute(&WorkBlock::with_upm(2.0e9, 844.0)));
        comm.set_gear(5);
        comm.span("cg-like", |c| c.compute(&WorkBlock::with_upm(2.0e9, 8.6)));
        comm.set_gear(2);
        comm.barrier();
    };
    let cfg = ClusterConfig::uniform(2, 1);
    let shifty = PolicySpec::Oracle {
        schedule: vec![OracleStep { phase: 0, gear: 6 }, OracleStep { phase: 1, gear: 3 }],
    };
    for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
        let c = Cluster::athlon_fast_ethernet().with_backend(backend);
        let (recorded, _, _, skeleton) = c.run_recorded(&cfg, None, Some(&shifty), program);
        assert!(
            recorded.ranks[0].trace.decisions().len() == 2,
            "the policy shifted while recording"
        );

        let (full, _) = c.run(&cfg, program);
        let replayed = c.retime(&cfg, None, None, &skeleton);
        assert_eq!(json(&replayed), json(&full), "{backend:?}");
        assert_eq!(replayed.ranks[0].trace.gear_shifts().len(), 2, "the program's own two shifts");
        assert!(replayed.ranks[0].trace.decisions().is_empty(), "no policy, no decisions");
    }
}

/// Regression for a trap: `finalize`'s dissemination barrier is not
/// part of the recorded program, and its control messages are priced at
/// the program's *last* wire scale. Test-class kernels run at scale 1
/// (so a skeleton that forgot `WireScale` still replayed them right);
/// the class-B kernels that exchange field data do not.
#[test]
fn finalize_barrier_is_priced_at_the_programs_last_wire_scale() {
    use powerscale::mpi::MpiOp;
    let finalize_bytes = |run: &RunResult| {
        let ev = run.ranks[0].trace.events().last().unwrap();
        assert_eq!(ev.op, MpiOp::Finalize);
        ev.bytes
    };
    let unscaled = engine(0).run(&RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 1));
    for bench in Benchmark::ALL {
        let e = engine(0);
        e.run(&RunSpec::uniform(bench, ProblemClass::B, 4, 1));
        let replayed = e.run(&RunSpec::uniform(bench, ProblemClass::B, 4, 3));
        assert_eq!(counter(&e, "engine_runs_replayed_total"), 1.0);
        let full = engine(0).run(&RunSpec::uniform(bench, ProblemClass::B, 4, 3));
        assert_eq!(finalize_bytes(&replayed), finalize_bytes(&full), "{}", bench.name());
        if bench != Benchmark::Ep && bench != Benchmark::Synthetic {
            assert!(
                finalize_bytes(&full) > finalize_bytes(&unscaled),
                "{} at class B scales its wire",
                bench.name()
            );
        }
    }
}
