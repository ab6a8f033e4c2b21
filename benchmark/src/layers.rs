//! Per-layer measurements: each layer (crate) timed from outside by
//! calling its public functions. They run in the traced pass, after the
//! workload; README.md states which end-to-end metric on which workload
//! each of them should move.
//!
//! Every figure is a median over a few rounds of a fixed amount of
//! work; overhead fractions compare the fastest of interleaved rounds.

use crate::gen::{gear_search_specs, LabeledSpec, Lcg, GEARS};
use crate::host;
use crate::stats::median;
use psc_experiments::harness::{cluster, decompositions, gear_profile, measure_curve};
use psc_faults::FaultPlan;
use psc_kernels::{Benchmark, ProblemClass};
use psc_machine::{PowerTrace, Wattmeter, WorkBlock};
use psc_model::decompose::Decomposition;
use psc_model::predict::ClusterModel;
use psc_mpi::{Cluster, ClusterConfig, Comm, GearSelection, ReduceOp};
use psc_policy::PolicySpec;
use psc_runner::{Engine, EngineMetrics, RunCache, RunPlan, RunSpec};
use psc_serve::proto::{self, Lane, ProtoLimits};
use psc_serve::queue::JobQueue;
use psc_serve::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Rounds each measurement is repeated for its median.
const ROUNDS: usize = 3;

/// Unit costs and counts by metric name (`metrics::LAYER`).
pub type Layers = BTreeMap<&'static str, f64>;

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t0 = host::now();
    f();
    host::since(t0)
}

/// Median over [`ROUNDS`] of whatever `f` measures.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..ROUNDS).map(|_| f()).collect::<Vec<_>>())
}

/// Median nanoseconds per call of `f` over `iters` calls per round.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    med(|| {
        secs(|| {
            for _ in 0..iters {
                f();
            }
        }) * 1e9
            / iters as f64
    })
}

/// Run an SPMD micro-program and return host seconds plus the DES
/// backend's statistics.
fn run_program<F>(c: &Cluster, ranks: usize, program: F) -> (f64, psc_mpi::BackendStats)
where
    F: Fn(&mut Comm) + Sync,
{
    let cfg = ClusterConfig::uniform(ranks, 1);
    let t0 = host::now();
    let (run, _, stats) = c.run_with_policy_stats(&cfg, None, None, program);
    let s = host::since(t0);
    black_box(run);
    (s, stats)
}

/// Class-B, one-rank, gear-1 cost of each kernel straight through
/// `Cluster::run`: at most a few dozen trace events, so this is the
/// kernel's arithmetic plus the CPU model and nothing else.
pub const KERNELS: [(Benchmark, &str); 8] = [
    (Benchmark::Cg, "kernels.cg_n1_ms"),
    (Benchmark::Ep, "kernels.ep_n1_ms"),
    (Benchmark::Mg, "kernels.mg_n1_ms"),
    (Benchmark::Lu, "kernels.lu_n1_ms"),
    (Benchmark::Bt, "kernels.bt_n1_ms"),
    (Benchmark::Sp, "kernels.sp_n1_ms"),
    (Benchmark::Jacobi, "kernels.jacobi_n1_ms"),
    (Benchmark::Synthetic, "kernels.synthetic_n1_ms"),
];

/// One-rank cost of `bench` at `class`, milliseconds.
fn kernel_n1_ms(c: &Cluster, bench: Benchmark, class: ProblemClass) -> f64 {
    med(|| {
        secs(|| {
            black_box(c.run(&ClusterConfig::uniform(1, 1), |comm| bench.run(comm, class)));
        }) * 1e3
    })
}

fn kernels(c: &Cluster, out: &mut Layers) {
    for (bench, name) in KERNELS {
        out.insert(name, kernel_n1_ms(c, bench, ProblemClass::B));
    }
}

/// Test-class one-rank kernel costs, microseconds by kernel name. Not
/// published as metrics: the budget needs them to price the Test-class
/// simulations of `gear_search_cold` and `serve_mixed`.
pub fn test_class_kernel_us() -> BTreeMap<&'static str, f64> {
    let c = cluster();
    KERNELS
        .iter()
        .map(|&(b, _)| (b.name(), 1e3 * kernel_n1_ms(&c, b, ProblemClass::Test)))
        .collect()
}

fn mpi(c: &Cluster, out: &mut Layers) {
    const SPAWN_RUNS: usize = 40;
    out.insert(
        "mpi.spawn_us_per_rank",
        med(|| {
            secs(|| {
                for _ in 0..SPAWN_RUNS {
                    run_program(c, 32, |_| {});
                }
            }) * 1e6
                / (SPAWN_RUNS * 32) as f64
        }),
    );

    const PINGS: usize = 10_000;
    out.insert(
        "mpi.p2p_ns_per_msg",
        med(|| {
            let (s, _) = run_program(c, 2, |comm| {
                let peer = 1 - comm.rank();
                for _ in 0..PINGS {
                    if comm.rank() == 0 {
                        comm.send(peer, 1, 1.0f64);
                        black_box(comm.recv::<f64>(peer, 2));
                    } else {
                        black_box(comm.recv::<f64>(peer, 1));
                        comm.send(peer, 2, 1.0f64);
                    }
                }
            });
            s * 1e9 / (2 * PINGS) as f64
        }),
    );

    const LAPS: usize = 400;
    let mut des_rates = Vec::new();
    let mut high_water = 0u64;
    out.insert(
        "mpi.ring_ns_per_msg_32",
        med(|| {
            let (s, stats) = run_program(c, 32, |comm| {
                let (right, left) = ((comm.rank() + 1) % 32, (comm.rank() + 31) % 32);
                for _ in 0..LAPS {
                    comm.send(right, 1, 1.0f64);
                    black_box(comm.recv::<f64>(left, 1));
                }
            });
            des_rates.push(stats.events_processed as f64 / s);
            high_water = high_water.max(stats.stack_high_water_bytes);
            s * 1e9 / (32 * LAPS) as f64
        }),
    );
    out.insert("mpi.des_events_per_s", median(&des_rates));
    out.insert("mpi.stack_high_water_bytes", high_water as f64);

    const REDUCES: usize = 400;
    out.insert(
        "mpi.allreduce_us_per_call_16",
        med(|| {
            let (s, _) = run_program(c, 16, |comm| {
                for _ in 0..REDUCES {
                    black_box(comm.allreduce_scalar(1.0, ReduceOp::Sum));
                }
            });
            s * 1e6 / REDUCES as f64
        }),
    );

    const EXCHANGES: usize = 100;
    out.insert(
        "mpi.alltoall_us_per_call_16",
        med(|| {
            let (s, _) = run_program(c, 16, |comm| {
                for _ in 0..EXCHANGES {
                    black_box(comm.alltoall(vec![vec![1.0]; 16]));
                }
            });
            s * 1e6 / EXCHANGES as f64
        }),
    );

    // 1 MiB per rank on 8 ranks: the ring forwards 7 blocks per rank,
    // cloning each — payload handling, not matching, is what this times.
    const GATHERS: usize = 4;
    const BLOCK_F64: usize = (1 << 20) / 8;
    out.insert(
        "mpi.allgather_mb_per_s",
        med(|| {
            let (s, _) = run_program(c, 8, |comm| {
                for _ in 0..GATHERS {
                    black_box(comm.allgather(vec![1.0; BLOCK_F64]));
                }
            });
            (GATHERS * 8 * 7) as f64 * (BLOCK_F64 * 8) as f64 / 1e6 / s
        }),
    );

    const BLOCKS: usize = 100_000;
    out.insert(
        "mpi.compute_ns_per_block",
        med(|| {
            let (s, _) = run_program(c, 1, |comm| {
                // Alternate two pressures so the power trace cannot
                // coalesce every block into one segment.
                let work = [WorkBlock::with_upm(1.0e6, 70.0), WorkBlock::with_upm(1.0e6, 9.0)];
                for i in 0..BLOCKS {
                    comm.compute(&work[i % 2]);
                }
            });
            s * 1e9 / BLOCKS as f64
        }),
    );
}

fn machine(c: &Cluster, out: &mut Layers) {
    let node = &c.node;
    let work = WorkBlock::with_upm(1.0e9, 70.0);
    let mut g = 0usize;
    out.insert(
        "machine.cpu_time_ns",
        ns_per_call(1_000_000, || {
            g = g % GEARS + 1;
            black_box(node.cpu.time_s(black_box(&work), node.gear(g)));
        }),
    );

    const SEGMENTS: usize = 100_000;
    let build = || {
        let mut trace = PowerTrace::new();
        for i in 0..SEGMENTS {
            trace.push((i + 1) as f64 * 0.01, if i % 2 == 0 { 150.0 } else { 90.0 });
        }
        trace
    };
    out.insert(
        "machine.trace_push_ns",
        med(|| secs(|| drop(black_box(build()))) * 1e9 / SEGMENTS as f64),
    );
    let trace = build();
    let meter = Wattmeter::default();
    let samples = (trace.end_s() * meter.sample_hz).ceil();
    out.insert(
        "machine.wattmeter_ns_per_sample",
        med(|| {
            secs(|| {
                black_box(meter.measure_energy_j(&trace));
            }) * 1e9
                / samples
        }),
    );
    out.insert(
        "machine.exact_energy_ns_per_segment",
        ns_per_call(10, || {
            black_box(trace.exact_energy_j());
        }) / SEGMENTS as f64,
    );
    let mut rng = Lcg::new(1);
    let end = trace.end_s();
    out.insert(
        "machine.energy_between_ns",
        ns_per_call(200_000, || {
            let t0 = rng.unit() * end;
            black_box(trace.energy_between(t0, t0 + 0.05));
        }),
    );
}

/// A slice of gear-search-like traffic at uniform gears (so a `Static`
/// policy is comparable to none), used by the overhead pairs.
fn overhead_slice() -> Vec<RunSpec> {
    gear_search_specs(1, 26)
        .into_iter()
        .enumerate()
        .map(|(i, mut ls)| {
            ls.spec.gears = GearSelection::Uniform(1 + i % GEARS);
            ls.spec
        })
        .collect()
}

/// Seconds a fresh serial engine takes to run the slice cold.
fn cold_pass(specs: &[RunSpec], metrics: Arc<EngineMetrics>) -> f64 {
    let e = Engine::serial(cluster()).with_metrics(metrics);
    secs(|| {
        for s in specs {
            black_box(e.run(s));
        }
    })
}

/// Fault, policy-hook and metrics overheads and the pool speed-up:
/// the variants run interleaved, round after round, against the same
/// baseline pass, and each is compared by its fastest round — host
/// noise only ever adds time, so the minimum is the steadiest estimate
/// of what a pass costs.
fn overheads(out: &mut Layers) {
    const INTERLEAVED_ROUNDS: usize = 5;
    let base = overhead_slice();
    let faulted: Vec<RunSpec> =
        base.iter().cloned().map(|s| s.with_faults(FaultPlan::noise(7, 0.02))).collect();
    let hooked: Vec<RunSpec> = base
        .iter()
        .cloned()
        .map(|s| {
            let gear = s.gears.gear_for(0);
            s.with_policy(PolicySpec::Static { gear })
        })
        .collect();
    let plan = RunPlan { specs: base.clone() };
    // Fastest pass of: baseline, faulted, hooked, metrics off, 2 jobs.
    let mut best = [f64::INFINITY; 5];
    for _ in 0..INTERLEAVED_ROUNDS {
        let pooled = Engine::serial(cluster()).with_jobs(2);
        let round = [
            cold_pass(&base, EngineMetrics::new()),
            cold_pass(&faulted, EngineMetrics::new()),
            cold_pass(&hooked, EngineMetrics::new()),
            cold_pass(&base, EngineMetrics::disabled()),
            secs(|| drop(black_box(pooled.execute(&plan)))),
        ];
        for (b, r) in best.iter_mut().zip(round) {
            *b = b.min(r);
        }
    }
    let [base_s, faulted_s, hooked_s, silent_s, pooled_s] = best;
    out.insert("faults.run_overhead_frac", faulted_s / base_s - 1.0);
    out.insert("policy.static_hook_overhead_frac", hooked_s / base_s - 1.0);
    // Metrics on (the default) against metrics off.
    out.insert("metrics.engine_overhead_frac", base_s / silent_s - 1.0);
    out.insert("runner.pool_speedup_j2", base_s / pooled_s);
}

fn faults_and_policy(c: &Cluster, out: &mut Layers) {
    let mut draws = FaultPlan::noise(7, 0.02).rank_faults(0);
    out.insert(
        "faults.draw_ns",
        ns_per_call(200_000, || {
            black_box(draws.next_compute());
            black_box(draws.next_send());
        }),
    );

    // The phase-adaptive policy on Jacobi, 8 ranks: every phase
    // boundary and traced MPI-call exit consults the rank's policy.
    let policy = PolicySpec::PhaseAdaptive { slowdown_limit: 1.1 };
    out.insert(
        "policy.adaptive_decisions_per_s",
        med(|| {
            let cfg = ClusterConfig::uniform(8, 1);
            let t0 = host::now();
            let (run, _) = c.run_with_policy(&cfg, None, Some(&policy), |comm| {
                Benchmark::Jacobi.run(comm, ProblemClass::Test)
            });
            let s = host::since(t0);
            let consulted: usize =
                run.ranks.iter().map(|r| 2 * r.trace.spans().len() + r.trace.events().len()).sum();
            consulted as f64 / s
        }),
    );
}

/// Gear-1 runs of the Figure 1 + Figure 2 configurations: the entries
/// `suite_disk_write` persists, one per `(kernel, nodes)`.
fn disk_sample() -> Vec<RunSpec> {
    Benchmark::NAS
        .iter()
        .flat_map(|&b| {
            let mut nodes = vec![1];
            nodes.extend(psc_experiments::harness::fig2_nodes(b));
            nodes.into_iter().map(move |n| RunSpec::uniform(b, ProblemClass::B, n, 1))
        })
        .collect()
}

fn runner(out: &mut Layers) {
    let e = Engine::serial(cluster());
    let specs: Vec<RunSpec> =
        crate::suite::campaign_specs(ProblemClass::Test).into_iter().map(|ls| ls.spec).collect();
    let mut i = 0usize;
    out.insert(
        "runner.cache_key_us",
        ns_per_call(5_000, || {
            i = (i + 1) % specs.len();
            black_box(e.cache_key(&specs[i]));
        }) / 1e3,
    );
    let faulted: Vec<RunSpec> =
        specs.iter().take(16).cloned().map(|s| s.with_faults(FaultPlan::noise(7, 0.02))).collect();
    out.insert(
        "runner.cache_key_faulted_us",
        ns_per_call(5_000, || {
            i = (i + 1) % faulted.len();
            black_box(e.cache_key(&faulted[i]));
        }) / 1e3,
    );

    // Memory hits: `RunCache::lookup` on keys the cache holds.
    let plan = RunPlan { specs: specs.clone() };
    let runs = e.execute(&plan);
    let cache = RunCache::in_memory();
    let keys: Vec<u64> = specs.iter().map(|s| e.cache_key(s)).collect();
    for (k, r) in keys.iter().zip(&runs) {
        cache.insert(*k, Arc::clone(r));
    }
    out.insert(
        "runner.mem_hit_ns",
        ns_per_call(500_000, || {
            i = (i + 1) % keys.len();
            black_box(cache.lookup(keys[i]));
        }),
    );
    out.insert(
        "runner.execute_hit_us_per_spec",
        ns_per_call(20, || drop(black_box(e.execute(&plan)))) / 1e3 / specs.len() as f64,
    );

    // Disk layer: write each sampled class-B entry into a fresh
    // directory, then read each back through a fresh cache.
    let sample = disk_sample();
    let entries: Vec<_> = sample.iter().map(|s| (e.cache_key(s), e.run(s))).collect();
    let dir = crate::out_dir().join(format!("tmp-{}-layers", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = RunCache::with_disk(&dir);
    let write_s = secs(|| {
        for (key, run) in &entries {
            writer.insert(*key, Arc::clone(run));
        }
    });
    let bytes = crate::suite::dir_bytes(&dir);
    let reader = RunCache::with_disk(&dir);
    let read_s = secs(|| {
        for (key, _) in &entries {
            black_box(reader.lookup(*key).expect("entry was just written"));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let n = entries.len() as f64;
    out.insert("runner.disk_write_ms_per_entry", write_s * 1e3 / n);
    out.insert("runner.disk_bytes_per_entry", bytes as f64 / n);
    out.insert("runner.disk_read_ms_per_entry", read_s * 1e3 / n);
}

fn serve(out: &mut Layers) {
    let limits = ProtoLimits { gear_count: GEARS, max_batch: 4 };
    let universe = crate::gen::serve_universe(1, 64);
    let frame = format!(
        r#"{{"id":"f","cmd":"run","lane":"batch","specs":[{}]}}"#,
        universe[..4].iter().map(LabeledSpec::wire).collect::<Vec<_>>().join(",")
    );
    out.insert(
        "serve.parse_us_per_frame",
        ns_per_call(5_000, || drop(black_box(proto::parse_request(&frame, limits)))) / 1e3,
    );

    let e = Arc::new(Engine::serial(cluster()));
    let spec = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 2);
    let (run, key) = (e.run(&spec), e.cache_key(&spec));
    out.insert(
        "serve.reply_us_per_spec",
        ns_per_call(20_000, || {
            let value = proto::result_value(&spec, key, &run);
            black_box(proto::result_line("f", 0, psc_runner::RunOutcome::CacheHit, &value));
        }) / 1e3,
    );

    let queue = JobQueue::new(8);
    out.insert(
        "serve.queue_ns_per_op",
        ns_per_call(500_000, || {
            queue.push(Lane::Batch, 1u64).expect("queue is open");
            black_box(queue.pop());
        }),
    );

    // One-spec warm frame over loopback: everything between a caller's
    // write and its `done` line when nothing has to be simulated. Each
    // round is boxed in time as well as in count, because a round trip
    // currently costs a 40 ms delayed-ACK stall (README.md).
    const ROUNDTRIPS: usize = 400;
    const ROUND_S: f64 = 0.4;
    let server = Server::new(
        Arc::clone(&e),
        ServerConfig { workers: host::nproc(), ..ServerConfig::default() },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let line =
        r#"{"id":"h","cmd":"run","specs":[{"bench":"CG","class":"test","nodes":4,"gears":2}]}"#;
    let us = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(listener));
        let stream = TcpStream::connect(addr).expect("connecting to the loopback server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let mut reader = BufReader::new(stream.try_clone().expect("cloning the socket"));
        let mut writer = stream;
        let mut roundtrip = |reader: &mut BufReader<TcpStream>| {
            writeln!(writer, "{line}").expect("sending a frame");
            let mut reply = String::new();
            while !reply.contains("\"done\":true") {
                reply.clear();
                assert!(
                    reader.read_line(&mut reply).expect("reading a reply") > 0,
                    "server hung up"
                );
            }
        };
        roundtrip(&mut reader);
        let us = med(|| {
            let (t0, mut n) = (host::now(), 0usize);
            while n < ROUNDTRIPS && host::since(t0) < ROUND_S {
                roundtrip(&mut reader);
                n += 1;
            }
            host::since(t0) * 1e6 / n as f64
        });
        writeln!(writer, r#"{{"id":"bye","cmd":"shutdown"}}"#).expect("sending shutdown");
        let mut bye = String::new();
        let _ = reader.read_line(&mut bye);
        drop((reader, writer));
        serving.join().expect("server thread").expect("serve_tcp");
        us
    });
    out.insert("serve.hit_roundtrip_us", us);
}

fn model_and_telemetry(out: &mut Layers) {
    let e = Engine::serial(cluster());
    // Fit inputs at Test class (a fit costs the same whatever the
    // numbers); the reference run of the decomposition and telemetry
    // figures is LU, class B, 8 nodes.
    let decomps = decompositions(&e, Benchmark::Lu, ProblemClass::Test, 9);
    let profile = gear_profile(&e, Benchmark::Lu, ProblemClass::Test);
    out.insert(
        "model.fit_us",
        ns_per_call(2_000, || {
            drop(black_box(ClusterModel::fit(black_box(&decomps), profile.clone())))
        }) / 1e3,
    );
    let model = ClusterModel::fit(&decomps, profile);
    out.insert(
        "model.predict_curve_us",
        ns_per_call(20_000, || {
            drop(black_box(black_box(&model).predict_curve(black_box(32), true)))
        }) / 1e3,
    );
    let reference = e.run(&RunSpec::uniform(Benchmark::Lu, ProblemClass::B, 8, 1));
    out.insert(
        "model.decompose_us_per_run",
        ns_per_call(20, || {
            black_box(Decomposition::of(black_box(&reference)));
        }) / 1e3,
    );
    out.insert(
        "telemetry.attribution_ms",
        ns_per_call(3, || drop(black_box(psc_telemetry::RunAttribution::of_run(&reference)))) / 1e6,
    );
    let mut bytes = 0usize;
    out.insert(
        "telemetry.chrome_trace_ms",
        ns_per_call(1, || bytes = psc_telemetry::chrome::chrome_trace_json(&reference).len()) / 1e6,
    );
    out.insert("telemetry.chrome_trace_bytes", bytes as f64);

    // Re-rendering a measured curve: six hits and a CSV.
    let warm = measure_curve(&e, Benchmark::Lu, ProblemClass::Test, 8);
    out.insert(
        "experiments.measure_curve_warm_us",
        ns_per_call(500, || {
            drop(black_box(measure_curve(&e, Benchmark::Lu, ProblemClass::Test, 8)))
        }) / 1e3,
    );
    let curves = vec![warm; 16];
    out.insert(
        "analysis.curves_to_csv_us",
        ns_per_call(2_000, || drop(black_box(psc_analysis::plot::to_csv(&curves)))) / 1e3,
    );
}

fn metrics_and_analyze(out: &mut Layers) {
    // The way the engine and the server pay for a metric: look the
    // series up by name and labels, then touch it.
    let registry = psc_metrics::registry::Registry::new();
    out.insert(
        "metrics.counter_inc_ns",
        ns_per_call(500_000, || {
            registry.counter("ledger_probe_total", "probe", &[("lane", "batch")]).inc()
        }),
    );
    out.insert(
        "metrics.histogram_observe_ns",
        ns_per_call(500_000, || {
            registry
                .time_histogram("ledger_probe_seconds", "probe", &[("lane", "batch")])
                .observe(1e-3)
        }),
    );

    let mut findings = 0usize;
    out.insert(
        "analyze.workspace_ms",
        med(|| {
            secs(|| {
                findings = psc_analyze::analyze_workspace(&crate::repo_root())
                    .expect("reading the workspace sources")
                    .len();
            }) * 1e3
        }),
    );
    out.insert("analyze.findings", findings as f64);
}

/// Run every per-layer measurement.
pub fn measure_all() -> Layers {
    let c = cluster();
    let mut out = Layers::new();
    kernels(&c, &mut out);
    mpi(&c, &mut out);
    machine(&c, &mut out);
    faults_and_policy(&c, &mut out);
    overheads(&mut out);
    runner(&mut out);
    serve(&mut out);
    model_and_telemetry(&mut out);
    metrics_and_analyze(&mut out);
    out
}
