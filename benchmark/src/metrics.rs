//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` and `README.md` are written from these tables and a
//! unit test holds `BENCHMARK.json` to them.

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// By how much the metric may get worse before a change counts as a
    /// regression: a share of the value it is compared with, or — for
    /// the model errors, which are percentages already — points.
    pub bound: f64,
}

impl EndToEnd {
    /// By how much `now` is worse than `base`, in the terms of `bound`;
    /// negative when it is better.
    pub fn worse_by(&self, base: f64, now: f64) -> f64 {
        let rise = if self.unit == "%" { now - base } else { (now - base) / base.abs() };
        if self.better == "lower" {
            rise
        } else {
            -rise
        }
    }
}

/// Reported by every workload on every run, never zero: the
/// `end_to_end` list of `BENCHMARK.json`, which the driver holds to
/// these bounds. A time bound is three times the widest spread
/// (quartile distance / median) ten runs of a workload showed on the
/// shared reference host (README.md, "Bounds"); a finer claim is shown
/// by alternating pairs (choosing-metrics §8), not by these.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "specs_per_s", unit: "specs/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "heap_held_mib", unit: "MiB", better: "lower", bound: 0.10 },
];

/// End-to-end metrics the driver cannot hold: four that only some
/// workloads have (it wants every `end_to_end` metric from every
/// workload and never zero), and the kernel's view of memory, which no
/// bound it accepts can hold. `BENCHMARK.json` lists them with the
/// per-layer metrics (0 on workloads that lack them) and the command
/// holds them itself: the exact ones against the value committed in the
/// workload's golden file (`check::Golden`), all of them between the
/// sets of `--selfcheck`.
pub const END_TO_END_SOME: [(EndToEnd, &[&str]); 5] = [
    (
        // `VmHWM` of the workload's process. Identical runs differ by a
        // third on `serve_mixed` (do two workers hold their coroutine
        // stacks at once?) and by two thirds on `suite_cold_mem` (does
        // glibc reuse what the pass before freed?), so only a gross
        // change is held; `heap_held_mib` is the figure that repeats.
        EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.5 },
        &crate::workload::NAMES,
    ),
    (
        // An exact event count (part of every golden digest) over
        // `wall_s`, so the driver's bound on `wall_s` holds it too.
        EndToEnd { name: "sim_events_per_s", unit: "events/s", better: "higher", bound: 0.25 },
        &["suite_cold_mem", "suite_disk_write", "gear_search_cold", "serve_mixed"],
    ),
    (
        EndToEnd { name: "disk_mib", unit: "MiB", better: "lower", bound: 0.01 },
        &["suite_disk_write", "suite_disk_read"],
    ),
    (
        // Virtual-time quantities: they repeat exactly, so the bound is
        // 0.1 percentage point absolute, not a share.
        EndToEnd { name: "model_time_err_pct", unit: "%", better: "lower", bound: 0.1 },
        &["suite_cold_mem"],
    ),
    (
        EndToEnd { name: "model_energy_err_pct", unit: "%", better: "lower", bound: 0.1 },
        &["suite_cold_mem"],
    ),
];

/// Exact simulated totals: bit-identical between any two runs of one
/// seed, whatever the host does.
pub const EXACT: [(&str, &str); 3] =
    [("sim.runs", "count"), ("sim.virtual_s", "s"), ("sim.energy_j", "J")];

/// Per-layer metrics measured by calling a layer's public functions
/// (`layers.rs`), `(name, unit, better)`.
pub const LAYER: [(&str, &str, &str); 55] = [
    ("kernels.cg_n1_ms", "ms", "lower"),
    ("kernels.ep_n1_ms", "ms", "lower"),
    ("kernels.mg_n1_ms", "ms", "lower"),
    ("kernels.lu_n1_ms", "ms", "lower"),
    ("kernels.bt_n1_ms", "ms", "lower"),
    ("kernels.sp_n1_ms", "ms", "lower"),
    ("kernels.jacobi_n1_ms", "ms", "lower"),
    ("kernels.synthetic_n1_ms", "ms", "lower"),
    ("mpi.spawn_us_per_rank", "us", "lower"),
    ("mpi.p2p_ns_per_msg", "ns", "lower"),
    ("mpi.ring_ns_per_msg_32", "ns", "lower"),
    ("mpi.allreduce_us_per_call_16", "us", "lower"),
    ("mpi.alltoall_us_per_call_16", "us", "lower"),
    ("mpi.allgather_mb_per_s", "MB/s", "higher"),
    ("mpi.compute_ns_per_block", "ns", "lower"),
    ("mpi.des_events_per_s", "events/s", "higher"),
    ("mpi.stack_high_water_bytes", "bytes", "lower"),
    ("machine.cpu_time_ns", "ns", "lower"),
    ("machine.trace_push_ns", "ns", "lower"),
    ("machine.wattmeter_ns_per_sample", "ns", "lower"),
    ("machine.exact_energy_ns_per_segment", "ns", "lower"),
    ("machine.energy_between_ns", "ns", "lower"),
    ("faults.draw_ns", "ns", "lower"),
    ("faults.run_overhead_frac", "frac", "lower"),
    ("policy.static_hook_overhead_frac", "frac", "lower"),
    ("policy.adaptive_decisions_per_s", "1/s", "higher"),
    ("runner.cache_key_us", "us", "lower"),
    ("runner.cache_key_faulted_us", "us", "lower"),
    ("runner.mem_hit_ns", "ns", "lower"),
    ("runner.disk_write_ms_per_entry", "ms", "lower"),
    ("runner.disk_bytes_per_entry", "bytes", "lower"),
    ("runner.disk_read_ms_per_entry", "ms", "lower"),
    ("runner.execute_hit_us_per_spec", "us", "lower"),
    ("runner.pool_speedup_j2", "ratio", "higher"),
    ("serve.parse_us_per_frame", "us", "lower"),
    ("serve.reply_us_per_spec", "us", "lower"),
    ("serve.queue_ns_per_op", "ns", "lower"),
    ("serve.hit_roundtrip_us", "us", "lower"),
    ("serve.executed", "count", "lower"),
    ("serve.dedup_rate", "frac", "higher"),
    ("model.fit_us", "us", "lower"),
    ("model.predict_curve_us", "us", "lower"),
    ("model.decompose_us_per_run", "us", "lower"),
    ("telemetry.attribution_ms", "ms", "lower"),
    ("telemetry.chrome_trace_ms", "ms", "lower"),
    ("telemetry.chrome_trace_bytes", "bytes", "lower"),
    ("metrics.counter_inc_ns", "ns", "lower"),
    ("metrics.histogram_observe_ns", "ns", "lower"),
    ("metrics.engine_overhead_frac", "frac", "lower"),
    ("experiments.measure_curve_warm_us", "us", "lower"),
    ("analysis.curves_to_csv_us", "us", "lower"),
    ("analyze.workspace_ms", "ms", "lower"),
    ("analyze.findings", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
];

/// Budget parts: shares of the workload's wall (CPU for the threaded
/// `serve_mixed`) that counts × unit costs attribute to each layer.
/// Parts plus `unexplained` sum to 1.
pub const BUDGET_PARTS: [&str; 6] = ["kernels", "mpi", "machine", "runner", "serve", "unexplained"];

/// Every `--trace 1` metric, in print order: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> =
        LAYER.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    all.extend(BUDGET_PARTS.iter().map(|p| (format!("budget.{p}_frac"), "frac", "lower")));
    all.extend(END_TO_END_SOME.iter().map(|(m, _)| (m.name.to_string(), m.unit, m.better)));
    all.extend(EXACT.iter().map(|&(n, u)| (n.to_string(), u, "lower")));
    all
}

/// The unit of every metric the benchmark prints, by name.
pub fn units() -> std::collections::BTreeMap<String, &'static str> {
    let e2e = END_TO_END.iter().map(|m| (m.name.to_string(), m.unit));
    e2e.chain(per_layer().into_iter().map(|(n, u, _)| (n, u))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn worse_by_follows_direction_and_unit() {
        let [setup, ..] = END_TO_END;
        assert_eq!(setup.worse_by(2.0, 2.5), 0.25);
        assert_eq!(setup.worse_by(2.0, 1.5), -0.25);
        let higher = END_TO_END.iter().find(|m| m.better == "higher").unwrap();
        assert_eq!(higher.worse_by(100.0, 80.0), 0.2);
        // The model errors are percentages: their bound is in points.
        let (points, _) = END_TO_END_SOME.iter().find(|(m, _)| m.unit == "%").unwrap();
        assert!((points.worse_by(1.5, 1.75) - 0.25).abs() < 1e-12);
    }

    /// `BENCHMARK.json` is the driver's copy of these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = std::fs::read_to_string(crate::repo_root().join("BENCHMARK.json")).unwrap();
        let v = serde::json::parse(&text).unwrap();
        let list = |key: &str| match v.get(key) {
            Some(Value::Seq(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field =
            |item: &Value, k: &str| item.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workload::NAMES);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(item, "name"), m.name);
            assert_eq!(field(item, "unit"), m.unit);
            assert_eq!(field(item, "better"), m.better);
            assert_eq!(item.get("bound").and_then(Value::as_f64), Some(m.bound));
        }

        let layers = list("per_layer");
        let table = per_layer();
        assert_eq!(layers.len(), table.len());
        for (item, (name, unit, better)) in layers.iter().zip(&table) {
            assert_eq!(&field(item, "name"), name);
            assert_eq!(&field(item, "unit"), unit);
            assert_eq!(&field(item, "better"), better);
        }
        assert!(table.len() <= 128);
    }
}
