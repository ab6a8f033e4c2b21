//! The per-workload time budget: counts taken at the layer boundaries
//! of a workload × the unit costs of the per-layer measurements, as
//! shares of the workload's time. What the parts do not explain is
//! printed as `unexplained`, never hidden; README.md says what is known
//! to live there.

use crate::layers::{Layers, KERNELS};
use crate::workload::Counts;
use std::collections::BTreeMap;

/// Shares of `total_s` by layer, in `metrics::BUDGET_PARTS` order;
/// they sum to 1 with `unexplained` (which is negative when the unit
/// costs over-explain the workload).
pub fn shares(
    counts: &Counts,
    layers: &Layers,
    test_kernel_us: &BTreeMap<&'static str, f64>,
    total_s: f64,
) -> BTreeMap<&'static str, f64> {
    let unit = |name: &str| layers.get(name).copied().unwrap_or(0.0);

    // Kernel arithmetic: a simulation costs what the kernel's one-rank
    // run of that class costs (the arithmetic is divided among ranks,
    // not multiplied by them).
    let kernels_s: f64 = counts
        .sims
        .iter()
        .map(|((kernel, class), &n)| {
            let per_run_s = match *class {
                "B" => KERNELS
                    .iter()
                    .find(|(b, _)| b.name() == kernel)
                    .map_or(0.0, |(_, metric)| unit(metric) * 1e-3),
                _ => test_kernel_us.get(kernel.as_str()).copied().unwrap_or(0.0) * 1e-6,
            };
            n as f64 * per_run_s
        })
        .sum();

    // Message passing: a coroutine per rank, and half a ping-pong
    // message per trace event (a message is a send and a receive).
    let mpi_s = counts.ranks as f64 * unit("mpi.spawn_us_per_rank") * 1e-6
        + counts.trace_events as f64 * unit("mpi.p2p_ns_per_msg") * 0.5e-9;

    // Machine model: the sampled and the exact energy integral, and
    // the pushes that built the power traces.
    let machine_s = counts.meter_samples as f64 * unit("machine.wattmeter_ns_per_sample") * 1e-9
        + counts.power_segments as f64
            * (unit("machine.exact_energy_ns_per_segment") + unit("machine.trace_push_ns"))
            * 1e-9;

    // Runner: a key and a memory probe per lookup, plus the disk layer.
    let lookup_s = unit("runner.cache_key_us") * 1e-6 + unit("runner.mem_hit_ns") * 1e-9;
    let runner_s = counts.lookups as f64 * lookup_s
        + counts.disk_written as f64 * unit("runner.disk_write_ms_per_entry") * 1e-3
        + counts.disk_read as f64 * unit("runner.disk_read_ms_per_entry") * 1e-3;

    // Serve: the host work of the protocol — a parse per frame, a
    // queue hop and a reply per spec. Time on the socket is not CPU
    // time and stays out (see `serve.hit_roundtrip_us` for it).
    let serve_s = counts.frames as f64 * unit("serve.parse_us_per_frame") * 1e-6
        + counts.served_specs as f64
            * (unit("serve.reply_us_per_spec") * 1e-6 + unit("serve.queue_ns_per_op") * 1e-9);

    let parts = [
        ("kernels", kernels_s),
        ("mpi", mpi_s),
        ("machine", machine_s),
        ("runner", runner_s),
        ("serve", serve_s),
    ];
    // `+ 0.0`: an empty sum is -0.0, which prints as a negative share.
    let mut shares: BTreeMap<&'static str, f64> = parts
        .iter()
        .map(|&(name, s)| (name, if total_s > 0.0 { s / total_s + 0.0 } else { 0.0 }))
        .collect();
    let explained: f64 = shares.values().sum();
    shares.insert("unexplained", 1.0 - explained);
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_and_unexplained_sum_to_one() {
        let mut counts = Counts {
            ranks: 640,
            trace_events: 90_000,
            meter_samples: 400_000,
            power_segments: 20_000,
            lookups: 500,
            disk_written: 12,
            disk_read: 3,
            frames: 40,
            served_specs: 160,
            ..Counts::default()
        };
        counts.sims.insert(("LU".into(), "B"), 10);
        counts.sims.insert(("CG".into(), "test"), 30);
        let layers: Layers = [
            ("kernels.lu_n1_ms", 24.0),
            ("mpi.spawn_us_per_rank", 6.0),
            ("mpi.p2p_ns_per_msg", 400.0),
            ("machine.wattmeter_ns_per_sample", 15.0),
            ("machine.exact_energy_ns_per_segment", 2.0),
            ("machine.trace_push_ns", 5.0),
            ("runner.cache_key_us", 7.0),
            ("runner.mem_hit_ns", 60.0),
            ("runner.disk_write_ms_per_entry", 20.0),
            ("runner.disk_read_ms_per_entry", 15.0),
            ("serve.parse_us_per_frame", 30.0),
            ("serve.reply_us_per_spec", 4.0),
            ("serve.queue_ns_per_op", 50.0),
        ]
        .into_iter()
        .collect();
        let test_us: BTreeMap<&'static str, f64> = [("CG", 300.0)].into_iter().collect();
        let shares = shares(&counts, &layers, &test_us, 1.0);
        assert_eq!(shares.len(), crate::metrics::BUDGET_PARTS.len());
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        // 10 × 24 ms of class-B LU and 30 × 0.3 ms of Test CG in 1 s.
        assert!((shares["kernels"] - 0.249).abs() < 1e-12);
        assert!(shares["runner"] > 0.0 && shares["serve"] > 0.0 && shares["machine"] > 0.0);
        // Unit costs that over-explain show as a negative remainder.
        let tight = super::shares(&counts, &layers, &test_us, 0.1);
        assert!(tight["unexplained"] < 0.0);
        assert!((tight.values().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
