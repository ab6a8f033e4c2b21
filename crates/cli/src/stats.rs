//! Rendering for `powerscale stats`: turn an engine metrics
//! [`Snapshot`] into the terminal report — cache effectiveness,
//! per-kernel wall-time histograms (p50/p95/max), queue behaviour,
//! worker-pool utilization, and the serialization/disk-I/O breakdown.
//!
//! Everything here reads a frozen snapshot; nothing feeds back into the
//! engine (analyzer rule M001 keeps it that way).

use psc_metrics::{HistogramSnapshot, SampleValue, Snapshot};
use psc_runner::PoolUtilization;
use std::collections::BTreeMap;

/// Format seconds for a report column: sub-millisecond values in µs,
/// sub-second in ms, the rest in s.
fn fmt_s(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v < 1e-3 {
        format!("{:.1} µs", v * 1e6)
    } else if v < 1.0 {
        format!("{:.2} ms", v * 1e3)
    } else {
        format!("{v:.2} s")
    }
}

fn outcome(snap: &Snapshot, which: &str) -> f64 {
    snap.get("engine_runs_total", &[("outcome", which)]).map(|s| s.scalar()).unwrap_or(0.0)
}

/// Per-kernel wall-time rows: `engine_run_wall_seconds` series pooled
/// across gears, keyed by `(benchmark, tier)` — a skeleton replay costs
/// a fraction of a full run, so the two populations get a row each.
fn per_kernel_walls(snap: &Snapshot) -> BTreeMap<(String, String), HistogramSnapshot> {
    let mut pooled: BTreeMap<(String, String), HistogramSnapshot> = BTreeMap::new();
    for s in snap.family("engine_run_wall_seconds") {
        let (Some(bench), SampleValue::Histogram(h)) = (s.label("bench"), &s.value) else {
            continue;
        };
        let key = (bench.to_string(), s.label("tier").unwrap_or("full").to_string());
        match pooled.get_mut(&key) {
            Some(acc) => *acc = acc.merged(h),
            None => {
                pooled.insert(key, h.clone());
            }
        }
    }
    pooled
}

/// Render the full `powerscale stats` report from a metrics snapshot.
pub fn render_stats(snap: &Snapshot) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    // -- runs and cache effectiveness ---------------------------------
    let plans = snap.family_total("engine_plans_total");
    let specs = snap.family_total("engine_specs_total");
    let executed = outcome(snap, "executed");
    let mem_hits = outcome(snap, "mem_hit");
    let disk_hits = outcome(snap, "disk_hit");
    let dedup = outcome(snap, "dedup_join");
    let lookups = snap.family_total("engine_cache_lookups_total");
    let corrupt = snap.family_total("engine_cache_corrupt_total");
    let hit_rate = if lookups > 0.0 { (mem_hits + disk_hits) / lookups } else { 0.0 };
    push(&mut out, format!("runs  ({plans:.0} plan(s), {specs:.0} spec(s))"));
    push(
        &mut out,
        format!(
            "  executed {executed:>6.0}   memory hits {mem_hits:>6.0}   disk hits {disk_hits:>6.0}   dedup joins {dedup:>6.0}"
        ),
    );
    let mut cache_line = format!(
        "  cache hit rate {:.1}% ({:.0} hit(s) / {lookups:.0} lookup(s))",
        100.0 * hit_rate,
        mem_hits + disk_hits
    );
    if corrupt > 0.0 {
        cache_line.push_str(&format!(", {corrupt:.0} corrupt entr(ies) healed"));
    }
    push(&mut out, cache_line);
    let skeletons = snap.family_total("engine_skeletons");
    if skeletons > 0.0 {
        push(
            &mut out,
            format!(
                "  skeleton replay: {:.0} of {executed:.0} executed run(s) re-timed from \
                 {skeletons:.0} recorded skeleton(s) ({:.1} KiB)",
                snap.family_total("engine_runs_replayed_total"),
                snap.family_total("engine_skeleton_bytes") / 1024.0
            ),
        );
    }

    // -- per-kernel wall-time histograms ------------------------------
    let kernels = per_kernel_walls(snap);
    if !kernels.is_empty() {
        push(&mut out, String::new());
        push(
            &mut out,
            format!(
                "run wall-clock by kernel and tier (executed runs only)\n  {:<10} {:<6} {:>6} {:>12} {:>12} {:>12} {:>12}",
                "kernel", "tier", "runs", "p50", "p95", "max", "mean"
            ),
        );
        for ((bench, tier), h) in &kernels {
            push(
                &mut out,
                format!(
                    "  {:<10} {:<6} {:>6} {:>12} {:>12} {:>12} {:>12}",
                    bench,
                    tier,
                    h.count,
                    fmt_s(h.quantile(0.50)),
                    fmt_s(h.quantile(0.95)),
                    fmt_s(h.max),
                    fmt_s(h.mean())
                ),
            );
        }
    }

    // -- queue and worker pool ----------------------------------------
    let u = PoolUtilization::from_snapshot(snap);
    let depth = snap.family_total("engine_queue_depth");
    push(&mut out, String::new());
    push(&mut out, "worker pool".to_string());
    push(
        &mut out,
        format!(
            "  utilization {:.1}% ({} busy of {} capacity over {} open)",
            100.0 * u.utilization(),
            fmt_s(u.busy_s),
            fmt_s(u.slot_s),
            fmt_s(u.pool_wall_s)
        ),
    );
    if let Some(SampleValue::Histogram(h)) =
        snap.get("engine_queue_wait_seconds", &[]).map(|s| &s.value)
    {
        push(
            &mut out,
            format!(
                "  queue: depth high-water {depth:.0}, wait p50 {} / p95 {} / max {}",
                fmt_s(h.quantile(0.50)),
                fmt_s(h.quantile(0.95)),
                fmt_s(h.max)
            ),
        );
    }

    // -- DES backend (present only when a recording ran; re-timings
    // report no dispatches, and only coroutines have a stack mark) --
    let des_events = snap.family_total("engine_des_events_total");
    if des_events > 0.0 {
        let hw = snap.family_total("engine_des_stack_high_water_bytes");
        push(&mut out, String::new());
        push(&mut out, "DES backend".to_string());
        let mut line = format!("  {des_events:.0} scheduler dispatch(es)");
        if hw > 0.0 {
            line.push_str(&format!(
                ", coroutine stack high-water {:.0} KiB of {} KiB",
                hw / 1024.0,
                psc_mpi::DES_STACK_BYTES / 1024
            ));
        }
        push(&mut out, line);
    }

    // -- job-server lanes (present only when psc-serve handled work) --
    if snap.family_total("serve_requests_total") > 0.0 {
        push(&mut out, String::new());
        push(
            &mut out,
            format!(
                "job server (cumulative)\n  {:<12} {:>9} {:>7} {:>9} {:>11} {:>9} {:>12}",
                "lane", "requests", "specs", "executed", "cache hits", "joins", "latency p95"
            ),
        );
        for lane in ["interactive", "batch"] {
            let c = |name: &str, labels: &[(&str, &str)]| {
                snap.get(name, labels).map(|s| s.scalar()).unwrap_or(0.0)
            };
            let requests = c("serve_requests_total", &[("lane", lane)]);
            if requests == 0.0 {
                continue;
            }
            let p95 = match snap.get("serve_request_seconds", &[("lane", lane)]).map(|s| &s.value) {
                Some(SampleValue::Histogram(h)) => fmt_s(h.quantile(0.95)),
                _ => "-".to_string(),
            };
            push(
                &mut out,
                format!(
                    "  {:<12} {:>9.0} {:>7.0} {:>9.0} {:>11.0} {:>9.0} {:>12}",
                    lane,
                    requests,
                    c("serve_specs_total", &[("lane", lane)]),
                    c("serve_results_total", &[("lane", lane), ("outcome", "executed")]),
                    c("serve_results_total", &[("lane", lane), ("outcome", "cache_hit")]),
                    c("serve_results_total", &[("lane", lane), ("outcome", "inflight_join")]),
                    p95
                ),
            );
        }
        let errors = snap.family_total("serve_errors_total");
        if errors > 0.0 {
            push(&mut out, format!("  {errors:.0} protocol frame(s) rejected"));
        }
    }

    // -- cache I/O breakdown ------------------------------------------
    let ser = snap.family_total("engine_cache_serialize_seconds_total");
    let rd = snap.family_total("engine_cache_disk_read_seconds_total");
    let wr = snap.family_total("engine_cache_disk_write_seconds_total");
    push(&mut out, String::new());
    push(&mut out, "cache I/O time".to_string());
    push(
        &mut out,
        format!("  serialize {}   disk read {}   disk write {}", fmt_s(ser), fmt_s(rd), fmt_s(wr)),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("engine_plans_total", "h", &[]).inc();
        reg.counter("engine_specs_total", "h", &[]).add(12);
        reg.counter("engine_runs_total", "h", &[("outcome", "executed")]).add(6);
        reg.counter("engine_runs_total", "h", &[("outcome", "mem_hit")]).add(5);
        reg.counter("engine_runs_total", "h", &[("outcome", "disk_hit")]).inc();
        reg.counter("engine_cache_lookups_total", "h", &[("result", "mem_hit")]).add(5);
        reg.counter("engine_cache_lookups_total", "h", &[("result", "disk_hit")]).inc();
        reg.counter("engine_cache_lookups_total", "h", &[("result", "miss")]).add(6);
        for (gear, tier, v) in
            [("1", "full", 0.040), ("2", "replay", 0.002), ("3", "replay", 0.004)]
        {
            let labels = [("bench", "CG"), ("gear", gear), ("tier", tier)];
            reg.time_histogram("engine_run_wall_seconds", "h", &labels).observe(v);
        }
        reg.time_histogram("engine_run_wall_seconds", "h", &[("bench", "EP"), ("gear", "1")])
            .observe(0.002);
        reg.counter("engine_runs_replayed_total", "h", &[]).add(2);
        reg.gauge("engine_skeletons", "h", &[]).set(1.0);
        reg.gauge("engine_skeleton_bytes", "h", &[]).set(2048.0);
        reg.time_histogram("engine_queue_wait_seconds", "h", &[]).observe(0.001);
        reg.gauge("engine_queue_depth", "h", &[]).record_max(6.0);
        reg.float_counter("engine_pool_wall_seconds_total", "h", &[]).add(0.1);
        reg.float_counter("engine_pool_slot_seconds_total", "h", &[]).add(0.4);
        reg.float_counter("engine_worker_busy_seconds_total", "h", &[]).add(0.3);
        reg.float_counter("engine_cache_serialize_seconds_total", "h", &[]).add(0.0005);
        reg.snapshot()
    }

    #[test]
    fn report_pools_gears_into_kernel_rows_split_by_tier() {
        let kernels = per_kernel_walls(&sample_snapshot());
        let row = |bench: &str, tier: &str| &kernels[&(bench.to_string(), tier.to_string())];
        assert_eq!(kernels.len(), 3);
        assert_eq!(row("CG", "full").count, 1);
        assert_eq!(row("CG", "replay").count, 2, "replays pool across gears, apart from full runs");
        assert_eq!(row("CG", "replay").max, 0.004);
        assert_eq!(row("EP", "full").count, 1, "a series without the label reads as a full run");
    }

    #[test]
    fn report_mentions_every_section_and_the_hit_rate() {
        let text = render_stats(&sample_snapshot());
        assert!(text.contains("cache hit rate 50.0% (6 hit(s) / 12 lookup(s))"), "{text}");
        assert!(text.contains("run wall-clock by kernel"), "{text}");
        assert!(
            text.contains("skeleton replay: 2 of 6 executed run(s) re-timed from 1 recorded"),
            "{text}"
        );
        assert!(text.contains("CG"), "{text}");
        assert!(text.contains("utilization 75.0%"), "{text}");
        assert!(text.contains("queue: depth high-water 6"), "{text}");
        assert!(text.contains("cache I/O time"), "{text}");
    }

    #[test]
    fn serve_lane_section_appears_only_with_service_traffic() {
        let no_serve = render_stats(&sample_snapshot());
        assert!(!no_serve.contains("job server"), "{no_serve}");

        let reg = Registry::new();
        reg.counter("serve_requests_total", "h", &[("lane", "interactive")]).add(3);
        reg.counter("serve_specs_total", "h", &[("lane", "interactive")]).add(9);
        reg.counter(
            "serve_results_total",
            "h",
            &[("lane", "interactive"), ("outcome", "executed")],
        )
        .add(4);
        reg.counter(
            "serve_results_total",
            "h",
            &[("lane", "interactive"), ("outcome", "cache_hit")],
        )
        .add(3);
        reg.counter(
            "serve_results_total",
            "h",
            &[("lane", "interactive"), ("outcome", "inflight_join")],
        )
        .add(2);
        reg.time_histogram("serve_request_seconds", "h", &[("lane", "interactive")]).observe(0.004);
        reg.counter("serve_errors_total", "h", &[]).inc();
        let text = render_stats(&reg.snapshot());
        assert!(text.contains("job server (cumulative)"), "{text}");
        assert!(text.contains("interactive"), "{text}");
        assert!(!text.contains("\n  batch"), "idle lane omitted: {text}");
        assert!(text.contains("1 protocol frame(s) rejected"), "{text}");
    }

    #[test]
    fn des_section_appears_only_when_the_des_backend_ran() {
        let no_des = render_stats(&sample_snapshot());
        assert!(!no_des.contains("DES backend"), "{no_des}");

        let reg = Registry::new();
        reg.counter("engine_des_events_total", "h", &[]).add(120);
        reg.gauge("engine_des_stack_high_water_bytes", "h", &[]).record_max(24.0 * 1024.0);
        let text = render_stats(&reg.snapshot());
        assert!(text.contains("DES backend"), "{text}");
        assert!(text.contains("120 scheduler dispatch(es)"), "{text}");
        assert!(text.contains("coroutine stack high-water 24 KiB of 2048 KiB"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_without_panicking() {
        let text = render_stats(&Registry::new().snapshot());
        assert!(text.contains("cache hit rate 0.0%"), "{text}");
        assert!(!text.contains("run wall-clock"), "no kernel table without runs: {text}");
    }

    #[test]
    fn seconds_format_picks_a_readable_unit() {
        assert_eq!(fmt_s(2.5e-6), "2.5 µs");
        assert_eq!(fmt_s(0.0123), "12.30 ms");
        assert_eq!(fmt_s(3.0), "3.00 s");
        assert_eq!(fmt_s(f64::NAN), "-");
    }
}
