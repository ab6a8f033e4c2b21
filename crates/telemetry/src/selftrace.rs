//! Chrome Trace Event Format export for the engine's **own** profiling
//! spans (`--self-trace-out`).
//!
//! Where [`crate::chrome`] makes the *simulated* ranks visible, this
//! module makes the *host machinery* visible: the sweep engine's
//! worker-pool lanes, per-run execution spans, and a
//! metrics summary — everything `psc_metrics::Profiler` recorded. The
//! export uses the same Trace Event Format, so the same Perfetto tab
//! that renders a rank trace renders the engine flamegraph: `pid` 0 is
//! the engine process, `tid` 0 the coordinator lane, `tid` N worker
//! lane N.

use crate::chrome::{Arg, TraceWriter};
use psc_metrics::{Snapshot, SpanRecord};

const ENGINE_PID: u64 = 0;

/// The engine self-trace as JSON text: every profiling span, with
/// selected metrics totals attached as `otherData`.
pub fn self_trace_json(spans: &[SpanRecord], snap: &Snapshot) -> String {
    let mut w = TraceWriter::new();
    w.metadata("process_name", ENGINE_PID, None, "sweep engine");

    let mut lanes: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &lane in &lanes {
        let label = if lane == 0 { "coordinator".to_string() } else { format!("worker {lane}") };
        w.metadata("thread_name", ENGINE_PID, Some(lane), &label);
    }

    for s in spans {
        w.complete(
            (&s.name, &s.cat),
            (s.t_start_us, s.dur_us),
            (ENGINE_PID, s.tid),
            s.args.iter().map(|(k, v)| (k.as_str(), Arg::Str(v))),
        );
    }

    let total = |name: &str| Arg::F64(snap.get(name, &[]).map(|s| s.scalar()).unwrap_or(0.0));
    w.finish([
        ("plans", total("engine_plans_total")),
        ("specs", total("engine_specs_total")),
        ("pool_wall_s", total("engine_pool_wall_seconds_total")),
        ("worker_busy_s", total("engine_worker_busy_seconds_total")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_metrics::{Profiler, Registry, Stopwatch};
    use serde::{json, Value};

    /// The same trace as a `serde::Value` tree: the reference
    /// [`self_trace_json`] must match byte for byte.
    fn reference(spans: &[SpanRecord], snap: &Snapshot) -> Value {
        fn obj(pairs: Vec<(&str, Value)>) -> Value {
            Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
        fn meta(name: &str, tid: Option<u64>, value: &str) -> Value {
            let mut pairs = vec![
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str("M".to_string())),
                ("pid", Value::U64(ENGINE_PID)),
            ];
            if let Some(tid) = tid {
                pairs.push(("tid", Value::U64(tid)));
            }
            pairs.push(("args", obj(vec![("name", Value::Str(value.to_string()))])));
            obj(pairs)
        }
        let mut events = vec![meta("process_name", None, "sweep engine")];
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for &lane in &lanes {
            let label =
                if lane == 0 { "coordinator".to_string() } else { format!("worker {lane}") };
            events.push(meta("thread_name", Some(lane), &label));
        }
        for s in spans {
            let args: Vec<(String, Value)> =
                s.args.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
            events.push(obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str(s.cat.clone())),
                ("ph", Value::Str("X".to_string())),
                ("ts", Value::F64(s.t_start_us)),
                ("dur", Value::F64(s.dur_us)),
                ("pid", Value::U64(ENGINE_PID)),
                ("tid", Value::U64(s.tid)),
                ("args", Value::Map(args)),
            ]));
        }
        let total = |name: &str| Value::F64(snap.get(name, &[]).map(|s| s.scalar()).unwrap_or(0.0));
        obj(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
            (
                "otherData",
                obj(vec![
                    ("plans", total("engine_plans_total")),
                    ("specs", total("engine_specs_total")),
                    ("pool_wall_s", total("engine_pool_wall_seconds_total")),
                    ("worker_busy_s", total("engine_worker_busy_seconds_total")),
                ]),
            ),
        ])
    }

    fn sample() -> (Vec<SpanRecord>, Snapshot) {
        let reg = Registry::new();
        reg.counter("engine_plans_total", "plans", &[]).inc();
        reg.float_counter("engine_pool_wall_seconds_total", "wall", &[]).add(0.5);
        let prof = Profiler::new();
        let sw = Stopwatch::start();
        prof.record("resolve", "engine", 0, &sw, &[("specs", "6".to_string())]);
        prof.record("run", "run", 1, &sw, &[("bench", "CG".to_string())]);
        prof.record("run", "run", 2, &sw, &[("bench", "EP".to_string())]);
        prof.record("pool", "engine", 0, &sw, &[]);
        (prof.records(), reg.snapshot())
    }

    /// The streamed export is the reference tree's text, byte for byte:
    /// on recorded spans, on an arg key and value holding every
    /// character class JSON escapes differently, and on an empty
    /// profiler.
    #[test]
    fn streamed_export_matches_the_value_tree_byte_for_byte() {
        let (mut spans, snap) = sample();
        let awkward = "q\"b\\n\nt\tc\u{1}a\u{2192}";
        spans[1].args.push((awkward.to_string(), awkward.to_string()));
        assert_eq!(self_trace_json(&spans, &snap), json::to_string(&reference(&spans, &snap)));

        let empty = Registry::new().snapshot();
        assert_eq!(self_trace_json(&[], &empty), json::to_string(&reference(&[], &empty)));
    }

    /// The export passes the same schema walk the rank-trace export
    /// does: every event has name/pid/ph, "X" events carry ts/dur/tid.
    #[test]
    fn export_is_valid_trace_event_json() {
        let (spans, snap) = sample();
        let text = self_trace_json(&spans, &snap);
        let doc = json::parse(&text).expect("export must be valid JSON");
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert!(!events.is_empty());
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).expect("event missing ph");
            assert!(ev.get("name").and_then(Value::as_str).is_some());
            assert!(ev.get("pid").and_then(Value::as_u64).is_some());
            match ph {
                "X" => {
                    assert!(ev.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
                    assert!(ev.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
                    assert!(ev.get("tid").and_then(Value::as_u64).is_some());
                }
                "M" => assert!(ev.get("args").and_then(|a| a.get("name")).is_some()),
                other => panic!("unexpected event phase {other:?}"),
            }
        }
    }

    #[test]
    fn every_lane_gets_a_thread_name_and_summary_totals_flow_through() {
        let (spans, snap) = sample();
        let doc = json::parse(&self_trace_json(&spans, &snap)).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
        let lane_names: Vec<String> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("name").and_then(Value::as_str) == Some("thread_name")
            })
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
            .collect();
        assert_eq!(lane_names, vec!["coordinator", "worker 1", "worker 2"]);
        let other = doc.get("otherData").expect("summary block");
        assert_eq!(other.get("plans").and_then(Value::as_f64), Some(1.0));
        assert_eq!(other.get("pool_wall_s").and_then(Value::as_f64), Some(0.5));
    }

    #[test]
    fn write_creates_parent_directories() {
        let (spans, snap) = sample();
        let text = self_trace_json(&spans, &snap);
        let dir = std::env::temp_dir().join("psc-selftrace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("self.json");
        crate::write_file(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
