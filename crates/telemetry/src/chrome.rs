//! Chrome Trace Event Format export.
//!
//! Produces the JSON object format described in the Trace Event Format
//! spec and understood by Perfetto (`ui.perfetto.dev`) and
//! `chrome://tracing`: a top-level `traceEvents` array of events with
//! microsecond timestamps. The mapping is one *process* per rank
//! (`pid` = rank id), with two threads per rank — `tid` 0 carries the
//! application phase spans, `tid` 1 the MPI operations — plus a
//! per-rank `power_w` counter track sampled at every power-trace step
//! and instant events marking DVFS gear shifts and fault-injection
//! activations (cat `"fault"`), when the run carried a fault plan.

use psc_mpi::RunResult;
use serde::json::{write_f64, write_string};
use std::fmt::{Debug, Write as _};
use Arg::{Str, F64, U64};

const TID_PHASES: u64 = 0;
const TID_MPI: u64 = 1;

fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// One value of an event field, an `args` entry or `otherData`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arg<'a> {
    U64(u64),
    F64(f64),
    Str(&'a str),
    Null,
}

/// A Trace Event Format document appended straight into a `String`,
/// one event at a time. Strings and floats go through the same
/// encoders as `serde::json`, and each event kind writes its fields in
/// one fixed order, so the text is what serializing the equivalent
/// `Value` tree would print.
pub(crate) struct TraceWriter {
    out: String,
    events: usize,
}

impl TraceWriter {
    pub(crate) fn new() -> Self {
        TraceWriter { out: String::from("{\"traceEvents\":["), events: 0 }
    }

    fn pair(&mut self, key: &str, value: Arg<'_>) {
        write_string(&mut self.out, key);
        self.out.push(':');
        match value {
            U64(n) => {
                let _ = write!(self.out, "{n}");
            }
            F64(n) => write_f64(&mut self.out, n),
            Str(s) => write_string(&mut self.out, s),
            Arg::Null => self.out.push_str("null"),
        }
    }

    fn map<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a str, Arg<'a>)>) {
        self.out.push('{');
        for (i, (key, value)) in pairs.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.pair(key, value);
        }
        self.out.push('}');
    }

    /// `{<fields>,"args":{<args>}}`, comma-separated from the last event.
    fn event<'a>(
        &mut self,
        fields: &[(&str, Arg<'_>)],
        args: impl IntoIterator<Item = (&'a str, Arg<'a>)>,
    ) {
        if self.events > 0 {
            self.out.push(',');
        }
        self.events += 1;
        for (i, &(key, value)) in fields.iter().enumerate() {
            self.out.push(if i == 0 { '{' } else { ',' });
            self.pair(key, value);
        }
        self.out.push_str(",\"args\":");
        self.map(args);
        self.out.push('}');
    }

    /// A metadata (`M`) event naming a process, or a thread of it.
    pub(crate) fn metadata(&mut self, name: &str, pid: u64, tid: Option<u64>, value: &str) {
        let fields = [
            ("name", Str(name)),
            ("ph", Str("M")),
            ("pid", U64(pid)),
            ("tid", tid.map_or(Arg::Null, U64)),
        ];
        let fields = if tid.is_some() { &fields[..] } else { &fields[..3] };
        self.event(fields, [("name", Str(value))]);
    }

    /// A complete (`X`) duration event, times in microseconds.
    pub(crate) fn complete<'a>(
        &mut self,
        (name, cat): (&str, &str),
        (ts_us, dur_us): (f64, f64),
        (pid, tid): (u64, u64),
        args: impl IntoIterator<Item = (&'a str, Arg<'a>)>,
    ) {
        let fields = [
            ("name", Str(name)),
            ("cat", Str(cat)),
            ("ph", Str("X")),
            ("ts", F64(ts_us)),
            ("dur", F64(dur_us)),
            ("pid", U64(pid)),
            ("tid", U64(tid)),
        ];
        self.event(&fields, args);
    }

    /// A thread-scoped instant (`i`, `"s":"t"`) event.
    fn instant(&mut self, (name, cat): (&str, &str), ts_us: f64, pid: u64, arg: (&str, Arg<'_>)) {
        let fields = [
            ("name", Str(name)),
            ("cat", Str(cat)),
            ("ph", Str("i")),
            ("s", Str("t")),
            ("ts", F64(ts_us)),
            ("pid", U64(pid)),
            ("tid", U64(TID_PHASES)),
        ];
        self.event(&fields, [arg]);
    }

    /// A counter (`C`) sample on a process track.
    fn counter(&mut self, name: &str, ts_us: f64, pid: u64, arg: (&str, Arg<'_>)) {
        let fields = [("name", Str(name)), ("ph", Str("C")), ("ts", F64(ts_us)), ("pid", U64(pid))];
        self.event(&fields, [arg]);
    }

    /// Close the event array and the envelope around it.
    pub(crate) fn finish<'a>(
        mut self,
        other_data: impl IntoIterator<Item = (&'a str, Arg<'a>)>,
    ) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":");
        self.map(other_data);
        self.out.push('}');
        self.out
    }
}

/// `format!("{value:?}")` into a reused buffer.
fn debug_into(buf: &mut String, value: impl Debug) -> &str {
    buf.clear();
    let _ = write!(buf, "{value:?}");
    buf
}

/// A run's Chrome trace as JSON text. Load the file in Perfetto or
/// `chrome://tracing`.
pub fn chrome_trace_json(run: &RunResult) -> String {
    let mut w = TraceWriter::new();
    let mut name = String::new();

    for r in &run.ranks {
        let pid = r.rank as u64;
        w.metadata("process_name", pid, None, &format!("rank {pid}"));
        w.metadata("thread_name", pid, Some(TID_PHASES), "phases");
        w.metadata("thread_name", pid, Some(TID_MPI), "mpi");

        // Phase spans: complete ("X") duration events on the phase track.
        for span in r.trace.spans() {
            w.complete(
                (&span.name, "phase"),
                (us(span.t_start_s), us(span.duration_s())),
                (pid, TID_PHASES),
                [("depth", U64(span.depth as u64))],
            );
        }

        // MPI operations: complete events on the mpi track.
        for ev in r.trace.events() {
            let peer = ev.peer().map_or(Arg::Null, |p| U64(p as u64));
            w.complete(
                (debug_into(&mut name, ev.op), "mpi"),
                (us(ev.t_enter_s), us(ev.duration_s())),
                (pid, TID_MPI),
                [("bytes", U64(ev.bytes)), ("peer", peer)],
            );
        }

        // Gear shifts: thread-scoped instant events on the phase track.
        for shift in r.trace.gear_shifts() {
            name.clear();
            let _ = write!(name, "gear {}\u{2192}{}", shift.from_gear, shift.to_gear);
            w.instant((&name, "dvfs"), us(shift.t_s), pid, ("stall_us", F64(shift.stall_s * 1e6)));
        }

        // Policy decisions: instant events (cat "policy") on the phase
        // track. Each marks the moment an online gear policy asked for
        // a shift — the matching `dvfs` instant lands one transition
        // stall later, so the pair visualizes decision-to-effect lag.
        for d in r.trace.decisions() {
            name.clear();
            let _ = write!(name, "policy g{}\u{2192}g{}", d.from_gear, d.to_gear);
            w.instant((&name, "policy"), us(d.t_s), pid, ("to_gear", U64(d.to_gear as u64)));
        }

        // Fault activations: thread-scoped instant events on the phase
        // track, so injected perturbations line up with the compute and
        // MPI activity they distorted.
        for fault in r.trace.fault_events() {
            let name = debug_into(&mut name, fault.kind);
            w.instant((name, "fault"), us(fault.t_s), pid, ("magnitude", F64(fault.magnitude)));
        }

        // Wall-outlet power: a counter track sampled at every step of
        // the power profile (plus a closing zero so the counter does
        // not extend past the run).
        for seg in r.power.segments() {
            w.counter("power_w", us(seg.t0_s), pid, ("watts", F64(seg.power_w)));
        }
        w.counter("power_w", us(r.power.end_s()), pid, ("watts", F64(0.0)));
    }

    w.finish([
        ("time_s", F64(run.time_s)),
        ("energy_j", F64(run.energy_j)),
        ("ranks", U64(run.ranks.len() as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_faults::FaultPlan;
    use psc_kernels::{Benchmark, ProblemClass};
    use psc_machine::WorkBlock;
    use psc_mpi::{
        Cluster, ClusterConfig, ClusterPolicy, Observation, PolicyEvent, RankPolicy, ReduceOp,
    };
    use serde::{json, Value};

    /// The same trace as a `serde::Value` tree: the reference
    /// [`chrome_trace_json`] must match byte for byte.
    fn reference(run: &RunResult) -> Value {
        fn obj(pairs: Vec<(&str, Value)>) -> Value {
            Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
        fn us(t_s: f64) -> Value {
            Value::F64(t_s * 1e6)
        }
        fn meta(name: &str, pid: usize, tid: Option<u64>, value: &str) -> Value {
            let mut pairs = vec![
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str("M".to_string())),
                ("pid", Value::U64(pid as u64)),
            ];
            if let Some(tid) = tid {
                pairs.push(("tid", Value::U64(tid)));
            }
            pairs.push(("args", obj(vec![("name", Value::Str(value.to_string()))])));
            obj(pairs)
        }
        let instant = |name: String, cat: &str, t_s: f64, pid: usize, args: Value| {
            obj(vec![
                ("name", Value::Str(name)),
                ("cat", Value::Str(cat.to_string())),
                ("ph", Value::Str("i".to_string())),
                ("s", Value::Str("t".to_string())),
                ("ts", us(t_s)),
                ("pid", Value::U64(pid as u64)),
                ("tid", Value::U64(TID_PHASES)),
                ("args", args),
            ])
        };
        let counter = |t_s: f64, pid: usize, watts: f64| {
            obj(vec![
                ("name", Value::Str("power_w".to_string())),
                ("ph", Value::Str("C".to_string())),
                ("ts", us(t_s)),
                ("pid", Value::U64(pid as u64)),
                ("args", obj(vec![("watts", Value::F64(watts))])),
            ])
        };

        let mut events: Vec<Value> = Vec::new();
        for r in &run.ranks {
            let pid = r.rank;
            events.push(meta("process_name", pid, None, &format!("rank {pid}")));
            events.push(meta("thread_name", pid, Some(TID_PHASES), "phases"));
            events.push(meta("thread_name", pid, Some(TID_MPI), "mpi"));
            for span in r.trace.spans() {
                events.push(obj(vec![
                    ("name", Value::Str(span.name.to_string())),
                    ("cat", Value::Str("phase".to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", us(span.t_start_s)),
                    ("dur", us(span.duration_s())),
                    ("pid", Value::U64(pid as u64)),
                    ("tid", Value::U64(TID_PHASES)),
                    ("args", obj(vec![("depth", Value::U64(span.depth as u64))])),
                ]));
            }
            for ev in r.trace.events() {
                let peer = match ev.peer() {
                    Some(p) => Value::U64(p as u64),
                    None => Value::Null,
                };
                events.push(obj(vec![
                    ("name", Value::Str(format!("{:?}", ev.op))),
                    ("cat", Value::Str("mpi".to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", us(ev.t_enter_s)),
                    ("dur", us(ev.duration_s())),
                    ("pid", Value::U64(pid as u64)),
                    ("tid", Value::U64(TID_MPI)),
                    ("args", obj(vec![("bytes", Value::U64(ev.bytes)), ("peer", peer)])),
                ]));
            }
            for shift in r.trace.gear_shifts() {
                let name = format!("gear {}\u{2192}{}", shift.from_gear, shift.to_gear);
                let args = obj(vec![("stall_us", Value::F64(shift.stall_s * 1e6))]);
                events.push(instant(name, "dvfs", shift.t_s, pid, args));
            }
            for d in r.trace.decisions() {
                let name = format!("policy g{}\u{2192}g{}", d.from_gear, d.to_gear);
                let args = obj(vec![("to_gear", Value::U64(d.to_gear as u64))]);
                events.push(instant(name, "policy", d.t_s, pid, args));
            }
            for fault in r.trace.fault_events() {
                let args = obj(vec![("magnitude", Value::F64(fault.magnitude))]);
                events.push(instant(format!("{:?}", fault.kind), "fault", fault.t_s, pid, args));
            }
            for seg in r.power.segments() {
                events.push(counter(seg.t0_s, pid, seg.power_w));
            }
            events.push(counter(r.power.end_s(), pid, 0.0));
        }
        obj(vec![
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
            (
                "otherData",
                obj(vec![
                    ("time_s", Value::F64(run.time_s)),
                    ("energy_j", Value::F64(run.energy_j)),
                    ("ranks", Value::U64(run.ranks.len() as u64)),
                ]),
            ),
        ])
    }

    /// Asks for one downshift at the first phase end, then holds.
    struct DownshiftOnce;
    struct DownshiftOnceRank(bool);
    impl ClusterPolicy for DownshiftOnce {
        fn rank_policy(
            &self,
            _rank: usize,
            _size: usize,
            _node: &psc_machine::NodeSpec,
        ) -> Box<dyn RankPolicy> {
            Box::new(DownshiftOnceRank(false))
        }
    }
    impl RankPolicy for DownshiftOnceRank {
        fn decide(&mut self, obs: &Observation<'_>) -> Option<usize> {
            if self.0 {
                return None;
            }
            if let PolicyEvent::PhaseEnd { .. } = obs.event {
                self.0 = true;
                return Some(obs.gear_index + 1);
            }
            None
        }
    }

    fn sample_run() -> RunResult {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(2, 2), |comm| {
            comm.span("work", |comm| {
                comm.compute(&WorkBlock::with_upm(1.0e8, 50.0));
                comm.allreduce(vec![1.0], ReduceOp::Sum);
            });
            comm.set_gear(3);
            comm.compute(&WorkBlock::cpu_only(1.0e8));
        });
        run
    }

    /// The whole document, parsed back.
    fn parsed(run: &RunResult) -> Value {
        json::parse(&chrome_trace_json(run)).expect("export must be valid JSON")
    }

    fn events(doc: &Value) -> &[Value] {
        match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            other => panic!("traceEvents must be an array, got {other:?}"),
        }
    }

    /// A span name holding every character class JSON escapes
    /// differently: quote, backslash, named controls, a bare control,
    /// and a multi-byte character that passes through.
    const AWKWARD: &str = "q\"b\\n\nt\tc\u{1}a\u{2192}";

    /// The streamed export is the reference tree's text, byte for byte,
    /// on a Test-class kernel wrapped in nested spans (one with an
    /// awkward name), with point-to-point ops (a peer) and collectives
    /// (none), gear shifts, policy decisions and fault activations.
    #[test]
    fn streamed_export_matches_the_value_tree_byte_for_byte() {
        let c = Cluster::athlon_fast_ethernet();
        let plan = FaultPlan::noise(11, 0.05);
        let cfg = ClusterConfig::uniform(4, 2);
        let (run, _) = c.run_with_policy(&cfg, Some(&plan), Some(&DownshiftOnce), |comm| {
            comm.span(AWKWARD, |comm| {
                comm.span("kernel", |comm| Benchmark::Cg.run(comm, ProblemClass::Test));
                let (me, n) = (comm.rank(), comm.size());
                let _: f64 = comm.sendrecv((me + 1) % n, 7, me as f64, (me + n - 1) % n, 7);
            });
            comm.set_gear(4);
            comm.compute(&WorkBlock::cpu_only(1.0e7));
        });
        let traces = || run.ranks.iter().map(|r| &r.trace);
        assert!(traces().any(|t| t.spans().iter().any(|s| s.depth > 0)), "nested spans");
        assert!(traces().any(|t| t.spans().iter().any(|s| &*s.name == AWKWARD)));
        assert!(traces().any(|t| t.events().iter().any(|e| e.peer().is_some())));
        assert!(traces().any(|t| t.events().iter().any(|e| e.peer().is_none())));
        assert!(traces().any(|t| !t.gear_shifts().is_empty()), "gear shifts");
        assert!(traces().any(|t| !t.decisions().is_empty()), "policy decisions");
        assert!(traces().any(|t| !t.fault_events().is_empty()), "fault activations");

        assert_eq!(chrome_trace_json(&run), json::to_string(&reference(&run)));
    }

    /// Schema check: the export round-trips through the JSON parser and
    /// every event carries the fields the Trace Event Format requires.
    #[test]
    fn export_is_valid_trace_event_json() {
        let doc = parsed(&sample_run());
        let events = events(&doc);
        assert!(!events.is_empty());
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).expect("event missing ph");
            assert!(ev.get("name").and_then(Value::as_str).is_some(), "event missing name");
            assert!(ev.get("pid").and_then(Value::as_u64).is_some(), "event missing pid");
            match ph {
                "X" => {
                    let ts = ev.get("ts").and_then(Value::as_f64).expect("X missing ts");
                    let dur = ev.get("dur").and_then(Value::as_f64).expect("X missing dur");
                    assert!(ts >= 0.0 && dur >= 0.0);
                    assert!(ev.get("tid").and_then(Value::as_u64).is_some());
                }
                "C" => {
                    assert!(ev.get("ts").and_then(Value::as_f64).is_some());
                    assert!(ev.get("args").and_then(|a| a.get("watts")).is_some());
                }
                "i" => {
                    assert!(ev.get("ts").and_then(Value::as_f64).is_some());
                    assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
                }
                "M" => {
                    assert!(ev.get("args").and_then(|a| a.get("name")).is_some());
                }
                other => panic!("unexpected event phase {other:?}"),
            }
        }
    }

    #[test]
    fn every_rank_has_span_mpi_and_power_tracks() {
        let run = sample_run();
        let doc = parsed(&run);
        let events = events(&doc);
        for rank in 0..run.ranks.len() as u64 {
            let of_rank = |cat: &str| {
                events.iter().any(|e| {
                    e.get("pid").and_then(Value::as_u64) == Some(rank)
                        && e.get("cat").and_then(Value::as_str) == Some(cat)
                })
            };
            assert!(of_rank("phase"), "rank {rank} has no phase events");
            assert!(of_rank("mpi"), "rank {rank} has no mpi events");
            assert!(of_rank("dvfs"), "rank {rank} has no gear-shift events");
            assert!(
                events.iter().any(|e| {
                    e.get("pid").and_then(Value::as_u64) == Some(rank)
                        && e.get("ph").and_then(Value::as_str) == Some("C")
                }),
                "rank {rank} has no power counter events"
            );
        }
    }

    /// A run under a fault plan exports its activations as `cat
    /// "fault"` instant events, and the export still passes the schema
    /// walk performed by `export_is_valid_trace_event_json`.
    #[test]
    fn faulted_run_exports_fault_instants() {
        let c = Cluster::athlon_fast_ethernet();
        let plan = FaultPlan::noise(11, 0.05);
        let (run, _) = c.run_with_faults(&ClusterConfig::uniform(2, 2), Some(&plan), |comm| {
            comm.span("work", |comm| {
                comm.compute(&WorkBlock::with_upm(1.0e8, 50.0));
                comm.allreduce(vec![1.0], ReduceOp::Sum);
            });
        });
        let doc = parsed(&run);
        let faults: Vec<&Value> = events(&doc)
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("fault"))
            .collect();
        assert!(!faults.is_empty(), "faulted run must export fault instants");
        for ev in &faults {
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("i"));
            assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
            assert!(ev.get("ts").and_then(Value::as_f64).is_some());
            assert!(ev.get("args").and_then(|a| a.get("magnitude")).is_some());
        }
        // A clean run exports none.
        let clean = parsed(&sample_run());
        assert!(events(&clean)
            .iter()
            .all(|e| e.get("cat").and_then(Value::as_str) != Some("fault")));
    }

    /// A run driven by a gear policy exports its decisions as `cat
    /// "policy"` instant events; a policy-free run exports none.
    #[test]
    fn policy_run_exports_decision_instants() {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) =
            c.run_with_policy(&ClusterConfig::uniform(2, 1), None, Some(&DownshiftOnce), |comm| {
                comm.span("work", |comm| {
                    comm.compute(&WorkBlock::with_upm(1.0e8, 50.0));
                    comm.allreduce(vec![1.0], ReduceOp::Sum);
                });
                comm.compute(&WorkBlock::cpu_only(1.0e8));
            });
        let doc = parsed(&run);
        let decisions: Vec<&Value> = events(&doc)
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("policy"))
            .collect();
        assert!(!decisions.is_empty(), "policy run must export decision instants");
        for ev in &decisions {
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("i"));
            assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
            assert!(ev.get("ts").and_then(Value::as_f64).is_some());
            assert!(ev.get("args").and_then(|a| a.get("to_gear")).is_some());
        }
        // A policy-free run exports none.
        let clean = parsed(&sample_run());
        assert!(events(&clean)
            .iter()
            .all(|e| e.get("cat").and_then(Value::as_str) != Some("policy")));
    }

    /// The export lands on disk as is, under directories that did not
    /// exist; a path that cannot be written fails with an error naming it.
    #[test]
    fn write_creates_parent_directories() {
        let text = chrome_trace_json(&sample_run());
        let dir = std::env::temp_dir().join("psc-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("trace.json");
        crate::write_file(&path, &text).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

        let under_a_file = path.join("trace.json");
        let err = crate::write_file(&under_a_file, &text).unwrap_err();
        assert!(err.to_string().contains(&under_a_file.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
