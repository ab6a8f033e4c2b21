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
use serde::{json, Value};
use std::io;
use std::path::Path;

const TID_PHASES: u64 = 0;
const TID_MPI: u64 = 1;

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

/// Build the Chrome Trace Event Format JSON value for a run.
pub fn chrome_trace(run: &RunResult) -> Value {
    let mut events: Vec<Value> = Vec::new();

    for r in &run.ranks {
        let pid = r.rank;
        events.push(meta("process_name", pid, None, &format!("rank {pid}")));
        events.push(meta("thread_name", pid, Some(TID_PHASES), "phases"));
        events.push(meta("thread_name", pid, Some(TID_MPI), "mpi"));

        // Phase spans: complete ("X") duration events on the phase track.
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

        // MPI operations: complete events on the mpi track.
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

        // Gear shifts: thread-scoped instant events on the phase track.
        for shift in r.trace.gear_shifts() {
            events.push(obj(vec![
                ("name", Value::Str(format!("gear {}\u{2192}{}", shift.from_gear, shift.to_gear))),
                ("cat", Value::Str("dvfs".to_string())),
                ("ph", Value::Str("i".to_string())),
                ("s", Value::Str("t".to_string())),
                ("ts", us(shift.t_s)),
                ("pid", Value::U64(pid as u64)),
                ("tid", Value::U64(TID_PHASES)),
                ("args", obj(vec![("stall_us", Value::F64(shift.stall_s * 1e6))])),
            ]));
        }

        // Policy decisions: instant events (cat "policy") on the phase
        // track. Each marks the moment an online gear policy asked for
        // a shift — the matching `dvfs` instant lands one transition
        // stall later, so the pair visualizes decision-to-effect lag.
        for d in r.trace.decisions() {
            events.push(obj(vec![
                ("name", Value::Str(format!("policy g{}\u{2192}g{}", d.from_gear, d.to_gear))),
                ("cat", Value::Str("policy".to_string())),
                ("ph", Value::Str("i".to_string())),
                ("s", Value::Str("t".to_string())),
                ("ts", us(d.t_s)),
                ("pid", Value::U64(pid as u64)),
                ("tid", Value::U64(TID_PHASES)),
                ("args", obj(vec![("to_gear", Value::U64(d.to_gear as u64))])),
            ]));
        }

        // Fault activations: thread-scoped instant events on the phase
        // track, so injected perturbations line up with the compute and
        // MPI activity they distorted.
        for fault in r.trace.fault_events() {
            events.push(obj(vec![
                ("name", Value::Str(format!("{:?}", fault.kind))),
                ("cat", Value::Str("fault".to_string())),
                ("ph", Value::Str("i".to_string())),
                ("s", Value::Str("t".to_string())),
                ("ts", us(fault.t_s)),
                ("pid", Value::U64(pid as u64)),
                ("tid", Value::U64(TID_PHASES)),
                ("args", obj(vec![("magnitude", Value::F64(fault.magnitude))])),
            ]));
        }

        // Wall-outlet power: a counter track sampled at every step of
        // the power profile (plus a closing zero so the counter does
        // not extend past the run).
        for seg in r.power.segments() {
            events.push(obj(vec![
                ("name", Value::Str("power_w".to_string())),
                ("ph", Value::Str("C".to_string())),
                ("ts", us(seg.t0_s)),
                ("pid", Value::U64(pid as u64)),
                ("args", obj(vec![("watts", Value::F64(seg.power_w))])),
            ]));
        }
        events.push(obj(vec![
            ("name", Value::Str("power_w".to_string())),
            ("ph", Value::Str("C".to_string())),
            ("ts", us(r.power.end_s())),
            ("pid", Value::U64(pid as u64)),
            ("args", obj(vec![("watts", Value::F64(0.0))])),
        ]));
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

/// Serialize a run's Chrome trace to a JSON string.
pub fn chrome_trace_json(run: &RunResult) -> String {
    json::to_string(&chrome_trace(run))
}

/// Write a run's Chrome trace to `path` (parent directories are
/// created as needed). Load the file in Perfetto or `chrome://tracing`.
pub fn write_chrome_trace(run: &RunResult, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace_json(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use psc_mpi::{Cluster, ClusterConfig, ReduceOp};

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

    /// Schema check: the export round-trips through the JSON parser and
    /// every event carries the fields the Trace Event Format requires.
    #[test]
    fn export_is_valid_trace_event_json() {
        let run = sample_run();
        let text = chrome_trace_json(&run);
        let doc = json::parse(&text).expect("export must be valid JSON");

        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
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
        let doc = chrome_trace(&run);
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
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
        use psc_faults::FaultPlan;
        let c = Cluster::athlon_fast_ethernet();
        let plan = FaultPlan::noise(11, 0.05);
        let (run, _) = c.run_with_faults(&ClusterConfig::uniform(2, 2), Some(&plan), |comm| {
            comm.span("work", |comm| {
                comm.compute(&WorkBlock::with_upm(1.0e8, 50.0));
                comm.allreduce(vec![1.0], ReduceOp::Sum);
            });
        });
        let doc = chrome_trace(&run);
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
        let faults: Vec<&Value> = events
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
        let clean = chrome_trace(&sample_run());
        let clean_events = match clean.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
        assert!(clean_events.iter().all(|e| e.get("cat").and_then(Value::as_str) != Some("fault")));
    }

    /// A run driven by a gear policy exports its decisions as `cat
    /// "policy"` instant events; a policy-free run exports none.
    #[test]
    fn policy_run_exports_decision_instants() {
        use psc_mpi::{ClusterPolicy, Observation, PolicyEvent, RankPolicy};
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
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) =
            c.run_with_policy(&ClusterConfig::uniform(2, 1), None, Some(&DownshiftOnce), |comm| {
                comm.span("work", |comm| {
                    comm.compute(&WorkBlock::with_upm(1.0e8, 50.0));
                    comm.allreduce(vec![1.0], ReduceOp::Sum);
                });
                comm.compute(&WorkBlock::cpu_only(1.0e8));
            });
        let doc = chrome_trace(&run);
        let events = match doc.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
        let decisions: Vec<&Value> = events
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
        let clean = chrome_trace(&sample_run());
        let clean_events = match clean.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            _ => unreachable!(),
        };
        assert!(clean_events
            .iter()
            .all(|e| e.get("cat").and_then(Value::as_str) != Some("policy")));
    }

    #[test]
    fn write_creates_parent_directories() {
        let run = sample_run();
        let dir = std::env::temp_dir().join("psc-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("trace.json");
        write_chrome_trace(&run, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
