//! Benchmark-side spans: one record around every call the benchmark
//! makes into a layer, kept in memory and written out when the run
//! ends. Spans *inside* the program are a later issue; these only see
//! what a caller sees.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call went into (`runner`, `serve`, …) or
    /// `workload` for the benchmark's own framing spans.
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The recording thread (0 = the workload's own; clients count up).
    pub lane: u32,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span recorder. Disabled tracers cost one branch per
/// call, so the same workload code serves traced and untraced repeats.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by every
    /// lane of one run so their spans line up).
    pub fn new(enabled: bool, epoch: Instant, lane: u32) -> Self {
        Tracer { enabled, epoch, lane, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn disabled() -> Self {
        Tracer::new(false, crate::host::now(), 0)
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, lane)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let start_us = self.now_us();
        let parent = self.stack.last().copied();
        self.stack.push(self.spans.len());
        self.spans.push(Span { name, layer, start_us, end_us: start_us, parent, lane: self.lane });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("span end without begin");
        self.spans[id].end_us = self.now_us();
    }

    /// Append another lane's finished spans (their parent links are
    /// re-based onto this list).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "unclosed span");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_us();
        }
    }
    own
}

/// Self time summed by layer, microseconds.
pub fn self_time_by_layer_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *by_layer.entry(s.layer).or_insert(0.0) += own;
    }
    by_layer
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one track per lane, `args` carrying the parent id,
/// layer, self time and workload.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    use serde::Value;
    let own = self_times_us(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(s.layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(u64::from(s.lane))),
                ("ts".into(), Value::F64(s.start_us)),
                ("dur".into(), Value::F64(s.duration_us())),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("id".into(), Value::U64(id as u64)),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                        ("self_us".into(), Value::F64(own[id])),
                        ("workload".into(), Value::Str(workload.into())),
                    ]),
                ),
            ])
        })
        .collect();
    serde::json::to_string(&Value::Map(vec![("traceEvents".into(), Value::Seq(events))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>, layer: &'static str) -> Span {
        Span { name: "s", layer, start_us: start, end_us: end, parent, lane: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0.0, 100.0, None, "workload"),
            span(10.0, 40.0, Some(0), "runner"),
            span(15.0, 25.0, Some(1), "mpi"),
            span(50.0, 90.0, Some(0), "runner"),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        let by_layer = self_time_by_layer_us(&spans);
        assert_eq!(by_layer["workload"], 30.0);
        assert_eq!(by_layer["runner"], 60.0);
        assert_eq!(by_layer["mpi"], 10.0);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_and_absorbs_lanes() {
        let mut t = Tracer::new(true, crate::host::now(), 0);
        t.begin("outer", "workload");
        t.begin("inner", "runner");
        t.end();
        t.end();
        let mut client = t.fork(1);
        client.begin("frame", "serve");
        client.end();
        t.absorb(client);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[2].lane, 1);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let json = chrome_json("w", &spans);
        assert!(serde::json::parse(&json).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin("x", "runner");
        t.end();
        assert!(t.into_spans().is_empty());
    }
}
