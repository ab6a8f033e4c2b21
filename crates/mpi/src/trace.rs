//! The MPI interception/trace layer — the paper's Step 1.
//!
//! "For all MPI communication routines used in each benchmark,
//! interception functions report the time at which the routine was
//! entered and exited. These operations create a trace from which we
//! recover active and idle times."
//!
//! Every message-passing call on a [`crate::comm::Comm`] appends a
//! [`TraceEvent`] to the rank's [`RankTrace`] ("each trace record is
//! written to a local buffer" — ours is a pair of columns: the event's
//! op, peer and bytes in the trace's shape, which a re-timing shares
//! with its recording, and its enter/exit times). Post-processing
//! recovers:
//!
//! * `T^A` — active (compute) time: the gaps between events;
//! * `T^I` — idle time: the time spent inside events (communication
//!   plus blocking, as in the paper);
//! * the *critical/reducible* split used by the refined model: reducible
//!   work is "computation between the last send and a blocking point".

use psc_machine::wire::{Reader, WireError, Writer};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The kind of message-passing operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpiOp {
    /// Asynchronous point-to-point send (never blocks the sender beyond
    /// injection cost).
    Send,
    /// Blocking point-to-point receive.
    Recv,
    /// Combined send+receive (halo exchange).
    SendRecv,
    /// Nonblocking receive post (returns immediately).
    Irecv,
    /// Completion wait for a nonblocking receive.
    Wait,
    /// Barrier synchronization.
    Barrier,
    /// One-to-all broadcast.
    Bcast,
    /// All-to-one reduction.
    Reduce,
    /// All-to-all reduction.
    Allreduce,
    /// All-gather.
    Allgather,
    /// All-to-all personalized exchange.
    Alltoall,
    /// Prefix reduction (scan / exscan).
    Scan,
    /// Gather to a root.
    Gather,
    /// Scatter from a root.
    Scatter,
    /// Finalize (trailing barrier).
    Finalize,
}

impl MpiOp {
    /// The op's byte on the wire (DESIGN.md, "Disk entry format"). The
    /// numbers are the format: never renumber, only append.
    fn tag(self) -> u8 {
        match self {
            MpiOp::Send => 0,
            MpiOp::Recv => 1,
            MpiOp::SendRecv => 2,
            MpiOp::Irecv => 3,
            MpiOp::Wait => 4,
            MpiOp::Barrier => 5,
            MpiOp::Bcast => 6,
            MpiOp::Reduce => 7,
            MpiOp::Allreduce => 8,
            MpiOp::Allgather => 9,
            MpiOp::Alltoall => 10,
            MpiOp::Scan => 11,
            MpiOp::Gather => 12,
            MpiOp::Scatter => 13,
            MpiOp::Finalize => 14,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => MpiOp::Send,
            1 => MpiOp::Recv,
            2 => MpiOp::SendRecv,
            3 => MpiOp::Irecv,
            4 => MpiOp::Wait,
            5 => MpiOp::Barrier,
            6 => MpiOp::Bcast,
            7 => MpiOp::Reduce,
            8 => MpiOp::Allreduce,
            9 => MpiOp::Allgather,
            10 => MpiOp::Alltoall,
            11 => MpiOp::Scan,
            12 => MpiOp::Gather,
            13 => MpiOp::Scatter,
            14 => MpiOp::Finalize,
            _ => return Err(WireError::BadTag("MpiOp")),
        })
    }

    /// Whether this operation can block waiting on remote progress.
    /// Sends are asynchronous (the paper's assumption) and so is
    /// posting a nonblocking receive; everything else is a *blocking
    /// point* for the reducible-work analysis.
    pub fn is_blocking(self) -> bool {
        !matches!(self, MpiOp::Send | MpiOp::Irecv)
    }

    /// Whether this operation synchronizes *all* ranks of the job (a
    /// collective). These are the cluster-wide sync points at which
    /// budget-redistribution policies act: every rank observes the same
    /// count of them, in the same order.
    pub fn is_collective(self) -> bool {
        !matches!(self, MpiOp::Send | MpiOp::Recv | MpiOp::SendRecv | MpiOp::Irecv | MpiOp::Wait)
    }
}

/// One intercepted message-passing call, as [`RankTrace::record`] takes
/// it and [`Events`] yields it. 32 bytes: the peer is a `u32` with a
/// sentinel rather than a 16-byte `Option<usize>` (a trace keeps the
/// same word in its shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Operation kind.
    pub op: MpiOp,
    /// Peer rank, or [`NO_PEER`] for collectives; read through
    /// [`TraceEvent::peer`].
    peer: u32,
    /// Virtual time at call entry, seconds.
    pub t_enter_s: f64,
    /// Virtual time at call exit, seconds.
    pub t_exit_s: f64,
    /// Payload bytes moved by this rank in this call.
    pub bytes: u64,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);

/// The peer word of an event (and of a skeleton's `End` op) that names
/// no peer: collectives.
pub(crate) const NO_PEER: u32 = u32::MAX;

/// `peer` as a peer word.
///
/// # Panics
///
/// Panics if the rank does not fit below [`NO_PEER`].
pub(crate) fn peer_word(peer: Option<usize>) -> u32 {
    peer.map_or(NO_PEER, |p| {
        u32::try_from(p).ok().filter(|&w| w != NO_PEER).expect("peer rank does not fit a u32")
    })
}

/// Set in an event's tag byte when it names a peer; the peer word must
/// be zero when it is clear, so every event has one encoding.
const HAS_PEER: u8 = 0x80;

impl TraceEvent {
    /// Tag byte (op, [`HAS_PEER`]) + enter, exit, bytes, peer words.
    const WIRE_BYTES: usize = 1 + 4 * 8;

    /// An event; `peer` is `None` for collectives.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is `u32::MAX` or more.
    pub fn new(op: MpiOp, t_enter_s: f64, t_exit_s: f64, bytes: u64, peer: Option<usize>) -> Self {
        TraceEvent { op, peer: peer_word(peer), t_enter_s, t_exit_s, bytes }
    }

    /// Peer rank for point-to-point calls; `None` for collectives.
    #[inline]
    pub fn peer(&self) -> Option<usize> {
        (self.peer != NO_PEER).then_some(self.peer as usize)
    }

    fn encode(&self, w: &mut Writer) {
        let has_peer = self.peer != NO_PEER;
        w.u8(self.op.tag() | if has_peer { HAS_PEER } else { 0 });
        w.f64(self.t_enter_s);
        w.f64(self.t_exit_s);
        w.u64(self.bytes);
        w.u64(if has_peer { u64::from(self.peer) } else { 0 });
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8()?;
        let op = MpiOp::from_tag(tag & !HAS_PEER)?;
        let (t_enter_s, t_exit_s, bytes, word) = (r.f64()?, r.f64()?, r.u64()?, r.u64()?);
        let peer = match (tag & HAS_PEER != 0, word) {
            (true, word) if word < u64::from(NO_PEER) => word as u32,
            (false, 0) => NO_PEER,
            _ => return Err(WireError::BadTag("TraceEvent.peer")),
        };
        Ok(TraceEvent { op, peer, t_enter_s, t_exit_s, bytes })
    }

    /// Time spent inside the call, seconds.
    pub fn duration_s(&self) -> f64 {
        self.t_exit_s - self.t_enter_s
    }
}

/// JSON writes the peer as an `Option<usize>`: `null` for a collective,
/// never the sentinel word.
impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("op".into(), self.op.to_value()),
            ("t_enter_s".into(), self.t_enter_s.to_value()),
            ("t_exit_s".into(), self.t_exit_s.to_value()),
            ("bytes".into(), self.bytes.to_value()),
            ("peer".into(), self.peer().to_value()),
        ])
    }
}

impl Deserialize for TraceEvent {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let peer: Option<u32> = serde::__from_field(v, "peer")?;
        if peer == Some(NO_PEER) {
            return Err(serde::Error::msg("field `peer`: rank out of range"));
        }
        Ok(TraceEvent {
            op: serde::__from_field(v, "op")?,
            peer: peer.unwrap_or(NO_PEER),
            t_enter_s: serde::__from_field(v, "t_enter_s")?,
            t_exit_s: serde::__from_field(v, "t_exit_s")?,
            bytes: serde::__from_field(v, "bytes")?,
        })
    }
}

/// A named application phase interval on one rank, recorded by the
/// [`crate::comm::Comm::span`] API. Spans may nest; `depth` is the
/// nesting level at which the span was opened (0 = outermost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name, e.g. `"jacobi-halo"`. Spans of one rank that share a
    /// name share its allocation (see [`SpanNames`]).
    pub name: Arc<str>,
    /// Virtual time the span was opened, seconds.
    pub t_start_s: f64,
    /// Virtual time the span was closed, seconds.
    pub t_end_s: f64,
    /// Nesting depth at open time (0 = outermost).
    pub depth: usize,
}

impl PhaseSpan {
    /// Name length, start, end and depth words around the name's bytes.
    const MIN_WIRE_BYTES: usize = 4 * 8;

    /// Span length, seconds.
    pub fn duration_s(&self) -> f64 {
        self.t_end_s - self.t_start_s
    }
}

/// The span names of one rank, each allocated once: a kernel opens the
/// same few phases hundreds of times per run. Ordered (`clippy.toml`
/// bans `HashMap`) and looked up by `&str`.
#[derive(Debug, Default)]
pub(crate) struct SpanNames(BTreeSet<Arc<str>>);

impl SpanNames {
    /// The shared copy of `name`, allocated on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.0.get(name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(name);
        self.0.insert(Arc::clone(&shared));
        shared
    }
}

/// A mid-run DVFS gear change on one rank, recorded by
/// [`crate::comm::Comm::set_gear`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GearShift {
    /// Virtual time at which the new gear took effect, seconds.
    pub t_s: f64,
    /// Gear index before the shift (1-based).
    pub from_gear: usize,
    /// Gear index after the shift (1-based).
    pub to_gear: usize,
    /// PLL-relock/voltage-ramp stall charged in `[t_s - stall_s, t_s]`.
    pub stall_s: f64,
}

impl GearShift {
    const WIRE_BYTES: usize = 4 * 8;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.t_s);
        w.usize(self.from_gear);
        w.usize(self.to_gear);
        w.f64(self.stall_s);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(GearShift {
            t_s: r.f64()?,
            from_gear: r.usize()?,
            to_gear: r.usize()?,
            stall_s: r.f64()?,
        })
    }
}

/// One effective decision of an online gear policy
/// ([`crate::policyhook::RankPolicy`]): the policy requested a gear
/// different from the one the rank was running at. Recorded *before*
/// the DVFS transition stall is charged, so the matching [`GearShift`]
/// lands at `t_s + stall_s` — the invariant the policy property tests
/// check. Discarded requests (same gear, or no request) leave no record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyDecision {
    /// Virtual time at which the policy decided, seconds (pre-stall).
    pub t_s: f64,
    /// Gear index the rank was running at (1-based).
    pub from_gear: usize,
    /// Gear index the policy requested (1-based).
    pub to_gear: usize,
}

impl PolicyDecision {
    const WIRE_BYTES: usize = 3 * 8;

    fn encode(&self, w: &mut Writer) {
        w.f64(self.t_s);
        w.usize(self.from_gear);
        w.usize(self.to_gear);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyDecision { t_s: r.f64()?, from_gear: r.usize()?, to_gear: r.usize()? })
    }
}

/// The class of an injected-fault activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A compute block's duration was jittered (magnitude = time scale).
    ClockJitter,
    /// A compute block ran under a memory-pressure burst (magnitude =
    /// L2-miss multiplier).
    MemoryBurst,
    /// The rank was pinned to a gear other than the configured one
    /// (magnitude = the forced gear index).
    StragglerGear,
    /// A message's delivery latency spiked (magnitude = extra seconds).
    LatencySpike,
    /// A message was dropped and retransmitted (magnitude = retries).
    MessageDrop,
}

impl FaultKind {
    /// The kind's byte on the wire; never renumber, only append.
    fn tag(self) -> u8 {
        match self {
            FaultKind::ClockJitter => 0,
            FaultKind::MemoryBurst => 1,
            FaultKind::StragglerGear => 2,
            FaultKind::LatencySpike => 3,
            FaultKind::MessageDrop => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => FaultKind::ClockJitter,
            1 => FaultKind::MemoryBurst,
            2 => FaultKind::StragglerGear,
            3 => FaultKind::LatencySpike,
            4 => FaultKind::MessageDrop,
            _ => return Err(WireError::BadTag("FaultKind")),
        })
    }
}

/// One fault-injection activation on one rank, recorded when a
/// scheduled perturbation actually fired. Exported to Chrome traces as
/// instant events so injected noise is visible next to the phases it
/// perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time at which the perturbation took effect, seconds.
    pub t_s: f64,
    /// What kind of fault fired.
    pub kind: FaultKind,
    /// Kind-specific magnitude (see [`FaultKind`]).
    pub magnitude: f64,
}

impl FaultEvent {
    const WIRE_BYTES: usize = 1 + 2 * 8;

    fn encode(&self, w: &mut Writer) {
        w.u8(self.kind.tag());
        w.f64(self.t_s);
        w.f64(self.magnitude);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = FaultKind::from_tag(r.u8()?)?;
        Ok(FaultEvent { kind, t_s: r.f64()?, magnitude: r.f64()? })
    }
}

/// An event without its times: what the program fixes. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventShape {
    bytes: u64,
    peer: u32,
    op: MpiOp,
}

const _: () = assert!(std::mem::size_of::<EventShape>() == 16);

impl EventShape {
    fn of(ev: &TraceEvent) -> Self {
        EventShape { bytes: ev.bytes, peer: ev.peer, op: ev.op }
    }

    fn at(self, (): (), [t_enter_s, t_exit_s]: [f64; 2]) -> TraceEvent {
        TraceEvent { op: self.op, peer: self.peer, t_enter_s, t_exit_s, bytes: self.bytes }
    }
}

/// A span without its times: its name, as an index into the shape's
/// name table, and its depth. 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpanShape {
    name: u32,
    depth: u32,
}

const _: () = assert!(std::mem::size_of::<SpanShape>() == 8);

impl SpanShape {
    fn at(self, names: &[Arc<str>], [t_start_s, t_end_s]: [f64; 2]) -> PhaseSpan {
        let name = Arc::clone(&names[self.name as usize]);
        PhaseSpan { name, t_start_s, t_end_s, depth: self.depth as usize }
    }
}

/// The structure of one rank's trace: op, peer and bytes of every
/// event, name and depth of every span. The program fixes it; gears,
/// policies and fault plans move only the times. So a recording's shape
/// is handed to its skeleton, and every re-timing of that skeleton
/// shares it and fills in only its own times (DESIGN.md §12).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TraceShape {
    events: Vec<EventShape>,
    spans: Vec<SpanShape>,
    /// The names `spans` index, each the first time a span closes
    /// under it. Only the last [`TraceShape::RECENT_NAMES`] are
    /// searched, so a rank with many names may hold one more than once;
    /// the table is a function of the span sequence either way.
    names: Vec<Arc<str>>,
}

impl TraceShape {
    /// How many of the newest names a span's name is looked up among,
    /// which keeps appending a span O(1).
    const RECENT_NAMES: usize = 8;

    /// `[events, spans]`: what a re-timing must fill.
    pub(crate) fn lens(&self) -> [usize; 2] {
        [self.events.len(), self.spans.len()]
    }

    /// Append a span of `name` at `depth`; `shared` gives the copy of
    /// `name` to keep when the table's newest entries lack it.
    fn push_span(&mut self, name: &str, depth: u32, shared: impl FnOnce() -> Arc<str>) {
        let recent = self.names.len().saturating_sub(Self::RECENT_NAMES);
        let name = match self.names[recent..].iter().rposition(|n| **n == *name) {
            Some(i) => recent + i,
            None => {
                self.names.push(shared());
                self.names.len() - 1
            }
        };
        let name = u32::try_from(name).expect("a trace has under 2^32 span names");
        self.spans.push(SpanShape { name, depth });
    }

    /// Heap bytes of the three tables (the names themselves are counted
    /// by their owner, the skeleton's name table).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.events.capacity() * size_of::<EventShape>()
            + self.spans.capacity() * size_of::<SpanShape>()
            + self.names.capacity() * size_of::<Arc<str>>()
    }
}

/// The full event log of one rank over one run.
///
/// Events and spans are held as a shared `TraceShape` plus one
/// `[start, end]` time pair each, and read back through [`Events`] and
/// [`Spans`] as [`TraceEvent`] and [`PhaseSpan`] values. Equality
/// compares the shapes by pointer first, then by content.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    shape: Arc<TraceShape>,
    /// `[t_enter_s, t_exit_s]` of each event of `shape`, in order.
    event_times: Vec<[f64; 2]>,
    /// `[t_start_s, t_end_s]` of each span of `shape`, in order.
    span_times: Vec<[f64; 2]>,
    gear_shifts: Vec<GearShift>,
    faults: Vec<FaultEvent>,
    decisions: Vec<PolicyDecision>,
    /// Virtual time at which the rank's program ended.
    pub end_s: f64,
}

/// JSON keeps the layout of the logs: `events` and `spans` are lists of
/// whole [`TraceEvent`]s and [`PhaseSpan`]s. A span depth of `2^32` or
/// more does not read back.
impl Serialize for RankTrace {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("events".into(), Value::Seq(self.events().map(|e| e.to_value()).collect())),
            ("spans".into(), Value::Seq(self.spans().map(|s| s.to_value()).collect())),
            ("gear_shifts".into(), self.gear_shifts.to_value()),
            ("faults".into(), self.faults.to_value()),
            ("decisions".into(), self.decisions.to_value()),
            ("end_s".into(), self.end_s.to_value()),
        ])
    }
}

impl Deserialize for RankTrace {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let events: Vec<TraceEvent> = serde::__from_field(v, "events")?;
        RankTrace::from_logs(
            &events,
            serde::__from_field(v, "spans")?,
            serde::__from_field(v, "gear_shifts")?,
            serde::__from_field(v, "faults")?,
            serde::__from_field(v, "decisions")?,
            serde::__from_field(v, "end_s")?,
        )
        .ok_or_else(|| serde::Error::msg("field `spans`: a depth does not fit a u32"))
    }
}

impl RankTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RankTrace::default()
    }

    /// An empty trace with pre-sized event/span buffers, so kernels
    /// that emit thousands of events do not pay repeated reallocation.
    pub fn with_capacity(events: usize, spans: usize) -> Self {
        let shape = TraceShape {
            events: Vec::with_capacity(events),
            spans: Vec::with_capacity(spans),
            names: Vec::new(),
        };
        RankTrace::over(Arc::new(shape), [events, spans])
    }

    /// An empty trace that a re-timing fills: it shares `shape` and
    /// sizes its time columns to it exactly, so they never grow.
    pub(crate) fn filling(shape: Arc<TraceShape>) -> Self {
        let lens = shape.lens();
        RankTrace::over(shape, lens)
    }

    /// An empty trace over `shape`, with room for `events` and `spans`
    /// times.
    fn over(shape: Arc<TraceShape>, [events, spans]: [usize; 2]) -> Self {
        RankTrace {
            event_times: Vec::with_capacity(events),
            span_times: Vec::with_capacity(spans),
            shape,
            gear_shifts: Vec::new(),
            faults: Vec::new(),
            decisions: Vec::new(),
            end_s: 0.0,
        }
    }

    /// A trace holding exactly these logs, unchecked, with a shape of
    /// its own; `None` if a span's depth does not fit a `u32`.
    fn from_logs(
        events: &[TraceEvent],
        spans: Vec<PhaseSpan>,
        gear_shifts: Vec<GearShift>,
        faults: Vec<FaultEvent>,
        decisions: Vec<PolicyDecision>,
        end_s: f64,
    ) -> Option<Self> {
        let mut shape = TraceShape {
            events: events.iter().map(EventShape::of).collect(),
            spans: Vec::with_capacity(spans.len()),
            names: Vec::new(),
        };
        for s in &spans {
            shape.push_span(&s.name, u32::try_from(s.depth).ok()?, || Arc::clone(&s.name));
        }
        Some(RankTrace {
            event_times: events.iter().map(|e| [e.t_enter_s, e.t_exit_s]).collect(),
            span_times: spans.iter().map(|s| [s.t_start_s, s.t_end_s]).collect(),
            shape: Arc::new(shape),
            gear_shifts,
            faults,
            decisions,
            end_s,
        })
    }

    /// The trace's shape, for the skeleton of the run that recorded it
    /// and for decoding another result of the same program against it.
    pub(crate) fn shape(&self) -> &Arc<TraceShape> {
        &self.shape
    }

    /// Release the buffers' unused capacity. The cluster driver calls
    /// this once a run is assembled: results live on in the run cache,
    /// where pre-sizing slack would be held forever. A shared shape is
    /// left alone (it was shrunk before it was shared).
    pub fn shrink_to_fit(&mut self) {
        if let Some(shape) = Arc::get_mut(&mut self.shape) {
            shape.events.shrink_to_fit();
            shape.spans.shrink_to_fit();
            shape.names.shrink_to_fit();
        }
        self.event_times.shrink_to_fit();
        self.span_times.shrink_to_fit();
        self.gear_shifts.shrink_to_fit();
        self.faults.shrink_to_fit();
        self.decisions.shrink_to_fit();
    }

    /// Append the five logs in declaration order, each length-prefixed,
    /// then `end_s`.
    pub(crate) fn encode(&self, w: &mut Writer) {
        let events = self.events();
        w.usize(events.len());
        events.for_each(|e| e.encode(w));
        w.usize(self.span_times.len());
        for (s, &[t_start_s, t_end_s]) in self.shape.spans.iter().zip(&self.span_times) {
            w.str(&self.shape.names[s.name as usize]);
            w.f64(t_start_s);
            w.f64(t_end_s);
            w.u64(u64::from(s.depth));
        }
        w.seq(&self.gear_shifts, |w, g| g.encode(w));
        w.seq(&self.faults, |w, f| f.encode(w));
        w.seq(&self.decisions, |w, d| d.encode(w));
        w.f64(self.end_s);
    }

    /// Inverse of [`RankTrace::encode`]; every buffer but the shape's
    /// name table comes back with no spare capacity. A span depth of
    /// `2^32` or more is `BadTag("PhaseSpan.depth")`.
    ///
    /// With no `like`, the trace gets a shape of its own, and
    /// same-named spans share one name from `names`. With `like`, each
    /// event and span is compared with `like`'s entry as it is read,
    /// the trace shares `like` and allocates only its time columns; a
    /// count or an entry that differs is `Foreign`.
    pub(crate) fn decode(
        r: &mut Reader<'_>,
        names: &mut SpanNames,
        like: Option<&Arc<TraceShape>>,
    ) -> Result<Self, WireError> {
        // What is read into a shape of its own: nothing, given `like`.
        let owned = |n| if like.is_some() { 0 } else { n };
        let n = r.seq_len(TraceEvent::WIRE_BYTES)?;
        if like.is_some_and(|like| like.events.len() != n) {
            return Err(WireError::Foreign("RankTrace.events"));
        }
        let (mut events, mut event_times) = (Vec::with_capacity(owned(n)), Vec::with_capacity(n));
        for i in 0..n {
            let ev = TraceEvent::decode(r)?;
            match like {
                Some(like) if like.events[i] != EventShape::of(&ev) => {
                    return Err(WireError::Foreign("TraceEvent"))
                }
                Some(_) => {}
                None => events.push(EventShape::of(&ev)),
            }
            event_times.push([ev.t_enter_s, ev.t_exit_s]);
        }
        let n = r.seq_len(PhaseSpan::MIN_WIRE_BYTES)?;
        if like.is_some_and(|like| like.spans.len() != n) {
            return Err(WireError::Foreign("RankTrace.spans"));
        }
        let mut own = TraceShape { events, spans: Vec::with_capacity(owned(n)), names: Vec::new() };
        let mut span_times = Vec::with_capacity(n);
        for i in 0..n {
            let (name, t_start_s, t_end_s) = (r.str()?, r.f64()?, r.f64()?);
            let depth =
                u32::try_from(r.u64()?).map_err(|_| WireError::BadTag("PhaseSpan.depth"))?;
            match like {
                Some(like) => {
                    let s = like.spans[i];
                    if s.depth != depth || *like.names[s.name as usize] != *name {
                        return Err(WireError::Foreign("PhaseSpan"));
                    }
                }
                None => own.push_span(name, depth, || names.intern(name)),
            }
            span_times.push([t_start_s, t_end_s]);
        }
        Ok(RankTrace {
            shape: like.map_or_else(|| Arc::new(own), Arc::clone),
            event_times,
            span_times,
            gear_shifts: r.seq(GearShift::WIRE_BYTES, GearShift::decode)?,
            faults: r.seq(FaultEvent::WIRE_BYTES, FaultEvent::decode)?,
            decisions: r.seq(PolicyDecision::WIRE_BYTES, PolicyDecision::decode)?,
            end_s: r.f64()?,
        })
    }

    /// Append an event. Events must be appended in time order.
    ///
    /// A re-timing's trace fills its recording's shape: while the shape
    /// has an entry at the next index, only the times are appended
    /// (debug builds check the entry against `ev`; `Comm::finalize`
    /// checks the count in every build). Past the shape's end the event
    /// is appended to it, copying a shared shape first.
    pub fn record(&mut self, ev: TraceEvent) {
        debug_assert!(
            self.event_times.last().is_none_or(|last| ev.t_enter_s >= last[1] - 1e-12),
            "trace events out of order"
        );
        let i = self.event_times.len();
        let shape = EventShape::of(&ev);
        match self.shape.events.get(i) {
            Some(recorded) => {
                debug_assert_eq!(recorded, &shape, "re-timed event {i} differs from its recording")
            }
            None => Arc::make_mut(&mut self.shape).events.push(shape),
        }
        self.event_times.push([ev.t_enter_s, ev.t_exit_s]);
    }

    /// Append a completed phase span. Spans close in LIFO order, so they
    /// arrive sorted by end time (inner spans before the spans that
    /// contain them). A re-timing fills its recording's shape as
    /// [`RankTrace::record`] does.
    pub fn record_span(&mut self, span: PhaseSpan) {
        debug_assert!(span.t_end_s >= span.t_start_s, "span closes before it opens");
        let i = self.span_times.len();
        match self.shape.spans.get(i) {
            Some(recorded) => debug_assert_eq!(
                recorded.at(&self.shape.names, [span.t_start_s, span.t_end_s]),
                span,
                "re-timed span {i} differs from its recording"
            ),
            None => {
                let depth = u32::try_from(span.depth).expect("span depth does not fit a u32");
                Arc::make_mut(&mut self.shape)
                    .push_span(&span.name, depth, || Arc::clone(&span.name));
            }
        }
        self.span_times.push([span.t_start_s, span.t_end_s]);
    }

    /// Append a gear-shift mark. Shifts must be appended in time order.
    pub fn record_gear_shift(&mut self, shift: GearShift) {
        debug_assert!(
            self.gear_shifts.last().is_none_or(|last| shift.t_s >= last.t_s - 1e-12),
            "gear shifts out of order"
        );
        self.gear_shifts.push(shift);
    }

    /// The recorded events in time order.
    pub fn events(&self) -> Events<'_> {
        let times = &self.event_times[..];
        Events { shape: &self.shape.events[..times.len()], names: (), times }
    }

    /// Completed phase spans, in close order (inner before outer).
    pub fn spans(&self) -> Spans<'_> {
        let times = &self.span_times[..];
        Spans { shape: &self.shape.spans[..times.len()], names: &self.shape.names, times }
    }

    /// Mid-run gear shifts, in time order.
    pub fn gear_shifts(&self) -> &[GearShift] {
        &self.gear_shifts
    }

    /// Append a fault activation. Activations arrive in time order.
    pub fn record_fault(&mut self, ev: FaultEvent) {
        debug_assert!(
            self.faults.last().is_none_or(|last| ev.t_s >= last.t_s - 1e-12),
            "fault activations out of order"
        );
        self.faults.push(ev);
    }

    /// Injected-fault activations, in time order. Empty for runs
    /// without an active fault plan.
    pub fn fault_events(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Append an effective policy decision. Decisions arrive in time
    /// order (the policy hook fires as virtual time advances).
    pub fn record_decision(&mut self, d: PolicyDecision) {
        debug_assert!(
            self.decisions.last().is_none_or(|last| d.t_s >= last.t_s - 1e-12),
            "policy decisions out of order"
        );
        debug_assert_ne!(d.from_gear, d.to_gear, "ineffective decisions are not recorded");
        self.decisions.push(d);
    }

    /// The policy's effective decision log, in time order. Empty for
    /// runs without an installed policy (and for `Static` policies,
    /// which never request a shift).
    pub fn decisions(&self) -> &[PolicyDecision] {
        &self.decisions
    }

    /// Total time spent inside spans of the given name, seconds.
    /// Instances of the same name do not overlap unless a span is nested
    /// inside a same-named span, so this is normally wall time.
    pub fn span_time_s(&self, name: &str) -> f64 {
        self.spans().filter(|s| *s.name == *name).map(|s| s.duration_s()).sum()
    }

    /// Whether the recorded spans are well nested: every pair of spans is
    /// either disjoint or one contains the other, and depths are
    /// consistent with containment. Holds by construction for traces
    /// produced by the [`crate::comm::Comm::span`] API.
    pub fn spans_well_nested(&self) -> bool {
        const EPS: f64 = 1e-12;
        let spans = &self.span_times;
        for (i, &[a0, a1]) in spans.iter().enumerate() {
            if a1 < a0 {
                return false;
            }
            for &[b0, b1] in &spans[i + 1..] {
                let disjoint = a1 <= b0 + EPS || b1 <= a0 + EPS;
                let a_has_b = a0 <= b0 && b1 <= a1;
                let b_has_a = b0 <= a0 && a1 <= b1;
                if !disjoint && !a_has_b && !b_has_a {
                    return false;
                }
            }
        }
        true
    }

    /// Active (compute) time `T^A`: total time outside MPI calls, seconds.
    pub fn active_s(&self) -> f64 {
        self.end_s - self.idle_s()
    }

    /// Idle time `T^I`: total time inside MPI calls (communication plus
    /// blocking), seconds.
    pub fn idle_s(&self) -> f64 {
        self.event_times.iter().map(|[t_enter_s, t_exit_s]| t_exit_s - t_enter_s).sum()
    }

    /// The refined model's conservative split of active time into
    /// *critical* and *reducible* work (paper §4.1, Step 5).
    ///
    /// Reducible work is "computation between the *last send* and a
    /// blocking point": in that window the rank has already forwarded
    /// everything other ranks are waiting for, so slowing it down only
    /// eats its own slack. Returns `(critical_s, reducible_s)` with
    /// `critical_s + reducible_s == active_s()` (up to rounding).
    pub fn critical_reducible_split(&self) -> (f64, f64) {
        let mut reducible = 0.0;
        // Walk compute gaps; a gap is reducible if the previous MPI event
        // boundary sequence since the last send contains no send before
        // the next blocking event — i.e. gaps lying between the last Send
        // and the next blocking point.
        //
        // Concretely: for each blocking event B, find the last Send S
        // before it; compute time in (S.exit, B.enter) minus any
        // intervening event durations is reducible.
        let (ops, times) = (&self.shape.events, &self.event_times);
        let mut i = 0;
        while i < times.len() {
            if ops[i].op.is_blocking() {
                // Find last send strictly before event i.
                let mut window_start = 0.0;
                let mut j = i;
                let mut found_send = false;
                while j > 0 {
                    j -= 1;
                    if ops[j].op == MpiOp::Send {
                        window_start = times[j][1];
                        found_send = true;
                        break;
                    }
                    if ops[j].op.is_blocking() {
                        // A previous blocking point closes the window:
                        // compute before it was already classified.
                        window_start = times[j][1];
                        break;
                    }
                }
                if found_send {
                    // Compute time in the window = (enter of blocking
                    // event) − (exit of last event in window), plus gaps
                    // between events inside the window.
                    let mut gap = 0.0;
                    let mut cursor = window_start;
                    for &[t_enter_s, t_exit_s] in &times[j + 1..=i] {
                        gap += (t_enter_s - cursor).max(0.0);
                        cursor = t_exit_s;
                    }
                    reducible += gap;
                }
            }
            i += 1;
        }
        let active = self.active_s();
        let reducible = reducible.min(active);
        (active - reducible, reducible)
    }

    /// Total bytes this rank pushed into the network.
    pub fn bytes_sent(&self) -> u64 {
        self.events()
            .filter(|e| matches!(e.op, MpiOp::Send | MpiOp::SendRecv))
            .map(|e| e.bytes)
            .sum()
    }

    /// Number of events of a given op kind.
    pub fn count_op(&self, op: MpiOp) -> usize {
        self.events().filter(|e| e.op == op).count()
    }
}

/// A view of one log of a [`RankTrace`] — shape entries, what they
/// index (`names`) and their times — read as whole values. It allocates
/// nothing and is its own iterator; two views are equal when their
/// values are.
macro_rules! timed_view {
    ($(#[$doc:meta])* $view:ident, $shape:ty, $names:ty => $item:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub struct $view<'a> {
            shape: &'a [$shape],
            names: $names,
            times: &'a [[f64; 2]],
        }

        impl $view<'_> {
            /// Number of entries.
            pub fn len(&self) -> usize {
                self.times.len()
            }

            /// Whether there are none.
            pub fn is_empty(&self) -> bool {
                self.times.is_empty()
            }

            /// The entries from the first on.
            pub fn iter(&self) -> Self {
                *self
            }
        }

        impl Iterator for $view<'_> {
            type Item = $item;

            fn next(&mut self) -> Option<$item> {
                let (shape, shapes) = self.shape.split_first()?;
                let (times, rest) = self.times.split_first()?;
                (self.shape, self.times) = (shapes, rest);
                Some(shape.at(self.names, *times))
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                (self.len(), Some(self.len()))
            }

            fn last(self) -> Option<$item> {
                Some(self.shape.last()?.at(self.names, *self.times.last()?))
            }
        }

        impl ExactSizeIterator for $view<'_> {}

        impl PartialEq for $view<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.len() == other.len() && self.iter().eq(other.iter())
            }
        }

        impl std::fmt::Debug for $view<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.iter()).finish()
            }
        }
    };
}

timed_view!(
    /// A rank's events as [`TraceEvent`] values, in time order.
    Events, EventShape, () => TraceEvent
);

timed_view!(
    /// A rank's spans as [`PhaseSpan`] values, in close order; each
    /// span's name is the shape's, shared.
    Spans, SpanShape, &'a [Arc<str>] => PhaseSpan
);

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: MpiOp, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent::new(op, t0, t1, 8, Some(0))
    }

    #[test]
    fn active_idle_decomposition() {
        let mut t = RankTrace::new();
        // compute [0,1), send [1,1.1), compute [1.1,2.1), recv [2.1,3.1)
        t.record(ev(MpiOp::Send, 1.0, 1.1));
        t.record(ev(MpiOp::Recv, 2.1, 3.1));
        t.end_s = 3.1;
        assert!((t.idle_s() - 1.1).abs() < 1e-12);
        assert!((t.active_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reducible_is_compute_between_last_send_and_blocking_point() {
        let mut t = RankTrace::new();
        // compute [0,1) critical; send [1,1.1); compute [1.1,2.1)
        // reducible; recv [2.1,3.1).
        t.record(ev(MpiOp::Send, 1.0, 1.1));
        t.record(ev(MpiOp::Recv, 2.1, 3.1));
        t.end_s = 3.1;
        let (crit, red) = t.critical_reducible_split();
        assert!((red - 1.0).abs() < 1e-9, "reducible {red}");
        assert!((crit - 1.0).abs() < 1e-9, "critical {crit}");
    }

    #[test]
    fn compute_before_send_is_critical() {
        let mut t = RankTrace::new();
        // compute [0,2) then send then immediately recv: nothing between
        // send and the blocking point, so nothing is reducible.
        t.record(ev(MpiOp::Send, 2.0, 2.1));
        t.record(ev(MpiOp::Recv, 2.1, 2.5));
        t.end_s = 2.5;
        let (crit, red) = t.critical_reducible_split();
        assert!(red.abs() < 1e-9);
        assert!((crit - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_send_means_everything_critical() {
        let mut t = RankTrace::new();
        t.record(ev(MpiOp::Barrier, 1.0, 1.2));
        t.record(ev(MpiOp::Barrier, 2.2, 2.4));
        t.end_s = 2.4;
        let (crit, red) = t.critical_reducible_split();
        assert!(red.abs() < 1e-9);
        assert!((crit - t.active_s()).abs() < 1e-9);
    }

    #[test]
    fn multiple_windows_accumulate() {
        let mut t = RankTrace::new();
        for k in 0..3 {
            let base = k as f64 * 3.0;
            t.record(ev(MpiOp::Send, base + 1.0, base + 1.1));
            t.record(ev(MpiOp::Recv, base + 2.1, base + 3.0));
        }
        t.end_s = 9.0;
        let (_, red) = t.critical_reducible_split();
        assert!((red - 3.0).abs() < 1e-9, "reducible {red}");
    }

    #[test]
    fn split_sums_to_active() {
        let mut t = RankTrace::new();
        t.record(ev(MpiOp::Send, 0.5, 0.6));
        t.record(ev(MpiOp::Allreduce, 1.6, 2.0));
        t.record(ev(MpiOp::Send, 3.0, 3.1));
        t.record(ev(MpiOp::Recv, 3.1, 4.0));
        t.end_s = 4.5;
        let (crit, red) = t.critical_reducible_split();
        assert!((crit + red - t.active_s()).abs() < 1e-9);
    }

    #[test]
    fn bytes_and_counts() {
        let mut t = RankTrace::new();
        t.record(TraceEvent::new(MpiOp::Send, 0.0, 0.1, 100, Some(1)));
        t.record(TraceEvent::new(MpiOp::Recv, 0.1, 0.2, 50, Some(1)));
        assert_eq!(t.bytes_sent(), 100);
        assert_eq!(t.count_op(MpiOp::Send), 1);
        assert_eq!(t.count_op(MpiOp::Recv), 1);
        assert_eq!(t.count_op(MpiOp::Barrier), 0);
    }

    fn span(name: &str, t0: f64, t1: f64, depth: usize) -> PhaseSpan {
        PhaseSpan { name: name.into(), t_start_s: t0, t_end_s: t1, depth }
    }

    #[test]
    fn span_time_sums_instances_by_name() {
        let mut t = RankTrace::new();
        t.record_span(span("halo", 0.0, 1.0, 0));
        t.record_span(span("sweep", 1.0, 3.0, 0));
        t.record_span(span("halo", 3.0, 3.5, 0));
        assert!((t.span_time_s("halo") - 1.5).abs() < 1e-12);
        assert!((t.span_time_s("sweep") - 2.0).abs() < 1e-12);
        assert_eq!(t.span_time_s("missing"), 0.0);
    }

    #[test]
    fn well_nested_accepts_containment_and_disjoint() {
        let mut t = RankTrace::new();
        t.record_span(span("inner", 1.0, 2.0, 1));
        t.record_span(span("outer", 0.0, 3.0, 0));
        t.record_span(span("later", 3.0, 4.0, 0));
        assert!(t.spans_well_nested());
    }

    #[test]
    fn well_nested_rejects_partial_overlap() {
        let mut t = RankTrace::new();
        t.record_span(span("a", 0.0, 2.0, 0));
        t.record_span(span("b", 1.0, 3.0, 0));
        assert!(!t.spans_well_nested());
    }

    #[test]
    fn fault_events_recorded_in_order_and_serialized() {
        let mut t = RankTrace::new();
        t.record_fault(FaultEvent { t_s: 0.5, kind: FaultKind::ClockJitter, magnitude: 1.02 });
        t.record_fault(FaultEvent { t_s: 1.5, kind: FaultKind::MessageDrop, magnitude: 2.0 });
        assert_eq!(t.fault_events().len(), 2);
        assert_eq!(t.fault_events()[1].kind, FaultKind::MessageDrop);
        let back: RankTrace = serde::json::from_str(&serde::json::to_string(&t)).unwrap();
        assert_eq!(back, t);
    }

    /// JSON keeps the shape of the `Option<usize>` peer: `null` for a
    /// collective, never the sentinel word.
    #[test]
    fn events_serialize_their_peer_as_an_option() {
        let mut t = RankTrace::new();
        t.record(TraceEvent::new(MpiOp::Send, 0.0, 0.1, 8, Some(3)));
        t.record(TraceEvent::new(MpiOp::Barrier, 0.1, 0.2, 0, None));
        let json = serde::json::to_string(&t);
        assert!(json.contains(r#""peer":3}"#) && json.contains(r#""peer":null}"#), "{json}");
        let back: RankTrace = serde::json::from_str(&json).unwrap();
        assert_eq!(back, t);
        let sentinel = json.replace(r#""peer":3}"#, &format!(r#""peer":{}}}"#, u32::MAX));
        assert!(serde::json::from_str::<RankTrace>(&sentinel).is_err());
    }

    #[test]
    fn gear_shifts_recorded_in_order() {
        let mut t = RankTrace::new();
        t.record_gear_shift(GearShift { t_s: 1.0, from_gear: 1, to_gear: 4, stall_s: 0.01 });
        t.record_gear_shift(GearShift { t_s: 2.0, from_gear: 4, to_gear: 2, stall_s: 0.01 });
        assert_eq!(t.gear_shifts().len(), 2);
        assert_eq!(t.gear_shifts()[0].to_gear, 4);
    }

    #[test]
    fn decisions_recorded_in_order_and_serialized() {
        let mut t = RankTrace::new();
        t.record_decision(PolicyDecision { t_s: 1.0, from_gear: 1, to_gear: 4 });
        t.record_decision(PolicyDecision { t_s: 2.0, from_gear: 4, to_gear: 2 });
        assert_eq!(t.decisions().len(), 2);
        assert_eq!(t.decisions()[0].to_gear, 4);
        let back: RankTrace = serde::json::from_str(&serde::json::to_string(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn point_to_point_ops_are_not_collective() {
        for op in [MpiOp::Send, MpiOp::Recv, MpiOp::SendRecv, MpiOp::Irecv, MpiOp::Wait] {
            assert!(!op.is_collective(), "{op:?}");
        }
        for op in [
            MpiOp::Barrier,
            MpiOp::Bcast,
            MpiOp::Reduce,
            MpiOp::Allreduce,
            MpiOp::Allgather,
            MpiOp::Alltoall,
            MpiOp::Scan,
            MpiOp::Gather,
            MpiOp::Scatter,
            MpiOp::Finalize,
        ] {
            assert!(op.is_collective(), "{op:?}");
        }
    }

    #[test]
    fn send_is_not_blocking_everything_else_is() {
        assert!(!MpiOp::Send.is_blocking());
        assert!(!MpiOp::Irecv.is_blocking());
        for op in [
            MpiOp::Recv,
            MpiOp::Wait,
            MpiOp::SendRecv,
            MpiOp::Barrier,
            MpiOp::Bcast,
            MpiOp::Reduce,
            MpiOp::Allreduce,
            MpiOp::Allgather,
            MpiOp::Alltoall,
            MpiOp::Scan,
            MpiOp::Gather,
            MpiOp::Scatter,
            MpiOp::Finalize,
        ] {
            assert!(op.is_blocking(), "{op:?} should be blocking");
        }
    }

    /// Shared shapes: a re-timed trace holds its recording's shape, and
    /// trusts it only where it checks it.
    mod shape {
        use super::*;
        use crate::cluster::{Cluster, ClusterConfig, GearSelection, RunResult};
        use crate::comm::Comm;
        use crate::reduce::ReduceOp;
        use crate::skeleton::Skeleton;
        use psc_machine::WorkBlock;

        fn program(comm: &mut Comm) {
            for _ in 0..3 {
                comm.span("sweep", |c| c.compute(&WorkBlock::with_upm(4.0e8, 70.0)));
                comm.allreduce(vec![comm.rank() as f64; 64], ReduceOp::Sum);
            }
        }

        fn recorded() -> (Cluster, Skeleton) {
            let c = Cluster::athlon_fast_ethernet();
            let cfg = ClusterConfig::uniform(4, 1);
            let (_, _, _, skeleton) = c.run_recorded(&cfg, None, None, program);
            (c, skeleton)
        }

        fn other_gears() -> ClusterConfig {
            ClusterConfig { nodes: 4, gears: GearSelection::PerRank(vec![2, 6, 1, 4]) }
        }

        /// The message of the panic `f` raises.
        fn panic_message(f: impl FnOnce()) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("the re-timing must fail");
            payload.downcast::<String>().map(|s| *s).expect("a formatted panic message")
        }

        #[test]
        fn owned_and_shared_shapes_compare_equal_and_encode_alike() {
            let (c, skeleton) = recorded();
            let shared = c.retime(&other_gears(), None, None, &skeleton);
            let owned = c.run(&other_gears(), program).0;
            for ((s, o), k) in shared.ranks.iter().zip(&owned.ranks).zip(&skeleton.ranks) {
                let recorded = k.shape.as_ref().expect("a recording's skeleton has its shape");
                assert!(Arc::ptr_eq(&s.trace.shape, recorded), "rank {}", s.rank);
                assert!(!Arc::ptr_eq(&o.trace.shape, recorded), "rank {}", o.rank);
            }
            assert_eq!(shared, owned);
            assert_eq!(shared.to_bytes(), owned.to_bytes());
            assert_eq!(serde::json::to_string(&shared), serde::json::to_string(&owned));
            assert_eq!(RunResult::from_bytes(&shared.to_bytes()).unwrap(), shared);
        }

        #[test]
        #[cfg_attr(not(debug_assertions), ignore = "the per-entry check is a debug assertion")]
        fn a_shape_entry_with_other_bytes_fails_the_debug_check() {
            let (c, mut skeleton) = recorded();
            let shape = skeleton.ranks[2].shape.as_mut().unwrap();
            Arc::make_mut(shape).events[1].bytes += 1;
            let message = panic_message(|| {
                c.retime(&other_gears(), None, None, &skeleton);
            });
            assert!(message.contains("re-timed event 1 differs from its recording"), "{message}");
        }

        /// A shape one entry longer or shorter than the re-timing fills
        /// fails finalize's count check, in every build.
        #[test]
        fn a_shape_of_another_length_fails_in_every_build() {
            let (c, skeleton) = recorded();
            for longer in [true, false] {
                let mut skeleton = skeleton.clone();
                let shape = Arc::make_mut(skeleton.ranks[1].shape.as_mut().unwrap());
                let last = shape.events.pop().unwrap();
                if longer {
                    shape.events.extend([last, last]);
                }
                let message = panic_message(|| {
                    c.retime(&other_gears(), None, None, &skeleton);
                });
                let expected = "rank 1: re-timed [events, spans] differ from the recording's";
                assert!(message.contains(expected), "longer {longer}: {message}");
            }
        }
    }

    /// The binary codec of [`crate::RunResult`] — this module's types
    /// plus the counters and power profile — on hand-built and hostile
    /// inputs. (Real runs of every kernel: `psc-runner`'s
    /// `tests/codec.rs`.)
    mod codec {
        use super::*;
        use crate::cluster::{RankResult, RunResult};
        use proptest::prelude::*;
        use psc_machine::wire::checksum;
        use psc_machine::{Counters, PowerTrace};

        const OPS: [MpiOp; 15] = [
            MpiOp::Send,
            MpiOp::Recv,
            MpiOp::SendRecv,
            MpiOp::Irecv,
            MpiOp::Wait,
            MpiOp::Barrier,
            MpiOp::Bcast,
            MpiOp::Reduce,
            MpiOp::Allreduce,
            MpiOp::Allgather,
            MpiOp::Alltoall,
            MpiOp::Scan,
            MpiOp::Gather,
            MpiOp::Scatter,
            MpiOp::Finalize,
        ];
        const KINDS: [FaultKind; 5] = [
            FaultKind::ClockJitter,
            FaultKind::MemoryBurst,
            FaultKind::StragglerGear,
            FaultKind::LatencySpike,
            FaultKind::MessageDrop,
        ];
        const NAMES: [&str; 4] = ["", "halo", "räumen-✓", "日本語 phase"];

        #[test]
        fn tags_are_dense_distinct_and_invertible() {
            for (i, op) in OPS.iter().enumerate() {
                assert_eq!(op.tag() as usize, i);
                assert_eq!(MpiOp::from_tag(op.tag()), Ok(*op));
            }
            for (i, kind) in KINDS.iter().enumerate() {
                assert_eq!(kind.tag() as usize, i);
                assert_eq!(FaultKind::from_tag(kind.tag()), Ok(*kind));
            }
            assert!(MpiOp::from_tag(OPS.len() as u8).is_err());
            assert!(FaultKind::from_tag(KINDS.len() as u8).is_err());
        }

        /// Any float at all, with the awkward ones over-represented.
        fn any_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0u64..u64::MAX).prop_map(f64::from_bits),
                Just(f64::from_bits(0x7ff8_0000_dead_beef)), // NaN with a payload
                Just(f64::from_bits(0xfff0_0000_0000_0001)), // signalling NaN, sign set
                Just(-0.0),
                Just(f64::MIN_POSITIVE / 8.0), // subnormal
                Just(f64::INFINITY),
                Just(1.25),
            ]
        }

        /// A rank built field by field from `draw`, bypassing the
        /// recorders' ordering checks. `len` sizes every log (0 = empty).
        fn rank(draw: &mut impl FnMut() -> f64, len: usize) -> RankResult {
            let word = |x: f64| x.to_bits();
            let index = |x: f64| x.to_bits() as usize;
            let events: Vec<TraceEvent> = (0..len)
                .map(|i| {
                    let (op, t_enter_s, t_exit_s) = (OPS[i % OPS.len()], draw(), draw());
                    let any = index(draw()) % NO_PEER as usize;
                    let peer = [None, Some(0), Some(any), Some(NO_PEER as usize - 1)][i % 4];
                    TraceEvent::new(op, t_enter_s, t_exit_s, word(draw()), peer)
                })
                .collect();
            let trace = RankTrace::from_logs(
                &events,
                (0..len)
                    .map(|i| PhaseSpan {
                        name: NAMES[i % NAMES.len()].into(),
                        t_start_s: draw(),
                        t_end_s: draw(),
                        depth: word(draw()) as u32 as usize,
                    })
                    .collect(),
                (0..len / 2)
                    .map(|_| GearShift {
                        t_s: draw(),
                        from_gear: index(draw()),
                        to_gear: index(draw()),
                        stall_s: draw(),
                    })
                    .collect(),
                (0..len)
                    .map(|i| FaultEvent {
                        t_s: draw(),
                        kind: KINDS[i % KINDS.len()],
                        magnitude: draw(),
                    })
                    .collect(),
                (0..len / 3)
                    .map(|_| PolicyDecision {
                        t_s: draw(),
                        from_gear: index(draw()),
                        to_gear: index(draw()),
                    })
                    .collect(),
                draw(),
            )
            .expect("every depth fits a u32");
            // `PowerTrace::push` refuses NaN; its decoder is the only
            // way to a profile holding arbitrary bits. Each segment
            // starts at the previous end, bit for bit (the first at
            // `+0.0`): gaps are not representable.
            let mut w = Writer::new();
            let mut t0_s = 0.0;
            w.seq(&vec![(); len], |w, ()| {
                let t1_s = draw();
                for x in [t0_s, t1_s, draw()] {
                    w.f64(x);
                }
                t0_s = t1_s;
            });
            let frame = w.finish();
            let power = PowerTrace::decode(&mut Reader::open(&frame).unwrap()).unwrap();
            let counters = Counters {
                uops: draw(),
                l2_misses: draw(),
                active_cycles: draw(),
                active_s: draw(),
                idle_s: draw(),
                bytes_sent: word(draw()),
                mpi_calls: word(draw()),
            };
            RankResult { rank: index(draw()), gear_index: index(draw()), counters, trace, power }
        }

        /// Every field of a result as raw bits, in an order of this
        /// test's own (`==` on floats cannot tell NaNs or zeros apart).
        fn bits(run: &RunResult) -> Vec<u64> {
            let mut out = vec![
                run.time_s.to_bits(),
                run.energy_j.to_bits(),
                run.measured_energy_j.to_bits(),
                run.ranks.len() as u64,
            ];
            for r in &run.ranks {
                let (c, t) = (&r.counters, &r.trace);
                out.extend([r.rank as u64, r.gear_index as u64, c.bytes_sent, c.mpi_calls]);
                out.extend(
                    [c.uops, c.l2_misses, c.active_cycles, c.active_s, c.idle_s, t.end_s]
                        .map(f64::to_bits),
                );
                for e in t.events() {
                    let peer = e.peer().map_or([0, 0], |p| [1, p as u64]);
                    out.extend([e.op.tag() as u64, e.bytes, peer[0], peer[1]]);
                    out.extend([e.t_enter_s, e.t_exit_s].map(f64::to_bits));
                }
                for s in t.spans() {
                    out.extend(s.name.bytes().map(u64::from));
                    out.extend([s.t_start_s.to_bits(), s.t_end_s.to_bits(), s.depth as u64]);
                }
                for g in &t.gear_shifts {
                    out.extend([g.from_gear as u64, g.to_gear as u64]);
                    out.extend([g.t_s, g.stall_s].map(f64::to_bits));
                }
                for f in &t.faults {
                    out.extend([f.kind.tag() as u64, f.t_s.to_bits(), f.magnitude.to_bits()]);
                }
                for d in &t.decisions {
                    out.extend([d.t_s.to_bits(), d.from_gear as u64, d.to_gear as u64]);
                }
                for s in r.power.segments() {
                    out.extend([s.t0_s, s.t1_s, s.power_w].map(f64::to_bits));
                }
                out.extend(
                    [
                        t.events().len(),
                        t.spans().len(),
                        t.gear_shifts.len(),
                        t.faults.len(),
                        t.decisions.len(),
                        r.power.segments().len(),
                    ]
                    .map(|n| n as u64),
                );
            }
            out
        }

        /// A result of one rank per entry of `lens`, drawn from
        /// `floats` in turn.
        fn hand_built(floats: &[f64], lens: &[usize]) -> RunResult {
            let mut next = 0;
            let mut draw = || {
                next += 1;
                floats[next % floats.len()]
            };
            RunResult {
                time_s: draw(),
                energy_j: draw(),
                measured_energy_j: draw(),
                ranks: lens.iter().map(|&len| rank(&mut draw, len)).collect(),
            }
        }

        /// `run` with every event and span at other times: the same
        /// structure, sharing `run`'s shapes.
        fn retimed(run: &RunResult, floats: &[f64]) -> RunResult {
            let mut other = run.clone();
            let mut draws = floats.iter().cycle().copied();
            for r in &mut other.ranks {
                let t = &mut r.trace;
                for times in t.event_times.iter_mut().chain(&mut t.span_times) {
                    *times = [draws.next().unwrap(), draws.next().unwrap()];
                }
            }
            other
        }

        /// Change `like` in one part of its structure, chosen by `part`
        /// and placed by `at` (modulo the count), and return the error
        /// that reading a frame of the unchanged structure against it
        /// must give.
        fn foreign(like: &mut RunResult, part: usize, at: usize) -> WireError {
            let Some(rank) = like.ranks.iter_mut().find(|r| !r.trace.events().is_empty()) else {
                like.ranks.push(sample().ranks[0].clone());
                return WireError::Foreign("RunResult.ranks");
            };
            let t = &mut rank.trace;
            let shape = Arc::make_mut(&mut t.shape);
            let (e, s) = (at % shape.events.len(), at % shape.spans.len());
            match part {
                0 => {
                    let op = shape.events[e].op;
                    shape.events[e].op = OPS[(op.tag() as usize + 1) % OPS.len()];
                }
                1 => {
                    let peer = &mut shape.events[e].peer;
                    *peer = if *peer == NO_PEER { 0 } else { NO_PEER };
                }
                2 => shape.events[e].bytes ^= 1,
                3 => {
                    let other = format!("{}≠", shape.names[shape.spans[s].name as usize]);
                    shape.names.push(other.into());
                    shape.spans[s].name = (shape.names.len() - 1) as u32;
                }
                4 => shape.spans[s].depth ^= 1,
                5 => {
                    shape.events.pop();
                    t.event_times.pop();
                    return WireError::Foreign("RankTrace.events");
                }
                6 => {
                    shape.spans.pop();
                    t.span_times.pop();
                    return WireError::Foreign("RankTrace.spans");
                }
                _ => {
                    like.ranks.pop();
                    return WireError::Foreign("RunResult.ranks");
                }
            }
            WireError::Foreign(if part < 3 { "TraceEvent" } else { "PhaseSpan" })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// `from_bytes(to_bytes(r))` is `r` bit for bit — NaN
            /// payloads, `-0.0`, subnormals, `peer: None`, zero ranks,
            /// empty logs, multi-byte span names — into buffers with no
            /// spare capacity.
            #[test]
            fn hand_built_results_round_trip_by_bits(
                floats in proptest::collection::vec(any_f64(), 1..40),
                lens in proptest::collection::vec(0usize..7, 0..4),
            ) {
                let run = hand_built(&floats, &lens);
                let back = RunResult::from_bytes(&run.to_bytes()).unwrap();
                prop_assert_eq!(bits(&back), bits(&run));
                prop_assert_eq!(back.ranks.capacity(), back.ranks.len());
                for r in &back.ranks {
                    let t = &r.trace;
                    prop_assert_eq!(t.shape.events.capacity(), t.shape.events.len());
                    prop_assert_eq!(t.shape.spans.capacity(), t.shape.spans.len());
                    prop_assert_eq!(t.event_times.capacity(), t.event_times.len());
                    prop_assert_eq!(t.span_times.capacity(), t.span_times.len());
                    prop_assert_eq!(t.gear_shifts.capacity(), t.gear_shifts.len());
                    prop_assert_eq!(t.faults.capacity(), t.faults.len());
                    prop_assert_eq!(t.decisions.capacity(), t.decisions.len());
                }
                let names: Vec<&Arc<str>> =
                    back.ranks.iter().flat_map(|r| &r.trace.shape.names).collect();
                for a in &names {
                    for b in names.iter().filter(|b| b == &a) {
                        prop_assert!(Arc::ptr_eq(a, b), "{:?} decoded twice", a);
                    }
                }
            }

            /// Read against a result of the same structure, a frame
            /// decodes to what `from_bytes` gives, bit for bit, and
            /// shares that result's shapes.
            #[test]
            fn a_frame_read_like_its_structure_decodes_alike(
                floats in proptest::collection::vec(any_f64(), 1..40),
                times in proptest::collection::vec(any_f64(), 1..40),
                lens in proptest::collection::vec(0usize..7, 0..4),
            ) {
                let run = hand_built(&floats, &lens);
                let like = RunResult::from_bytes(&retimed(&run, &times).to_bytes()).unwrap();
                let frame = run.to_bytes();
                let back = RunResult::from_bytes_like(&frame, Some(&like)).unwrap();
                prop_assert_eq!(bits(&back), bits(&RunResult::from_bytes(&frame).unwrap()));
                for (r, l) in back.ranks.iter().zip(&like.ranks) {
                    prop_assert!(Arc::ptr_eq(&r.trace.shape, &l.trace.shape));
                    prop_assert_eq!(r.trace.event_times.capacity(), r.trace.event_times.len());
                    prop_assert_eq!(r.trace.span_times.capacity(), r.trace.span_times.len());
                }
            }

            /// Read against a result that differs in an event's op,
            /// peer or bytes, a span's name or depth, an event or span
            /// count or the rank count, a frame is `Foreign`.
            #[test]
            fn a_frame_read_like_another_structure_is_foreign(
                floats in proptest::collection::vec(any_f64(), 1..40),
                lens in proptest::collection::vec(0usize..7, 0..4),
                part in 0usize..8,
                at in 0usize..64,
            ) {
                let run = hand_built(&floats, &lens);
                let mut like = run.clone();
                let expected = foreign(&mut like, part, at);
                prop_assert_eq!(RunResult::from_bytes_like(&run.to_bytes(), Some(&like)), Err(expected));
            }
        }

        /// A small real-shaped result: two ranks, every log non-empty.
        fn sample() -> RunResult {
            let mut k = 0.0;
            let mut draw = || {
                k += 0.125;
                k
            };
            RunResult {
                time_s: 9.0,
                energy_j: 1234.5,
                measured_energy_j: 1233.0,
                ranks: vec![rank(&mut draw, 4), rank(&mut draw, 3)],
            }
        }

        /// `frame` with its checksum recomputed: damage the checksum
        /// cannot catch, so the decoder's own checks face it.
        fn resealed(mut frame: Vec<u8>) -> Vec<u8> {
            let body = frame.len() - 8;
            let sum = checksum(&frame[..body]);
            frame[body..].copy_from_slice(&sum.to_le_bytes());
            frame
        }

        #[test]
        fn truncations_bit_flips_and_foreign_files_are_errors() {
            let run = sample();
            let frame = run.to_bytes();
            assert_eq!(RunResult::from_bytes(&frame).as_ref().map(bits), Ok(bits(&run)));
            for n in 0..frame.len() {
                assert!(RunResult::from_bytes(&frame[..n]).is_err(), "cut at {n}");
            }
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(RunResult::from_bytes(&flipped).is_err(), "bit {bit}");
            }
            let json = serde::json::to_string(&run);
            assert_eq!(RunResult::from_bytes(json.as_bytes()), Err(WireError::BadHeader));
            let longer = [&frame[..], b"\0"].concat();
            assert_eq!(RunResult::from_bytes(&longer), Err(WireError::BadChecksum));
        }

        /// Damage under a *valid* checksum: every single-bit flip of the
        /// body (each length word among them) and every truncated body
        /// decodes to an error or to some result — never a panic, and
        /// never an allocation beyond the frame (lengths are checked
        /// against the bytes that remain before any buffer is sized).
        #[test]
        fn resealed_damage_never_panics_and_lengths_stay_bounded() {
            let frame = sample().to_bytes();
            let body_end = frame.len() - 8;
            for bit in 8 * 8..body_end * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = RunResult::from_bytes(&resealed(flipped));
            }
            for n in 8..body_end {
                let cut = resealed([&frame[..n], &[0; 8][..]].concat());
                assert!(RunResult::from_bytes(&cut).is_err(), "resealed cut at {n}");
            }
            let trailing = resealed([&frame[..body_end], &[0; 9][..]].concat());
            assert_eq!(RunResult::from_bytes(&trailing), Err(WireError::TrailingBytes));

            // The rank count (after the header and three floats) and the
            // first rank's event count (after rank, gear, seven counters).
            for offset in [8 + 3 * 8, 8 + 3 * 8 + 8 + 9 * 8] {
                for hostile in [u64::MAX, u64::MAX / 33, 1 << 40, frame.len() as u64] {
                    let mut huge = frame.clone();
                    huge[offset..offset + 8].copy_from_slice(&hostile.to_le_bytes());
                    assert_eq!(
                        RunResult::from_bytes(&resealed(huge)),
                        Err(WireError::BadLength),
                        "length {hostile:#x} at {offset}"
                    );
                }
            }

            // An event without the peer flag must carry a zero peer word.
            let mut run = sample();
            run.ranks.truncate(1);
            let t = &mut run.ranks[0].trace;
            t.event_times.truncate(1);
            let events = &mut Arc::make_mut(&mut t.shape).events;
            events.truncate(1);
            events[0].peer = NO_PEER;
            let mut frame = run.to_bytes();
            let peer_word = 8 + 3 * 8 + 8 + 9 * 8 + 8 + 1 + 3 * 8;
            assert_eq!(frame[peer_word..peer_word + 8], [0; 8]);
            frame[peer_word] = 1;
            assert_eq!(
                RunResult::from_bytes(&resealed(frame)),
                Err(WireError::BadTag("TraceEvent.peer"))
            );
        }

        /// A flagged peer word must name a rank below `u32::MAX`, the
        /// sentinel an event keeps for "no peer": the largest valid
        /// word decodes, every word from the sentinel up is an error.
        #[test]
        fn peer_words_from_u32_max_up_are_errors() {
            let mut run = sample();
            run.ranks.truncate(1);
            let send = TraceEvent::new(MpiOp::Send, 0.0, 1.0, 8, Some(3));
            run.ranks[0].trace =
                RankTrace::from_logs(&[send], Vec::new(), vec![], vec![], vec![], 0.0).unwrap();
            let frame = run.to_bytes();
            let peer_word = 8 + 3 * 8 + 8 + 9 * 8 + 8 + 1 + 3 * 8;
            assert_eq!(frame[peer_word..peer_word + 8], 3u64.to_le_bytes());
            let with_peer = |word: u64| {
                let mut f = frame.clone();
                f[peer_word..peer_word + 8].copy_from_slice(&word.to_le_bytes());
                RunResult::from_bytes(&resealed(f))
            };
            let last = with_peer(u64::from(u32::MAX) - 1).unwrap();
            let peer = last.ranks[0].trace.events().next().and_then(|e| e.peer());
            assert_eq!(peer, Some(u32::MAX as usize - 1));
            for word in [u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX] {
                assert_eq!(
                    with_peer(word),
                    Err(WireError::BadTag("TraceEvent.peer")),
                    "peer word {word:#x}"
                );
            }
        }

        /// A span's depth is kept in a `u32`: the largest decodes, a
        /// depth word of `2^32` or more is an error on the wire and in
        /// JSON.
        #[test]
        fn span_depths_from_2_pow_32_up_are_errors() {
            let mut run = sample();
            run.ranks.truncate(1);
            let span = PhaseSpan { name: "halo".into(), t_start_s: 0.0, t_end_s: 1.0, depth: 0 };
            let deepest = PhaseSpan { depth: u32::MAX as usize, ..span.clone() };
            let logs = |spans| RankTrace::from_logs(&[], spans, vec![], vec![], vec![], 1.0);
            run.ranks[0].trace = logs(vec![deepest.clone()]).unwrap();
            let frame = run.to_bytes();
            let back = RunResult::from_bytes(&frame).unwrap();
            assert_eq!(back.ranks[0].trace.spans().next(), Some(deepest));
            let word = u64::from(u32::MAX).to_le_bytes();
            let at = frame.windows(8).position(|w| w == word).expect("the depth word");
            for depth in [1u64 << 32, u64::MAX] {
                let mut f = frame.clone();
                f[at..at + 8].copy_from_slice(&depth.to_le_bytes());
                assert_eq!(
                    RunResult::from_bytes(&resealed(f)),
                    Err(WireError::BadTag("PhaseSpan.depth")),
                    "depth {depth:#x}"
                );
            }
            assert!(logs(vec![PhaseSpan { depth: 1 << 32, ..span }]).is_none());
            let json = serde::json::to_string(&run.ranks[0].trace);
            let deeper = json.replace(&format!("{}", u32::MAX), &format!("{}", 1u64 << 32));
            assert!(serde::json::from_str::<RankTrace>(&deeper).is_err(), "{deeper}");
        }
    }
}
