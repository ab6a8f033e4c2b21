//! The per-rank communicator handle.
//!
//! A [`Comm`] is handed to each rank's program closure by
//! [`crate::cluster::Cluster::run`]. It exposes:
//!
//! * [`Comm::compute`] — execute a work block, advancing virtual time by
//!   the node's CPU model at this rank's gear;
//! * point-to-point messaging — [`Comm::send`] (asynchronous, as the
//!   paper assumes), [`Comm::recv`], [`Comm::sendrecv`];
//! * collectives — [`Comm::barrier`] (dissemination),
//!   [`Comm::bcast`]/[`Comm::reduce`] (binomial tree, O(log n) rounds),
//!   [`Comm::allreduce`] (reduce+bcast), [`Comm::allgather`] (ring,
//!   O(n) rounds), [`Comm::alltoall`] (pairwise, O(n) rounds),
//!   [`Comm::gather`]/[`Comm::scatter`] (linear fan-in/out).
//!
//! Every call is intercepted into the rank's [`RankTrace`], and the
//! rank's power profile is extended as time advances: application power
//! `P_g` while computing, idle power `I_g` while inside a
//! message-passing call — the step-function model of paper §4.1.

use crate::des::{self, coro::Yielder};
use crate::network::NetworkModel;
use crate::payload::Payload;
use crate::policyhook::{Observation, PolicyEvent, RankPolicy};
use crate::reduce::ReduceOp;
use crate::router::{Baton, Endpoint, Envelope};
use crate::skeleton::{RankSkeleton, Recorder, SkelOp};
use crate::trace::{
    FaultEvent, FaultKind, GearShift, MpiOp, PhaseSpan, PolicyDecision, RankTrace, SpanNames,
    TraceEvent, TraceShape, NO_PEER,
};
use psc_faults::RankFaults;
use psc_machine::{Counters, Gear, NodeSpec, PowerTrace, WorkBlock};
use std::any::Any;
use std::sync::Arc;

/// The message transport behind a [`Comm`]: one of the two full-run
/// drivers' (chosen by the platform's `RuntimeBackend`), or the
/// re-timing cursors'. All three deliver, match and park through one
/// [`crate::router::Switchboard`] and run ranks in its wake order.
/// Everything above this seam — clock arithmetic, collectives, tracing,
/// fault injection — is shared between them, which is what makes their
/// results byte-identical.
pub(crate) enum Fabric {
    /// Thread per rank, one running at a time: a receive that misses
    /// hands the baton back to the driver and blocks the rank's OS
    /// thread until its turn comes round.
    Threaded(Baton),
    /// Discrete-event scheduler: a receive that misses suspends the
    /// rank's coroutine.
    Des(Endpoint, Yielder),
    /// Re-timing (`Cluster::retime`): a receive that misses parks the
    /// rank and returns, and the driver resumes its [`ReplayCursor`]
    /// once the message is delivered.
    Cursor(Endpoint),
}

impl Fabric {
    /// Deliver an envelope to `dst`. Never blocks the sender.
    fn deliver(&mut self, dst: usize, env: Envelope) {
        match self {
            Fabric::Threaded(baton) => baton.deliver(dst, env),
            Fabric::Des(ep, _) | Fabric::Cursor(ep) => ep.deliver(dst, env),
        }
    }

    /// The one receive primitive: the first message matching
    /// `(src, tag)`, preserving per-pair FIFO order. The full-run
    /// fabrics block until it is there, so they never return `None`;
    /// the re-timing fabric parks the rank and returns `None` instead.
    fn recv_matching(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        match self {
            Fabric::Threaded(baton) => Some(baton.recv_matching(src, tag)),
            Fabric::Des(ep, yielder) => Some(des::recv_matching(ep, yielder, src, tag)),
            Fabric::Cursor(ep) => ep.take(src, tag),
        }
    }

    /// Messages still held for this rank (finalize sanity check).
    fn held(&self) -> usize {
        match self {
            Fabric::Threaded(baton) => baton.held(),
            Fabric::Des(ep, _) | Fabric::Cursor(ep) => ep.held(),
        }
    }
}

/// Where one rank's re-timing stands between [`Comm::replay_step`]
/// calls: what a coroutine would have kept on its stack while parked.
/// A full run hands [`Comm::finalize`] a fresh one.
#[derive(Debug, Default)]
pub(crate) struct ReplayCursor {
    /// Index of the next skeleton op.
    op: usize,
    /// Entry time and byte count of the traced operation in progress
    /// (starts at the clock's 0.0 with nothing moved).
    t0: f64,
    bytes: u64,
    /// Finalize's barrier round; `None` until finalize begins.
    finalize: Option<Round>,
}

/// Progress through a dissemination barrier.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    /// Round `i` sends to `rank + 2^i` and receives from `rank − 2^i`.
    index: u32,
    /// Whether this round's send went out and its receive is awaited.
    sent: bool,
}

/// Tag namespace reserved for collective operations; user tags must stay
/// below this value.
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 62;

/// A pending nonblocking receive, completed by [`Comm::wait`].
///
/// The type parameter pins the payload type at post time, so a
/// mismatched `wait` is a compile-time error rather than a downcast
/// panic.
#[must_use = "an unwaited receive request leaves a message undelivered"]
pub struct RecvRequest<T: Payload> {
    src: usize,
    tag: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Per-rank state of an installed online gear policy: the policy object
/// itself plus the bookkeeping that turns the rank's monotone cumulative
/// state into per-event *windows* — counter deltas, window lengths, and
/// an incrementally integrated energy total.
struct PolicyCtx {
    hook: Box<dyn RankPolicy>,
    /// Counters at this rank's previous policy event (rolling window
    /// start).
    mark_counters: Counters,
    /// Virtual time of the previous policy event, seconds.
    mark_t_s: f64,
    /// Exact energy integrated up to `mark_t_s`, joules.
    energy_j: f64,
    /// `(counters, t_s)` snapshots at each open span, parallel to
    /// `Comm::span_stack`, so `PhaseEnd` windows cover exactly their
    /// span.
    span_marks: Vec<(Counters, f64)>,
}

/// The per-rank communicator (see module docs).
pub struct Comm {
    rank: usize,
    size: usize,
    gear: Gear,
    node: Arc<NodeSpec>,
    network: NetworkModel,
    fabric: Fabric,
    clock_s: f64,
    counters: Counters,
    trace: RankTrace,
    power: PowerTrace,
    coll_seq: u64,
    wire_scale: f64,
    span_stack: Vec<(Arc<str>, f64)>,
    /// Every span name this rank has opened, so a span allocates no name.
    names: SpanNames,
    faults: Option<RankFaults>,
    policy: Option<PolicyCtx>,
    /// Set while the driver records this rank's skeleton.
    recorder: Option<Recorder>,
    /// `[events, spans]` of the recording's trace shape a re-timing
    /// fills: finalize checks that it filled exactly that many.
    recorded: Option<[usize; 2]>,
}

impl Comm {
    /// Construct a communicator endpoint. Called by the cluster driver;
    /// a re-timing hands in its recording's trace `shape`.
    pub(crate) fn new(
        rank: usize,
        size: usize,
        gear: Gear,
        node: Arc<NodeSpec>,
        network: NetworkModel,
        fabric: Fabric,
        shape: Option<Arc<TraceShape>>,
    ) -> Self {
        let recorded = shape.as_deref().map(TraceShape::lens);
        Comm {
            rank,
            size,
            gear,
            node,
            network,
            fabric,
            clock_s: 0.0,
            counters: Counters::default(),
            // Pre-sized for steady-state kernels: hundreds of MPI events
            // and an alternating compute/idle power profile per rank. A
            // re-timing's trace is sized by its shape exactly.
            trace: shape.map_or_else(|| RankTrace::with_capacity(512, 16), RankTrace::filling),
            power: PowerTrace::with_capacity(256),
            coll_seq: 0,
            wire_scale: 1.0,
            span_stack: Vec::new(),
            names: SpanNames::default(),
            faults: None,
            policy: None,
            recorder: None,
            recorded,
        }
    }

    /// Arm this rank's fault injection. Called by the cluster driver
    /// before the program runs; `forced_from` carries the configured
    /// gear when the plan pinned this rank to a different one, so the
    /// straggler activation lands in the trace at t = 0.
    pub(crate) fn set_faults(&mut self, faults: Option<RankFaults>, forced_from: Option<usize>) {
        self.faults = faults;
        if let Some(configured) = forced_from {
            debug_assert_ne!(configured, self.gear.index);
            self.trace.record_fault(FaultEvent {
                t_s: 0.0,
                kind: FaultKind::StragglerGear,
                magnitude: self.gear.index as f64,
            });
        }
    }

    /// Install this rank's half of an online gear policy. Called by the
    /// cluster driver before the program runs; from then on the hook is
    /// consulted at every phase boundary and traced MPI-call exit (see
    /// [`crate::policyhook`]). The initial gear is *not* set here — the
    /// driver resolves it through `ClusterPolicy::initial_gear` before
    /// constructing the communicator, so no spurious shift is recorded.
    pub(crate) fn set_policy(&mut self, hook: Box<dyn RankPolicy>) {
        self.policy = Some(PolicyCtx {
            hook,
            mark_counters: Counters::default(),
            mark_t_s: 0.0,
            energy_j: 0.0,
            span_marks: Vec::new(),
        });
    }

    /// Start recording this rank's skeleton. Called by the cluster
    /// driver before the program runs.
    pub(crate) fn start_recording(&mut self) {
        self.recorder = Some(Recorder::default());
    }

    /// Stop recording and hand the skeleton back. Called by the driver
    /// *before* [`Comm::finalize`], which every run — full or replayed
    /// — performs itself.
    pub(crate) fn take_skeleton(&mut self) -> Option<RankSkeleton> {
        self.recorder.take().map(|r| r.finish(self.coll_seq))
    }

    /// Set the wire-size scale factor applied to every payload.
    ///
    /// Kernels in `psc-kernels` run their *real* arithmetic on problems
    /// shrunk by some factor (so a simulated run finishes in well under a
    /// second of host time) while charging virtual compute costs at the
    /// paper's class-B scale. Message payloads shrink with the problem,
    /// so their wire cost must be scaled back up by the same geometry
    /// factor; see DESIGN.md ("work/wire scaling"). A scale of 1.0 (the
    /// default) charges payloads at their actual size.
    pub fn set_wire_scale(&mut self, scale: f64) {
        assert!(scale > 0.0 && scale.is_finite(), "wire scale must be positive");
        if let Some(r) = self.recorder.as_mut() {
            r.wire_scale(scale);
        }
        self.wire_scale = scale;
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time, seconds.
    #[inline]
    pub fn now_s(&self) -> f64 {
        self.clock_s
    }

    /// The gear this rank is running at.
    #[inline]
    pub fn gear(&self) -> Gear {
        self.gear
    }

    /// The node specification this rank runs on.
    #[inline]
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The rank's accumulated hardware counters so far. Runtime DVFS
    /// policies read these between phases (UPM is gear-invariant, so a
    /// window's `uops/l2_misses` is a valid prediction input at any
    /// gear).
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Switch this rank to another gear mid-run — the paper's future
    /// work ("automatically reduce the energy gear appropriately").
    ///
    /// Real DVFS transitions are not free: the core stalls for the
    /// node's `dvfs_transition_s` while the PLL relocks and the voltage
    /// ramps; that time is charged at idle power. Switching to the
    /// current gear is a no-op.
    pub fn set_gear(&mut self, gear_index: usize) {
        if let Some(r) = self.recorder.as_mut() {
            r.set_gear(gear_index);
        }
        self.shift_gear(gear_index);
    }

    /// The gear change behind [`Comm::set_gear`] and the policy hook.
    fn shift_gear(&mut self, gear_index: usize) {
        let new = self.node.gear(gear_index);
        if new.index == self.gear.index {
            return;
        }
        let dt = self.node.dvfs_transition_s;
        if dt > 0.0 {
            // Stall at the *lower* of the two idle powers (the voltage
            // ramps monotonically between the operating points).
            let watts = self.node.idle_power_w(new).min(self.node.idle_power_w(self.gear));
            self.clock_s += dt;
            self.power.push(self.clock_s, watts);
            self.counters.record_idle(dt);
        }
        self.trace.record_gear_shift(GearShift {
            t_s: self.clock_s,
            from_gear: self.gear.index,
            to_gear: new.index,
            stall_s: if dt > 0.0 { dt } else { 0.0 },
        });
        self.gear = new;
    }

    // ------------------------------------------------------------------
    // Phase spans
    // ------------------------------------------------------------------

    /// Run a named application phase: everything the closure does —
    /// compute, messaging, nested spans — is attributed to `name` in the
    /// rank's trace. Spans nest; closing is automatic, so traces built
    /// through this API are always well formed.
    ///
    /// ```
    /// use psc_mpi::{Cluster, ClusterConfig};
    /// use psc_machine::WorkBlock;
    ///
    /// let cluster = Cluster::athlon_fast_ethernet();
    /// let (run, _) = cluster.run(&ClusterConfig::uniform(2, 1), |comm| {
    ///     comm.span("halo", |comm| comm.barrier());
    ///     comm.span("sweep", |comm| comm.compute(&WorkBlock::cpu_only(1.0e9)));
    /// });
    /// assert_eq!(run.ranks[0].trace.spans().len(), 2);
    /// ```
    pub fn span<R>(&mut self, name: &str, body: impl FnOnce(&mut Comm) -> R) -> R {
        self.span_begin(name);
        let out = body(self);
        self.span_end();
        out
    }

    /// Open a named phase span at the current virtual time. Prefer
    /// [`Comm::span`]; this exists for phases whose boundaries do not
    /// align with a lexical scope. Every `span_begin` must be paired
    /// with a [`Comm::span_end`]; spans left open are closed at
    /// finalize time.
    pub fn span_begin(&mut self, name: &str) {
        let name = self.names.intern(name);
        self.open_span(name);
    }

    /// [`Comm::span_begin`] of an already shared name.
    fn open_span(&mut self, name: Arc<str>) {
        if let Some(r) = self.recorder.as_mut() {
            r.span_begin(&name);
        }
        self.span_stack.push((Arc::clone(&name), self.clock_s));
        if self.policy.is_some() {
            let depth = self.span_stack.len() - 1;
            if let Some(ctx) = self.policy.as_mut() {
                ctx.span_marks.push((self.counters, self.clock_s));
            }
            self.policy_step(None, PolicyEvent::PhaseStart { name: &name, depth });
        }
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn span_end(&mut self) {
        if let Some(r) = self.recorder.as_mut() {
            r.span_end();
        }
        let (name, t_start_s) = self.span_stack.pop().expect("span_end called with no open span");
        let depth = self.span_stack.len();
        let t_end_s = self.clock_s;
        if self.policy.is_some() {
            let (mark_counters, mark_t_s) = self
                .policy
                .as_mut()
                .and_then(|ctx| ctx.span_marks.pop())
                .expect("policy span mark missing");
            let window = self.counters.delta_since(&mark_counters);
            self.policy_step(
                Some((window, t_end_s - mark_t_s)),
                PolicyEvent::PhaseEnd { name: &name, depth, duration_s: t_end_s - t_start_s },
            );
        }
        self.trace.record_span(PhaseSpan { name, t_start_s, t_end_s, depth });
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    /// Execute a work block: advance virtual time by the CPU model and
    /// draw application power `P_g` for its duration.
    ///
    /// Under an active fault plan the block may be perturbed first:
    /// a memory-pressure burst multiplies its L2 misses (adding
    /// frequency-*independent* stall time, like real DRAM contention)
    /// and clock jitter scales its duration by a gear-invariant factor.
    /// Both perturbations are keyed by the rank's compute-block index,
    /// so the same block is hit identically at every gear — which is
    /// what keeps the paper's slowdown bound intact under noise.
    pub fn compute(&mut self, work: &WorkBlock) {
        if let Some(r) = self.recorder.as_mut() {
            r.compute(work);
        }
        let mut work = *work;
        let mut time_scale = 1.0;
        if let Some(p) = self.faults.as_mut().map(RankFaults::next_compute) {
            if p.miss_factor != 1.0 {
                work = WorkBlock::new(work.uops, work.l2_misses * p.miss_factor);
                self.trace.record_fault(FaultEvent {
                    t_s: self.clock_s,
                    kind: FaultKind::MemoryBurst,
                    magnitude: p.miss_factor,
                });
            }
            if p.time_scale != 1.0 {
                time_scale = p.time_scale;
                self.trace.record_fault(FaultEvent {
                    t_s: self.clock_s,
                    kind: FaultKind::ClockJitter,
                    magnitude: p.time_scale,
                });
            }
        }
        let dt = self.node.compute_time_s(&work, self.gear) * time_scale;
        let watts = self.node.compute_power_w(&work, self.gear);
        self.clock_s += dt;
        self.power.push(self.clock_s, watts);
        self.counters.record_compute(&work, dt, self.gear.freq_hz);
    }

    /// Convenience: execute `uops` micro-operations at the given UPM
    /// (µops per L2 miss) memory pressure.
    pub fn compute_uops(&mut self, uops: f64, upm: f64) {
        self.compute(&WorkBlock::with_upm(uops, upm));
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Asynchronous send: the sender is occupied only for the injection
    /// cost (software overhead + bytes/bandwidth); it never waits for
    /// the receiver. User tags must be below [`COLLECTIVE_TAG_BASE`].
    pub fn send<T: Payload>(&mut self, dst: usize, tag: u64, data: T) {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tag collides with collective namespace");
        let t0 = self.clock_s;
        let bytes = self.raw_send(dst, tag, data);
        self.finish_op(MpiOp::Send, t0, bytes, Some(dst));
    }

    /// Blocking receive from a specific source and tag. There are no
    /// wildcard receives (keeps execution deterministic).
    pub fn recv<T: Payload>(&mut self, src: usize, tag: u64) -> T {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tag collides with collective namespace");
        let t0 = self.clock_s;
        let (data, bytes) = self.raw_recv::<T>(src, tag);
        self.finish_op(MpiOp::Recv, t0, bytes, Some(src));
        data
    }

    /// Combined send+receive (halo exchange): sends to `dst` and receives
    /// from `src` in one traced operation. Deadlock-free because sends
    /// are asynchronous.
    pub fn sendrecv<T: Payload, U: Payload>(
        &mut self,
        dst: usize,
        send_tag: u64,
        data: T,
        src: usize,
        recv_tag: u64,
    ) -> U {
        assert!(send_tag < COLLECTIVE_TAG_BASE && recv_tag < COLLECTIVE_TAG_BASE);
        let t0 = self.clock_s;
        let sent = self.raw_send(dst, send_tag, data);
        let (data, recvd) = self.raw_recv::<U>(src, recv_tag);
        self.finish_op(MpiOp::SendRecv, t0, sent + recvd, Some(dst));
        data
    }

    /// Nonblocking send. In this runtime sends never block beyond the
    /// injection cost, so `isend` is `send` under its MPI-style name —
    /// provided so overlap code reads like the MPI it models.
    pub fn isend<T: Payload>(&mut self, dst: usize, tag: u64, data: T) {
        self.send(dst, tag, data);
    }

    /// Post a nonblocking receive. Returns immediately with a request
    /// handle; the message is matched and the clock charged when
    /// [`Comm::wait`] is called. Posting is free except for a trace
    /// record (it is *not* a blocking point — computation placed
    /// between the post and the wait is *reducible work* in the
    /// paper's refined model).
    pub fn irecv<T: Payload>(&mut self, src: usize, tag: u64) -> RecvRequest<T> {
        assert!(tag < COLLECTIVE_TAG_BASE, "user tag collides with collective namespace");
        assert!(src < self.size && src != self.rank, "invalid irecv source {src}");
        let t0 = self.clock_s;
        self.finish_op(MpiOp::Irecv, t0, 0, Some(src));
        RecvRequest { src, tag, _marker: std::marker::PhantomData }
    }

    /// Complete a nonblocking receive: blocks until the message is
    /// available, advances the clock to
    /// `max(now, arrival) + recv_overhead`, and returns the payload.
    pub fn wait<T: Payload>(&mut self, req: RecvRequest<T>) -> T {
        let t0 = self.clock_s;
        let (data, bytes) = self.raw_recv::<T>(req.src, req.tag);
        self.finish_op(MpiOp::Wait, t0, bytes, Some(req.src));
        data
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Dissemination barrier: ⌈log₂ n⌉ rounds of small messages; works
    /// for any rank count.
    pub fn barrier(&mut self) {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let mut bytes = 0;
        let done = self.disseminate(seq, &mut Round::default(), &mut bytes);
        assert!(done, "a full run's receive blocks until it completes");
        self.finish_op(MpiOp::Barrier, t0, bytes, None);
    }

    /// One-to-all broadcast over a binomial tree (⌈log₂ n⌉ rounds).
    /// Every rank passes its (possibly empty) buffer; the root's buffer
    /// is distributed and returned on every rank.
    pub fn bcast<T: Payload + Clone>(&mut self, root: usize, data: T) -> T {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let (out, bytes) = self.binomial_bcast(root, data, seq);
        self.finish_op(MpiOp::Bcast, t0, bytes, None);
        out
    }

    /// All-to-one reduction over a binomial tree. Returns `Some(result)`
    /// on `root`, `None` elsewhere.
    pub fn reduce(&mut self, root: usize, data: Vec<f64>, op: ReduceOp) -> Option<Vec<f64>> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let (out, bytes) = self.binomial_reduce(root, data, op, seq);
        self.finish_op(MpiOp::Reduce, t0, bytes, None);
        out
    }

    /// All-to-all reduction: binomial reduce to rank 0 followed by a
    /// binomial broadcast (2⌈log₂ n⌉ rounds).
    pub fn allreduce(&mut self, data: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        let t0 = self.clock_s;
        let seq_r = self.next_coll_seq();
        let (reduced, b1) = self.binomial_reduce(0, data, op, seq_r);
        let seq_b = self.next_coll_seq();
        let (out, b2) = self.binomial_bcast(0, reduced.unwrap_or_default(), seq_b);
        self.finish_op(MpiOp::Allreduce, t0, b1 + b2, None);
        out
    }

    /// Scalar all-reduce convenience.
    pub fn allreduce_scalar(&mut self, value: f64, op: ReduceOp) -> f64 {
        self.allreduce(vec![value], op)[0]
    }

    /// Ring allgather (n−1 rounds): returns every rank's contribution,
    /// indexed by rank.
    pub fn allgather(&mut self, mine: Vec<f64>) -> Vec<Vec<f64>> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let n = self.size;
        let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut bytes = 0;
        blocks[self.rank] = mine;
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            let send_idx = (self.rank + n - step) % n;
            let recv_idx = (self.rank + n - step - 1) % n;
            let tag = coll_tag(seq, step as u64);
            bytes += self.raw_send(right, tag, blocks[send_idx].clone());
            let (data, b) = self.raw_recv::<Vec<f64>>(left, tag);
            bytes += b;
            blocks[recv_idx] = data;
        }
        self.finish_op(MpiOp::Allgather, t0, bytes, None);
        blocks
    }

    /// Pairwise all-to-all personalized exchange (n−1 rounds). `blocks`
    /// holds one outgoing block per destination rank (index = rank);
    /// the result holds one incoming block per source rank.
    pub fn alltoall(&mut self, mut blocks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        assert_eq!(blocks.len(), self.size, "alltoall needs one block per rank");
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let n = self.size;
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut bytes = 0;
        out[self.rank] = std::mem::take(&mut blocks[self.rank]);
        for k in 1..n {
            let dst = (self.rank + k) % n;
            let src = (self.rank + n - k) % n;
            let tag = coll_tag(seq, k as u64);
            bytes += self.raw_send(dst, tag, std::mem::take(&mut blocks[dst]));
            let (data, b) = self.raw_recv::<Vec<f64>>(src, tag);
            bytes += b;
            out[src] = data;
        }
        self.finish_op(MpiOp::Alltoall, t0, bytes, None);
        out
    }

    /// Inclusive prefix reduction in rank order (`MPI_Scan`): rank `r`
    /// receives `op` applied over the contributions of ranks `0..=r`.
    /// Chain algorithm: n−1 sequential hops, deterministic combine
    /// order.
    pub fn scan(&mut self, data: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let tag = coll_tag(seq, 0);
        let mut acc = data;
        let mut bytes = 0;
        if self.rank > 0 {
            let (prefix, b) = self.raw_recv::<Vec<f64>>(self.rank - 1, tag);
            bytes += b;
            // Combine in rank order: earlier ranks first.
            let mut combined = prefix;
            op.combine(&mut combined, &acc);
            acc = combined;
        }
        if self.rank + 1 < self.size {
            bytes += self.raw_send(self.rank + 1, tag, acc.clone());
        }
        self.finish_op(MpiOp::Scan, t0, bytes, None);
        acc
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r` receives
    /// `op` over ranks `0..r`; rank 0 receives the identity.
    pub fn exscan(&mut self, data: Vec<f64>, op: ReduceOp) -> Vec<f64> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let tag = coll_tag(seq, 0);
        let len = data.len();
        let mut bytes = 0;
        // Receive the prefix over 0..rank, then forward prefix ∘ mine.
        let prefix = if self.rank > 0 {
            let (p, b) = self.raw_recv::<Vec<f64>>(self.rank - 1, tag);
            bytes += b;
            p
        } else {
            vec![op.identity(); len]
        };
        if self.rank + 1 < self.size {
            let mut fwd = prefix.clone();
            op.combine(&mut fwd, &data);
            bytes += self.raw_send(self.rank + 1, tag, fwd);
        }
        self.finish_op(MpiOp::Scan, t0, bytes, None);
        prefix
    }

    /// Reduce-scatter (`MPI_Reduce_scatter_block`): `blocks[d]` is this
    /// rank's contribution to destination `d`; the return value is the
    /// element-wise reduction of every rank's block for *this* rank.
    /// Pairwise-exchange algorithm: an all-to-all of contributions
    /// followed by the local reduction.
    pub fn reduce_scatter(&mut self, blocks: Vec<Vec<f64>>, op: ReduceOp) -> Vec<f64> {
        assert_eq!(blocks.len(), self.size, "reduce_scatter needs one block per rank");
        let len = blocks[self.rank].len();
        let incoming = self.alltoall(blocks);
        let mut acc = vec![op.identity(); len];
        for block in incoming {
            op.combine(&mut acc, &block);
        }
        acc
    }

    /// Linear gather to `root`: returns `Some(blocks by rank)` on the
    /// root, `None` elsewhere.
    pub fn gather(&mut self, root: usize, mine: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let tag = coll_tag(seq, 0);
        let mut bytes = 0;
        let result = if self.rank == root {
            let mut blocks: Vec<Vec<f64>> = vec![Vec::new(); self.size];
            blocks[root] = mine;
            for src in (0..self.size).filter(|&s| s != root) {
                let (data, b) = self.raw_recv::<Vec<f64>>(src, tag);
                bytes += b;
                blocks[src] = data;
            }
            Some(blocks)
        } else {
            bytes += self.raw_send(root, tag, mine);
            None
        };
        self.finish_op(MpiOp::Gather, t0, bytes, None);
        result
    }

    /// Linear scatter from `root`: the root provides one block per rank;
    /// every rank returns its own block.
    pub fn scatter(&mut self, root: usize, blocks: Option<Vec<Vec<f64>>>) -> Vec<f64> {
        let t0 = self.clock_s;
        let seq = self.next_coll_seq();
        let tag = coll_tag(seq, 0);
        let mut bytes = 0;
        let mine = if self.rank == root {
            let mut blocks = blocks.expect("root must provide blocks to scatter");
            assert_eq!(blocks.len(), self.size, "scatter needs one block per rank");
            for (dst, block) in blocks.iter_mut().enumerate() {
                if dst != root {
                    bytes += self.raw_send(dst, tag, std::mem::take(block));
                }
            }
            std::mem::take(&mut blocks[root])
        } else {
            let (data, b) = self.raw_recv::<Vec<f64>>(root, tag);
            bytes += b;
            data
        };
        self.finish_op(MpiOp::Scatter, t0, bytes, None);
        mine
    }

    // ------------------------------------------------------------------
    // Skeleton replay
    // ------------------------------------------------------------------

    /// Re-issue a recorded rank program from `cur` on, then finalize:
    /// the same work blocks, message shapes, span marks and gear
    /// requests through the same clock, fabric, fault, policy and trace
    /// paths a full run takes, with empty payloads and no kernel
    /// arithmetic. Returns `false` when a receive finds no message (the
    /// rank is parked; `cur` resumes it) and `true` once the rank has
    /// finalized. The one interpreter of [`SkelOp`]; `Cluster::retime`
    /// drives it.
    pub(crate) fn replay_step(&mut self, skel: &RankSkeleton, cur: &mut ReplayCursor) -> bool {
        while let Some(&op) = skel.ops.get(cur.op) {
            // Sends and receives are primitives of the traced operation
            // in progress; every other op ends one, so the next starts
            // after it.
            match op {
                SkelOp::Send { shape, tag } => {
                    let (dst, wire) = skel.shapes[shape as usize];
                    self.send_wire(dst as usize, tag, wire, Box::new(()));
                    cur.bytes += wire;
                    cur.op += 1;
                    continue;
                }
                SkelOp::Recv { src, tag } => {
                    let Some(env) = self.recv_wire(src as usize, tag) else { return false };
                    cur.bytes += env.bytes;
                    cur.op += 1;
                    continue;
                }
                SkelOp::Compute(i) => self.compute(&skel.blocks[i as usize]),
                SkelOp::End { op, peer } => {
                    let peer = (peer != NO_PEER).then_some(peer as usize);
                    self.finish_op(op, cur.t0, cur.bytes, peer);
                }
                SkelOp::SpanBegin(i) => self.open_span(Arc::clone(&skel.names[i as usize])),
                SkelOp::SpanEnd => self.span_end(),
                SkelOp::WireScale(scale) => self.set_wire_scale(scale),
                SkelOp::SetGear(g) => self.set_gear(g as usize),
            }
            cur.op += 1;
            (cur.t0, cur.bytes) = (self.clock_s, 0);
        }
        self.coll_seq = skel.coll_seq;
        self.finalize(cur)
    }

    /// Finalize the rank's program: close the spans it left open, run
    /// the trailing dissemination barrier (like `MPI_Finalize`) and
    /// close the trace. Resumable through `cur`: returns `false` when a
    /// barrier receive finds no message, which only the re-timing
    /// fabric reports — a full run's receive blocks, so the cluster
    /// driver calls this once and it completes.
    pub(crate) fn finalize(&mut self, cur: &mut ReplayCursor) -> bool {
        let round = match &mut cur.finalize {
            Some(round) => round,
            None => {
                // Close any spans the program left open so the trace
                // stays well formed (e.g. a span around code that
                // returned early).
                while !self.span_stack.is_empty() {
                    self.span_end();
                }
                (cur.t0, cur.bytes) = (self.clock_s, 0);
                cur.finalize.insert(Round::default())
            }
        };
        // Nothing runs after finalize, so its barrier takes the next
        // collective sequence number without consuming it.
        if !self.disseminate(self.coll_seq, round, &mut cur.bytes) {
            return false;
        }
        self.finish_op(MpiOp::Finalize, cur.t0, cur.bytes, None);
        self.trace.end_s = self.clock_s;
        if let Some(recorded) = self.recorded {
            let filled = [self.trace.events().len(), self.trace.spans().len()];
            assert_eq!(
                filled, recorded,
                "rank {}: re-timed [events, spans] differ from the recording's",
                self.rank
            );
        }
        debug_assert!(
            self.fabric.held() == 0,
            "rank {} finalized with {} unconsumed messages",
            self.rank,
            self.fabric.held()
        );
        true
    }

    /// Dismantle the communicator into its measurement products:
    /// `(counters, trace, power_trace, end_time_s, final_gear_index)`.
    pub(crate) fn into_results(self) -> (Counters, RankTrace, PowerTrace, f64, usize) {
        (self.counters, self.trace, self.power, self.clock_s, self.gear.index)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn next_coll_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Untraced send: prices the payload at the current wire scale and
    /// hands it to [`Comm::send_wire`]. Returns bytes sent.
    fn raw_send<T: Payload>(&mut self, dst: usize, tag: u64, data: T) -> u64 {
        let bytes = ((data.byte_size() as f64 * self.wire_scale).round() as u64).max(8);
        self.send_wire(dst, tag, bytes, Box::new(data));
        bytes
    }

    /// Send `data` as `bytes` on the wire: advances the clock by the
    /// injection cost and delivers the envelope.
    ///
    /// Under an active fault plan the transmission may be perturbed,
    /// keyed by the rank's message index: dropped attempts cost the
    /// sender a timeout (with backoff) plus a fresh injection each
    /// retry, and a latency spike delays the delivery. Both costs are
    /// frequency-independent network time, so they shrink — never
    /// violate — the gear-relative slowdown bound.
    fn send_wire(&mut self, dst: usize, tag: u64, bytes: u64, data: Box<dyn Any + Send>) {
        assert!(dst < self.size, "send to rank {dst} out of range (size {})", self.size);
        assert_ne!(dst, self.rank, "send to self would deadlock a matching recv");
        if let Some(r) = self.recorder.as_mut() {
            r.send(dst, tag, bytes);
        }
        let inject_s = self.network.send_time_s_at(bytes, self.size);
        self.clock_s += inject_s;
        let mut extra_latency_s = 0.0;
        if let Some(p) = self.faults.as_mut().map(RankFaults::next_send) {
            if p.retries > 0 {
                // Each dropped attempt: wait out the (backed-off)
                // timeout, then pay the injection cost again.
                self.clock_s += p.retry_wait_s + p.retries as f64 * inject_s;
                self.trace.record_fault(FaultEvent {
                    t_s: self.clock_s,
                    kind: FaultKind::MessageDrop,
                    magnitude: p.retries as f64,
                });
            }
            if p.extra_latency_s > 0.0 {
                extra_latency_s = p.extra_latency_s;
                self.trace.record_fault(FaultEvent {
                    t_s: self.clock_s,
                    kind: FaultKind::LatencySpike,
                    magnitude: p.extra_latency_s,
                });
            }
        }
        let arrival = self.clock_s + self.network.wire_time_s() + extra_latency_s;
        self.fabric.deliver(dst, Envelope { src: self.rank, tag, arrival_s: arrival, bytes, data });
        self.counters.record_mpi_op(bytes);
    }

    /// Untraced receive: takes the matching envelope off the wire and
    /// downcasts its payload. Returns `(data, bytes)`.
    fn raw_recv<T: Payload>(&mut self, src: usize, tag: u64) -> (T, u64) {
        let env = self.recv_wire(src, tag).expect("a full run's receive blocks until it completes");
        let data = env
            .data
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch receiving from rank {src} tag {tag}"));
        (*data, env.bytes)
    }

    /// Take the message matching `(src, tag)` off the wire and advance
    /// the clock to `max(now, arrival) + recv_overhead`. A full run
    /// blocks the rank (its OS thread or its coroutine, per backend)
    /// until the message is there; a re-timing that finds none parks
    /// the rank and returns `None` with the clock untouched.
    fn recv_wire(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        assert!(src < self.size, "recv from rank {src} out of range (size {})", self.size);
        assert_ne!(src, self.rank, "recv from self would deadlock");
        let env = self.fabric.recv_matching(src, tag)?;
        if let Some(r) = self.recorder.as_mut() {
            r.recv(src, tag);
        }
        self.clock_s = self.clock_s.max(env.arrival_s) + self.network.recv_overhead_s;
        Some(env)
    }

    /// Close out a traced MPI operation that began at `t0`: extend the
    /// power profile at idle power, account idle time, record the event.
    fn finish_op(&mut self, op: MpiOp, t0: f64, bytes: u64, peer: Option<usize>) {
        if let Some(r) = self.recorder.as_mut() {
            r.end(op, peer);
        }
        let idle_w = self.node.idle_power_w(self.gear);
        self.power.push(self.clock_s, idle_w);
        self.counters.record_idle(self.clock_s - t0);
        self.trace.record(TraceEvent::new(op, t0, self.clock_s, bytes, peer));
        // Finalize is excluded: nothing runs after it, so a shift there
        // could only burn stall time.
        if self.policy.is_some() && op != MpiOp::Finalize {
            self.policy_step(
                None,
                PolicyEvent::OpExit {
                    op,
                    duration_s: self.clock_s - t0,
                    bytes,
                    all_ranks: op.is_collective(),
                },
            );
        }
    }

    /// Fire the installed policy hook for one event: assemble the
    /// [`Observation`] (rolling window unless `span_window` supplies the
    /// enclosing span's), let the policy decide, advance the window
    /// marks, and apply an effective decision through the ordinary
    /// gear-shift path (recording it in the decision log first).
    /// A request for the current gear is discarded unrecorded.
    fn policy_step(&mut self, span_window: Option<(Counters, f64)>, event: PolicyEvent<'_>) {
        let Some(mut ctx) = self.policy.take() else { return };
        let (window, window_s) = match span_window {
            Some(w) => w,
            None => (self.counters.delta_since(&ctx.mark_counters), self.clock_s - ctx.mark_t_s),
        };
        let energy_so_far_j = ctx.energy_j + self.power.energy_between(ctx.mark_t_s, self.clock_s);
        let decision = ctx.hook.decide(&Observation {
            rank: self.rank,
            size: self.size,
            now_s: self.clock_s,
            gear_index: self.gear.index,
            node: &self.node,
            counters: &self.counters,
            window: &window,
            window_s,
            energy_so_far_j,
            event,
        });
        ctx.mark_counters = self.counters;
        ctx.mark_t_s = self.clock_s;
        ctx.energy_j = energy_so_far_j;
        self.policy = Some(ctx);
        if let Some(to_gear) = decision {
            if to_gear != self.gear.index {
                self.trace.record_decision(PolicyDecision {
                    t_s: self.clock_s,
                    from_gear: self.gear.index,
                    to_gear,
                });
                self.shift_gear(to_gear);
            }
        }
    }

    /// Dissemination pattern shared by `barrier` and `finalize`:
    /// ⌈log₂ n⌉ rounds from `round` on, adding the bytes moved to
    /// `bytes`. Returns `false` when a receive finds no message (the
    /// re-timing fabric only), with `round` marking where to resume.
    fn disseminate(&mut self, seq: u64, round: &mut Round, bytes: &mut u64) -> bool {
        let n = self.size;
        while 1 << round.index < n {
            let k = 1 << round.index;
            let tag = coll_tag(seq, u64::from(round.index));
            if !round.sent {
                *bytes += self.raw_send((self.rank + k) % n, tag, ());
                round.sent = true;
            }
            let Some(env) = self.recv_wire((self.rank + n - k) % n, tag) else { return false };
            *bytes += env.bytes;
            *round = Round { index: round.index + 1, sent: false };
        }
        true
    }

    /// Binomial-tree broadcast rooted at `root`. Returns the broadcast
    /// value and the bytes this rank moved.
    fn binomial_bcast<T: Payload + Clone>(&mut self, root: usize, data: T, seq: u64) -> (T, u64) {
        let n = self.size;
        if n == 1 {
            return (data, 0);
        }
        let relative = (self.rank + n - root) % n;
        let mut bytes = 0;
        let mut data = data;
        // Receive phase: find the bit at which we hang off the tree.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src_rel = relative ^ mask;
                let src = (src_rel + root) % n;
                let (d, b) = self.raw_recv::<T>(src, coll_tag(seq, mask as u64));
                data = d;
                bytes += b;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below our bit.
        mask >>= 1;
        while mask > 0 {
            let dst_rel = relative + mask;
            if dst_rel < n {
                let dst = (dst_rel + root) % n;
                bytes += self.raw_send(dst, coll_tag(seq, mask as u64), data.clone());
            }
            mask >>= 1;
        }
        (data, bytes)
    }

    /// Binomial-tree reduction to `root`. Returns `Some(result)` on the
    /// root and the bytes this rank moved.
    fn binomial_reduce(
        &mut self,
        root: usize,
        data: Vec<f64>,
        op: ReduceOp,
        seq: u64,
    ) -> (Option<Vec<f64>>, u64) {
        let n = self.size;
        if n == 1 {
            return (Some(data), 0);
        }
        let relative = (self.rank + n - root) % n;
        let mut acc = data;
        let mut bytes = 0;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < n {
                    let src = (src_rel + root) % n;
                    let (d, b) = self.raw_recv::<Vec<f64>>(src, coll_tag(seq, mask as u64));
                    bytes += b;
                    op.combine(&mut acc, &d);
                }
            } else {
                let dst_rel = relative & !mask;
                let dst = (dst_rel + root) % n;
                bytes += self.raw_send(dst, coll_tag(seq, mask as u64), acc);
                return (None, bytes);
            }
            mask <<= 1;
        }
        (Some(acc), bytes)
    }
}

/// Build a collective tag from a per-comm sequence number and a round.
#[inline]
fn coll_tag(seq: u64, round: u64) -> u64 {
    COLLECTIVE_TAG_BASE | (seq << 16) | round
}
