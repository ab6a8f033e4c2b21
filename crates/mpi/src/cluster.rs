//! The cluster driver: spawns ranks, runs a program, measures it.
//!
//! [`Cluster::run`] executes an SPMD program closure on `n` simulated
//! nodes at a chosen gear (or per-rank gears, for the node-bottleneck
//! extension), and returns a [`RunResult`] carrying, per rank, the
//! hardware counters, the MPI trace, and the wall-outlet power trace —
//! everything the paper measures on its real cluster.

use crate::comm::{Comm, Fabric, ReplayCursor};
use crate::des;
use crate::network::NetworkModel;
use crate::policyhook::{ClusterPolicy, RankPolicy};
use crate::retime;
use crate::router::{self, Baton, Endpoint, Switchboard};
use crate::skeleton::{RankSkeleton, Skeleton};
use crate::trace::{RankTrace, SpanNames, TraceShape};
use crossbeam::channel::unbounded;
use psc_faults::{FaultPlan, RankFaults};
use psc_machine::wattmeter::cluster_energy_j;
use psc_machine::wire::{Reader, WireError, Writer};
use psc_machine::{Counters, Gear, NodeSpec, PowerTrace, Wattmeter};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Which driver executes the rank programs of a [`Cluster`] run.
///
/// Both backends run the *same* `Comm` layer over the same machine,
/// network, and fault models; only the mechanics of "a rank blocks in a
/// receive" differ. Results are byte-identical (enforced by
/// `tests/backend_identity.rs`), so the backend participates in no cache
/// key and no result. Nobody chooses it at run time: the platform does
/// ([`RuntimeBackend::effective`]), and [`Cluster::with_backend`] exists
/// for the identity suites that compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeBackend {
    /// One OS thread per rank, but only the one holding the baton
    /// runs; it hands the baton on when it blocks, in the same wake
    /// order the DES scheduler uses. The driver on targets without a
    /// coroutine context switch, and the differential reference for
    /// [`RuntimeBackend::Des`].
    Threaded,
    /// Single-threaded discrete-event scheduler: each rank is a
    /// coroutine suspended at blocking `Comm` operations and resumed in
    /// wake order. The default — it has no per-run thread spawn/join or
    /// futex costs.
    #[default]
    Des,
}

impl RuntimeBackend {
    /// The backend that will actually drive a run: targets without a
    /// coroutine context switch fall back to the threaded driver (the
    /// results are bit-identical either way).
    pub fn effective(self) -> RuntimeBackend {
        if des::coro::SWITCH_SUPPORTED {
            self
        } else {
            RuntimeBackend::Threaded
        }
    }
}

/// Host-side execution statistics of one full run. Deliberately *not*
/// part of [`RunResult`]: results are serialized into the
/// content-addressed run cache and byte-compared across backends and
/// worker counts, so anything describing how the host executed a run
/// must travel beside the result, never inside it. A re-timing
/// ([`Cluster::retime`]) has none: it runs no scheduler and no
/// coroutine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Rank dispatches: turns handed out in wake order. Both drivers
    /// step the same wake sequence, so they count the same.
    pub events_processed: u64,
    /// Peak rank-coroutine stack usage in bytes (0 under the threaded
    /// backend, whose ranks run on OS-thread stacks).
    pub stack_high_water_bytes: u64,
}

/// Everything a finished rank hands back to the driver.
struct RankProducts<R> {
    rank: usize,
    /// The program's return value.
    out: R,
    counters: Counters,
    trace: RankTrace,
    power: PowerTrace,
    end_s: f64,
    final_gear: usize,
    /// The rank's recorded program, when the run was recording.
    skeleton: Option<RankSkeleton>,
}

impl<R> RankProducts<R> {
    /// Dismantle a finalized communicator.
    fn of(comm: Comm, out: R, skeleton: Option<RankSkeleton>) -> Self {
        let rank = comm.rank();
        let (counters, trace, power, end_s, final_gear) = comm.into_results();
        RankProducts { rank, out, counters, trace, power, end_s, final_gear, skeleton }
    }
}

/// What every rank needs before its program starts, resolved on the
/// driver thread (a `ClusterPolicy` need not be `Sync`).
struct RankSetup {
    rank: usize,
    gear: Gear,
    /// The configured gear, when the fault plan pinned another one.
    forced_from: Option<usize>,
    faults: Option<RankFaults>,
    policy: Option<Box<dyn RankPolicy>>,
    record: bool,
}

impl RankSetup {
    /// This rank's communicator over `fabric`, armed with its faults,
    /// its policy and (when recording) the skeleton recorder. A
    /// re-timing passes the `shape` of the recording's trace.
    fn comm(
        self,
        size: usize,
        node: Arc<NodeSpec>,
        network: NetworkModel,
        fabric: Fabric,
        shape: Option<Arc<TraceShape>>,
    ) -> Comm {
        let mut comm = Comm::new(self.rank, size, self.gear, node, network, fabric, shape);
        comm.set_faults(self.faults, self.forced_from);
        if let Some(hook) = self.policy {
            comm.set_policy(hook);
        }
        if self.record {
            comm.start_recording();
        }
        comm
    }

    /// Run `program` as this rank over `fabric`: arm, run, finalize,
    /// dismantle. The one rank body both full-run drivers execute.
    fn run<R>(
        self,
        size: usize,
        node: Arc<NodeSpec>,
        network: NetworkModel,
        fabric: Fabric,
        program: &impl Fn(&mut Comm) -> R,
    ) -> RankProducts<R> {
        let mut comm = self.comm(size, node, network, fabric, None);
        let out = program(&mut comm);
        // Recording stops here: finalize is the runtime's, not the
        // program's, and a re-timing performs it itself.
        let skeleton = comm.take_skeleton();
        let done = comm.finalize(&mut ReplayCursor::default());
        assert!(done, "a full run's receive blocks until it completes");
        RankProducts::of(comm, out, skeleton)
    }
}

/// Which gear each rank runs at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GearSelection {
    /// Every rank at the same gear (1-based index).
    Uniform(usize),
    /// Per-rank gear indices (1-based); length must equal the rank count.
    PerRank(Vec<usize>),
}

impl GearSelection {
    /// Gear index for a given rank.
    pub fn gear_for(&self, rank: usize) -> usize {
        match self {
            GearSelection::Uniform(g) => *g,
            GearSelection::PerRank(v) => v[rank],
        }
    }
}

/// A run configuration: how many nodes, at which gear(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of nodes (one rank per node, as in the paper).
    pub nodes: usize,
    /// Gear selection.
    pub gears: GearSelection,
}

impl ClusterConfig {
    /// All nodes at one gear.
    pub fn uniform(nodes: usize, gear: usize) -> Self {
        ClusterConfig { nodes, gears: GearSelection::Uniform(gear) }
    }
}

/// Per-rank measurement products of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankResult {
    /// Rank id.
    pub rank: usize,
    /// Gear index the rank *finished* at (differs from the configured
    /// gear only when the program called [`Comm::set_gear`]).
    pub gear_index: usize,
    /// Accumulated hardware counters.
    pub counters: Counters,
    /// The MPI interception trace.
    pub trace: RankTrace,
    /// The wall-outlet power profile (padded to the run's end).
    pub power: PowerTrace,
}

/// The measurement products of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Wall-clock (virtual) execution time: the latest rank end, seconds.
    pub time_s: f64,
    /// Cumulative energy of all nodes, exact integral, joules.
    pub energy_j: f64,
    /// Cumulative energy as measured by the sampling wattmeter, joules.
    pub measured_energy_j: f64,
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankResult>,
}

impl RankResult {
    /// Rank, gear, seven counters, five trace lengths, `end_s`, one
    /// segment count: the words of a rank that recorded nothing.
    const MIN_WIRE_BYTES: usize = 16 * 8;

    fn encode(&self, w: &mut Writer) {
        w.usize(self.rank);
        w.usize(self.gear_index);
        self.counters.encode(w);
        self.trace.encode(w);
        self.power.encode(w);
    }

    /// `like` is the rank whose trace structure this one must have.
    fn decode(
        r: &mut Reader<'_>,
        names: &mut SpanNames,
        like: Option<&RankResult>,
    ) -> Result<Self, WireError> {
        Ok(RankResult {
            rank: r.usize()?,
            gear_index: r.usize()?,
            counters: Counters::decode(r)?,
            trace: RankTrace::decode(r, names, like.map(|like| like.trace.shape()))?,
            power: PowerTrace::decode(r)?,
        })
    }
}

impl RunResult {
    /// The result as one binary frame ([`psc_machine::wire`]): the three
    /// headline floats, then every rank — rank, final gear, counters,
    /// trace, power profile. Floats travel by their bits, so
    /// `from_bytes(to_bytes(r))` is `r` bit for bit. The run cache's
    /// disk format (DESIGN.md, "Disk entry format").
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.f64(self.time_s);
        w.f64(self.energy_j);
        w.f64(self.measured_energy_j);
        w.seq(&self.ranks, |w, rank| rank.encode(w));
        w.finish()
    }

    /// Decode a frame written by [`RunResult::to_bytes`]. The input may
    /// be anything — a truncated, bit-flipped or foreign file: every
    /// failure is a [`WireError`], nothing is allocated beyond the
    /// frame's own size, and every decoded buffer has `capacity == len`.
    /// Each rank's trace gets a shape of its own; see
    /// [`RunResult::from_bytes_like`] to share one.
    pub fn from_bytes(frame: &[u8]) -> Result<Self, WireError> {
        RunResult::from_bytes_like(frame, None)
    }

    /// [`RunResult::from_bytes`], for a frame that must have the trace
    /// structure of `like` — another result of the same program, such
    /// as a run of the same `(kernel, class, nodes)` at other gears.
    /// Each event's op, peer and bytes and each span's name and depth
    /// is compared with `like`'s as it is read, and every rank's trace
    /// shares `like`'s rank's shape, so only its times are allocated. A
    /// rank, event or span count or an entry that differs is
    /// [`WireError::Foreign`]: the frame is not a result of that program.
    pub fn from_bytes_like(frame: &[u8], like: Option<&RunResult>) -> Result<Self, WireError> {
        let mut r = Reader::open(frame)?;
        // Ranks open the same phases: one allocation per name per frame.
        let mut names = SpanNames::default();
        let (time_s, energy_j, measured_energy_j) = (r.f64()?, r.f64()?, r.f64()?);
        let n = r.seq_len(RankResult::MIN_WIRE_BYTES)?;
        if like.is_some_and(|like| like.ranks.len() != n) {
            return Err(WireError::Foreign("RunResult.ranks"));
        }
        let mut ranks = Vec::with_capacity(n);
        for i in 0..n {
            let like = like.map(|like| &like.ranks[i]);
            ranks.push(RankResult::decode(&mut r, &mut names, like)?);
        }
        r.finish()?;
        Ok(RunResult { time_s, energy_j, measured_energy_j, ranks })
    }

    /// Maximum per-rank active (compute) time — the paper's `T^A(n)`
    /// ("the *maximum* computation time over all nodes"), seconds.
    pub fn active_max_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.trace.active_s()).fold(0.0, f64::max)
    }

    /// Idle time `T^I(n)` paired with the maximum-compute decomposition:
    /// the run time minus the maximum active time, seconds.
    pub fn idle_of_max_s(&self) -> f64 {
        (self.time_s - self.active_max_s()).max(0.0)
    }

    /// Aggregate counters over all ranks.
    pub fn total_counters(&self) -> Counters {
        let mut c = Counters::default();
        for r in &self.ranks {
            c.merge(&r.counters);
        }
        c
    }

    /// Average cluster power over the run, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.time_s == 0.0 {
            0.0
        } else {
            self.energy_j / self.time_s
        }
    }
}

/// A homogeneous simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The node type every rank runs on.
    pub node: NodeSpec,
    /// The interconnect between nodes.
    pub network: NetworkModel,
    /// The sampling wattmeter used for `measured_energy_j`.
    pub wattmeter: Wattmeter,
    /// The rank driver. Changes host throughput only, never a result.
    backend: RuntimeBackend,
}

impl Cluster {
    /// A cluster of the given nodes and network, measured at 30 Hz.
    pub fn new(node: NodeSpec, network: NetworkModel) -> Self {
        Cluster {
            node,
            network,
            wattmeter: Wattmeter::default(),
            backend: RuntimeBackend::default(),
        }
    }

    /// The paper's testbed: Athlon-64 nodes on 100 Mb/s Ethernet.
    pub fn athlon_fast_ethernet() -> Self {
        Cluster::new(psc_machine::presets::athlon64(), NetworkModel::fast_ethernet())
    }

    /// The same cluster with another rank driver — the hook the identity
    /// suites (`tests/{backend,policy,replay}_identity.rs`,
    /// `tests/fault_properties.rs`) use to cross the two drivers. No
    /// binary calls it: on x86_64 every run is driven by
    /// [`RuntimeBackend::Des`].
    pub fn with_backend(mut self, backend: RuntimeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Run an SPMD program on `cfg.nodes` ranks and collect measurements.
    ///
    /// The closure runs once per rank with a private [`Comm`] — as a
    /// coroutine of the DES scheduler on the calling thread, or on its
    /// own OS thread under [`RuntimeBackend::Threaded`]. Returns the
    /// run measurements and the per-rank return values (indexed by
    /// rank), so kernels can hand back residuals or checksums for
    /// verification.
    ///
    /// ```
    /// use psc_mpi::{Cluster, ClusterConfig, ReduceOp};
    /// use psc_machine::WorkBlock;
    ///
    /// let cluster = Cluster::athlon_fast_ethernet();
    /// // Four ranks at gear 2: compute a memory-bound block, then sum
    /// // the rank ids.
    /// let (run, sums) = cluster.run(&ClusterConfig::uniform(4, 2), |comm| {
    ///     comm.compute(&WorkBlock::with_upm(1.0e9, 70.6));
    ///     comm.allreduce_scalar(comm.rank() as f64, ReduceOp::Sum)
    /// });
    /// assert_eq!(sums, vec![6.0; 4]);            // 0+1+2+3 on every rank
    /// assert!(run.time_s > 0.0);
    /// assert!(run.energy_j > 0.0);               // cumulative, all nodes
    /// assert_eq!(run.ranks.len(), 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any rank's gear index is out of range for the node's
    /// gear table, or if the program itself panics on any rank.
    pub fn run<R, F>(&self, cfg: &ClusterConfig, program: F) -> (RunResult, Vec<R>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.run_with_faults(cfg, None, program)
    }

    /// [`Cluster::run`] under a fault plan: per-rank clock jitter,
    /// straggler gears, memory-pressure bursts, link noise, and
    /// wattmeter faults, all drawn deterministically from the plan's
    /// seed. `faults: None` (or a quiet plan) is arithmetically
    /// identical to [`Cluster::run`].
    ///
    /// Injection is keyed by per-rank logical event indices, so results
    /// are byte-identical across repeated runs and independent of host
    /// scheduling — the same guarantee the fault-free runtime gives.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (bad probabilities, straggler gear out
    /// of the node's gear table) in addition to [`Cluster::run`]'s
    /// conditions.
    pub fn run_with_faults<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        program: F,
    ) -> (RunResult, Vec<R>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (run, outputs, _) = self.run_with_faults_stats(cfg, faults, program);
        (run, outputs)
    }

    /// [`Cluster::run_with_faults`] plus the backend's host-side
    /// execution statistics ([`BackendStats`]) — returned *beside* the
    /// result so observability can never perturb it.
    pub fn run_with_faults_stats<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        program: F,
    ) -> (RunResult, Vec<R>, BackendStats)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        self.run_with_policy_stats(cfg, faults, None, program)
    }

    /// [`Cluster::run_with_faults`] with an online gear policy installed
    /// on every rank: the policy chooses each rank's *initial* gear
    /// (overriding the configured selection) and is then consulted at
    /// every phase boundary and MPI-call exit through the hook in
    /// [`crate::policyhook`]. A straggler entry in the fault plan still
    /// wins over the policy's initial gear — a fault pins hardware, and
    /// the policy has to live with it. `policy: None` is exactly
    /// [`Cluster::run_with_faults`].
    pub fn run_with_policy<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        program: F,
    ) -> (RunResult, Vec<R>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (run, outputs, _) = self.run_with_policy_stats(cfg, faults, policy, program);
        (run, outputs)
    }

    /// [`Cluster::run_with_policy`] plus the backend's host-side
    /// execution statistics. This is the full-generality entry point;
    /// every other `run*` method delegates here.
    pub fn run_with_policy_stats<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        program: F,
    ) -> (RunResult, Vec<R>, BackendStats)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (run, outputs, stats, _) = self.run_inner(cfg, faults, policy, false, program);
        (run, outputs, stats)
    }

    /// [`Cluster::run_with_policy_stats`] that also records the
    /// program's [`Skeleton`] — the per-rank sequence of work blocks,
    /// message shapes and span marks it issued, which is the same under
    /// every gear selection, fault plan and policy. Handed back
    /// *beside* the result, like [`BackendStats`]: recording never
    /// changes what the run computes. Hand it to [`Cluster::retime`] to
    /// re-time the program under another configuration without running
    /// its arithmetic.
    pub fn run_recorded<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        program: F,
    ) -> (RunResult, Vec<R>, BackendStats, Skeleton)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let (run, outputs, stats, skeleton) = self.run_inner(cfg, faults, policy, true, program);
        (run, outputs, stats, skeleton.expect("a recording run returns every rank's skeleton"))
    }

    /// Re-time a recorded [`Skeleton`] under `cfg`, `faults` and
    /// `policy`, without the program's arithmetic. The result is
    /// bit-identical to running the recorded program under the same
    /// configuration: every rank re-issues its recorded requests
    /// through the same `Comm` clock, fault, policy and trace code and
    /// the same `assemble` a full run uses. Only the driver differs —
    /// op cursors stepped in the switchboard's wake order, with no
    /// coroutine and no thread (DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// On [`Cluster::run_with_policy`]'s conditions, if the skeleton
    /// was recorded on another node count, and — listing every parked
    /// receive — if the skeleton deadlocks.
    pub fn retime(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        skeleton: &Skeleton,
    ) -> RunResult {
        let setups = self.setups(cfg, faults, policy, false);
        let n = cfg.nodes;
        assert_eq!(skeleton.ranks.len(), n, "skeleton recorded on another node count");
        let board = Rc::new(RefCell::new(Switchboard::new(n)));
        let node = Arc::new(self.node.clone());
        let mut ranks: Vec<(Comm, ReplayCursor)> = setups
            .into_iter()
            .map(|setup| {
                let ep = Endpoint::new(setup.rank, Rc::clone(&board));
                let shape = skeleton.ranks[setup.rank].shape.clone();
                let comm =
                    setup.comm(n, Arc::clone(&node), self.network, Fabric::Cursor(ep), shape);
                (comm, ReplayCursor::default())
            })
            .collect();
        retime::drive(&board, &mut ranks, skeleton);
        let per_rank =
            ranks.into_iter().map(|(comm, _)| RankProducts::of(comm, (), None)).collect();
        self.assemble(faults, per_rank).0
    }

    fn run_inner<R, F>(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        record: bool,
        program: F,
    ) -> (RunResult, Vec<R>, BackendStats, Option<Skeleton>)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let setups = self.setups(cfg, faults, policy, record);
        let (per_rank, stats) = match self.backend.effective() {
            RuntimeBackend::Threaded => self.drive_threaded(setups, &program),
            RuntimeBackend::Des => self.drive_des(setups, &program),
        };

        let (run, outputs, skeleton) = self.assemble(faults, per_rank);
        (run, outputs, stats, skeleton)
    }

    /// Validate a run's configuration and resolve what every rank needs
    /// before it starts: its gear, fault stream and policy. Shared by
    /// full runs and re-timings.
    fn setups(
        &self,
        cfg: &ClusterConfig,
        faults: Option<&FaultPlan>,
        policy: Option<&dyn ClusterPolicy>,
        record: bool,
    ) -> Vec<RankSetup> {
        assert!(cfg.nodes >= 1, "cluster run needs at least one node");
        if let GearSelection::PerRank(v) = &cfg.gears {
            assert_eq!(v.len(), cfg.nodes, "per-rank gear list length must equal node count");
        }
        if let Some(plan) = faults {
            if let Err(e) = plan.validate() {
                panic!("invalid fault plan: {e}");
            }
        }
        (0..cfg.nodes)
            .map(|rank| {
                // The gear a rank would start at absent faults: the
                // configured selection, unless a policy overrides it.
                let configured = cfg.gears.gear_for(rank);
                let base = policy.map_or(configured, |p| {
                    p.initial_gear(rank, cfg.nodes, configured, &self.node)
                });
                // The gear it actually runs at: a straggler entry in
                // the plan overrides everything (it models pinned
                // hardware). `gear()` panics with context on a bad index.
                let effective = faults.and_then(|p| p.forced_gear(rank)).unwrap_or(base);
                RankSetup {
                    rank,
                    gear: self.node.gear(effective),
                    forced_from: (effective != base).then_some(base),
                    faults: faults.map(|p| p.rank_faults(rank)),
                    policy: policy.map(|p| p.rank_policy(rank, cfg.nodes, &self.node)),
                    record,
                }
            })
            .collect()
    }

    /// The thread-per-rank driver: each rank on its own OS thread, run
    /// one at a time by a baton the driver hands on in wake order (see
    /// [`router::pass_baton`]).
    fn drive_threaded<R, F>(
        &self,
        setups: Vec<RankSetup>,
        program: &F,
    ) -> (Vec<RankProducts<R>>, BackendStats)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let n = setups.len();
        let board = Arc::new(Mutex::new(Switchboard::new(n)));
        let (driver, handoffs) = unbounded();
        let node = Arc::new(self.node.clone());

        std::thread::scope(|scope| {
            let mut turns = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for setup in setups {
                let (turn_tx, turn) = unbounded();
                turns.push(turn_tx);
                let baton = Baton::new(setup.rank, Arc::clone(&board), turn, driver.clone());
                let node = Arc::clone(&node);
                let network = self.network;
                handles.push(scope.spawn(move || {
                    baton.run(|baton| setup.run(n, node, network, Fabric::Threaded(baton), program))
                }));
            }
            let dispatches = router::pass_baton(&board, turns, &handoffs);
            let per_rank = handles
                .into_iter()
                .map(|h| h.join().ok().flatten().expect("every rank finished"))
                .collect();
            (per_rank, BackendStats { events_processed: dispatches, stack_high_water_bytes: 0 })
        })
    }

    /// The discrete-event driver: every rank a coroutine on this
    /// thread, dispatched in wake order by the scheduler in `des`.
    fn drive_des<R, F>(
        &self,
        setups: Vec<RankSetup>,
        program: &F,
    ) -> (Vec<RankProducts<R>>, BackendStats)
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let n = setups.len();
        let board = Rc::new(RefCell::new(Switchboard::new(n)));
        let results: Rc<RefCell<Vec<Option<RankProducts<R>>>>> =
            Rc::new(RefCell::new((0..n).map(|_| None).collect()));
        let node = Arc::new(self.node.clone());
        let mut coros = Vec::with_capacity(n);
        for setup in setups {
            let rank = setup.rank;
            let ep = Endpoint::new(rank, Rc::clone(&board));
            let results = Rc::clone(&results);
            let node = Arc::clone(&node);
            let network = self.network;
            let label = format!("rank {rank}");
            coros.push(des::coro::Coroutine::labeled(
                des::coro::STACK_BYTES,
                label,
                move |yielder| {
                    let fabric = Fabric::Des(ep, yielder.clone());
                    let products = setup.run(n, node, network, fabric, program);
                    results.borrow_mut()[rank] = Some(products);
                },
            ));
        }

        let drive = des::drive(&board, coros);

        let per_rank = results
            .borrow_mut()
            .iter_mut()
            .map(|slot| slot.take().expect("finished rank left no result"))
            .collect();
        (
            per_rank,
            BackendStats {
                events_processed: drive.dispatches,
                stack_high_water_bytes: drive.stack_high_water_bytes,
            },
        )
    }

    /// Shared post-processing: pad early finishers to the run's end at
    /// idle power, trim the traces, and integrate energy. Identical
    /// for both backends by construction — this is where byte-identity
    /// is decided. A recording's skeleton takes each rank's trace shape,
    /// so its re-timings share it.
    fn assemble<R>(
        &self,
        faults: Option<&FaultPlan>,
        per_rank: Vec<RankProducts<R>>,
    ) -> (RunResult, Vec<R>, Option<Skeleton>) {
        let time_s = per_rank.iter().map(|p| p.end_s).fold(0.0, f64::max);
        let recording = per_rank.iter().all(|p| p.skeleton.is_some());
        let mut skeletons = Vec::with_capacity(if recording { per_rank.len() } else { 0 });
        let mut ranks = Vec::with_capacity(per_rank.len());
        let mut outputs = Vec::with_capacity(per_rank.len());
        for p in per_rank {
            let (mut trace, mut power) = (p.trace, p.power);
            // Ranks that finish early idle at I_g until the last rank is
            // done — their nodes are still plugged in. A rank that
            // switched gears mid-run idles at its *final* gear.
            let gear_index = p.final_gear;
            let idle_w = self.node.idle_power_w(self.node.gear(gear_index));
            if power.end_s() < time_s {
                power.push(time_s, idle_w);
            }
            // Results outlive the run in the cache: give back the
            // pre-sized buffers' slack.
            power.shrink_to_fit();
            trace.shrink_to_fit();
            if let Some(skeleton) = p.skeleton {
                skeletons.push(RankSkeleton { shape: Some(Arc::clone(trace.shape())), ..skeleton });
            }
            ranks.push(RankResult { rank: p.rank, gear_index, counters: p.counters, trace, power });
            outputs.push(p.out);
        }

        let energy_j = cluster_energy_j(ranks.iter().map(|r| &r.power));
        let measured_energy_j = match faults.and_then(|p| p.wattmeter.as_ref().map(|w| (p.seed, w)))
        {
            Some((seed, wf)) => ranks
                .iter()
                .map(|r| self.wattmeter.measure_energy_j_faulted(&r.power, wf, seed, r.rank))
                .sum(),
            None => ranks.iter().map(|r| self.wattmeter.measure_energy_j(&r.power)).sum(),
        };

        let skeleton = recording.then_some(Skeleton { ranks: skeletons });
        (RunResult { time_s, energy_j, measured_energy_j, ranks }, outputs, skeleton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOp;
    use psc_machine::WorkBlock;

    fn cluster() -> Cluster {
        Cluster::athlon_fast_ethernet()
    }

    #[test]
    fn single_rank_compute_only() {
        let c = cluster();
        let (res, outs) = c.run(&ClusterConfig::uniform(1, 1), |comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9));
            comm.rank()
        });
        assert_eq!(outs, vec![0]);
        // 4e9 uops at IPC 2 and 2 GHz = 1 s.
        assert!((res.time_s - 1.0).abs() < 1e-9, "time {}", res.time_s);
        assert!(res.energy_j > 0.0);
        // Energy ≈ busy power × 1 s, which is ~150 W.
        assert!((140.0..160.0).contains(&res.energy_j), "energy {}", res.energy_j);
    }

    #[test]
    fn ping_pong_transfers_data_and_advances_clock() {
        let c = cluster();
        let (res, outs) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                comm.recv::<Vec<f64>>(1, 8)
            } else {
                let v = comm.recv::<Vec<f64>>(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                comm.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(outs[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(outs[1], vec![2.0, 4.0, 6.0]);
        // Two small transfers plus the finalize barrier: order 100s of µs.
        assert!(res.time_s > 100e-6 && res.time_s < 10e-3, "time {}", res.time_s);
    }

    #[test]
    fn messages_can_arrive_before_receive_is_posted() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 42.0f64);
                0.0
            } else {
                // Compute for a long virtual time first; the message waits.
                comm.compute(&WorkBlock::cpu_only(2.0e9));
                comm.recv::<f64>(0, 1)
            }
        });
        assert_eq!(outs[1], 42.0);
    }

    #[test]
    fn out_of_order_tags_are_matched_correctly() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10.0f64);
                comm.send(1, 2, 20.0f64);
                (0.0, 0.0)
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv::<f64>(0, 2);
                let a = comm.recv::<f64>(0, 1);
                (a, b)
            }
        });
        assert_eq!(outs[1], (10.0, 20.0));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let c = cluster();
        let (res, outs) = c.run(&ClusterConfig::uniform(4, 1), |comm| {
            if comm.rank() == 2 {
                comm.compute(&WorkBlock::cpu_only(8.0e9)); // 2 s
            }
            comm.barrier();
            comm.now_s()
        });
        // After the barrier every clock is at least the slow rank's 2 s.
        for t in &outs {
            assert!(*t >= 2.0, "clock {t} did not wait for the slow rank");
        }
        assert!(res.time_s >= 2.0);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let c = cluster();
        for n in [1usize, 2, 3, 4, 5, 8] {
            let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
                comm.allreduce(vec![comm.rank() as f64, 1.0], ReduceOp::Sum)
            });
            let expect = (n * (n - 1) / 2) as f64;
            for out in &outs {
                assert_eq!(out[0], expect, "n={n}");
                assert_eq!(out[1], n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        let c = cluster();
        let n = 5;
        for root in 0..n {
            let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
                let data = if comm.rank() == root { vec![root as f64; 3] } else { Vec::new() };
                comm.bcast(root, data)
            });
            for out in &outs {
                assert_eq!(out, &vec![root as f64; 3], "root={root}");
            }
        }
    }

    #[test]
    fn reduce_max_to_nonzero_root() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(6, 1), |comm| {
            comm.reduce(3, vec![comm.rank() as f64], ReduceOp::Max)
        });
        for (rank, out) in outs.iter().enumerate() {
            if rank == 3 {
                assert_eq!(out.as_ref().unwrap()[0], 5.0);
            } else {
                assert!(out.is_none());
            }
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(4, 1), |comm| {
            comm.allgather(vec![comm.rank() as f64 * 10.0])
        });
        for out in &outs {
            let flat: Vec<f64> = out.iter().map(|b| b[0]).collect();
            assert_eq!(flat, vec![0.0, 10.0, 20.0, 30.0]);
        }
    }

    #[test]
    fn alltoall_routes_blocks() {
        let c = cluster();
        let n = 4;
        let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
            let r = comm.rank() as f64;
            let blocks: Vec<Vec<f64>> =
                (0..comm.size()).map(|dst| vec![r * 100.0 + dst as f64]).collect();
            comm.alltoall(blocks)
        });
        for (rank, out) in outs.iter().enumerate() {
            for (src, block) in out.iter().enumerate() {
                assert_eq!(block[0], src as f64 * 100.0 + rank as f64);
            }
        }
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let c = cluster();
        let n = 5;
        let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
            let gathered = comm.gather(0, vec![comm.rank() as f64 + 1.0]);
            let blocks =
                gathered.map(|g| g.into_iter().map(|b| vec![b[0] * 2.0]).collect::<Vec<_>>());
            comm.scatter(0, blocks)
        });
        for (rank, out) in outs.iter().enumerate() {
            assert_eq!(out, &vec![(rank as f64 + 1.0) * 2.0]);
        }
    }

    #[test]
    fn sendrecv_ring_shift() {
        let c = cluster();
        let n = 6;
        let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.sendrecv::<f64, f64>(right, 3, comm.rank() as f64, left, 3)
        });
        for (rank, got) in outs.iter().enumerate() {
            let left = (rank + n - 1) % n;
            assert_eq!(*got, left as f64);
        }
    }

    #[test]
    fn trace_decomposes_active_and_idle() {
        let c = cluster();
        let (res, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9)); // 1 s active
            comm.barrier();
        });
        for r in &res.ranks {
            let active = r.trace.active_s();
            assert!((active - 1.0).abs() < 1e-6, "active {active}");
            assert!(r.trace.idle_s() > 0.0);
            assert!((active + r.trace.idle_s() - r.trace.end_s).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_padding_covers_early_finishers() {
        let c = cluster();
        let (res, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                comm.compute(&WorkBlock::cpu_only(8.0e9)); // 2 s
            }
            // No trailing sync besides finalize.
        });
        for r in &res.ranks {
            assert!(
                (r.power.end_s() - res.time_s).abs() < 1e-9,
                "rank {} power trace ends at {} but run ends at {}",
                r.rank,
                r.power.end_s(),
                res.time_s
            );
        }
    }

    #[test]
    fn slower_gear_never_faster_and_bounded_by_frequency_ratio() {
        let c = cluster();
        let work = WorkBlock::with_upm(8.0e9, 70.0);
        let mut prev_time = 0.0;
        for g in 1..=6 {
            let (res, _) = c.run(&ClusterConfig::uniform(2, g), |comm| {
                comm.compute(&work);
                comm.barrier();
            });
            if g > 1 {
                assert!(res.time_s >= prev_time - 1e-12, "gear {g} sped things up");
            }
            prev_time = res.time_s;
        }
        // Compare gear 6 to gear 1 against the frequency-ratio bound.
        let (r1, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            comm.compute(&work);
            comm.barrier();
        });
        let (r6, _) = c.run(&ClusterConfig::uniform(2, 6), |comm| {
            comm.compute(&work);
            comm.barrier();
        });
        let ratio = r6.time_s / r1.time_s;
        let bound = c.node.gears.frequency_ratio(1, 6);
        assert!(ratio >= 1.0 && ratio <= bound + 1e-9, "ratio {ratio} bound {bound}");
    }

    #[test]
    fn per_rank_gears_slow_only_the_chosen_rank() {
        let c = cluster();
        let cfg = ClusterConfig { nodes: 2, gears: GearSelection::PerRank(vec![1, 6]) };
        let (_, outs) = c.run(&cfg, |comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9));
            comm.now_s()
        });
        assert!((outs[0] - 1.0).abs() < 1e-9);
        assert!((outs[1] - 2.5).abs() < 1e-9, "rank 1 at gear 6 should take 2.5 s");
    }

    #[test]
    fn measured_energy_tracks_exact_energy() {
        let c = cluster();
        let (res, _) = c.run(&ClusterConfig::uniform(4, 3), |comm| {
            comm.compute(&WorkBlock::with_upm(2.0e9, 49.5));
            comm.allreduce(vec![1.0; 128], ReduceOp::Sum);
            comm.compute(&WorkBlock::with_upm(2.0e9, 49.5));
        });
        let rel = (res.measured_energy_j - res.energy_j).abs() / res.energy_j;
        assert!(rel < 0.05, "wattmeter error {rel}");
    }

    #[test]
    fn irecv_wait_overlaps_computation() {
        let c = cluster();
        // With overlap, rank 1 computes 1 s while a slow 10 MB message
        // is in flight; without overlap it computes first and then
        // waits the full transfer. The overlapped run must be faster.
        let run = |overlap: bool| {
            let (res, _) = c.run(&ClusterConfig::uniform(2, 1), move |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![0.0f64; 1_250_000]); // ~10 MB
                } else if overlap {
                    let req = comm.irecv::<Vec<f64>>(0, 1);
                    comm.compute(&WorkBlock::cpu_only(4.0e9)); // 1 s
                    let _ = comm.wait(req);
                } else {
                    comm.compute(&WorkBlock::cpu_only(4.0e9));
                    let _ = comm.recv::<Vec<f64>>(0, 1);
                }
            });
            res.time_s
        };
        let with = run(true);
        let without = run(false);
        // Transfer is ~0.87 s at 11.5 MB/s; overlap should hide most of
        // the compute behind it... actually both orders cost the same
        // here because arrival time is fixed; what overlap changes is
        // that the *wait* absorbs the in-flight time. The overlapped
        // run must never be slower, and the trace must show reducible
        // work between the send and the wait on rank 1's side.
        assert!(with <= without + 1e-9, "overlap slowed the run: {with} vs {without}");
    }

    #[test]
    fn irecv_marks_computation_as_reducible() {
        let c = cluster();
        let (res, _) = c.run(&ClusterConfig::uniform(2, 1), |comm| {
            if comm.rank() == 0 {
                let req = comm.irecv::<f64>(1, 2);
                comm.send(1, 1, 1.0f64);
                comm.compute(&WorkBlock::cpu_only(2.0e9)); // 0.5 s reducible
                let _ = comm.wait(req);
            } else {
                let _ = comm.recv::<f64>(0, 1);
                comm.compute(&WorkBlock::cpu_only(2.0e9));
                comm.send(0, 2, 2.0f64);
            }
        });
        let (crit, red) = res.ranks[0].trace.critical_reducible_split();
        assert!((red - 0.5).abs() < 1e-6, "reducible {red} critical {crit}");
    }

    #[test]
    fn set_gear_switches_speed_mid_run() {
        let c = cluster();
        let (res, outs) = c.run(&ClusterConfig::uniform(1, 1), |comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9)); // 1 s at gear 1
            comm.set_gear(6);
            comm.compute(&WorkBlock::cpu_only(4.0e9)); // 2.5 s at gear 6
            comm.now_s()
        });
        let expect = 1.0 + 2.5 + c.node.dvfs_transition_s;
        assert!((outs[0] - expect).abs() < 1e-9, "clock {} vs {expect}", outs[0]);
        assert_eq!(res.ranks[0].gear_index, 6, "final gear recorded");
    }

    #[test]
    fn set_gear_to_same_gear_is_free() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(1, 3), |comm| {
            comm.set_gear(3);
            comm.now_s()
        });
        assert_eq!(outs[0], 0.0);
    }

    #[test]
    fn gear_switching_saves_energy_on_mixed_phases() {
        // A program with a CPU-bound phase and a memory-bound phase:
        // downshifting only for the memory phase saves energy at almost
        // no time cost versus running everything at gear 1.
        let c = cluster();
        let phases = |comm: &mut Comm, adaptive: bool| {
            comm.compute(&WorkBlock::with_upm(8.0e9, 844.0)); // EP-like
            if adaptive {
                comm.set_gear(5);
            }
            comm.compute(&WorkBlock::with_upm(8.0e9, 8.6)); // CG-like
            if adaptive {
                comm.set_gear(1);
            }
        };
        let (base, _) = c.run(&ClusterConfig::uniform(1, 1), |comm| phases(comm, false));
        let (adapt, _) = c.run(&ClusterConfig::uniform(1, 1), |comm| phases(comm, true));
        assert!(adapt.energy_j < base.energy_j, "{} !< {}", adapt.energy_j, base.energy_j);
        assert!(adapt.time_s < base.time_s * 1.12, "adaptive cost too much time");
    }

    #[test]
    fn wire_scale_inflates_transfer_time() {
        let c = cluster();
        let run_with_scale = |scale: f64| {
            let (res, _) = c.run(&ClusterConfig::uniform(2, 1), move |comm| {
                comm.set_wire_scale(scale);
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![0.0f64; 100_000]);
                } else {
                    let _ = comm.recv::<Vec<f64>>(0, 1);
                }
            });
            res.time_s
        };
        let t1 = run_with_scale(1.0);
        let t10 = run_with_scale(10.0);
        // 800 kB vs 8 MB at 11.5 MB/s: the scaled run is far slower.
        assert!(t10 > 5.0 * t1, "scaled {t10} vs unscaled {t1}");
    }

    #[test]
    fn deterministic_across_runs() {
        let c = cluster();
        let run = || {
            c.run(&ClusterConfig::uniform(5, 2), |comm| {
                comm.compute(&WorkBlock::with_upm(1.0e9, 73.5));
                let s = comm.allreduce_scalar(comm.rank() as f64, ReduceOp::Sum);
                comm.compute(&WorkBlock::with_upm(0.5e9, 73.5));
                comm.barrier();
                s
            })
        };
        let (a, outs_a) = run();
        let (b, outs_b) = run();
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(outs_a, outs_b);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::reduce::ReduceOp;
    use crate::trace::FaultKind;
    use psc_faults::plan::{MemoryBurst, NetworkFaults, Straggler};
    use psc_faults::FaultPlan;
    use psc_machine::WorkBlock;

    fn cluster() -> Cluster {
        Cluster::athlon_fast_ethernet()
    }

    fn program(comm: &mut Comm) -> f64 {
        for _ in 0..4 {
            comm.compute(&WorkBlock::with_upm(4.0e8, 70.0));
            comm.allreduce_scalar(comm.rank() as f64, ReduceOp::Sum);
        }
        comm.now_s()
    }

    #[test]
    fn no_plan_and_quiet_plan_are_bitwise_identical() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(3, 2);
        let (bare, _) = c.run(&cfg, program);
        let (none, _) = c.run_with_faults(&cfg, None, program);
        let quiet = FaultPlan::quiet(123);
        let (q, _) = c.run_with_faults(&cfg, Some(&quiet), program);
        for other in [&none, &q] {
            assert_eq!(other.time_s.to_bits(), bare.time_s.to_bits());
            assert_eq!(other.energy_j.to_bits(), bare.energy_j.to_bits());
            assert_eq!(other.measured_energy_j.to_bits(), bare.measured_energy_j.to_bits());
            assert_eq!(*other, bare);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(4, 3);
        let plan = FaultPlan::noise(7, 0.05);
        let (a, _) = c.run_with_faults(&cfg, Some(&plan), program);
        let (b, _) = c.run_with_faults(&cfg, Some(&plan), program);
        assert_eq!(a, b, "same seed + plan must be byte-identical");
        let other = FaultPlan::noise(8, 0.05);
        let (d, _) = c.run_with_faults(&cfg, Some(&other), program);
        assert_ne!(a.time_s.to_bits(), d.time_s.to_bits(), "different seed must differ");
    }

    #[test]
    fn jitter_perturbs_time_and_records_activations() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(2, 1);
        let (base, _) = c.run(&cfg, program);
        let plan = FaultPlan::noise(3, 0.05);
        let (noisy, _) = c.run_with_faults(&cfg, Some(&plan), program);
        assert_ne!(noisy.time_s.to_bits(), base.time_s.to_bits());
        // Bounded perturbation: a 5 % noise level cannot move total
        // time by more than ~tens of percent.
        assert!((noisy.time_s / base.time_s - 1.0).abs() < 0.3);
        let activations: usize = noisy.ranks.iter().map(|r| r.trace.fault_events().len()).sum();
        assert!(activations > 0, "activations must be visible in the traces");
        assert!(noisy
            .ranks
            .iter()
            .flat_map(|r| r.trace.fault_events())
            .any(|f| f.kind == FaultKind::ClockJitter));
    }

    #[test]
    fn straggler_pins_one_rank_and_slows_the_run() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(2, 1);
        let plan =
            FaultPlan { stragglers: vec![Straggler { rank: 1, gear: 6 }], ..FaultPlan::quiet(0) };
        let (base, _) = c.run(&cfg, |comm: &mut Comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9));
            comm.barrier();
        });
        let (strag, _) = c.run_with_faults(&cfg, Some(&plan), |comm: &mut Comm| {
            comm.compute(&WorkBlock::cpu_only(4.0e9));
            comm.barrier();
        });
        assert_eq!(strag.ranks[1].gear_index, 6, "forced gear recorded");
        assert_eq!(strag.ranks[0].gear_index, 1, "other ranks untouched");
        // Gear 6 is 800 MHz vs 2 GHz: the straggler stretches the run.
        assert!(strag.time_s > base.time_s * 2.0, "{} vs {}", strag.time_s, base.time_s);
        let evs = strag.ranks[1].trace.fault_events();
        assert!(evs.iter().any(|f| f.kind == FaultKind::StragglerGear && f.magnitude == 6.0));
        assert!(strag.ranks[0].trace.fault_events().is_empty());
    }

    #[test]
    fn memory_burst_adds_frequency_independent_time() {
        let c = cluster();
        let plan = FaultPlan {
            memory_bursts: vec![MemoryBurst {
                rank: 0,
                start_block: 0,
                blocks: 4,
                miss_factor: 8.0,
            }],
            ..FaultPlan::quiet(0)
        };
        let prog = |comm: &mut Comm| {
            for _ in 0..4 {
                comm.compute(&WorkBlock::with_upm(1.0e9, 100.0));
            }
        };
        for gear in [1usize, 6] {
            let cfg = ClusterConfig::uniform(1, gear);
            let (base, _) = c.run(&cfg, prog);
            let (burst, _) = c.run_with_faults(&cfg, Some(&plan), prog);
            let extra = burst.time_s - base.time_s;
            // 7 extra misses per original miss × 4e7 misses × stall:
            // the same absolute stall time at either gear.
            assert!(extra > 0.0, "burst must slow the run at gear {gear}");
            let expect = 7.0 * 4.0 * 1.0e7 * c.node.cpu.stall_per_miss_s;
            assert!((extra - expect).abs() / expect < 1e-9, "gear {gear}: extra {extra}");
        }
    }

    #[test]
    fn drops_and_spikes_slow_messaging_but_never_lose_data() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(4, 1);
        let plan = FaultPlan {
            network: Some(NetworkFaults {
                spike_prob: 0.5,
                spike_latency_s: 2e-3,
                drop_prob: 0.5,
                max_retries: 4,
                retry_timeout_s: 1e-3,
                backoff: 2.0,
            }),
            ..FaultPlan::quiet(5)
        };
        let prog = |comm: &mut Comm| comm.allreduce_scalar(comm.rank() as f64, ReduceOp::Sum);
        let (base, outs) = c.run(&cfg, prog);
        let (noisy, fouts) = c.run_with_faults(&cfg, Some(&plan), prog);
        assert_eq!(outs, fouts, "payloads survive drop/retry untouched");
        assert!(noisy.time_s > base.time_s, "retries and spikes must cost time");
        let kinds: Vec<FaultKind> =
            noisy.ranks.iter().flat_map(|r| r.trace.fault_events()).map(|f| f.kind).collect();
        assert!(kinds.contains(&FaultKind::MessageDrop));
        assert!(kinds.contains(&FaultKind::LatencySpike));
    }

    #[test]
    fn wattmeter_faults_touch_only_measured_energy() {
        let c = cluster();
        let cfg = ClusterConfig::uniform(2, 2);
        let plan = FaultPlan {
            wattmeter: Some(psc_faults::WattmeterFaults { dropout_prob: 0.1, noise_sigma: 0.05 }),
            ..FaultPlan::quiet(11)
        };
        let (base, _) = c.run(&cfg, program);
        let (noisy, _) = c.run_with_faults(&cfg, Some(&plan), program);
        assert_eq!(noisy.time_s.to_bits(), base.time_s.to_bits());
        assert_eq!(noisy.energy_j.to_bits(), base.energy_j.to_bits());
        assert_ne!(noisy.measured_energy_j.to_bits(), base.measured_energy_j.to_bits());
        // Still a plausible measurement of the same run.
        let rel = (noisy.measured_energy_j - noisy.energy_j).abs() / noisy.energy_j;
        assert!(rel < 0.2, "measured energy off by {rel}");
    }

    #[test]
    fn slowdown_bound_survives_noise() {
        let c = cluster();
        let plan = FaultPlan::noise(17, 0.05);
        for (i, j) in [(1usize, 2usize), (2, 3), (5, 6), (1, 6)] {
            let t = |g: usize| {
                let (r, _) = c.run_with_faults(&ClusterConfig::uniform(2, g), Some(&plan), program);
                r.time_s
            };
            let ratio = t(j) / t(i);
            let bound = c.node.gears.frequency_ratio(i, j);
            assert!(
                ratio >= 1.0 - 1e-12 && ratio <= bound + 1e-9,
                "gears {i}->{j}: ratio {ratio} outside [1, {bound}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_plan_is_rejected_up_front() {
        let c = cluster();
        let plan = FaultPlan {
            clock_jitter: Some(psc_faults::ClockJitter { amplitude: 2.0 }),
            ..FaultPlan::quiet(0)
        };
        let _ = c.run_with_faults(&ClusterConfig::uniform(1, 1), Some(&plan), |_| ());
    }

    #[test]
    #[should_panic(expected = "gear")]
    fn straggler_gear_out_of_range_is_rejected() {
        let c = cluster();
        let plan =
            FaultPlan { stragglers: vec![Straggler { rank: 0, gear: 99 }], ..FaultPlan::quiet(0) };
        let _ = c.run_with_faults(&ClusterConfig::uniform(1, 1), Some(&plan), |_| ());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::policyhook::{ClusterPolicy, InertRankPolicy, Observation, PolicyEvent, RankPolicy};
    use crate::reduce::ReduceOp;
    use psc_machine::WorkBlock;

    fn cluster(backend: RuntimeBackend) -> Cluster {
        Cluster::athlon_fast_ethernet().with_backend(backend)
    }

    fn program(comm: &mut Comm) -> f64 {
        for _ in 0..3 {
            comm.span("ep-like", |c| c.compute(&WorkBlock::with_upm(2.0e9, 844.0)));
            comm.span("cg-like", |c| c.compute(&WorkBlock::with_upm(2.0e9, 8.6)));
            comm.allreduce_scalar(comm.rank() as f64, ReduceOp::Sum);
        }
        comm.now_s()
    }

    /// Inert at every event; starts at the configured gear.
    struct Inert;
    impl ClusterPolicy for Inert {
        fn rank_policy(
            &self,
            _rank: usize,
            _size: usize,
            _node: &psc_machine::NodeSpec,
        ) -> Box<dyn RankPolicy> {
            Box::new(InertRankPolicy)
        }
    }

    /// Downshifts at the start of every `cg-like` phase, returns to
    /// gear 1 at its end — the hand-written schedule from
    /// `gear_switching_saves_energy_on_mixed_phases`, expressed as a
    /// policy.
    struct DownshiftCg;
    struct DownshiftCgRank;
    impl RankPolicy for DownshiftCgRank {
        fn decide(&mut self, obs: &Observation<'_>) -> Option<usize> {
            match obs.event {
                PolicyEvent::PhaseStart { name: "cg-like", .. } => Some(5),
                PolicyEvent::PhaseEnd { name: "cg-like", .. } => Some(1),
                _ => None,
            }
        }
    }
    impl ClusterPolicy for DownshiftCg {
        fn rank_policy(
            &self,
            _rank: usize,
            _size: usize,
            _node: &psc_machine::NodeSpec,
        ) -> Box<dyn RankPolicy> {
            Box::new(DownshiftCgRank)
        }
    }

    /// Starts every rank at gear 4 regardless of configuration.
    struct StartAt4;
    impl ClusterPolicy for StartAt4 {
        fn initial_gear(
            &self,
            _rank: usize,
            _size: usize,
            _configured: usize,
            _node: &psc_machine::NodeSpec,
        ) -> usize {
            4
        }
        fn rank_policy(
            &self,
            _rank: usize,
            _size: usize,
            _node: &psc_machine::NodeSpec,
        ) -> Box<dyn RankPolicy> {
            Box::new(InertRankPolicy)
        }
    }

    #[test]
    fn inert_policy_is_byte_identical_to_no_policy() {
        for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
            let c = cluster(backend);
            let cfg = ClusterConfig::uniform(3, 2);
            let (bare, bare_out) = c.run(&cfg, program);
            let (hooked, hooked_out) = c.run_with_policy(&cfg, None, Some(&Inert), program);
            assert_eq!(hooked, bare, "backend {:?}", backend);
            assert_eq!(hooked_out, bare_out);
            assert!(hooked.ranks.iter().all(|r| r.trace.decisions().is_empty()));
        }
    }

    #[test]
    fn policy_initial_gear_overrides_configuration() {
        let c = cluster(RuntimeBackend::Des);
        let cfg = ClusterConfig::uniform(2, 1);
        let (with_policy, _) = c.run_with_policy(&cfg, None, Some(&StartAt4), program);
        let (at_4, _) = c.run(&ClusterConfig::uniform(2, 4), program);
        assert_eq!(with_policy, at_4, "Static-style initial gear must reproduce a plain run");
        // No shift and no straggler event was recorded for the override.
        for r in &with_policy.ranks {
            assert!(r.trace.gear_shifts().is_empty());
            assert!(r.trace.fault_events().is_empty());
            assert_eq!(r.gear_index, 4);
        }
    }

    #[test]
    fn policy_decisions_match_gear_shifts_and_save_energy() {
        let c = cluster(RuntimeBackend::Des);
        let cfg = ClusterConfig::uniform(2, 1);
        let (base, _) = c.run(&cfg, program);
        let (adaptive, _) = c.run_with_policy(&cfg, None, Some(&DownshiftCg), program);
        assert!(adaptive.energy_j < base.energy_j, "downshifting cg-like phases must save");
        for r in &adaptive.ranks {
            let decisions = r.trace.decisions();
            let shifts = r.trace.gear_shifts();
            assert_eq!(decisions.len(), shifts.len(), "one shift per effective decision");
            assert_eq!(decisions.len(), 6, "3 iterations × (down + up)");
            for (d, s) in decisions.iter().zip(shifts) {
                assert_eq!(d.from_gear, s.from_gear);
                assert_eq!(d.to_gear, s.to_gear);
                assert!((s.t_s - s.stall_s - d.t_s).abs() < 1e-12, "shift lands after stall");
            }
        }
    }

    #[test]
    fn policy_runs_identical_across_backends() {
        let cfg = ClusterConfig::uniform(4, 1);
        let (des, des_out) =
            cluster(RuntimeBackend::Des).run_with_policy(&cfg, None, Some(&DownshiftCg), program);
        let (thr, thr_out) = cluster(RuntimeBackend::Threaded).run_with_policy(
            &cfg,
            None,
            Some(&DownshiftCg),
            program,
        );
        assert_eq!(des, thr);
        assert_eq!(des_out, thr_out);
    }

    #[test]
    fn straggler_fault_wins_over_policy_initial_gear() {
        use psc_faults::plan::Straggler;
        let c = cluster(RuntimeBackend::Des);
        let plan =
            FaultPlan { stragglers: vec![Straggler { rank: 1, gear: 6 }], ..FaultPlan::quiet(0) };
        let cfg = ClusterConfig::uniform(2, 1);
        let (run, _) = c.run_with_policy(&cfg, Some(&plan), Some(&StartAt4), program);
        assert_eq!(run.ranks[0].gear_index, 4, "unfaulted rank starts where the policy says");
        // The straggler is pinned; the policy's initial gear lost.
        let evs = run.ranks[1].trace.fault_events();
        assert!(evs.iter().any(|f| f.kind == crate::trace::FaultKind::StragglerGear));
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::reduce::ReduceOp;
    use crate::skeleton::SkelOp;
    use crate::trace::MpiOp;
    use psc_machine::WorkBlock;

    fn program(comm: &mut Comm) {
        comm.set_wire_scale(50.0);
        for _ in 0..3 {
            comm.span("sweep", |c| c.compute(&WorkBlock::with_upm(4.0e8, 70.0)));
            comm.allreduce(vec![comm.rank() as f64; 64], ReduceOp::Sum);
        }
    }

    #[test]
    fn a_recorded_program_replays_bit_identically_at_another_gear() {
        for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
            let c = Cluster::athlon_fast_ethernet().with_backend(backend);
            let (recorded, _, _, skeleton) =
                c.run_recorded(&ClusterConfig::uniform(4, 1), None, None, program);
            // Recording is invisible in the result...
            assert_eq!(recorded, c.run(&ClusterConfig::uniform(4, 1), program).0);
            // ...and the skeleton re-times exactly under other gears.
            let cfg = ClusterConfig { nodes: 4, gears: GearSelection::PerRank(vec![2, 6, 1, 4]) };
            assert_eq!(c.retime(&cfg, None, None, &skeleton), c.run(&cfg, program).0);
            // Interning keeps it small: one block, one span name, and
            // the shapes of one allreduce per rank.
            assert!(skeleton.ranks.iter().all(|r| r.blocks.len() == 1 && r.names.len() == 1));
            assert!(skeleton.heap_bytes() < 4 * 1024, "{} B", skeleton.heap_bytes());
        }
    }

    /// The trap `WireScale` exists for: finalize's barrier is not in
    /// the skeleton, and it is priced at the program's last wire scale.
    #[test]
    fn a_skeleton_without_its_wire_scale_misprices_exactly_the_finalize_barrier() {
        let c = Cluster::athlon_fast_ethernet();
        let cfg = ClusterConfig::uniform(4, 3);
        let (full, _, _, skeleton) = c.run_recorded(&cfg, None, None, program);
        let mut stripped = skeleton.clone();
        for r in &mut stripped.ranks {
            r.ops.retain(|op| !matches!(op, SkelOp::WireScale(_)));
            // An edited program no longer has its recording's shape.
            r.shape = None;
        }
        assert_eq!(c.retime(&cfg, None, None, &skeleton), full);
        let wrong = c.retime(&cfg, None, None, &stripped);
        for (w, f) in wrong.ranks.iter().zip(&full.ranks) {
            let (we, fe) = (w.trace.events(), f.trace.events());
            let last = fe.len() - 1;
            let (wl, fl) = (we.last().unwrap(), fe.last().unwrap());
            assert_eq!(fl.op, MpiOp::Finalize);
            // Recorded sends carry their wire bytes, so everything up
            // to finalize still agrees...
            assert!(we.take(last).eq(fe.take(last)));
            // ...and finalize's own 8-byte control messages do not.
            assert_eq!(fl.bytes, 50 * wl.bytes);
        }
    }

    /// The panic message `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the run must fail");
        payload.downcast::<String>().map(|s| *s).expect("a formatted panic message")
    }

    /// Rank 0 waits for a message rank 1 never sends; rank 1 ends up in
    /// finalize's barrier. All three drivers name both parked receives,
    /// in the same words.
    #[test]
    fn a_deadlocked_skeleton_names_every_parked_receive_as_the_des_scheduler_does() {
        let c = Cluster::athlon_fast_ethernet();
        let cfg = ClusterConfig::uniform(2, 1);
        let skeleton = Skeleton {
            ranks: vec![
                RankSkeleton { ops: vec![SkelOp::Recv { src: 1, tag: 5 }], ..Default::default() },
                RankSkeleton::default(),
            ],
        };
        let retimed = panic_message(|| {
            c.retime(&cfg, None, None, &skeleton);
        });
        assert!(retimed.contains("rank 0 ← recv(src 1, tag 5)"), "{retimed}");
        assert!(retimed.contains("rank 1 ← recv(src 0, tag "), "{retimed}");
        for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
            let full = panic_message(|| {
                c.clone().with_backend(backend).run(&cfg, |comm| {
                    if comm.rank() == 0 {
                        comm.recv::<()>(1, 5);
                    }
                });
            });
            assert_eq!(full, retimed, "{backend:?}");
        }
    }

    /// A rank's own panic fails the run with its original message under
    /// either driver, while the other ranks wait in a receive.
    #[test]
    fn a_rank_panic_reaches_the_caller_with_its_payload() {
        for backend in [RuntimeBackend::Des, RuntimeBackend::Threaded] {
            let c = Cluster::athlon_fast_ethernet().with_backend(backend);
            let message = panic_message(|| {
                c.run(&ClusterConfig::uniform(3, 1), |comm| {
                    if comm.rank() == 1 {
                        panic!("rank {} gave up", comm.rank());
                    }
                    comm.barrier();
                });
            });
            assert_eq!(message, "rank 1 gave up", "{backend:?}");
        }
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;
    use crate::reduce::ReduceOp;

    fn cluster() -> Cluster {
        Cluster::athlon_fast_ethernet()
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        let c = cluster();
        for n in [1usize, 2, 5, 8] {
            let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), |comm| {
                comm.scan(vec![comm.rank() as f64 + 1.0], ReduceOp::Sum)
            });
            for (rank, out) in outs.iter().enumerate() {
                let expect: f64 = (1..=rank + 1).map(|x| x as f64).sum();
                assert_eq!(out[0], expect, "n={n} rank={rank}");
            }
        }
    }

    #[test]
    fn exscan_computes_exclusive_prefixes() {
        let c = cluster();
        let (_, outs) = c.run(&ClusterConfig::uniform(6, 1), |comm| {
            comm.exscan(vec![comm.rank() as f64 + 1.0], ReduceOp::Sum)
        });
        for (rank, out) in outs.iter().enumerate() {
            let expect: f64 = (1..=rank).map(|x| x as f64).sum();
            assert_eq!(out[0], expect, "rank={rank}");
        }
    }

    #[test]
    fn scan_with_max_is_running_maximum() {
        let c = cluster();
        let vals = [3.0, 1.0, 4.0, 1.0, 5.0];
        let (_, outs) = c.run(&ClusterConfig::uniform(5, 1), move |comm| {
            comm.scan(vec![vals[comm.rank()]], ReduceOp::Max)
        });
        let expect = [3.0, 3.0, 4.0, 4.0, 5.0];
        for (rank, out) in outs.iter().enumerate() {
            assert_eq!(out[0], expect[rank]);
        }
    }

    #[test]
    fn reduce_scatter_distributes_reduced_blocks() {
        let c = cluster();
        let n = 4;
        let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), move |comm| {
            // Contribution of rank r to destination d: [r·10 + d; 2].
            let blocks: Vec<Vec<f64>> =
                (0..comm.size()).map(|d| vec![(comm.rank() * 10 + d) as f64; 2]).collect();
            comm.reduce_scatter(blocks, ReduceOp::Sum)
        });
        for (rank, out) in outs.iter().enumerate() {
            // Σ_r (10r + rank) = 10·(0+1+2+3) + 4·rank = 60 + 4·rank.
            let expect = 60.0 + 4.0 * rank as f64;
            assert_eq!(out, &vec![expect; 2], "rank={rank}");
        }
    }

    #[test]
    fn reduce_scatter_matches_reduce_then_scatter() {
        let c = cluster();
        let n = 5;
        let (_, outs) = c.run(&ClusterConfig::uniform(n, 1), move |comm| {
            let blocks: Vec<Vec<f64>> =
                (0..comm.size()).map(|d| vec![(comm.rank() + d) as f64]).collect();
            let fused = comm.reduce_scatter(blocks.clone(), ReduceOp::Sum);
            // Reference: reduce whole concatenation to root, scatter.
            let flat: Vec<f64> = blocks.into_iter().flatten().collect();
            let reduced = comm.reduce(0, flat, ReduceOp::Sum);
            let reference =
                comm.scatter(0, reduced.map(|r| r.chunks(1).map(|c| c.to_vec()).collect()));
            (fused, reference)
        });
        for (fused, reference) in outs {
            assert_eq!(fused, reference);
        }
    }
}
