//! The sweep engine: bounded-parallel, memoized plan execution — the
//! workspace's one fan-out over independent runs.

use crate::cache::{fnv1a64, fnv1a64_continue, CacheStats, RunCache, CACHE_SCHEMA};
use crate::metrics::EngineMetrics;
use crate::plan::{RunPlan, RunSpec};
use psc_faults::FaultPlan;
use psc_kernels::{Benchmark, ProblemClass};
use psc_machine::wire::WireError;
use psc_mpi::{BackendStats, Cluster, GearSelection, RunResult, Skeleton};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The worker count used when the caller does not pin one: the
/// `PSC_JOBS` environment variable if set to a positive integer,
/// otherwise the host's available parallelism. Results are
/// bit-identical at any worker count, so this read configures only
/// host-side scheduling, never what a run computes.
pub fn default_jobs() -> usize {
    match std::env::var("PSC_JOBS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Executes [`RunPlan`]s on a [`Cluster`] with a worker pool and a
/// [`RunCache`].
///
/// ```
/// use psc_kernels::{Benchmark, ProblemClass};
/// use psc_mpi::Cluster;
/// use psc_runner::{Engine, RunCache, RunPlan};
///
/// let e = Engine::new(Cluster::athlon_fast_ethernet())
///     .with_cache(RunCache::in_memory()); // hermetic: ignore any disk cache
/// let plan = RunPlan::gear_sweep(Benchmark::Ep, ProblemClass::Test, 1, 3);
/// let runs = e.execute(&plan);
/// assert_eq!(runs.len(), 3);
/// assert!(runs[0].time_s <= runs[2].time_s); // gear 1 is fastest
/// assert_eq!(e.cache_stats().misses, 3);
/// assert_eq!(e.execute(&plan).len(), 3); // replay: all hits
/// assert_eq!(e.cache_stats().hits, 3);
/// ```
#[derive(Debug)]
pub struct Engine {
    cluster: Cluster,
    jobs: usize,
    cache: RunCache,
    faults: Option<FaultPlan>,
    /// `faults` as it enters a cache key, serialized once.
    faults_json: Option<String>,
    /// FNV-1a state after the part of every key that names the cluster
    /// ([`Engine::key_prefix`]); a lookup hashes only the spec's tail.
    key_prefix: u64,
    metrics: Arc<EngineMetrics>,
    /// Keys currently being simulated by some caller of [`Engine::run`]
    /// or [`Engine::execute`]. A second caller asking for a key in this
    /// table blocks on the owner's slot instead of simulating again —
    /// the third dedup layer (after memory and disk), and the one that
    /// makes the engine safe to share across concurrent callers.
    inflight: Inflight<u64, RunResult>,
    /// The recorded program of every `(kernel, class, nodes)` tuple
    /// this engine has simulated in full. A skeleton is independent of
    /// gears, policy and faults, so every later spec of its tuple is
    /// re-timed from it instead of re-running the kernel (DESIGN.md,
    /// "Skeleton replay tier"). Memory-only.
    skeletons: Mutex<BTreeMap<SkeletonKey, Arc<Skeleton>>>,
    /// Tuples whose recording is under way: `skeletons`' in-flight
    /// table, so each tuple is recorded once.
    recording: Inflight<SkeletonKey, Skeleton>,
    /// The first result of each tuple this engine executed or read
    /// from disk. A tuple fixes its trace structure, so every later
    /// disk entry of the tuple is decoded against this result: it
    /// shares the result's trace shapes, and an entry whose structure
    /// differs is refused (DESIGN.md §12, "The store"). Memory-only.
    priors: Mutex<BTreeMap<SkeletonKey, Prior>>,
}

/// A tuple's result that its disk entries are decoded against.
#[derive(Debug)]
struct Prior {
    run: Arc<RunResult>,
    /// Whether this engine executed `run`; an executed result replaces
    /// a decoded one, because execution is authoritative.
    executed: bool,
}

/// FNV-1a as a `fmt::Write` sink: `write!` streams the pieces of a key
/// into the hash without building the string.
struct KeyHasher(u64);

impl KeyHasher {
    fn push(&mut self, s: &str) {
        self.0 = fnv1a64_continue(self.0, s.as_bytes());
    }

    /// Hash the bytes of `format!("{:?}", spec.resolved_gears())` —
    /// `[g0, g1, …]` — without building the `Vec` or the string.
    fn push_resolved_gears(&mut self, spec: &RunSpec) {
        self.push("[");
        for rank in 0..spec.nodes {
            if rank > 0 {
                self.push(", ");
            }
            write!(self, "{}", spec.gears.gear_for(rank))
                .expect("KeyHasher::write_str never fails");
        }
        self.push("]");
    }
}

impl std::fmt::Write for KeyHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.push(s);
        Ok(())
    }
}

/// Everything a rank program's control flow can depend on.
type SkeletonKey = (Benchmark, ProblemClass, usize);

/// The tuple of a spec.
fn tuple_of(spec: &RunSpec) -> SkeletonKey {
    (spec.bench, spec.class, spec.nodes)
}

/// Which tier answered a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The kernel ran (and its skeleton was recorded).
    Full,
    /// A recorded skeleton was re-timed.
    Replay,
}

impl Tier {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Replay => "replay",
        }
    }
}

/// One in-flight computation of a `T` — a run, or a tuple's skeleton:
/// the owner publishes its product here and wakes every joiner.
/// `result` stays `None` if the owner aborts (panicked mid-simulation),
/// in which case joiners retry as owners.
#[derive(Debug)]
struct InflightSlot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

#[derive(Debug)]
struct SlotState<T> {
    done: bool,
    result: Option<Arc<T>>,
}

impl<T> InflightSlot<T> {
    /// Block until the owner finishes; `None` means the owner aborted.
    fn wait(&self) -> Option<Arc<T>> {
        let mut st = self.state.lock().unwrap();
        while !st.done {
            st = self.cv.wait(st).unwrap();
        }
        st.result.clone()
    }
}

/// The keys being computed right now, each with its slot.
type Inflight<K, T> = Mutex<BTreeMap<K, Arc<InflightSlot<T>>>>;

/// How [`Engine::run_traced`] obtained its result. Carried *beside*
/// the result (never in it — results stay byte-identical whatever the
/// traffic pattern): the job server tags each response with it and the
/// replay harness audits dedup through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// This caller simulated the spec (a counted cache miss).
    Executed,
    /// Served from the cache — memory or disk.
    CacheHit,
    /// Joined a simulation another caller had in flight.
    InflightJoin,
}

impl RunOutcome {
    /// The wire label (`executed`, `cache_hit`, `inflight_join`).
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Executed => "executed",
            RunOutcome::CacheHit => "cache_hit",
            RunOutcome::InflightJoin => "inflight_join",
        }
    }
}

/// How a caller claimed a key.
enum Claim<T> {
    /// The store already had it.
    Cached(Arc<T>),
    /// Someone else is computing it; wait on their slot.
    Join(Arc<InflightSlot<T>>),
    /// This caller owns the computation.
    Own(Arc<InflightSlot<T>>),
}

/// Atomically decide how a caller obtains `key`: `lookup`'s stored
/// value, a join on another caller's computation in `inflight`, or
/// ownership of it. The lookup happens *under* the in-flight lock, so
/// two concurrent missers can never both become owners.
fn claim<K: Ord + Copy, T>(
    inflight: &Inflight<K, T>,
    key: K,
    lookup: impl FnOnce() -> Option<Arc<T>>,
) -> Claim<T> {
    let mut inflight = inflight.lock().expect("in-flight table poisoned");
    if let Some(slot) = inflight.get(&key) {
        return Claim::Join(Arc::clone(slot));
    }
    if let Some(stored) = lookup() {
        return Claim::Cached(stored);
    }
    let slot = Arc::new(InflightSlot {
        state: Mutex::new(SlotState { done: false, result: None }),
        cv: Condvar::new(),
    });
    inflight.insert(key, Arc::clone(&slot));
    Claim::Own(slot)
}

/// Owner-side completion guard: on drop — normal return *or* panic —
/// the key leaves the in-flight table and every joiner is woken. A
/// drop without [`OwnerGuard::publish`] leaves `result` empty, which
/// joiners read as "retry".
struct OwnerGuard<'a, K: Ord, T> {
    inflight: &'a Inflight<K, T>,
    key: K,
    slot: Arc<InflightSlot<T>>,
}

impl<K: Ord, T> OwnerGuard<'_, K, T> {
    fn publish(&self, product: Arc<T>) {
        let mut st = self.slot.state.lock().unwrap();
        st.result = Some(product);
    }
}

impl<K: Ord, T> Drop for OwnerGuard<'_, K, T> {
    fn drop(&mut self) {
        self.inflight.lock().unwrap().remove(&self.key);
        self.slot.state.lock().unwrap().done = true;
        self.slot.cv.notify_all();
    }
}

impl Engine {
    /// An engine with environment defaults: `PSC_JOBS` workers (or the
    /// host's available parallelism) and the `PSC_CACHE`/`PSC_CACHE_DIR`
    /// cache configuration. Self-metrics are collected (they are cheap
    /// atomics); use [`Engine::with_metrics`] with
    /// [`EngineMetrics::disabled`] to switch them off.
    pub fn new(cluster: Cluster) -> Self {
        Engine {
            key_prefix: Self::key_prefix(&cluster),
            cluster,
            jobs: default_jobs(),
            cache: RunCache::from_env(),
            faults: None,
            faults_json: None,
            metrics: EngineMetrics::new(),
            inflight: Mutex::new(BTreeMap::new()),
            skeletons: Mutex::new(BTreeMap::new()),
            recording: Mutex::new(BTreeMap::new()),
            priors: Mutex::new(BTreeMap::new()),
        }
        .rewire_metrics()
    }

    /// A single-worker engine with a memory-only cache — the serial
    /// reference configuration for determinism checks.
    pub fn serial(cluster: Cluster) -> Self {
        Engine {
            key_prefix: Self::key_prefix(&cluster),
            cluster,
            jobs: 1,
            cache: RunCache::in_memory(),
            faults: None,
            faults_json: None,
            metrics: EngineMetrics::new(),
            inflight: Mutex::new(BTreeMap::new()),
            skeletons: Mutex::new(BTreeMap::new()),
            recording: Mutex::new(BTreeMap::new()),
            priors: Mutex::new(BTreeMap::new()),
        }
        .rewire_metrics()
    }

    /// Pin the worker count (must be ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        assert!(jobs >= 1, "worker count must be at least 1");
        self.jobs = jobs;
        self
    }

    /// Replace the cache.
    pub fn with_cache(mut self, cache: RunCache) -> Self {
        self.cache = cache;
        self.rewire_metrics()
    }

    /// Replace the self-observability state (e.g. a shared instance
    /// aggregating several engines, or [`EngineMetrics::disabled`]).
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = metrics;
        self.rewire_metrics()
    }

    /// This engine's self-observability state.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Point the cache's observation hooks at the current metrics
    /// instance (cache and metrics are swappable independently).
    fn rewire_metrics(self) -> Self {
        self.cache.attach_hooks(self.metrics.cache_hooks());
        self
    }

    /// Set (or clear) the engine's default fault plan. Specs without
    /// their own plan run under this one; a spec-level plan wins.
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults_json = faults.as_ref().map(FaultPlan::to_json);
        self.faults = faults;
        self
    }

    /// The engine's default fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The plan a spec effectively runs under: the spec's own, else the
    /// engine default, else none.
    fn effective_faults<'a>(&'a self, spec: &'a RunSpec) -> Option<&'a FaultPlan> {
        spec.faults.as_ref().or(self.faults.as_ref())
    }

    /// The cluster runs execute on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of gears on this cluster's nodes.
    pub fn gear_count(&self) -> usize {
        self.cluster.node.gears.len()
    }

    /// Snapshot of the cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Zero this engine's cache traffic counters (the cached entries
    /// stay). The job server calls this between observation windows;
    /// its own cumulative counters live in the metrics registry and are
    /// unaffected.
    pub fn reset_cache_stats(&self) {
        self.cache.reset();
    }

    /// The hash state every key of an engine on `cluster` starts from:
    /// the schema tag and the node, network and wattmeter models (floats
    /// serialize with exact round-tripping, so it is stable across
    /// processes). The backend is host-side only and never enters.
    fn key_prefix(cluster: &Cluster) -> u64 {
        fnv1a64(
            format!(
                "{CACHE_SCHEMA}|node={}|net={}|meter={}",
                serde::json::to_string(&cluster.node),
                serde::json::to_string(&cluster.network),
                serde::json::to_string(&cluster.wattmeter),
            )
            .as_bytes(),
        )
    }

    /// The content key of a spec on this engine's cluster: FNV-1a of
    /// `<schema>|node=…|net=…|meter=…|bench=…|class=…|nodes=…|gears=…`
    /// plus the optional `|faults=<json>` and `|policy=<json>` tails —
    /// everything that shapes the result. The cluster part is hashed
    /// once per engine; a lookup streams only the spec's part, without
    /// allocating unless the spec carries its own fault plan or a policy.
    pub fn cache_key(&self, spec: &RunSpec) -> u64 {
        let mut key = KeyHasher(self.key_prefix);
        write!(
            key,
            "|bench={}|class={:?}|nodes={}|gears=",
            spec.bench.name(),
            spec.class,
            spec.nodes,
        )
        .expect("KeyHasher::write_str never fails");
        key.push_resolved_gears(spec);
        // Fault-free runs keep the plain key; a plan (even a quiet one)
        // gets its own keyspace. The engine's default plan was
        // serialized when it was set, a spec's own is serialized here.
        if let Some(plan) = self.effective_faults(spec) {
            key.push("|faults=");
            match (&spec.faults, &self.faults_json) {
                (None, Some(json)) => key.push(json),
                _ => key.push(&plan.to_json()),
            }
        }
        // Same shape for policies: policy-free keys stay plain, any
        // policy (even Static) gets its own keyspace (analyzer P002).
        if let Some(policy) = &spec.policy {
            key.push("|policy=");
            key.push(&policy.to_json());
        }
        key.0
    }

    /// A compact label for the spec's gear selection (`"3"` for a
    /// uniform gear, `"mixed"` for per-rank schedules).
    fn gear_label(spec: &RunSpec) -> String {
        match &spec.gears {
            GearSelection::Uniform(g) => g.to_string(),
            GearSelection::PerRank(_) => "mixed".to_string(),
        }
    }

    /// Resolve one key — the only way the engine obtains a result:
    /// claim it (exactly one counted miss per simulated key), then return the cached run, share another caller's
    /// in-flight run, or simulate it here, store it and publish it.
    ///
    /// `lane` and `queue_wait_s` are what an owner reports about
    /// itself to [`EngineMetrics`]. `on_miss` is called once the cache
    /// could not answer, before this thread blocks on a simulation (its
    /// own or another caller's) — [`Engine::execute`] opens its helper
    /// lanes there, so plans the cache answers never spawn a thread.
    fn resolve(
        &self,
        spec: &RunSpec,
        key: u64,
        lane: u64,
        queue_wait_s: f64,
        on_miss: &mut dyn FnMut(),
    ) -> (Arc<RunResult>, RunOutcome) {
        let lookup = || self.cache.lookup_with(key, |frame| self.decode_entry(spec, frame));
        loop {
            let slot = match claim(&self.inflight, key, lookup) {
                Claim::Cached(run) => return (run, RunOutcome::CacheHit),
                Claim::Join(slot) => {
                    on_miss();
                    if let Some(run) = slot.wait() {
                        self.cache.note_inflight_join();
                        return (run, RunOutcome::InflightJoin);
                    }
                    // The owner aborted without publishing; retry (the
                    // key has left the table, so some retrier owns it).
                    continue;
                }
                Claim::Own(slot) => slot,
            };
            let guard = OwnerGuard { inflight: &self.inflight, key, slot };
            on_miss();
            let sw = self.metrics.stopwatch();
            let (run, backend, tier) = self.execute_spec(spec);
            let run = Arc::new(run);
            if let Some(sw) = sw {
                self.metrics.on_run_executed(
                    spec.bench.name(),
                    &Self::gear_label(spec),
                    tier,
                    lane,
                    queue_wait_s,
                    backend,
                    &sw,
                );
                if tier == Tier::Full {
                    let (count, bytes) = self.skeleton_footprint();
                    self.metrics.on_skeletons(count, bytes);
                }
            }
            self.cache.insert(key, Arc::clone(&run));
            self.keep_prior(tuple_of(spec), &run, true);
            guard.publish(Arc::clone(&run));
            return (run, RunOutcome::Executed);
        }
    }

    /// Run a single spec through the cache and the in-flight table.
    ///
    /// Safe to call from many threads at once (the job server's worker
    /// lanes do): concurrent callers asking for the same uncached spec
    /// trigger exactly one simulation — the rest block and share the
    /// owner's result. Accounting: every call adds exactly one lookup
    /// (joiners count as `inflight_joins` hits), so `misses` always
    /// equals simulations.
    pub fn run(&self, spec: &RunSpec) -> Arc<RunResult> {
        self.run_traced(spec).0
    }

    /// [`Engine::run`], plus *how* the result was obtained and the
    /// spec's [`Engine::cache_key`] (computed once, here). Outcome and
    /// key are host-traffic bookkeeping, never part of the result.
    pub fn run_traced(&self, spec: &RunSpec) -> (Arc<RunResult>, RunOutcome, u64) {
        let key = self.cache_key(spec);
        let (run, outcome) = self.resolve(spec, key, 0, 0.0, &mut || {});
        (run, outcome, key)
    }

    /// Execute a plan: each distinct key is resolved exactly as
    /// [`Engine::run`] resolves it — through the cache and the in-flight
    /// table, so overlapping plans on a shared engine still simulate
    /// every key once — and results return in plan order. Bit-identical
    /// to running every spec serially.
    ///
    /// The calling thread is worker lane 1. The first key the cache
    /// cannot answer opens up to `jobs − 1` scoped helper lanes for the
    /// keys still queued, so a replayed plan, a one-key plan and any
    /// `jobs = 1` plan run entirely on the caller's thread.
    ///
    /// Accounting invariant: over one call, `hits + misses` grows by
    /// exactly `plan.len()` — duplicates inside the plan count as
    /// shared hits (they reuse the first occurrence's result).
    pub fn execute(&self, plan: &RunPlan) -> Vec<Arc<RunResult>> {
        self.metrics.on_plan(plan.len());

        // Key every spec once; `order` maps plan position to the slot of
        // the key's first occurrence. Ordered map (clippy bans `HashMap`): nothing
        // result-shaping may iterate in hash order.
        let mut slot_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut distinct: Vec<(u64, &RunSpec)> = Vec::new();
        let order: Vec<usize> = plan
            .specs
            .iter()
            .map(|spec| {
                let key = self.cache_key(spec);
                *slot_of.entry(key).and_modify(|_| self.cache.note_shared_hit()).or_insert_with(
                    || {
                        distinct.push((key, spec));
                        distinct.len() - 1
                    },
                )
            })
            .collect();

        let slots: Vec<OnceLock<Arc<RunResult>>> =
            distinct.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let pool_sw = self.metrics.stopwatch();
        // (busy seconds, simulations) summed over the lanes.
        let tally = Mutex::new((0.0f64, 0usize));
        let drain = |lane: u64, on_miss: &mut dyn FnMut()| {
            let (mut busy_s, mut simulated) = (0.0f64, 0usize);
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(key, spec)) = distinct.get(k) else { break };
                let sw = self.metrics.stopwatch();
                // Queue wait: how long this key sat between the pool
                // opening and a lane picking it up.
                let wait_s = match (&sw, &pool_sw) {
                    (Some(sw), Some(pool)) => (sw.started_us() - pool.started_us()) / 1e6,
                    _ => 0.0,
                };
                let (run, outcome) = self.resolve(spec, key, lane, wait_s.max(0.0), on_miss);
                if outcome == RunOutcome::Executed {
                    simulated += 1;
                    busy_s += sw.map_or(0.0, |sw| sw.elapsed_s());
                }
                let _ = slots[k].set(run);
            }
            if simulated > 0 {
                let mut t = tally.lock().unwrap();
                t.0 += busy_s;
                t.1 += simulated;
            }
        };
        // Helper lanes the caller spawned, once it has met a miss.
        let mut helpers = None;
        std::thread::scope(|scope| {
            let drain = &drain;
            let mut open_helpers = || {
                helpers.get_or_insert_with(|| {
                    let queued = distinct.len().saturating_sub(next.load(Ordering::Relaxed));
                    let helpers = (self.jobs - 1).min(queued);
                    for lane in 2..helpers as u64 + 2 {
                        scope.spawn(move || drain(lane, &mut || {}));
                    }
                    helpers
                });
            };
            drain(1, &mut open_helpers);
        });
        if let Some(sw) = &pool_sw {
            let (busy_s, simulated) = *tally.lock().unwrap();
            self.metrics.on_pool_closed(1 + helpers.unwrap_or(0), simulated, busy_s, sw);
        }

        order
            .into_iter()
            .map(|k| Arc::clone(slots[k].get().expect("the drain filled every slot")))
            .collect()
    }

    /// Execute a spec on the cluster. Returns the result plus the
    /// backend's execution statistics and the tier that produced it —
    /// carried *beside* the result (never in it) so the instrumentation
    /// around this function can observe DES throughput without touching
    /// what a run computes.
    ///
    /// The first spec of a `(kernel, class, nodes)` tuple runs the
    /// kernel and records its skeleton; every later one — any gears,
    /// policy or fault plan — re-times that skeleton
    /// (`Cluster::retime`), bit-identical to a full run
    /// (`tests/replay_identity.rs`) and with no backend statistics, as
    /// it runs no scheduler. Each tuple is recorded once: callers racing
    /// on a fresh tuple claim it as [`Engine::resolve`] claims a key, so
    /// one records and the rest wait for its skeleton (or, if the
    /// recorder panics, retry as the recorder).
    fn execute_spec(&self, spec: &RunSpec) -> (RunResult, BackendStats, Tier) {
        let cfg = spec.config();
        let faults = self.effective_faults(spec);
        let policy = spec.policy.as_ref().map(|p| p as &dyn psc_mpi::ClusterPolicy);
        let tuple = tuple_of(spec);
        let skeleton = loop {
            let stored =
                || self.skeletons.lock().expect("skeleton store poisoned").get(&tuple).cloned();
            let slot = match claim(&self.recording, tuple, stored) {
                Claim::Cached(skeleton) => break skeleton,
                Claim::Join(slot) => match slot.wait() {
                    Some(skeleton) => break skeleton,
                    None => continue,
                },
                Claim::Own(slot) => slot,
            };
            let guard = OwnerGuard { inflight: &self.recording, key: tuple, slot };
            let (run, _outputs, backend, skeleton) =
                self.cluster
                    .run_recorded(&cfg, faults, policy, |comm| spec.bench.run(comm, spec.class));
            // Debug builds turn every recording into a re-timing oracle.
            #[cfg(debug_assertions)]
            assert_eq!(
                self.cluster.retime(&cfg, faults, policy, &skeleton),
                run,
                "replay diverged from the full run of {spec:?}"
            );
            let skeleton = Arc::new(skeleton);
            let mut store = self.skeletons.lock().expect("skeleton store poisoned");
            store.insert(tuple, Arc::clone(&skeleton));
            drop(store);
            guard.publish(skeleton);
            return (run, backend, Tier::Full);
        };
        let run = self.cluster.retime(&cfg, faults, policy, &skeleton);
        (run, BackendStats::default(), Tier::Replay)
    }

    /// Decode a disk entry of `spec`, against its tuple's prior if the
    /// engine holds one. An entry whose rank count is not `spec.nodes`,
    /// or whose trace structure differs from the prior's, is not a
    /// result of the tuple: [`WireError::Foreign`]. The first entry
    /// decoded of a tuple with no prior becomes its prior.
    fn decode_entry(&self, spec: &RunSpec, frame: &[u8]) -> Result<Arc<RunResult>, WireError> {
        let tuple = tuple_of(spec);
        let prior = self
            .priors
            .lock()
            .expect("prior store poisoned")
            .get(&tuple)
            .map(|p| Arc::clone(&p.run));
        let run = RunResult::from_bytes_like(frame, prior.as_deref())?;
        if run.ranks.len() != spec.nodes {
            return Err(WireError::Foreign("RunResult.ranks"));
        }
        let run = Arc::new(run);
        if prior.is_none() {
            self.keep_prior(tuple, &run, false);
        }
        Ok(run)
    }

    /// Keep `run` as its tuple's prior, unless the tuple has one
    /// already that `run` does not outrank.
    fn keep_prior(&self, tuple: SkeletonKey, run: &Arc<RunResult>, executed: bool) {
        let mut priors = self.priors.lock().expect("prior store poisoned");
        if priors.get(&tuple).is_none_or(|p| executed && !p.executed) {
            priors.insert(tuple, Prior { run: Arc::clone(run), executed });
        }
    }

    /// `(skeletons held, their heap bytes)`, for the metrics gauges.
    fn skeleton_footprint(&self) -> (usize, usize) {
        let store = self.skeletons.lock().expect("skeleton store poisoned");
        (store.len(), store.values().map(|s| s.heap_bytes()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_kernels::{Benchmark, ProblemClass};

    fn engine() -> Engine {
        Engine::serial(Cluster::athlon_fast_ethernet()).with_jobs(4)
    }

    fn small_plan() -> RunPlan {
        let mut plan = RunPlan::gear_sweep(Benchmark::Ep, ProblemClass::Test, 1, 3);
        plan.extend(RunPlan::node_sweep(Benchmark::Ep, ProblemClass::Test, &[1, 2]));
        plan // EP n=1 g=1 appears twice: one in-plan duplicate
    }

    #[test]
    fn execute_accounts_every_spec() {
        let e = engine();
        let plan = small_plan();
        let runs = e.execute(&plan);
        assert_eq!(runs.len(), plan.len());
        let s = e.cache_stats();
        assert_eq!(s.lookups(), plan.len() as u64);
        assert_eq!(s.misses, 4, "4 distinct specs");
        assert_eq!(s.hits, 1, "the in-plan duplicate");
        // The duplicate shares the very same allocation.
        assert!(Arc::ptr_eq(&runs[0], &runs[3]));
    }

    #[test]
    fn replay_is_all_hits_and_identical() {
        let e = engine();
        let plan = small_plan();
        let first = e.execute(&plan);
        let again = e.execute(&plan);
        let s = e.cache_stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 1 + plan.len() as u64);
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "replay must reuse cached results");
        }
    }

    /// Lanes opened per `execute`, oldest first: the caller plus the
    /// helper threads it spawned (the `pool` span's `workers` argument).
    fn lanes_opened(e: &Engine) -> Vec<String> {
        let pools = e.metrics().spans().into_iter().filter(|s| s.name == "pool");
        pools.map(|s| s.args[0].1.clone()).collect()
    }

    #[test]
    fn helpers_open_only_for_misses_with_jobs_to_spare() {
        let plan = small_plan(); // 4 distinct keys
        let pooled = engine(); // jobs = 4
        pooled.execute(&plan);
        pooled.execute(&plan);
        assert_eq!(
            lanes_opened(&pooled),
            ["4", "1"],
            "cold plan fans out; the replay spawns nothing"
        );

        let single = engine().with_jobs(1);
        single.execute(&plan);
        assert_eq!(lanes_opened(&single), ["1"], "jobs = 1 never leaves the caller's thread");

        let one_key = engine();
        one_key.execute(&RunPlan { specs: plan.specs[..1].to_vec() });
        assert_eq!(lanes_opened(&one_key), ["1"], "nothing queued behind the only miss");
    }

    #[test]
    fn default_jobs_honors_env() {
        // Serialize against other tests reading the var is unnecessary:
        // this test only sets and unsets its own value.
        std::env::set_var("PSC_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::set_var("PSC_JOBS", "not-a-number");
        assert!(default_jobs() >= 1);
        std::env::remove_var("PSC_JOBS");
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn single_run_matches_plan_run_bitwise() {
        let e = engine();
        let spec = RunSpec::uniform(Benchmark::Mg, ProblemClass::Test, 2, 2);
        let direct = e.run(&spec);
        let planned = e.execute(&RunPlan { specs: vec![spec] });
        assert_eq!(direct.time_s.to_bits(), planned[0].time_s.to_bits());
        assert_eq!(direct.energy_j.to_bits(), planned[0].energy_j.to_bits());
    }

    #[test]
    fn cache_key_separates_every_axis() {
        let e = engine();
        let base = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 1);
        let k = |s: &RunSpec| e.cache_key(s);
        assert_ne!(k(&base), k(&RunSpec::uniform(Benchmark::Mg, ProblemClass::Test, 2, 1)));
        assert_ne!(k(&base), k(&RunSpec::uniform(Benchmark::Cg, ProblemClass::B, 2, 1)));
        assert_ne!(k(&base), k(&RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 1)));
        assert_ne!(k(&base), k(&RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 2)));
        // A different cluster changes the key even for the same spec.
        let mut sun = Cluster::athlon_fast_ethernet();
        sun.network.latency_s *= 2.0;
        let e2 = Engine::serial(sun);
        assert_ne!(k(&base), e2.cache_key(&base));
    }

    /// The streamed key is FNV-1a of the documented description, tails
    /// included, and an engine-default plan keys exactly like the same
    /// plan on the spec.
    #[test]
    fn cache_key_is_the_hash_of_its_documented_description() {
        use psc_faults::FaultPlan;
        use psc_policy::PolicySpec;
        let plan = FaultPlan::noise(9, 0.02);
        let policy = PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 };
        let e = engine();
        let c = e.cluster();
        let bare = RunSpec {
            gears: GearSelection::PerRank(vec![1, 3, 2, 6]),
            ..RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 1)
        };
        let described = |tails: &str| {
            let json = |v: &dyn serde::Serialize| serde::json::to_string(v);
            fnv1a64(
                format!(
                    "psc-run-cache-v6|node={}|net={}|meter={}\
                     |bench=CG|class=Test|nodes=4|gears=[1, 3, 2, 6]{tails}",
                    json(&c.node),
                    json(&c.network),
                    json(&c.wattmeter)
                )
                .as_bytes(),
            )
        };
        assert_eq!(e.cache_key(&bare), described(""));
        let faults = format!("|faults={}", plan.to_json());
        assert_eq!(e.cache_key(&bare.clone().with_faults(plan.clone())), described(&faults));
        assert_eq!(engine().with_faults(Some(plan.clone())).cache_key(&bare), described(&faults));
        let both = format!("{faults}|policy={}", policy.to_json());
        assert_eq!(e.cache_key(&bare.with_faults(plan).with_policy(policy)), described(&both));
    }

    #[test]
    fn streamed_gears_hash_like_their_debug_string() {
        let specs = [
            RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 1, 3),
            RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 8, 12),
            RunSpec {
                gears: GearSelection::PerRank(vec![10, 1, 6, 100]),
                ..RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 4, 1)
            },
        ];
        for spec in &specs {
            let mut streamed = KeyHasher(7);
            streamed.push_resolved_gears(spec);
            let debug = format!("{:?}", spec.resolved_gears());
            assert_eq!(streamed.0, fnv1a64_continue(7, debug.as_bytes()), "{debug}");
        }
    }

    /// Metrics are observation-only: identical results with metrics on
    /// or off, and the enabled engine's registry tells the true story
    /// of what executed.
    #[test]
    fn metrics_observe_without_affecting_results() {
        use crate::metrics::EngineMetrics;
        let plan = small_plan();
        let on = engine();
        let off = engine().with_metrics(EngineMetrics::disabled());
        let runs_on = on.execute(&plan);
        let runs_off = off.execute(&plan);
        for (a, b) in runs_on.iter().zip(&runs_off) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        }
        assert!(off.metrics().snapshot().samples.is_empty(), "disabled engine records nothing");
        assert!(off.metrics().spans().is_empty());

        let snap = on.metrics().snapshot();
        assert_eq!(snap.get("engine_plans_total", &[]).unwrap().scalar(), 1.0);
        assert_eq!(snap.get("engine_specs_total", &[]).unwrap().scalar(), plan.len() as f64);
        assert_eq!(
            snap.get("engine_runs_total", &[("outcome", "executed")]).unwrap().scalar(),
            4.0,
            "4 distinct specs executed"
        );
        assert_eq!(
            snap.get("engine_runs_total", &[("outcome", "dedup_join")]).unwrap().scalar(),
            1.0
        );
        assert_eq!(snap.family_total("engine_cache_lookups_total"), 4.0, "4 real lookups");
        // Per-run wall-time histograms carry bench/gear labels and saw
        // every executed run exactly once.
        assert_eq!(snap.family_total("engine_run_wall_seconds"), 4.0);
        // (Which tier ran EP n=1 g=1 depends on which lane got there
        // first, so the tier label is not pinned here.)
        assert!(snap
            .family("engine_run_wall_seconds")
            .iter()
            .any(|s| s.label("bench") == Some("EP") && s.label("gear") == Some("1")));
        // The pool accounting is coherent: busy time fits in capacity.
        let u = crate::metrics::PoolUtilization::from_snapshot(&snap);
        assert!(u.pool_wall_s > 0.0);
        assert!(u.busy_s <= u.slot_s + 1e-9);
        // Spans cover the pool and every executed run.
        let spans = on.metrics().spans();
        assert!(spans.iter().any(|s| s.name == "pool"));
        assert_eq!(spans.iter().filter(|s| s.name == "run").count(), 4);
    }

    #[test]
    fn fault_plans_get_their_own_keyspace() {
        use psc_faults::FaultPlan;
        let e = engine();
        let clean = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 1);
        let k_clean = e.cache_key(&clean);

        // A plan — even a quiet one — separates the key from fault-free.
        let quiet = clean.clone().with_faults(FaultPlan::quiet(1));
        assert_ne!(k_clean, e.cache_key(&quiet));

        // Seed and noise level each separate keys from one another.
        let n1 = clean.clone().with_faults(FaultPlan::noise(1, 0.02));
        let n2 = clean.clone().with_faults(FaultPlan::noise(2, 0.02));
        let n3 = clean.clone().with_faults(FaultPlan::noise(1, 0.05));
        assert_ne!(e.cache_key(&n1), e.cache_key(&n2));
        assert_ne!(e.cache_key(&n1), e.cache_key(&n3));
        assert_ne!(e.cache_key(&quiet), e.cache_key(&n1));
    }

    #[test]
    fn engine_default_plan_applies_only_to_bare_specs() {
        use psc_faults::FaultPlan;
        let clean = RunSpec::uniform(Benchmark::Ep, ProblemClass::Test, 1, 2);
        let e_clean = engine();
        let e_noisy = engine().with_faults(Some(FaultPlan::noise(9, 0.02)));

        // The engine default shifts a bare spec's key...
        assert_ne!(e_clean.cache_key(&clean), e_noisy.cache_key(&clean));
        // ...and matches the same plan attached at the spec level.
        let spec_noisy = clean.clone().with_faults(FaultPlan::noise(9, 0.02));
        assert_eq!(e_noisy.cache_key(&clean), e_clean.cache_key(&spec_noisy));
        // A spec-level plan wins over the engine default.
        let pinned = clean.clone().with_faults(FaultPlan::quiet(3));
        assert_eq!(e_noisy.cache_key(&pinned), e_clean.cache_key(&pinned));
    }

    #[test]
    fn policies_get_their_own_keyspace() {
        use psc_policy::{OracleStep, PolicySpec};
        let e = engine();
        let bare = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 1);
        let k_bare = e.cache_key(&bare);

        // A policy — even Static at the configured gear — separates the
        // key from policy-free.
        let s1 = bare.clone().with_policy(PolicySpec::Static { gear: 1 });
        assert_ne!(k_bare, e.cache_key(&s1));

        // Different policies, and different parameters of one policy,
        // separate keys from one another.
        let s3 = bare.clone().with_policy(PolicySpec::Static { gear: 3 });
        let ad = bare.clone().with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: 1.05 });
        let ad2 = bare.clone().with_policy(PolicySpec::PhaseAdaptive { slowdown_limit: 1.10 });
        let cap = bare.clone().with_policy(PolicySpec::PowerCap { budget_w: 500.0 });
        let or = bare
            .clone()
            .with_policy(PolicySpec::Oracle { schedule: vec![OracleStep { phase: 0, gear: 2 }] });
        let keys = [
            e.cache_key(&s1),
            e.cache_key(&s3),
            e.cache_key(&ad),
            e.cache_key(&ad2),
            e.cache_key(&cap),
            e.cache_key(&or),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }

        // Policy and faults compose in the key.
        use psc_faults::FaultPlan;
        let both = s3.clone().with_faults(FaultPlan::quiet(1));
        assert_ne!(e.cache_key(&both), e.cache_key(&s3));
        assert_ne!(e.cache_key(&both), e.cache_key(&bare.clone().with_faults(FaultPlan::quiet(1))));
    }

    #[test]
    fn static_policy_result_matches_policy_free_run() {
        use psc_policy::PolicySpec;
        let e = engine();
        let bare = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 4);
        let via_policy = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 1)
            .with_policy(PolicySpec::Static { gear: 4 });
        let a = e.run(&bare);
        let b = e.run(&via_policy);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
        assert_eq!(a.measured_energy_j.to_bits(), b.measured_energy_j.to_bits());
    }

    #[test]
    fn faulted_execution_is_deterministic_and_distinct_from_clean() {
        use psc_faults::FaultPlan;
        let e = engine();
        let clean = RunSpec::uniform(Benchmark::Cg, ProblemClass::Test, 2, 3);
        let noisy = clean.clone().with_faults(FaultPlan::noise(7, 0.05));
        let r_clean = e.run(&clean);
        let r_noisy = e.run(&noisy);
        assert_ne!(r_clean.time_s.to_bits(), r_noisy.time_s.to_bits());

        // A fresh engine reproduces the faulted run bit-for-bit.
        let again = engine().run(&noisy);
        assert_eq!(r_noisy.time_s.to_bits(), again.time_s.to_bits());
        assert_eq!(r_noisy.energy_j.to_bits(), again.energy_j.to_bits());
        assert_eq!(r_noisy.measured_energy_j.to_bits(), again.measured_energy_j.to_bits());
    }
}
