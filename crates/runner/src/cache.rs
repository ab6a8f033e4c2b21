//! The content-addressed run cache.
//!
//! Results are keyed by an FNV-1a hash of a canonical description of
//! everything that determines a run's outcome: the cluster's node spec,
//! network model and wattmeter (serialized with exact float
//! round-tripping), then the benchmark, problem class, node count,
//! resolved per-rank gears and any fault plan or policy. Two layers:
//!
//! * a **memory** layer (`Mutex<BTreeMap>` of `Arc<RunResult>` — ordered
//!   so no code path can ever observe hash-iteration order) shared by
//!   every lookup in the process, and
//! * an optional **disk** layer — one binary frame per key
//!   ([`RunResult::to_bytes`]: checksummed, floats by their bits),
//!   written with an atomic temp-file + rename — which lets separate
//!   processes (a CLI sweep and a later `paper` campaign, say) share
//!   results. Entries are `<shard>/<key>.run`, sharded into 256
//!   subdirectories by the key's top byte so concurrent writers (the
//!   job server's worker lanes) never contend on one directory. An
//!   entry that does not decode, or that the engine can prove is
//!   another tuple's result, is a counted miss, overwritten by the
//!   re-executed result.
//!
//! The cache is *memoization*, not verification: it assumes the kernel
//! implementations have not changed since a result was written. Wipe
//! the directory (or set `PSC_CACHE=0`) after editing kernels.

use crate::metrics::{CacheHooks, Lookup};
use psc_machine::wire::WireError;
use psc_mpi::RunResult;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag baked into every cache key; bump when the `RunResult`
/// schema, the key layout or the run semantics change so stale disk
/// entries miss.
/// v2: `RankTrace` gained fault-activation events.
/// v3: `Segment.watts` renamed to `power_w` (analyzer rule U001).
/// v4: entries moved into 256 key-prefix shard subdirectories.
/// v5: `RankTrace` gained the policy decision log; `|policy=` key tail.
/// v6: entries are binary frames at `<shard>/<key>.run` (no JSON reader
/// remains); the key hashes the cluster first and the spec last, so an
/// engine folds its cluster into the hash state once.
pub const CACHE_SCHEMA: &str = "psc-run-cache-v6";

/// Largest single `write` the disk layer issues. The kernel sizes the
/// page-cache folios backing a file by the size of the write that
/// creates them: a whole entry in one call is backed by megabyte folios
/// cut from its high-order free lists, and what those cost depends on
/// what happened to that memory since it was last freed — on a guest
/// with free-page reporting the host has dropped some of it, and the
/// figure campaign's 147 MiB (of v5 JSON) took 0.06 to 0.86 s to write
/// from one pass to the next. Writes of this size are backed by small folios that
/// recycle recently freed pages: 0.06 to 0.10 s on the same passes.
const WRITE_CHUNK: usize = 128 * 1024;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Extend an FNV-1a `state` (a value [`fnv1a64`] or this function
/// returned) by `bytes`: hashing a prefix and then its tail equals
/// hashing the concatenation.
pub fn fnv1a64_continue(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Cache traffic counters of one [`RunCache`] instance
/// ([`RunCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (memory or disk) or deduplicated
    /// within a plan.
    pub hits: u64,
    /// Lookups that had to execute a run.
    pub misses: u64,
    /// The subset of `hits` answered by reading a disk entry.
    pub disk_hits: u64,
    /// The subset of `hits` deduplicated inside a plan (the duplicate
    /// joined an occurrence that was already resolved or in flight).
    pub shared_hits: u64,
    /// The subset of `hits` that joined a run another caller was
    /// already executing (the engine's in-flight table): the joiner
    /// never reached `lookup`, it blocked on the owner's result.
    pub inflight_joins: u64,
    /// Damaged or foreign disk entries encountered (each read as a miss
    /// and was healed by the re-executed result's insert).
    pub disk_corrupt: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered without running, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A memoization table for [`RunResult`]s, optionally backed by disk.
#[derive(Debug)]
pub struct RunCache {
    mem: Mutex<BTreeMap<u64, Arc<RunResult>>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    shared_hits: AtomicU64,
    inflight_joins: AtomicU64,
    disk_corrupt: AtomicU64,
    /// Observation-only hooks attached by the engine (analyzer rule
    /// M001); never consulted for what to return.
    hooks: Mutex<Option<CacheHooks>>,
}

/// What a disk probe found, so corrupt entries are visible to the
/// stats instead of blending into "file absent".
enum DiskEntry {
    Absent,
    Corrupt,
    Ok(Arc<RunResult>),
}

impl RunCache {
    /// A memory-only cache (no cross-process sharing).
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(BTreeMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            inflight_joins: AtomicU64::new(0),
            disk_corrupt: AtomicU64::new(0),
            hooks: Mutex::new(None),
        }
    }

    /// A cache that also persists each entry as `<shard>/<key>.run`
    /// under `dir`. The directory is created on first write.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let mut c = RunCache::in_memory();
        c.disk = Some(dir.into());
        c
    }

    /// The cache described by the environment: `PSC_CACHE=0` (or `off`)
    /// disables the disk layer; `PSC_CACHE_DIR` overrides the location;
    /// otherwise `target/psc-run-cache`. These reads configure *where*
    /// results are stored, never *what* a run computes, so they cannot
    /// break the determinism invariant.
    pub fn from_env() -> Self {
        match std::env::var("PSC_CACHE") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => return RunCache::in_memory(),
            _ => {}
        }
        let dir = std::env::var("PSC_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/psc-run-cache"));
        RunCache::with_disk(dir)
    }

    /// Whether a disk layer is configured.
    pub fn is_disk_backed(&self) -> bool {
        self.disk.is_some()
    }

    /// The disk directory, if any.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Attach (or replace) the engine's observation hooks.
    pub(crate) fn attach_hooks(&self, hooks: CacheHooks) {
        *self.hooks.lock().unwrap() = Some(hooks);
    }

    fn with_hooks(&self, f: impl FnOnce(&CacheHooks)) {
        if let Some(hooks) = self.hooks.lock().unwrap().as_ref() {
            f(hooks);
        }
    }

    /// Counting lookup: memory first, then disk. A disk hit is promoted
    /// into the memory layer. An entry is decoded by
    /// [`RunResult::from_bytes`], with traces of its own: this lookup
    /// knows nothing of the spec it was keyed from, so it refuses only
    /// entries that do not decode. The engine's lookup also refuses an
    /// entry with the wrong rank count, or whose trace structure differs
    /// from a result of the same tuple it already holds, and shares that
    /// result's trace shapes (DESIGN.md §10, "Disk layout").
    pub fn lookup(&self, key: u64) -> Option<Arc<RunResult>> {
        self.lookup_with(key, |frame| RunResult::from_bytes(frame).map(Arc::new))
    }

    /// [`RunCache::lookup`], with `decode` reading a disk entry's frame;
    /// an entry it refuses is counted corrupt and read as a miss, and is
    /// overwritten by the re-executed result's insert. `decode` is not
    /// called on a memory hit.
    pub(crate) fn lookup_with(
        &self,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<Arc<RunResult>, WireError>,
    ) -> Option<Arc<RunResult>> {
        if let Some(run) = self.mem.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.with_hooks(|h| h.on_lookup(Lookup::MemHit));
            return Some(run);
        }
        match self.read_disk(key, decode) {
            DiskEntry::Ok(run) => {
                self.mem.lock().unwrap().insert(key, Arc::clone(&run));
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.with_hooks(|h| h.on_lookup(Lookup::DiskHit));
                return Some(run);
            }
            DiskEntry::Corrupt => {
                self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
                self.with_hooks(|h| h.on_corrupt());
            }
            DiskEntry::Absent => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.with_hooks(|h| h.on_lookup(Lookup::Miss));
        None
    }

    /// Store a result under `key` (memory, and disk when configured).
    /// Does not touch the traffic counters.
    pub fn insert(&self, key: u64, run: Arc<RunResult>) {
        self.write_disk(key, &run);
        self.mem.lock().unwrap().insert(key, run);
    }

    /// Record a hit that never reached `lookup` — a duplicate spec
    /// deduplicated inside one plan shares the first occurrence's run.
    pub(crate) fn note_shared_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.shared_hits.fetch_add(1, Ordering::Relaxed);
        self.with_hooks(|h| h.on_dedup_join());
    }

    /// Record a hit that joined an in-flight run: a second caller asked
    /// for an uncached key while the first was still simulating it, so
    /// the joiner blocked on the owner's result instead of executing.
    /// Counted as a hit (the caller never simulated), so over any mix
    /// of callers `misses == simulations` stays true.
    pub(crate) fn note_inflight_join(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.inflight_joins.fetch_add(1, Ordering::Relaxed);
        self.with_hooks(|h| h.on_inflight_join());
    }

    /// A snapshot of this instance's traffic counters (zeroed at
    /// construction and by [`RunCache::reset`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            inflight_joins: self.inflight_joins.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
        }
    }

    /// Zero this instance's traffic counters (the cached entries stay).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.shared_hits.store(0, Ordering::Relaxed);
        self.inflight_joins.store(0, Ordering::Relaxed);
        self.disk_corrupt.store(0, Ordering::Relaxed);
    }

    /// The shard subdirectory of a key: its top byte, as two hex
    /// digits. 256 shards spread concurrent writers (and directory
    /// scans) evenly, since FNV-1a output is uniform in the high bits.
    fn shard_dir(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{:02x}", key >> 56))
    }

    /// The entry path: `<dir>/<shard>/<key>.run`.
    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        Self::shard_dir(dir, key).join(format!("{key:016x}.run"))
    }

    fn read_disk(
        &self,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Result<Arc<RunResult>, WireError>,
    ) -> DiskEntry {
        let Some(dir) = self.disk.as_ref() else { return DiskEntry::Absent };
        let sw = self.hooks.lock().unwrap().as_ref().and_then(|h| h.stopwatch());
        let Ok(frame) = std::fs::read(Self::entry_path(dir, key)) else {
            return DiskEntry::Absent;
        };
        // A damaged or foreign entry is a miss; the fresh result will
        // overwrite it.
        let decoded = decode(&frame);
        self.with_hooks(|h| h.add_disk_read(sw));
        decoded.map_or(DiskEntry::Corrupt, DiskEntry::Ok)
    }

    /// Atomically land `frame` at the sharded entry path: a temp name
    /// no other writer can share (pid for other processes, a
    /// process-wide sequence number for other caches and threads in
    /// this one) inside the shard, then rename, so nobody ever observes
    /// a half-written entry. Best-effort: on any failure the temp file
    /// is removed and memory still serves.
    fn publish_entry(dir: &Path, key: u64, frame: &[u8]) {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let shard = Self::shard_dir(dir, key);
        if std::fs::create_dir_all(&shard).is_err() {
            return;
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = shard.join(format!(".tmp-{}-{seq}-{key:016x}", std::process::id()));
        let published = Self::write_bounded(&tmp, frame)
            .and_then(|()| std::fs::rename(&tmp, Self::entry_path(dir, key)));
        if published.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Create `path` holding `bytes`, at most [`WRITE_CHUNK`] per `write`
    /// call (a class-B entry averages 0.39 MB).
    fn write_bounded(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        bytes.chunks(WRITE_CHUNK).try_for_each(|chunk| file.write_all(chunk))
    }

    fn write_disk(&self, key: u64, run: &RunResult) {
        let Some(dir) = self.disk.as_ref() else { return };
        let sw = self.hooks.lock().unwrap().as_ref().and_then(|h| h.stopwatch());
        let frame = run.to_bytes();
        let sw = match self.hooks.lock().unwrap().as_ref() {
            Some(h) => h.add_serialize(sw),
            None => None,
        };
        Self::publish_entry(dir, key, &frame);
        self.with_hooks(|h| h.add_disk_write(sw));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_machine::WorkBlock;
    use psc_mpi::{Cluster, ClusterConfig};

    fn some_run() -> Arc<RunResult> {
        let c = Cluster::athlon_fast_ethernet();
        let (run, _) = c.run(&ClusterConfig::uniform(2, 3), |comm| {
            comm.compute(&WorkBlock::with_upm(1.0e8, 70.0));
            comm.barrier();
        });
        Arc::new(run)
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Temp files of the atomic publish left anywhere under `dir`.
    fn tmp_litter(dir: &Path) -> Vec<PathBuf> {
        let mut litter = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).unwrap().filter_map(|e| e.ok()) {
                if e.path().is_dir() {
                    stack.push(e.path());
                } else if e.file_name().to_string_lossy().starts_with(".tmp-") {
                    litter.push(e.path());
                }
            }
        }
        litter
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_prefix_then_tail_equals_the_concatenation() {
        let text = format!("{CACHE_SCHEMA}|node={{…}}|bench=CG|class=B|nodes=8|gears=[1, 2]");
        let bytes = text.as_bytes();
        for split in 0..=bytes.len() {
            let (prefix, tail) = bytes.split_at(split);
            assert_eq!(fnv1a64_continue(fnv1a64(prefix), tail), fnv1a64(bytes), "split {split}");
        }
    }

    #[test]
    fn memory_cache_counts_hits_and_misses() {
        let cache = RunCache::in_memory();
        assert!(cache.lookup(42).is_none());
        cache.insert(42, some_run());
        assert!(cache.lookup(42).is_some());
        assert!(cache.lookup(7).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 2, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disk_cache_round_trips_bitwise_across_instances() {
        let dir = scratch("roundtrip");
        let run = some_run();
        let writer = RunCache::with_disk(&dir);
        writer.insert(99, Arc::clone(&run));

        // A fresh instance (fresh memory layer) must hit via disk.
        let reader = RunCache::with_disk(&dir);
        let got = reader.lookup(99).expect("disk entry readable");
        assert_eq!(got.time_s.to_bits(), run.time_s.to_bits());
        assert_eq!(got.energy_j.to_bits(), run.energy_j.to_bits());
        assert_eq!(got.measured_energy_j.to_bits(), run.measured_energy_j.to_bits());
        assert_eq!(*got, *run, "full RunResult must round-trip through the disk entry");
        let s = reader.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 0, 1));

        // Promotion: second lookup is a memory hit, not another read.
        assert!(reader.lookup(99).is_some());
        assert_eq!(reader.stats().disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_land_in_key_prefix_shards() {
        let dir = scratch("shard");
        let cache = RunCache::with_disk(&dir);
        let run = some_run();
        // Keys chosen so the top byte (= shard) differs.
        for key in [0x00aa_0000_0000_0001u64, 0xff00_0000_0000_0002, 0x4242_0000_0000_0003] {
            cache.insert(key, Arc::clone(&run));
            let path = dir.join(format!("{:02x}", key >> 56)).join(format!("{key:016x}.run"));
            assert!(path.is_file(), "entry must land in its shard: {path:?}");
        }
        // No entry file sits directly in the top directory.
        let flat: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .collect();
        assert!(flat.is_empty(), "top directory holds shards only: {flat:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn instance_reset_zeroes_counters_but_keeps_entries() {
        let cache = RunCache::in_memory();
        cache.insert(8, some_run());
        assert!(cache.lookup(8).is_some());
        assert!(cache.lookup(9).is_none());
        assert_ne!(cache.stats(), CacheStats::default());

        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default(), "reset zeroes every counter");
        assert!(cache.lookup(8).is_some(), "reset drops stats, not entries");
        assert_eq!(cache.stats().hits, 1, "counting restarts after reset");
    }

    /// Every flavor of on-disk damage to a real entry — cut off at any
    /// offset, any bit of the first 64 bytes flipped, bytes appended, a
    /// v5 JSON document or trash at the v6 path — is a *counted* miss,
    /// never a panic or a wrong answer, and the next insert atomically
    /// replaces it with a readable entry.
    #[test]
    fn damaged_disk_entries_are_counted_misses_and_heal() {
        let dir = scratch("damage");
        let (key, run) = (77u64, some_run());
        RunCache::with_disk(&dir).insert(key, Arc::clone(&run));
        let path = RunCache::entry_path(&dir, key);
        let valid = std::fs::read(&path).unwrap();
        assert!(valid.len() > 64 + 8);

        let mut damages: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        damages.extend((0..64 * 8).map(|bit| {
            let mut flipped = valid.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        }));
        damages.push([&valid[..], b"\0"].concat());
        damages.push([&valid[..], &valid[..]].concat());
        damages.push(serde::json::to_string(&*run).into_bytes());
        damages.push(b"\0\x01\x02binary trash".to_vec());

        for (i, damage) in damages.iter().enumerate() {
            std::fs::write(&path, damage).unwrap();
            let cache = RunCache::with_disk(&dir);
            assert!(cache.lookup(key).is_none(), "damage {i} must miss");
            let s = cache.stats();
            assert_eq!((s.misses, s.disk_corrupt), (1, 1), "damage {i} must be visible in stats");
            cache.insert(key, Arc::clone(&run)); // the re-simulated result
            let healed = RunCache::with_disk(&dir).lookup(key).expect("healed entry readable");
            assert_eq!(*healed, *run, "damage {i} healed");
        }
        assert!(tmp_litter(&dir).is_empty(), "temp files must not survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two caches on one directory in one process (serve plus a CLI
    /// engine, or any two tests) inserting the same key at once: each
    /// writes its own temp file, so whichever rename lands last, the
    /// entry is one writer's whole frame. (The two write long frames
    /// of different lengths here — real writers of one key write the
    /// same bytes — so that a shared temp file shows as a mixture.)
    #[test]
    fn racing_caches_on_one_directory_publish_whole_entries() {
        let dir = scratch("race");
        let c = Cluster::athlon_fast_ethernet();
        let runs = [5000, 6000].map(|barriers| {
            let program = |comm: &mut psc_mpi::Comm| (0..barriers).for_each(|_| comm.barrier());
            Arc::new(c.run(&ClusterConfig::uniform(2, 1), program).0)
        });
        assert!(runs[0].to_bytes().len() > 2 * WRITE_CHUNK, "each frame takes several writes");
        let caches = [RunCache::with_disk(&dir), RunCache::with_disk(&dir)];
        let barrier = std::sync::Barrier::new(caches.len());
        const ROUNDS: u64 = 100;
        std::thread::scope(|scope| {
            for (cache, run) in caches.iter().zip(&runs) {
                let barrier = &barrier;
                scope.spawn(move || {
                    for key in 0..ROUNDS {
                        barrier.wait();
                        cache.insert(key, Arc::clone(run));
                    }
                });
            }
        });
        let reader = RunCache::with_disk(&dir);
        for key in 0..ROUNDS {
            let got = reader.lookup(key).expect("entry decodes");
            assert!(*got == *runs[0] || *got == *runs[1], "key {key} is neither writer's result");
        }
        assert_eq!(reader.stats().disk_corrupt, 0);
        assert!(tmp_litter(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A publish that fails after its temp file exists (here: a
    /// directory squats on the entry path, so the rename fails; a full
    /// disk fails the write before it the same way) removes the temp
    /// file. Mode bits cannot stage this: root ignores a read-only
    /// shard, and for anyone else the create fails before a temp exists.
    #[test]
    fn failed_publish_leaves_no_temp_file() {
        let dir = scratch("unpublishable");
        let key = 5u64;
        std::fs::create_dir_all(RunCache::entry_path(&dir, key).join("squatter")).unwrap();
        let cache = RunCache::with_disk(&dir);
        cache.insert(key, some_run());
        assert!(tmp_litter(&dir).is_empty(), "a failed publish must clean up after itself");
        assert!(cache.lookup(key).is_some(), "memory still serves");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_honors_cache_toggle() {
        // Only this test touches these variables.
        std::env::set_var("PSC_CACHE", "0");
        assert!(!RunCache::from_env().is_disk_backed());
        std::env::remove_var("PSC_CACHE");
        std::env::set_var("PSC_CACHE_DIR", "/tmp/psc-some-cache");
        let c = RunCache::from_env();
        assert_eq!(c.disk_dir(), Some(Path::new("/tmp/psc-some-cache")));
        std::env::remove_var("PSC_CACHE_DIR");
        assert!(RunCache::from_env().is_disk_backed());
    }
}
