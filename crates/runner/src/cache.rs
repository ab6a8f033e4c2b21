//! The content-addressed run cache.
//!
//! Results are keyed by an FNV-1a hash of a canonical description of
//! everything that determines a run's outcome: the benchmark, problem
//! class, node count, resolved per-rank gears, and the cluster's node
//! spec, network model, and wattmeter (all serialized with exact
//! float round-tripping). Two layers:
//!
//! * a **memory** layer (`Mutex<BTreeMap>` of `Arc<RunResult>` — ordered
//!   so no code path can ever observe hash-iteration order) shared by
//!   every lookup in the process, and
//! * an optional **disk** layer (one JSON file per key, written with an
//!   atomic temp-file + rename), which lets separate processes — the
//!   figure binaries, say — share results. Entries are sharded into 256
//!   subdirectories by the key's top byte so concurrent writers (the
//!   job server's worker lanes) never contend on one directory; entries
//!   found at the pre-shard flat path are migrated on first read.
//!
//! The cache is *memoization*, not verification: it assumes the kernel
//! implementations have not changed since a result was written. Wipe
//! the directory (or set `PSC_CACHE=0`) after editing kernels.

use crate::metrics::CacheHooks;
use psc_mpi::RunResult;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version tag baked into every cache key; bump when the `RunResult`
/// schema or the run semantics change so stale disk entries miss.
/// v2: `RankTrace` gained fault-activation events (fault-injection
/// layer), so v1 entries no longer deserialize.
/// v3: `Segment.watts` renamed to `power_w` (unit-suffix discipline,
/// analyzer rule U001), so v2 power traces no longer deserialize.
/// v4: disk entries live in 256 key-prefix shard subdirectories so
/// concurrent writers (the job server's lanes) stop contending on one
/// directory. The `RunResult` bytes are unchanged; a lookup that misses
/// its shard falls back to the legacy flat `<dir>/<key>.json` path and
/// migrates a parseable entry into its shard atomically, so any
/// pre-shard directory (same key space) heals in place instead of being
/// wiped.
/// v5: `RankTrace` gained the policy decision log (online DVFS policy
/// layer), so v4 entries no longer deserialize; `RunSpec` gained the
/// `policy` field, appended to the key as `|policy=<json>` when set
/// (policy-free keys keep the plain shape, mirroring `|faults=`).
pub const CACHE_SCHEMA: &str = "psc-run-cache-v5";

/// Largest single `write` the disk layer issues. The kernel sizes the
/// page-cache folios backing a file by the size of the write that
/// creates them: a whole entry in one call is backed by megabyte folios
/// cut from its high-order free lists, and what those cost depends on
/// what happened to that memory since it was last freed — on a guest
/// with free-page reporting the host has dropped some of it, and the
/// figure campaign's 147 MiB took 0.06 to 0.86 s to write from one pass
/// to the next. Writes of this size are backed by small folios that
/// recycle recently freed pages: 0.06 to 0.10 s on the same passes.
const WRITE_CHUNK: usize = 128 * 1024;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    /// Damaged disk entries encountered (each read as a miss and was
    /// healed by the re-executed result's insert).
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
    Ok(RunResult),
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

    /// A cache that also persists each entry as `<key>.json` in `dir`.
    /// The directory is created on first write.
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
        // psc-analyze: allow(D003) cache placement, not run semantics
        match std::env::var("PSC_CACHE") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => return RunCache::in_memory(),
            _ => {}
        }
        // psc-analyze: allow(D003) cache placement, not run semantics
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
    /// into the memory layer.
    pub fn lookup(&self, key: u64) -> Option<Arc<RunResult>> {
        if let Some(run) = self.mem.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.with_hooks(|h| h.on_lookup("mem_hit"));
            return Some(run);
        }
        match self.read_disk(key) {
            DiskEntry::Ok(run) => {
                let run = Arc::new(run);
                self.mem.lock().unwrap().insert(key, Arc::clone(&run));
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.with_hooks(|h| h.on_lookup("disk_hit"));
                return Some(run);
            }
            DiskEntry::Corrupt => {
                self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
                self.with_hooks(|h| h.on_corrupt());
            }
            DiskEntry::Absent => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.with_hooks(|h| h.on_lookup("miss"));
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

    /// The v4 entry path: `<dir>/<shard>/<key>.json`.
    fn entry_path(dir: &Path, key: u64) -> PathBuf {
        Self::shard_dir(dir, key).join(format!("{key:016x}.json"))
    }

    /// The pre-v4 flat path: `<dir>/<key>.json`. Read-only fallback;
    /// nothing writes here anymore.
    fn legacy_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.json"))
    }

    fn read_disk(&self, key: u64) -> DiskEntry {
        let Some(dir) = self.disk.as_ref() else { return DiskEntry::Absent };
        let sw = self.hooks.lock().unwrap().as_ref().and_then(|h| h.stopwatch());
        let (text, legacy) = match std::fs::read_to_string(Self::entry_path(dir, key)) {
            Ok(text) => (text, false),
            // Shard miss: fall back to the unsharded (pre-v4) location.
            Err(_) => match std::fs::read_to_string(Self::legacy_path(dir, key)) {
                Ok(text) => (text, true),
                Err(_) => return DiskEntry::Absent,
            },
        };
        // A corrupt or schema-stale entry is a miss; the fresh result
        // will overwrite it.
        let parsed = serde::json::from_str::<RunResult>(&text);
        self.with_hooks(|h| h.add_disk_read(sw));
        match parsed {
            Ok(run) => {
                if legacy {
                    // Migrate: publish into the shard atomically, then
                    // retire the flat entry. Crash-safe at every step —
                    // until the rename lands the flat entry still
                    // serves, and a re-read after the remove hits the
                    // shard.
                    self.publish_entry(dir, key, &text);
                    let _ = std::fs::remove_file(Self::legacy_path(dir, key));
                }
                DiskEntry::Ok(run)
            }
            Err(_) => {
                if legacy {
                    // A damaged flat entry can never heal in place (the
                    // overwrite goes to the shard); retire it so it
                    // stops shadowing nothing.
                    let _ = std::fs::remove_file(Self::legacy_path(dir, key));
                }
                DiskEntry::Corrupt
            }
        }
    }

    /// Atomically land `text` at the sharded entry path: unique temp
    /// name (pid + key) inside the shard, then rename, so concurrent
    /// processes never observe a half-written entry.
    fn publish_entry(&self, dir: &Path, key: u64, text: &str) {
        let shard = Self::shard_dir(dir, key);
        if std::fs::create_dir_all(&shard).is_err() {
            return; // Disk layer is best-effort; memory still serves.
        }
        let tmp = shard.join(format!(".tmp-{}-{key:016x}", std::process::id()));
        if Self::write_bounded(&tmp, text.as_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, Self::entry_path(dir, key));
        }
    }

    /// Create `path` holding `bytes`, at most [`WRITE_CHUNK`] per `write`
    /// call (a class-B entry averages 1.1 MB).
    fn write_bounded(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        bytes.chunks(WRITE_CHUNK).try_for_each(|chunk| file.write_all(chunk))
    }

    fn write_disk(&self, key: u64, run: &RunResult) {
        let Some(dir) = self.disk.as_ref() else { return };
        let sw = self.hooks.lock().unwrap().as_ref().and_then(|h| h.stopwatch());
        let text = serde::json::to_string(run);
        let sw = match self.hooks.lock().unwrap().as_ref() {
            Some(h) => h.add_serialize(sw),
            None => None,
        };
        self.publish_entry(dir, key, &text);
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

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
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
        let dir = std::env::temp_dir().join(format!("psc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let run = some_run();
        let writer = RunCache::with_disk(&dir);
        writer.insert(99, Arc::clone(&run));

        // A fresh instance (fresh memory layer) must hit via disk.
        let reader = RunCache::with_disk(&dir);
        let got = reader.lookup(99).expect("disk entry readable");
        assert_eq!(got.time_s.to_bits(), run.time_s.to_bits());
        assert_eq!(got.energy_j.to_bits(), run.energy_j.to_bits());
        assert_eq!(got.measured_energy_j.to_bits(), run.measured_energy_j.to_bits());
        assert_eq!(*got, *run, "full RunResult must round-trip through JSON");
        let s = reader.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 0, 1));

        // Promotion: second lookup is a memory hit, not another read.
        assert!(reader.lookup(99).is_some());
        assert_eq!(reader.stats().disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("psc-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::create_dir_all(RunCache::shard_dir(&dir, 5)).unwrap();
        std::fs::write(RunCache::entry_path(&dir, 5), "not json").unwrap();

        let cache = RunCache::with_disk(&dir);
        assert!(cache.lookup(5).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().disk_corrupt, 1, "damage must be visible in stats");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_land_in_key_prefix_shards() {
        let dir = std::env::temp_dir().join(format!("psc-cache-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::with_disk(&dir);
        let run = some_run();
        // Keys chosen so the top byte (= shard) differs.
        for key in [0x00aa_0000_0000_0001u64, 0xff00_0000_0000_0002, 0x4242_0000_0000_0003] {
            cache.insert(key, Arc::clone(&run));
            let path = dir.join(format!("{:02x}", key >> 56)).join(format!("{key:016x}.json"));
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

    /// A warm pre-v4 directory (flat `<key>.json` entries) keeps
    /// serving: the fallback read hits, and the entry is migrated into
    /// its shard so the flat file disappears.
    #[test]
    fn legacy_flat_entries_migrate_into_shards_on_read() {
        let dir = std::env::temp_dir().join(format!("psc-cache-migrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run = some_run();
        let key = 0xabcd_0000_0000_0007u64;
        let flat = dir.join(format!("{key:016x}.json"));
        std::fs::write(&flat, serde::json::to_string(&*run)).unwrap();

        let cache = RunCache::with_disk(&dir);
        let got = cache.lookup(key).expect("flat entry readable via fallback");
        assert_eq!(*got, *run);
        assert_eq!(cache.stats().disk_hits, 1, "fallback read is a disk hit");
        assert!(!flat.exists(), "flat entry retired after migration");
        let sharded = dir.join(format!("{:02x}", key >> 56)).join(format!("{key:016x}.json"));
        assert!(sharded.is_file(), "entry now lives in its shard");

        // A fresh instance (fresh memory layer) hits the shard directly.
        let reader = RunCache::with_disk(&dir);
        assert!(reader.lookup(key).is_some());
        assert_eq!(reader.stats().disk_hits, 1);
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

    /// Every flavor of on-disk damage — truncated JSON, binary garbage,
    /// an empty file, a wrong-but-valid JSON document, a stale entry
    /// missing newer fields — must read as a miss, never a panic.
    #[test]
    fn damaged_disk_entries_never_panic() {
        let dir = std::env::temp_dir().join(format!("psc-cache-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let run = some_run();
        let valid = serde::json::to_string(&*run);
        let damages: Vec<(u64, String)> = vec![
            (1, valid[..valid.len() / 2].to_string()), // truncated mid-document
            (2, "\u{0}\u{1}\u{2}binary trash".to_string()),
            (3, String::new()),                        // empty file
            (4, "{\"wrong\": \"shape\"}".to_string()), // valid JSON, wrong schema
            (5, "[1, 2, 3]".to_string()),              // valid JSON, wrong type
        ];
        for (key, text) in &damages {
            std::fs::write(dir.join(format!("{key:016x}.json")), text).unwrap();
        }

        let cache = RunCache::with_disk(&dir);
        for (key, _) in &damages {
            assert!(cache.lookup(*key).is_none(), "damaged entry {key} must miss");
        }
        assert_eq!(cache.stats().misses, damages.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After a corrupt entry misses, re-simulating and inserting must
    /// atomically overwrite it with a readable entry (no temp litter).
    /// The damage sits at the *legacy flat* path here, so this also
    /// pins down that a corrupt pre-shard entry heals into the shard
    /// and the flat file is retired.
    #[test]
    fn corrupt_entry_is_overwritten_atomically_after_miss() {
        let dir = std::env::temp_dir().join(format!("psc-cache-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = 77u64;
        let flat = dir.join(format!("{key:016x}.json"));
        std::fs::write(&flat, "{ truncated garba").unwrap();

        let cache = RunCache::with_disk(&dir);
        assert!(cache.lookup(key).is_none(), "corrupt entry is a miss");
        assert!(!flat.exists(), "corrupt flat entry is retired, not left to shadow");
        let run = some_run();
        cache.insert(key, Arc::clone(&run)); // the re-simulated result

        // A fresh instance reads the healed entry from disk.
        let reader = RunCache::with_disk(&dir);
        let got = reader.lookup(key).expect("healed entry readable");
        assert_eq!(*got, *run);
        // No temp files left behind by the atomic publish — in the top
        // directory or inside any shard.
        let mut leftovers = Vec::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).unwrap().filter_map(|e| e.ok()) {
                if e.path().is_dir() {
                    stack.push(e.path());
                } else if e.file_name().to_string_lossy().starts_with(".tmp-") {
                    leftovers.push(e.path());
                }
            }
        }
        assert!(leftovers.is_empty(), "temp files must not survive: {leftovers:?}");
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
