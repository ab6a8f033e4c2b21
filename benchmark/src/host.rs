//! Host-side measurement primitives: wall clock, process CPU time, peak
//! resident memory, and the host record written beside every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The benchmark's one wall-clock read (the root `clippy.toml` bans
/// `Instant::now` so that nothing *simulated* can depend on host time;
/// timing the simulator from outside is exactly what this package is for).
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process (all threads) so
/// far, at nanosecond resolution. `/proc/self/stat` only counts 10 ms
/// ticks, which would make short repeats read identically.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec`-layout struct (two
    // 64-bit fields on every 64-bit Linux target) that outlives the call,
    // and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time of consecutive parts of a pass: every [`lap`]
/// returns what elapsed since the previous one, so the laps of a pass
/// add up to the pass.
///
/// [`lap`]: LapClock::lap
#[derive(Debug)]
pub struct LapClock {
    wall: Instant,
    cpu_s: f64,
}

impl LapClock {
    pub fn start() -> Self {
        LapClock { wall: now(), cpu_s: cpu_s() }
    }

    /// `(wall, cpu)` seconds since the last lap (or the start).
    pub fn lap(&mut self) -> (f64, f64) {
        let (wall, cpu) = (now(), cpu_s());
        let lap = ((wall - self.wall).as_secs_f64(), cpu - self.cpu_s);
        (self.wall, self.cpu_s) = (wall, cpu);
        lap
    }
}

/// The process allocator, counting live bytes. `VmHWM` depends on what
/// glibc kept of earlier passes and on whether two server workers hold
/// their coroutine stacks at the same instant, and differs by a third
/// and more between identical runs. What a pass *holds* when its last
/// answer is out — cache, results, server state — is exact, so that is
/// the bounded memory figure and the kernel's peak is printed beside it.
pub struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees are this allocator's; the
// counters are statistics (Relaxed) and never influence what is returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

/// Live heap bytes right now, MiB.
pub fn live_heap_mib() -> f64 {
    LIVE_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on. Written into every result file: a
/// ledger entry without its host is not comparable to anything.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl HostRecord {
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostRecord {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    pub fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("nproc".into(), serde::Value::U64(self.nproc as u64)),
            ("cpu_model".into(), serde::Value::Str(self.cpu_model.clone())),
            ("rustc".into(), serde::Value::Str(self.rustc.clone())),
            ("commit".into(), serde::Value::Str(self.commit.clone())),
        ])
    }
}

/// Cores this process may use; client threads and serve workers are
/// capped by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First stdout line of a short-lived helper command, or `"unknown"`
/// (the driver's checkout is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(crate::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}
