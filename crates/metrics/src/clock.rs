//! The workspace's one host clock.
//!
//! Simulated results must never depend on host time (`clippy.toml`'s
//! `disallowed-methods` bans the clock reads). Self-profiling and sweep
//! wall-clock accounting, by definition, measure host time — so this
//! module holds the workspace's only `Instant::now` calls, anchored to
//! a process-wide epoch so every span and every [`Stopwatch`] in a
//! process shares one timeline. Analyzer rule M001 guarantees nothing
//! read from this clock can flow back into a cache key or a simulated
//! result.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide timeline origin: the first time anything asks for a
/// timestamp. Using one shared anchor keeps every span's `t_start_us`
/// on a single comparable axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    #[allow(clippy::disallowed_methods)]
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process epoch.
pub fn now_us() -> f64 {
    #[allow(clippy::disallowed_methods)]
    let now = Instant::now();
    now.duration_since(epoch()).as_secs_f64() * 1e6
}

/// A started host-side stopwatch that remembers *when* it was started
/// on the process timeline, so a measurement doubles as a span.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started_us: f64,
}

impl Stopwatch {
    /// Start measuring.
    pub fn start() -> Self {
        Stopwatch { started_us: now_us() }
    }

    /// Microseconds since the process epoch at which this stopwatch
    /// started.
    pub fn started_us(&self) -> f64 {
        self.started_us
    }

    /// Host seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        (now_us() - self.started_us) / 1e6
    }

    /// Host microseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_us(&self) -> f64 {
        now_us() - self.started_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_monotone_on_the_shared_epoch() {
        let a = now_us();
        let b = now_us();
        assert!(a >= 0.0);
        assert!(b >= a, "the process timeline cannot run backwards");
    }

    #[test]
    fn stopwatch_measures_nonnegative_spans() {
        let sw = Stopwatch::start();
        assert!(sw.started_us() >= 0.0);
        assert!(sw.elapsed_s() >= 0.0);
        assert!(sw.elapsed_us() >= sw.elapsed_s()); // µs ≥ s for t ≥ 0
    }
}
