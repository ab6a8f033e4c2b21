//! Host-side wall-clock measurement — the **single allowlisted
//! host-timing location** in the workspace.
//!
//! Simulated results must never depend on host time (`clippy.toml`'s
//! `disallowed-methods` bans the clock reads; analyzer rule R001 keeps
//! them unreachable from a simulation root); the only
//! legitimate consumer of the host clock is sweep accounting — the
//! `wall_s` a figure binary reports for how long *the host* took to
//! drive a campaign. Every binary used to open with its own copy-pasted
//! `let started = std::time::Instant::now();`; they now start a
//! [`HostTimer`] here instead, so the `#[allow]` below is the one place
//! a wall-clock read can exist.

use std::time::Instant;

/// A started host-side stopwatch. Measures how long the *host* spends
/// driving a sweep; nothing simulated may read it.
#[derive(Debug, Clone, Copy)]
pub struct HostTimer {
    started: Instant,
}

impl HostTimer {
    /// Start the stopwatch. The one sanctioned `Instant::now` call.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        HostTimer { started: Instant::now() }
    }

    /// Host seconds elapsed since [`HostTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_advances_monotonically() {
        let t = HostTimer::start();
        let a = t.elapsed_s();
        let b = t.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a, "elapsed host time cannot run backwards");
    }
}
