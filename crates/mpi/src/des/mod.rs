//! The discrete-event scheduler behind `RuntimeBackend::Des`.
//!
//! One OS thread, `n` rank coroutines ([`coro`]), one shared
//! [`Switchboard`]. A rank runs until its program blocks in a receive
//! whose message has not been delivered yet; the miss parks the rank in
//! the switchboard and it suspends. The matching send (executed by some
//! other rank) un-parks it and queues it to run. The scheduler resumes
//! ranks in that wake order — the order the re-timing cursors and the
//! threaded baton use too — so the dispatch sequence is a pure function
//! of the program, never of the host.
//!
//! **Virtual-time boundary.** Nothing in this module reads host time,
//! spawns OS threads, or touches channels — analyzer rule T001 bans
//! `thread` / `Instant` / `SystemTime` / `crossbeam` tokens under
//! `crates/mpi/src/des/`, so the invariant is machine-checked. The only
//! clocks here are the `f64` rank clocks threaded through `Comm`.
//!
//! **Determinism / backend identity.** The dispatch *order* never
//! reaches a result: per-pair message FIFO and `(src, tag)`-addressed
//! receives (no wildcards) mean every rank consumes exactly the same
//! message values at the same virtual times whatever the interleaving —
//! which is why this backend is byte-identical to the threaded one (see
//! `tests/backend_identity.rs`).

#[allow(unsafe_code)]
pub(crate) mod coro;

use crate::router::{Endpoint, Envelope, Switchboard};
use std::cell::RefCell;
use std::rc::Rc;

/// The DES receive: take the first matching held message, suspending
/// this rank's coroutine until the delivery that un-parks it. No
/// borrow of the switchboard is held across the suspension: the
/// scheduler and other ranks run before it returns.
pub(crate) fn recv_matching(
    ep: &Endpoint,
    yielder: &coro::Yielder,
    src: usize,
    tag: u64,
) -> Envelope {
    loop {
        if let Some(env) = ep.take(src, tag) {
            return env;
        }
        yielder.suspend();
    }
}

/// Host-side statistics from one scheduler run. Travels *beside*
/// results, never inside them (cache byte-identity).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DriveStats {
    /// Coroutine dispatches performed.
    pub dispatches: u64,
    /// Peak coroutine stack usage across all ranks, in bytes (see
    /// `Coroutine::stack_high_water` for what each build samples).
    pub stack_high_water_bytes: u64,
}

/// The scheduler main loop: resume ranks in wake order until all
/// coroutines finish. Returns the dispatch count and the stack
/// high-water mark.
///
/// # Panics
///
/// Panics with a per-rank diagnostic if the queue drains while ranks
/// are still parked (a deadlocked program), and propagates — with its
/// original payload — any panic raised inside a rank.
pub(crate) fn drive(
    board: &Rc<RefCell<Switchboard>>,
    coros: Vec<coro::Coroutine<'_>>,
) -> DriveStats {
    let mut live = coros.len();
    let mut dispatches = 0;
    while live > 0 {
        let next = board.borrow_mut().next_ready();
        // Unwinding drops `coros`, which cancels and cleanly unwinds
        // every parked coroutine stack.
        let rank = next.unwrap_or_else(|message| panic!("{message}"));
        dispatches += 1;
        coros[rank].resume();
        if let Some(payload) = coros[rank].take_panic() {
            // Dropping the pool first cancels every parked coroutine so
            // their stacks unwind before the panic leaves this frame.
            drop(coros);
            std::panic::resume_unwind(payload);
        }
        if coros[rank].is_finished() {
            live -= 1;
        }
    }
    let stack_high_water_bytes =
        coros.iter().map(|c| c.stack_high_water() as u64).max().unwrap_or(0);
    DriveStats { dispatches, stack_high_water_bytes }
}
