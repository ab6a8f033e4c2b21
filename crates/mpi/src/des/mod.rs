//! The discrete-event scheduler behind `RuntimeBackend::Des`.
//!
//! One OS thread, `n` rank coroutines ([`coro`]), one virtual-time
//! event queue. A rank runs until its program blocks in a receive whose
//! message has not been delivered yet; the miss parks the rank in the
//! shared [`Mailboxes`] and it suspends. The matching send (executed by
//! some other rank) finds the parked receiver and schedules a wakeup at
//! the message's virtual arrival time. The scheduler pops wakeups in
//! `(virtual time, rank)` order — rank id breaks ties — so the dispatch
//! sequence is a pure function of the program, never of the host.
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
//! `tests/backend_identity.rs`) and why the threaded backend was
//! deterministic in the first place.

pub(crate) mod coro;

use crate::router::{Envelope, Mailboxes};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A scheduled resumption: `rank` becomes runnable at virtual `t_s`.
#[derive(Debug, PartialEq)]
struct Wakeup {
    t_s: f64,
    rank: usize,
}

impl Eq for Wakeup {}

impl Ord for Wakeup {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Virtual time first; rank id breaks ties deterministically.
        // `total_cmp` keeps the comparison a total order (times are
        // finite here, but the heap must never see a panic from NaN).
        self.t_s.total_cmp(&other.t_s).then_with(|| self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for Wakeup {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared simulation state: mailboxes, parked receivers, the run queue.
pub(crate) struct DesState {
    /// Per-rank reorder buffers and parked receives, shared in kind
    /// with the re-timing cursors (`crate::retime`).
    mail: Mailboxes,
    /// Min-heap of pending wakeups, ordered by `(t_s, rank)`.
    ready: BinaryHeap<Reverse<Wakeup>>,
    /// Coroutine dispatches performed (host-side statistic only; must
    /// never reach a `RunResult`).
    dispatches: u64,
}

impl DesState {
    pub(crate) fn new(n: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(DesState {
            mail: Mailboxes::new(n),
            ready: BinaryHeap::with_capacity(n),
            dispatches: 0,
        }))
    }
}

/// A rank's handle on the shared state: the DES counterpart of the
/// threaded backend's `(router, inbox, buffer)` triple.
pub(crate) struct DesEndpoint {
    rank: usize,
    state: Rc<RefCell<DesState>>,
    yielder: coro::Yielder,
}

impl DesEndpoint {
    pub(crate) fn new(rank: usize, state: Rc<RefCell<DesState>>, yielder: coro::Yielder) -> Self {
        DesEndpoint { rank, state, yielder }
    }

    /// Deliver an envelope into `dst`'s mailbox; if `dst` is parked on
    /// exactly this `(src, tag)`, schedule its wakeup at the arrival
    /// time. Never blocks or suspends — sends are asynchronous.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        let mut st = self.state.borrow_mut();
        let t_s = env.arrival_s;
        if st.mail.deliver(dst, env) {
            st.ready.push(Reverse(Wakeup { t_s, rank: dst }));
        }
    }

    /// Blocking receive: take the first matching held message, parking
    /// this rank's coroutine until one exists.
    pub(crate) fn recv_matching(&self, src: usize, tag: u64) -> Envelope {
        loop {
            if let Some(env) = self.state.borrow_mut().mail.take(self.rank, src, tag) {
                return env;
            }
            // Parked by the miss. No RefCell borrow may be held across
            // this suspension: the scheduler and other ranks run before
            // it returns.
            self.yielder.suspend();
        }
    }

    /// Messages currently held for this rank (finalize sanity check).
    pub(crate) fn held(&self) -> usize {
        self.state.borrow().mail.held(self.rank)
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

/// The scheduler main loop: seed every rank at `t = 0`, then dispatch
/// wakeups in `(t_s, rank)` order until all coroutines finish. Returns
/// the dispatch count and the stack high-water mark.
///
/// # Panics
///
/// Panics with a per-rank diagnostic if the queue drains while ranks
/// are still parked (a deadlocked program), and propagates — with its
/// original payload — any panic raised inside a rank.
pub(crate) fn drive(state: &Rc<RefCell<DesState>>, coros: Vec<coro::Coroutine<'_>>) -> DriveStats {
    let n = coros.len();
    {
        let mut st = state.borrow_mut();
        for rank in 0..n {
            st.ready.push(Reverse(Wakeup { t_s: 0.0, rank }));
        }
    }
    let mut live = n;
    while live > 0 {
        let popped = state.borrow_mut().ready.pop();
        let Some(Reverse(next)) = popped else {
            let message = state.borrow().mail.deadlock_message();
            // Unwinding drops `coros`, which cancels and cleanly unwinds
            // every parked coroutine stack.
            panic!("{message}");
        };
        if coros[next.rank].is_finished() {
            continue;
        }
        state.borrow_mut().dispatches += 1;
        coros[next.rank].resume();
        if let Some(payload) = coros[next.rank].take_panic() {
            // Dropping the pool first cancels every parked coroutine so
            // their stacks unwind before the panic leaves this frame.
            drop(coros);
            std::panic::resume_unwind(payload);
        }
        if coros[next.rank].is_finished() {
            live -= 1;
        }
    }
    let stack_high_water_bytes =
        coros.iter().map(|c| c.stack_high_water() as u64).max().unwrap_or(0);
    DriveStats { dispatches: state.borrow().dispatches, stack_high_water_bytes }
}
