//! Re-timing a recorded skeleton: op cursors over one wake-on-delivery
//! queue, with no coroutine, stack or scheduler heap.
//!
//! A re-timing is a Kahn network. The network has no contention,
//! receives name their source and tag (no wildcards), a policy sees
//! only its own rank's observations, and fault draws are keyed by
//! per-rank counters. So each rank consumes the same messages at the
//! same virtual times in whatever order the ranks are stepped, and the
//! result cannot depend on that order. This driver therefore steps each
//! rank's [`ReplayCursor`] until it parks on a receive, and resumes a
//! parked rank once the message it named is delivered, in delivery
//! order. Everything a rank does in between — clock, faults, policy,
//! trace — is the same `Comm` code a full run executes.

use crate::comm::{Comm, ReplayCursor};
use crate::router::{Envelope, Mailboxes};
use crate::skeleton::Skeleton;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Shared state of one re-timing.
pub(crate) struct CursorState {
    mail: Mailboxes,
    /// Ranks that can make progress, in the order they became able to:
    /// every rank at the start, then each parked rank as its message is
    /// delivered. A rank is queued at most once, since only a parked
    /// rank is woken and waking un-parks it.
    ready: VecDeque<usize>,
}

impl CursorState {
    pub(crate) fn new(n: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(CursorState { mail: Mailboxes::new(n), ready: (0..n).collect() }))
    }
}

/// A rank's handle on the shared state: the re-timing counterpart of
/// `des::DesEndpoint`, whose receive parks instead of suspending.
pub(crate) struct CursorEndpoint {
    rank: usize,
    state: Rc<RefCell<CursorState>>,
}

impl CursorEndpoint {
    pub(crate) fn new(rank: usize, state: Rc<RefCell<CursorState>>) -> Self {
        CursorEndpoint { rank, state }
    }

    /// Deliver an envelope to `dst`, queueing `dst` if it was parked on
    /// exactly this `(src, tag)`.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        let mut st = self.state.borrow_mut();
        if st.mail.deliver(dst, env) {
            st.ready.push_back(dst);
        }
    }

    /// Take the first matching held message, or park this rank on the
    /// receive and return `None`.
    pub(crate) fn recv_matching(&self, src: usize, tag: u64) -> Option<Envelope> {
        self.state.borrow_mut().mail.take(self.rank, src, tag)
    }

    /// Messages currently held for this rank (finalize sanity check).
    pub(crate) fn held(&self) -> usize {
        self.state.borrow().mail.held(self.rank)
    }
}

/// Step every rank of `skeleton` through finalize. `ranks[r]` is rank
/// `r`'s communicator, built over a [`CursorEndpoint`] on `state`.
///
/// # Panics
///
/// Panics with every parked receive listed — the same diagnostic the
/// DES scheduler gives — if the queue drains while ranks are unfinished.
pub(crate) fn drive(
    state: &Rc<RefCell<CursorState>>,
    ranks: &mut [(Comm, ReplayCursor)],
    skeleton: &Skeleton,
) {
    let mut live = ranks.len();
    while live > 0 {
        let next = state.borrow_mut().ready.pop_front();
        let Some(rank) = next else {
            let message = state.borrow().mail.deadlock_message();
            panic!("{message}");
        };
        let (comm, cursor) = &mut ranks[rank];
        if comm.replay_step(skeleton.rank(rank), cursor) {
            live -= 1;
        }
    }
}
