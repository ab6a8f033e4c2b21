//! Re-timing a recorded skeleton: op cursors stepped in the
//! switchboard's wake order, with no coroutine and no stack.
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
use crate::router::Switchboard;
use crate::skeleton::Skeleton;
use std::cell::RefCell;
use std::rc::Rc;

/// Step every rank of `skeleton` through finalize. `ranks[r]` is rank
/// `r`'s communicator, built over an `Endpoint` on `board`.
///
/// # Panics
///
/// Panics with every parked receive listed — the same diagnostic the
/// DES scheduler gives — if the queue drains while ranks are unfinished.
pub(crate) fn drive(
    board: &Rc<RefCell<Switchboard>>,
    ranks: &mut [(Comm, ReplayCursor)],
    skeleton: &Skeleton,
) {
    let mut live = ranks.len();
    while live > 0 {
        let next = board.borrow_mut().next_ready();
        let rank = next.unwrap_or_else(|message| panic!("{message}"));
        let (comm, cursor) = &mut ranks[rank];
        if comm.replay_step(skeleton.rank(rank), cursor) {
            live -= 1;
        }
    }
}
