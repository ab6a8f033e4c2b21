//! The in-memory message fabric connecting ranks: one [`Switchboard`]
//! per run, shared by every rank driver.
//!
//! Sends are non-blocking (eager buffered, as the paper assumes — "we
//! assume that the send is asynchronous"). Messages from one sender to
//! one receiver arrive in send order and receives name their source and
//! tag, so matching is deterministic. The switchboard also decides who
//! runs next: a rank that misses a receive parks, the matching delivery
//! wakes it, and every driver — DES coroutines, re-timing cursors and
//! the threaded baton — takes ranks from the same FIFO wake queue.

use crossbeam::channel::{Receiver, Sender};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

/// An in-flight message.
pub(crate) struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Match tag.
    pub tag: u64,
    /// Virtual time at which the message is available at the receiver.
    pub arrival_s: f64,
    /// Wire size used for the network cost, bytes.
    pub bytes: u64,
    /// The payload, downcast by the receiver.
    pub data: Box<dyn Any + Send>,
}

/// Per-rank reordering buffer: holds messages that arrived before the
/// rank asked for them.
#[derive(Default)]
struct MatchBuffer {
    held: Vec<Envelope>,
}

impl MatchBuffer {
    /// Take the first held message matching `(src, tag)`, preserving
    /// per-pair FIFO order.
    fn take(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        let idx = self.held.iter().position(|e| e.src == src && e.tag == tag)?;
        Some(self.held.remove(idx))
    }

    /// Hold a message that did not match the current receive.
    fn hold(&mut self, envelope: Envelope) {
        self.held.push(envelope);
    }

    /// Number of held messages (used by shutdown sanity checks).
    fn len(&self) -> usize {
        self.held.len()
    }
}

/// Every rank's [`MatchBuffer`], the receive each rank is parked on,
/// and the ranks that can run, in the order they became able to. The
/// one deliver/match/wake/deadlock rule of all three drivers.
pub(crate) struct Switchboard {
    held: Vec<MatchBuffer>,
    /// `waiting[r] = Some((src, tag))` while rank `r` is parked in a
    /// receive that named that source and tag.
    waiting: Vec<Option<(usize, u64)>>,
    /// Every rank at the start, then each parked rank as its message
    /// is delivered. A rank is queued at most once, since only a
    /// parked rank is woken and waking un-parks it.
    ready: VecDeque<usize>,
}

impl Switchboard {
    pub(crate) fn new(n: usize) -> Self {
        Switchboard {
            held: (0..n).map(|_| MatchBuffer::default()).collect(),
            waiting: vec![None; n],
            ready: (0..n).collect(),
        }
    }

    /// Hold `env` for `dst`, and queue `dst` if it was parked on exactly
    /// this `(src, tag)`.
    pub(crate) fn deliver(&mut self, dst: usize, env: Envelope) {
        if self.waiting[dst] == Some((env.src, env.tag)) {
            self.waiting[dst] = None;
            self.ready.push_back(dst);
        }
        self.held[dst].hold(env);
    }

    /// Take `rank`'s first held message matching `(src, tag)`, or park
    /// `rank` on that receive and return `None`.
    pub(crate) fn take(&mut self, rank: usize, src: usize, tag: u64) -> Option<Envelope> {
        let env = self.held[rank].take(src, tag);
        if env.is_none() {
            self.waiting[rank] = Some((src, tag));
        }
        env
    }

    /// Messages currently held for `rank` (finalize sanity check).
    pub(crate) fn held(&self, rank: usize) -> usize {
        self.held[rank].len()
    }

    /// The next rank to run, in wake order. A driver calls this only
    /// while ranks are unfinished, so an empty queue is a deadlock:
    /// `Err` then carries the diagnostic, every parked receive by
    /// rank. It is built here, so a driver can drop its borrow of the
    /// switchboard before it panics with it.
    pub(crate) fn next_ready(&mut self) -> Result<usize, String> {
        self.ready.pop_front().ok_or_else(|| self.deadlock_message())
    }

    fn deadlock_message(&self) -> String {
        let parked: Vec<String> = self
            .waiting
            .iter()
            .enumerate()
            .filter_map(|(r, w)| {
                w.map(|(src, tag)| format!("rank {r} ← recv(src {src}, tag {tag})"))
            })
            .collect();
        format!(
            "deadlock in program: no rank is runnable and no message is in flight; parked \
             receives: [{}]",
            parked.join(", ")
        )
    }
}

/// A rank's handle on a single-threaded switchboard: the DES
/// scheduler's coroutines and the re-timing cursors share one.
pub(crate) struct Endpoint {
    rank: usize,
    board: Rc<RefCell<Switchboard>>,
}

impl Endpoint {
    pub(crate) fn new(rank: usize, board: Rc<RefCell<Switchboard>>) -> Self {
        Endpoint { rank, board }
    }

    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        self.board.borrow_mut().deliver(dst, env);
    }

    /// [`Switchboard::take`] for this rank. No borrow outlives the call,
    /// so a caller may suspend after a miss.
    pub(crate) fn take(&self, src: usize, tag: u64) -> Option<Envelope> {
        self.board.borrow_mut().take(self.rank, src, tag)
    }

    pub(crate) fn held(&self) -> usize {
        self.board.borrow().held(self.rank)
    }
}

/// What the rank holding the baton tells the threaded driver when it
/// gives the baton back.
pub(crate) enum Handoff {
    /// It parked on a receive.
    Parked,
    /// Its program and finalize completed.
    Finished,
    /// Its program panicked, with this payload.
    Panicked(Box<dyn Any + Send>),
}

/// Unwinds a rank thread that waits for a turn the failed run will
/// never give it.
struct Cancelled;

/// A rank thread's handle on the threaded driver's switchboard. Only
/// the rank holding the baton runs: it waits on `turn` for the driver
/// to hand it over, and reports on `driver` when it hands it back.
pub(crate) struct Baton {
    rank: usize,
    board: Arc<Mutex<Switchboard>>,
    turn: Receiver<()>,
    driver: Sender<Handoff>,
}

impl Baton {
    pub(crate) fn new(
        rank: usize,
        board: Arc<Mutex<Switchboard>>,
        turn: Receiver<()>,
        driver: Sender<Handoff>,
    ) -> Self {
        Baton { rank, board, turn, driver }
    }

    /// A rank thread's whole life: wait for the first turn, run `body`
    /// over this baton, and tell the driver how it ended. `None` when
    /// the rank did not finish: it panicked (the driver re-raises the
    /// payload) or the run failed elsewhere first.
    pub(crate) fn run<T>(self, body: impl FnOnce(Baton) -> T) -> Option<T> {
        let driver = self.driver.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.wait_turn();
            body(self)
        }));
        // The driver outlives every rank thread, so its end stays open.
        match outcome {
            Ok(out) => {
                let _ = driver.send(Handoff::Finished);
                Some(out)
            }
            Err(payload) => {
                if !payload.is::<Cancelled>() {
                    let _ = driver.send(Handoff::Panicked(payload));
                }
                None
            }
        }
    }

    /// Block until the driver hands this rank the baton. A run that
    /// fails closes every turn channel instead, and the waiting rank
    /// unwinds with [`Cancelled`], silently: the failure is another
    /// rank's, and the driver raises that.
    fn wait_turn(&self) {
        if self.turn.recv().is_err() {
            std::panic::resume_unwind(Box::new(Cancelled));
        }
    }

    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        lock(&self.board).deliver(dst, env);
    }

    /// Blocking receive: take the first matching held message; on a
    /// miss, give the baton back and wait until the delivery that
    /// un-parks this rank brings it round again.
    pub(crate) fn recv_matching(&self, src: usize, tag: u64) -> Envelope {
        loop {
            if let Some(env) = lock(&self.board).take(self.rank, src, tag) {
                return env;
            }
            let _ = self.driver.send(Handoff::Parked);
            self.wait_turn();
        }
    }

    pub(crate) fn held(&self) -> usize {
        lock(&self.board).held(self.rank)
    }
}

/// The threaded driver's loop: hand the baton to the ranks in wake
/// order until all have finished, and return the turns handed out.
/// `turns[r]` gives rank `r` its turn; `handoffs` is where the running
/// rank reports.
///
/// # Panics
///
/// On a deadlock, with the diagnostic the other drivers give, and with
/// the original payload when a rank panics. Unwinding drops `turns`
/// either way, which fails every waiting rank.
pub(crate) fn pass_baton(
    board: &Mutex<Switchboard>,
    turns: Vec<Sender<()>>,
    handoffs: &Receiver<Handoff>,
) -> u64 {
    let mut live = turns.len();
    let mut dispatches = 0;
    while live > 0 {
        let next = lock(board).next_ready();
        let rank = next.unwrap_or_else(|message| panic!("{message}"));
        dispatches += 1;
        turns[rank].send(()).expect("a rank thread waits for its every turn");
        match handoffs.recv().expect("the running rank hands the baton back") {
            Handoff::Parked => {}
            Handoff::Finished => live -= 1,
            Handoff::Panicked(payload) => std::panic::resume_unwind(payload),
        }
    }
    dispatches
}

/// Only one thread at a time wants the lock (the baton holder, or the
/// driver between turns), and no switchboard method panics after it
/// has begun to update, so nothing can poison it.
fn lock(board: &Mutex<Switchboard>) -> MutexGuard<'_, Switchboard> {
    board.lock().expect("nothing panics while holding the switchboard")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u64, val: u64) -> Envelope {
        Envelope { src, tag, arrival_s: 0.0, bytes: 8, data: Box::new(val) }
    }

    #[test]
    fn match_buffer_fifo_per_pair() {
        let mut b = MatchBuffer::default();
        b.hold(env(1, 5, 100));
        b.hold(env(1, 5, 200));
        b.hold(env(2, 5, 300));
        let first = b.take(1, 5).unwrap();
        assert_eq!(*first.data.downcast::<u64>().unwrap(), 100);
        let second = b.take(1, 5).unwrap();
        assert_eq!(*second.data.downcast::<u64>().unwrap(), 200);
        assert!(b.take(1, 5).is_none());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn match_buffer_distinguishes_tags() {
        let mut b = MatchBuffer::default();
        b.hold(env(0, 1, 10));
        b.hold(env(0, 2, 20));
        let got = b.take(0, 2).unwrap();
        assert_eq!(*got.data.downcast::<u64>().unwrap(), 20);
        assert_eq!(b.len(), 1);
    }
}
