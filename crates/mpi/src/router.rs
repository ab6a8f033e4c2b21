//! The in-memory message fabric connecting ranks.
//!
//! Each rank owns an unbounded mailbox; sends are non-blocking (eager
//! buffered, as the paper assumes — "we assume that the send is
//! asynchronous"). Messages from one sender to one receiver arrive in
//! send order, so matching by `(source, tag)` is deterministic.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;

/// An in-flight message.
pub struct Envelope {
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

/// The fabric: one mailbox per rank.
pub struct Router {
    inboxes: Vec<Sender<Envelope>>,
}

impl Router {
    /// Create a fabric for `n` ranks, returning the router (shared by all
    /// ranks for sending) and each rank's private receiving endpoint.
    pub fn new(n: usize) -> (Router, Vec<Receiver<Envelope>>) {
        let mut inboxes = Vec::with_capacity(n);
        let mut outlets = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            outlets.push(rx);
        }
        (Router { inboxes }, outlets)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inboxes.len()
    }

    /// Deliver an envelope to `dst`'s mailbox. Never blocks.
    pub fn deliver(&self, dst: usize, envelope: Envelope) {
        self.inboxes[dst]
            .send(envelope)
            .expect("receiver mailbox dropped while ranks still running");
    }
}

/// Per-rank reordering buffer: holds messages that arrived before the
/// rank asked for them.
#[derive(Default)]
pub struct MatchBuffer {
    held: Vec<Envelope>,
}

impl MatchBuffer {
    /// Create an empty buffer.
    pub fn new() -> Self {
        MatchBuffer::default()
    }

    /// Take the first held message matching `(src, tag)`, preserving
    /// per-pair FIFO order.
    pub fn take(&mut self, src: usize, tag: u64) -> Option<Envelope> {
        let idx = self.held.iter().position(|e| e.src == src && e.tag == tag)?;
        Some(self.held.remove(idx))
    }

    /// Hold a message that did not match the current receive.
    pub fn hold(&mut self, envelope: Envelope) {
        self.held.push(envelope);
    }

    /// Number of held messages (used by shutdown sanity checks).
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

/// Every rank's [`MatchBuffer`] plus the receive each rank is parked
/// on: the shared state of the two single-threaded fabrics. The DES
/// scheduler and the re-timing cursors both deliver and match through
/// it, so both wake a parked rank on the same rule.
pub(crate) struct Mailboxes {
    held: Vec<MatchBuffer>,
    /// `waiting[r] = Some((src, tag))` while rank `r` is parked in a
    /// receive that named that source and tag.
    waiting: Vec<Option<(usize, u64)>>,
}

impl Mailboxes {
    pub(crate) fn new(n: usize) -> Self {
        Mailboxes { held: (0..n).map(|_| MatchBuffer::new()).collect(), waiting: vec![None; n] }
    }

    /// Hold `env` for `dst`. Returns whether `dst` was parked on exactly
    /// this `(src, tag)`; it is then un-parked, and the caller makes it
    /// runnable.
    pub(crate) fn deliver(&mut self, dst: usize, env: Envelope) -> bool {
        let wakes = self.waiting[dst] == Some((env.src, env.tag));
        if wakes {
            self.waiting[dst] = None;
        }
        self.held[dst].hold(env);
        wakes
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

    /// The deadlock diagnostic: every parked receive, by rank. A driver
    /// builds it before panicking, so no borrow of the shared state is
    /// live while the panic unwinds.
    pub(crate) fn deadlock_message(&self) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u64, val: u64) -> Envelope {
        Envelope { src, tag, arrival_s: 0.0, bytes: 8, data: Box::new(val) }
    }

    #[test]
    fn router_delivers_to_right_mailbox() {
        let (router, outlets) = Router::new(3);
        router.deliver(2, env(0, 7, 42));
        let got = outlets[2].try_recv().unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.tag, 7);
        assert!(outlets[0].try_recv().is_err());
        assert!(outlets[1].try_recv().is_err());
    }

    #[test]
    fn match_buffer_fifo_per_pair() {
        let mut b = MatchBuffer::new();
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
        let mut b = MatchBuffer::new();
        b.hold(env(0, 1, 10));
        b.hold(env(0, 2, 20));
        let got = b.take(0, 2).unwrap();
        assert_eq!(*got.data.downcast::<u64>().unwrap(), 20);
        assert_eq!(b.len(), 1);
    }
}
