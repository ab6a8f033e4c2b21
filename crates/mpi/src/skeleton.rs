//! Recorded rank programs: the gear-, policy- and fault-invariant part
//! of a run.
//!
//! Virtual time is a function of what a program *asks of* its
//! [`crate::comm::Comm`] — work blocks, message shapes, span marks —
//! and never of what the kernel's arithmetic computes: kernels do not
//! read the gear or the clock (analyzer rule K001), and receives name
//! their source and tag. So the per-rank sequence of those requests,
//! the *skeleton*, is the same under every gear vector, policy and
//! fault plan, and [`crate::Cluster::retime`] re-times it exactly by
//! issuing the same requests with empty payloads (DESIGN.md, "Skeleton
//! replay tier").

use crate::trace::{peer_word, MpiOp, TraceShape};
use psc_machine::WorkBlock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One program-level input to a rank's virtual time. Repeated values
/// (work blocks, message shapes, span names) are interned in the
/// owning [`RankSkeleton`], which keeps every op at 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SkelOp {
    /// `Comm::compute` of `blocks[i]`, as passed in (before any fault
    /// perturbation).
    Compute(u32),
    /// Untraced send of `shapes[shape] = (dst, wire bytes)`.
    Send { shape: u32, tag: u64 },
    /// Untraced receive.
    Recv { src: u32, tag: u64 },
    /// Close of the traced MPI operation the preceding primitives
    /// belong to. Its entry time and byte count are not stored: the
    /// entry is the clock at the first primitive after the previous
    /// non-primitive op, the bytes are the sum over those primitives.
    /// `peer` is the event's peer word (`trace::NO_PEER` for none).
    End { op: MpiOp, peer: u32 },
    /// `Comm::span_begin` of `names[i]`.
    SpanBegin(u32),
    /// `Comm::span_end`.
    SpanEnd,
    /// `Comm::set_wire_scale`.
    WireScale(f64),
    /// A *program-issued* `Comm::set_gear` request (policy-issued
    /// shifts are re-decided on replay, never recorded).
    SetGear(u32),
}

const _: () = assert!(std::mem::size_of::<SkelOp>() == 16);

/// One rank's recorded program, up to (not including) finalize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankSkeleton {
    pub(crate) ops: Vec<SkelOp>,
    pub(crate) blocks: Vec<WorkBlock>,
    pub(crate) shapes: Vec<(u32, u64)>,
    /// Span names, shared with every trace re-timed from this skeleton.
    pub(crate) names: Vec<Arc<str>>,
    /// Collective sequence number the program ended at, so finalize's
    /// barrier draws the tags it would have drawn.
    pub(crate) coll_seq: u64,
    /// The structure of the recording's trace, finalize included: every
    /// trace re-timed from this skeleton shares it and holds only its
    /// own times. `None` for a hand-built skeleton, whose re-timings
    /// record a shape of their own.
    pub(crate) shape: Option<Arc<TraceShape>>,
}

impl RankSkeleton {
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<SkelOp>()
            + self.blocks.capacity() * size_of::<WorkBlock>()
            + self.shapes.capacity() * size_of::<(u32, u64)>()
            + self.names.capacity() * size_of::<Arc<str>>()
            + self.names.iter().map(|n| 2 * size_of::<usize>() + n.len()).sum::<usize>()
            + self
                .shape
                .as_ref()
                .map_or(0, |s| 2 * size_of::<usize>() + size_of::<TraceShape>() + s.heap_bytes())
    }
}

/// The recorded programs of every rank of one `(program, nodes)` run,
/// indexed by rank. Produced by [`crate::Cluster::run_recorded`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Skeleton {
    pub(crate) ranks: Vec<RankSkeleton>,
}

impl Skeleton {
    /// The recorded program of `rank`.
    pub fn rank(&self, rank: usize) -> &RankSkeleton {
        &self.ranks[rank]
    }

    /// Heap bytes held by the skeleton.
    pub fn heap_bytes(&self) -> usize {
        self.ranks.capacity() * std::mem::size_of::<RankSkeleton>()
            + self.ranks.iter().map(RankSkeleton::heap_bytes).sum::<usize>()
    }
}

/// Builds a [`RankSkeleton`] while a program runs, interning repeated
/// values. Ordered maps (`clippy.toml` bans `HashMap`): the ids they hand out index the
/// skeleton's tables.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    skel: RankSkeleton,
    block_ids: BTreeMap<(u64, u64), u32>,
    shape_ids: BTreeMap<(u32, u64), u32>,
    name_ids: BTreeMap<Arc<str>, u32>,
}

/// Look `key` up in `ids`, appending `value` to `table` on first sight.
fn intern<K: Ord, V>(ids: &mut BTreeMap<K, u32>, table: &mut Vec<V>, key: K, value: V) -> u32 {
    *ids.entry(key).or_insert_with(|| {
        table.push(value);
        u32::try_from(table.len() - 1).expect("skeleton table outgrew u32 ids")
    })
}

impl Recorder {
    pub(crate) fn compute(&mut self, work: &WorkBlock) {
        let key = (work.uops.to_bits(), work.l2_misses.to_bits());
        let id = intern(&mut self.block_ids, &mut self.skel.blocks, key, *work);
        self.skel.ops.push(SkelOp::Compute(id));
    }

    pub(crate) fn send(&mut self, dst: usize, tag: u64, bytes: u64) {
        let shape = (dst as u32, bytes);
        let id = intern(&mut self.shape_ids, &mut self.skel.shapes, shape, shape);
        self.skel.ops.push(SkelOp::Send { shape: id, tag });
    }

    pub(crate) fn recv(&mut self, src: usize, tag: u64) {
        self.skel.ops.push(SkelOp::Recv { src: src as u32, tag });
    }

    pub(crate) fn end(&mut self, op: MpiOp, peer: Option<usize>) {
        self.skel.ops.push(SkelOp::End { op, peer: peer_word(peer) });
    }

    /// `name` is the rank's shared copy (`trace::SpanNames`), so the
    /// skeleton holds the same allocation the recording's trace does.
    pub(crate) fn span_begin(&mut self, name: &Arc<str>) {
        let id =
            intern(&mut self.name_ids, &mut self.skel.names, Arc::clone(name), Arc::clone(name));
        self.skel.ops.push(SkelOp::SpanBegin(id));
    }

    pub(crate) fn span_end(&mut self) {
        self.skel.ops.push(SkelOp::SpanEnd);
    }

    pub(crate) fn wire_scale(&mut self, scale: f64) {
        self.skel.ops.push(SkelOp::WireScale(scale));
    }

    pub(crate) fn set_gear(&mut self, gear_index: usize) {
        self.skel.ops.push(SkelOp::SetGear(gear_index as u32));
    }

    /// Close the recording: the program ended at `coll_seq`.
    pub(crate) fn finish(mut self, coll_seq: u64) -> RankSkeleton {
        self.skel.coll_seq = coll_seq;
        self.skel.ops.shrink_to_fit();
        self.skel.blocks.shrink_to_fit();
        self.skel.shapes.shrink_to_fit();
        self.skel.names.shrink_to_fit();
        self.skel
    }
}
