//! LU — SSOR wavefront solver (the NAS LU structure).
//!
//! Runs symmetric Gauss–Seidel sweeps over a 2D Poisson problem with
//! row-slab decomposition and **wavefront pipelining**: each sweep is
//! split into column blocks, and a rank starts a block as soon as its
//! upstream neighbor's boundary row for that block arrives. Data flow
//! is exactly that of the sequential lexicographic sweep, so the
//! computed values are bitwise identical for any node count — only the
//! schedule is parallel.
//!
//! The communication profile matches the paper's observation about LU:
//! per-rank message count is independent of the node count while the
//! *total* number of messages grows linearly, with small per-message
//! payloads; the pipeline-fill idle time grows with the node count.

use crate::common::{block_range, charge};
use crate::jacobi::owner_of;
use psc_mpi::{Comm, ReduceOp};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Memory pressure of LU measured by the paper (Table 1).
pub const LU_UPM: f64 = 73.5;

const TAG_GHOST_FWD: u64 = 1;
const TAG_PIPE_FWD: u64 = 2;
const TAG_GHOST_BWD: u64 = 3;
const TAG_PIPE_BWD: u64 = 4;

/// LU configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LuParams {
    /// Interior points per side (real).
    pub m: usize,
    /// Column blocks for wavefront pipelining.
    pub blocks: usize,
    /// SSOR iterations (one forward + one backward sweep each).
    pub iters: usize,
    /// Class-B work multiplier.
    pub work_scale: f64,
    /// Class-B wire multiplier.
    pub wire_scale: f64,
}

impl LuParams {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        LuParams { m: 48, blocks: 6, iters: 25, work_scale: 1.0, wire_scale: 1.0 }
    }

    /// The experiment configuration: real arithmetic on 256², charged
    /// and wired at NAS class-B scale (102³, 250 pseudo-time steps).
    pub fn class_b() -> Self {
        LuParams { m: 264, blocks: 24, iters: 60, work_scale: 9600.0, wire_scale: 25.0 }
    }
}

/// LU results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LuOutput {
    /// Final residual norm ‖f − A·u‖₂.
    pub residual: f64,
    /// Sum of the final iterate.
    pub checksum: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Run LU (SSOR) on the communicator.
pub fn run(comm: &mut Comm, p: &LuParams) -> LuOutput {
    comm.set_wire_scale(p.wire_scale);
    let (rank, size) = (comm.rank(), comm.size());
    let my = block_range(p.m, size, rank);
    let local = my.len();
    let w = p.m;
    let h2 = {
        let h = 1.0 / (p.m + 1) as f64;
        h * h
    };
    let rhs = 1.0; // constant heat source

    let up = if my.start == 0 { None } else { Some(owner_of(p.m, size, my.start - 1)) };
    let down = if my.end == p.m { None } else { Some(owner_of(p.m, size, my.end)) };

    // Rows 0 and local+1 are ghosts. Each row is padded by one column
    // on each side whose `+0.0` is the zero boundary value (DESIGN.md
    // §13): point `(i, j)` lives at `i * s + 1 + j`.
    let s = w + 2;
    let mut g = vec![0.0f64; (local + 2) * s];
    let row = |i: usize| i * s + 1..i * s + 1 + w;
    let hr = h2 * rhs;

    for _ in 0..p.iters {
        // ----- forward sweep (new values flow downward) -----
        comm.span_begin("lu-sweep-fwd");
        // Pre-sweep: obtain the *old* row below (for the u[i+1][j] term).
        if let Some(u_n) = up {
            comm.send(u_n, TAG_GHOST_FWD, g[row(1)].to_vec());
        }
        if let Some(d_n) = down {
            g[row(local + 1)].copy_from_slice(&comm.recv::<Vec<f64>>(d_n, TAG_GHOST_FWD));
        } else {
            g[row(local + 1)].fill(0.0);
        }
        for b in 0..p.blocks {
            let cols = block_range(w, p.blocks, b);
            if let Some(u_n) = up {
                // The up neighbor's freshly updated boundary segment.
                let seg = comm.recv::<Vec<f64>>(u_n, TAG_PIPE_FWD);
                g[row(0)][cols.clone()].copy_from_slice(&seg);
            }
            relax_block::<true>(&mut g, s, local, &cols, hr);
            charge(comm, 6.0 * (local * cols.len()) as f64, p.work_scale, LU_UPM);
            if let Some(d_n) = down {
                comm.send(d_n, TAG_PIPE_FWD, g[row(local)][cols].to_vec());
            }
        }

        comm.span_end();

        // ----- backward sweep (new values flow upward) -----
        comm.span_begin("lu-sweep-bwd");
        if let Some(d_n) = down {
            comm.send(d_n, TAG_GHOST_BWD, g[row(local)].to_vec());
        }
        if let Some(u_n) = up {
            g[row(0)].copy_from_slice(&comm.recv::<Vec<f64>>(u_n, TAG_GHOST_BWD));
        } else {
            g[row(0)].fill(0.0);
        }
        for b in (0..p.blocks).rev() {
            let cols = block_range(w, p.blocks, b);
            if let Some(d_n) = down {
                let seg = comm.recv::<Vec<f64>>(d_n, TAG_PIPE_BWD);
                g[row(local + 1)][cols.clone()].copy_from_slice(&seg);
            }
            relax_block::<false>(&mut g, s, local, &cols, hr);
            charge(comm, 6.0 * (local * cols.len()) as f64, p.work_scale, LU_UPM);
            if let Some(u_n) = up {
                comm.send(u_n, TAG_PIPE_BWD, g[row(1)][cols].to_vec());
            }
        }
        comm.span_end();
    }

    // Final residual: one clean halo exchange, then ‖f − A·u‖.
    comm.span_begin("lu-residual");
    if let Some(u_n) = up {
        let ghost: Vec<f64> = comm.sendrecv(u_n, 5, g[row(1)].to_vec(), u_n, 6);
        g[row(0)].copy_from_slice(&ghost);
    }
    if let Some(d_n) = down {
        let ghost: Vec<f64> = comm.sendrecv(d_n, 6, g[row(local)].to_vec(), d_n, 5);
        g[row(local + 1)].copy_from_slice(&ghost);
    }
    let mut res2 = 0.0;
    let mut sum = 0.0;
    for i in 1..=local {
        for c in row(i) {
            let r = rhs - (4.0 * g[c] - g[c - s] - g[c + s] - g[c - 1] - g[c + 1]) / h2;
            res2 += r * r;
            sum += g[c];
        }
    }
    charge(comm, 9.0 * (local * w) as f64, p.work_scale, LU_UPM);
    let total = comm.allreduce(vec![res2, sum], ReduceOp::Sum);
    comm.span_end();

    LuOutput { residual: total[0].sqrt(), checksum: total[1], iterations: p.iters }
}

/// Rows a Gauss–Seidel block advances side by side.
const SKEW: usize = 4;

/// Relax the column block `cols` of rows `1..=rows` of the padded grid
/// `g` (row stride `s`) as one block of a Gauss–Seidel sweep: a forward
/// sweep (`FWD`) goes down and right from the block's top left point, a
/// backward one up and left from its bottom right point.
///
/// Each point waits for its row neighbour's new value, so one row is a
/// serial chain. Rows advance in groups of [`SKEW`] as a wavefront: at
/// step `t`, lane `r` of a group relaxes its row's point `t - r`. Every
/// point of one step reads only values that a sequential sweep would
/// also have updated (behind it) or not yet (ahead of it), so the lanes'
/// chains overlap and every value is the sequential sweep's (DESIGN.md
/// §13).
fn relax_block<const FWD: bool>(
    g: &mut [f64],
    s: usize,
    rows: usize,
    cols: &Range<usize>,
    hr: f64,
) {
    let first = if FWD { s + 1 + cols.start } else { rows * s + cols.end };
    let cols = cols.len();
    let at = |r: usize, k: usize| if FWD { first + r * s + k } else { first - r * s - k };
    // Offsets of a point's neighbour ahead in its row and in the row below,
    // in the sweep's own frame.
    let (next_col, next_row) = if FWD { (1, s as isize) } else { (-1, -(s as isize)) };
    let nb = |c: usize, d: isize| c.wrapping_add_signed(d);
    // Lanes of step `t` that have a point, relaxed from memory.
    let step = |g: &mut [f64], r0: usize, lanes: usize, t: usize| {
        for r in (t + 1).saturating_sub(cols)..=t.min(lanes - 1) {
            let c = at(r0 + r, t - r);
            g[c] = 0.25 * ((((hr + g[c - s]) + g[c + s]) + g[c - 1]) + g[c + 1]);
        }
    };
    for r0 in (0..rows).step_by(SKEW) {
        let lanes = (rows - r0).min(SKEW);
        let steps = cols + lanes - 1;
        if lanes < SKEW || cols < SKEW {
            (0..steps).for_each(|t| step(g, r0, lanes, t));
            continue;
        }
        (0..SKEW - 1).for_each(|t| step(g, r0, SKEW, t));
        // The steady steps run every lane. In the sweep's own frame, a
        // lane's new value is its next `left` and the next lane's next
        // `up`, and the old value `right` of a lane is the `down` of the
        // lane before it, so each is loaded or stored once.
        let mut new: [f64; SKEW] =
            std::array::from_fn(|r| g[nb(at(r0 + r, SKEW - 1 - r), -next_col)]);
        for t in SKEW - 1..cols {
            let c: [usize; SKEW] = std::array::from_fn(|r| at(r0 + r, t - r));
            let old: [f64; SKEW] = std::array::from_fn(|r| g[nb(c[r], next_col)]);
            let (first_up, last_down) = (g[nb(c[0], -next_row)], g[nb(c[SKEW - 1], next_row)]);
            new = std::array::from_fn(|r| {
                let up = if r == 0 { first_up } else { new[r - 1] };
                let down = if r + 1 < SKEW { old[r + 1] } else { last_down };
                // The point's own expression, its neighbours named as in
                // the grid: a backward sweep comes from below and right.
                let (up, down, left, right) =
                    if FWD { (up, down, new[r], old[r]) } else { (down, up, old[r], new[r]) };
                0.25 * ((((hr + up) + down) + left) + right)
            });
            for (&c, &v) in c.iter().zip(&new) {
                g[c] = v;
            }
        }
        (cols..steps).for_each(|t| step(g, r0, SKEW, t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_mpi::{Cluster, ClusterConfig};

    /// The sweep loop `relax_block` replaced, over one column block of a
    /// `Vec<Vec<f64>>` slab: a boundary neighbour is the literal `0.0`.
    fn relax_block_scalar(u: &mut [Vec<f64>], cols: Range<usize>, fwd: bool, hr: f64) {
        let (local, w) = (u.len() - 2, u[0].len());
        let rows: Vec<usize> =
            if fwd { (1..=local).collect() } else { (1..=local).rev().collect() };
        for i in rows {
            let js: Vec<usize> =
                if fwd { cols.clone().collect() } else { cols.clone().rev().collect() };
            for j in js {
                let left = if j == 0 { 0.0 } else { u[i][j - 1] };
                let right = if j + 1 == w { 0.0 } else { u[i][j + 1] };
                u[i][j] = 0.25 * (hr + u[i - 1][j] + u[i + 1][j] + left + right);
            }
        }
    }

    #[test]
    fn wavefront_blocks_are_bitwise_the_scalar_sweep() {
        // Row counts around every lane tail, blocks narrower than the
        // wavefront's fill and drain (empty ones included), and blocks
        // at both boundary columns.
        let hr = 1.0 / 2401.0;
        for w in [1usize, 2, 3, 4, 5, 7, 11, 13] {
            for local in 1..=9usize {
                for blocks in [1usize, 2, 3, w] {
                    let seed = (w * 131 + local * 7 + blocks) as u64;
                    let vals = crate::common::test_values((local + 2) * w, seed);
                    let mut slab: Vec<Vec<f64>> =
                        vals.chunks_exact(w).map(<[f64]>::to_vec).collect();
                    let s = w + 2;
                    let mut g = vec![0.0; (local + 2) * s];
                    for (i, row) in slab.iter().enumerate() {
                        g[i * s + 1..i * s + 1 + w].copy_from_slice(row);
                    }
                    for fwd in [true, false] {
                        for b in 0..blocks {
                            let b = if fwd { b } else { blocks - 1 - b };
                            let cols = block_range(w, blocks, b);
                            relax_block_scalar(&mut slab, cols.clone(), fwd, hr);
                            if fwd {
                                relax_block::<true>(&mut g, s, local, &cols, hr);
                            } else {
                                relax_block::<false>(&mut g, s, local, &cols, hr);
                            }
                        }
                        let ctx = format!("w={w} local={local} blocks={blocks} fwd={fwd}");
                        for (i, row) in slab.iter().enumerate() {
                            let padded = &g[i * s..(i + 1) * s];
                            assert_eq!(padded[0].to_bits(), 0, "{ctx}: left pad");
                            assert_eq!(padded[w + 1].to_bits(), 0, "{ctx}: right pad");
                            for (a, b) in padded[1..=w].iter().zip(row) {
                                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: row {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    fn run_on(nodes: usize, p: LuParams) -> (f64, LuOutput) {
        let c = Cluster::athlon_fast_ethernet();
        let (res, outs) = c.run(&ClusterConfig::uniform(nodes, 1), move |comm| run(comm, &p));
        (res.time_s, outs.into_iter().next().unwrap())
    }

    #[test]
    fn ssor_converges_toward_poisson_solution() {
        let mut short = LuParams::test();
        short.iters = 5;
        let (_, early) = run_on(1, short);
        let (_, late) = run_on(1, LuParams::test());
        assert!(late.residual < early.residual, "{} !< {}", late.residual, early.residual);
        assert!(late.checksum > 0.0, "heating should lift the solution");
    }

    #[test]
    fn bitwise_identical_across_node_counts() {
        let (_, base) = run_on(1, LuParams::test());
        for n in [2usize, 3, 4, 8] {
            let (_, out) = run_on(n, LuParams::test());
            // The wavefront preserves sequential Gauss–Seidel dataflow,
            // so grids are bitwise equal; only the reduction order of
            // the final sums differs.
            assert!(
                (out.checksum - base.checksum).abs() < 1e-10 * base.checksum.abs(),
                "n={n}: {} vs {}",
                out.checksum,
                base.checksum
            );
            assert!(
                (out.residual - base.residual).abs() < 1e-9 * base.residual.max(1e-30),
                "n={n}: residual {} vs {}",
                out.residual,
                base.residual
            );
        }
    }

    #[test]
    fn good_speedup_through_eight_nodes() {
        // Paper (case 3 discussion): the fastest gear on 8 nodes runs
        // ~72 % faster than on 4 nodes.
        let p = LuParams::class_b();
        let (t1, _) = run_on(1, p);
        let (t2, _) = run_on(2, p);
        let (t4, _) = run_on(4, p);
        let (t8, _) = run_on(8, p);
        let s2 = t1 / t2;
        let s4 = t1 / t4;
        let s8 = t1 / t8;
        assert!(s2 > 1.6, "LU speedup(2) {s2}");
        assert!(s4 > 2.7, "LU speedup(4) {s4}");
        let ratio = t4 / t8;
        assert!((1.4..=1.95).contains(&ratio), "LU 4→8 time ratio {ratio:.2}, paper reports ≈1.72");
        assert!(s8 > 4.5, "LU speedup(8) {s8}");
    }
}
