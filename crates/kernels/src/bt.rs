//! BT — block-tridiagonal ADI solver (the NAS BT structure).
//!
//! Advances a three-variable coupled diffusion system with alternating
//! direction implicit (ADI) time steps on a √n×√n process grid: each
//! step solves tridiagonal systems along every grid line, first in x
//! (lines crossing the rank *columns*) and then in y (crossing the rank
//! *rows*). Line solves are pipelined in chunks: a rank forward-
//! eliminates its segment as soon as the upstream carries arrive, and
//! back-substitutes when the downstream solution values return. The
//! Thomas recurrence is evaluated in exactly the sequential order, so
//! results are bitwise independent of the process-grid size.
//!
//! Only square node counts are valid (1, 4, 9, 16, 25, …), matching the
//! paper's BT/SP runs on 4 and 9 nodes.

use crate::common::{block_range, charge, lane_blocks, LANES};
use psc_mpi::{Comm, ReduceOp};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Memory pressure of BT measured by the paper (Table 1).
pub const BT_UPM: f64 = 79.6;

/// Number of coupled variables ("block" size of the line systems).
pub const VARS: usize = 3;

const TAG_X_FWD: u64 = 1;
const TAG_X_BWD: u64 = 2;
const TAG_Y_FWD: u64 = 3;
const TAG_Y_BWD: u64 = 4;

/// BT configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BtParams {
    /// Interior points per side (real).
    pub m: usize,
    /// Implicit diffusion number α = ν·Δt/h².
    pub alpha: f64,
    /// Time steps.
    pub steps: usize,
    /// Pipeline chunks per line-solve phase.
    pub chunks: usize,
    /// Class-B work multiplier.
    pub work_scale: f64,
    /// Class-B wire multiplier.
    pub wire_scale: f64,
}

impl BtParams {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        BtParams { m: 36, alpha: 0.8, steps: 8, chunks: 3, work_scale: 1.0, wire_scale: 1.0 }
    }

    /// The experiment configuration: real arithmetic on 144², charged
    /// and wired at NAS class-B scale (102³ with 5×5 block systems).
    pub fn class_b() -> Self {
        BtParams {
            m: 144,
            alpha: 0.8,
            steps: 40,
            chunks: 4,
            work_scale: 10_600.0,
            wire_scale: 250.0,
        }
    }
}

/// BT results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BtOutput {
    /// Maximum |u| over all variables after the final step.
    pub final_norm: f64,
    /// Maximum |u| after the first step (decay reference).
    pub first_norm: f64,
    /// Sum over all variables and points.
    pub checksum: f64,
    /// Steps executed.
    pub iterations: usize,
}

/// Per-variable local field: `rows × cols`, row-major.
type Field = Vec<f64>;

struct Tile {
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    q: usize,
    pr: usize,
    pc: usize,
}

impl Tile {
    fn new(m: usize, rank: usize, size: usize) -> Tile {
        let q = (size as f64).sqrt().round() as usize;
        assert_eq!(q * q, size, "BT/SP require a square number of nodes, got {size}");
        let pr = rank / q;
        let pc = rank % q;
        Tile { rows: block_range(m, q, pr), cols: block_range(m, q, pc), q, pr, pc }
    }

    fn left(&self) -> Option<usize> {
        (self.pc > 0).then(|| self.pr * self.q + self.pc - 1)
    }
    fn right(&self) -> Option<usize> {
        (self.pc + 1 < self.q).then(|| self.pr * self.q + self.pc + 1)
    }
    fn up(&self) -> Option<usize> {
        (self.pr > 0).then(|| (self.pr - 1) * self.q + self.pc)
    }
    fn down(&self) -> Option<usize> {
        (self.pr + 1 < self.q).then(|| (self.pr + 1) * self.q + self.pc)
    }
}

/// Pipelined tridiagonal solve along one direction for all `VARS`
/// fields at once. `lines` is the number of local lines (rows for the
/// x-direction, columns for the y-direction), `seg` the local segment
/// length along the solve direction.
///
/// `get`/`set` abstract the memory orientation: `(var, line, k)` where
/// `k` indexes the segment.
#[allow(clippy::too_many_arguments)]
fn line_solve<G, S>(
    comm: &mut Comm,
    p: &BtParams,
    lines: usize,
    seg: usize,
    prev: Option<usize>,
    next: Option<usize>,
    tag_fwd: u64,
    tag_bwd: u64,
    get: G,
    mut set: S,
) where
    G: Fn(usize, usize, usize) -> f64,
    S: FnMut(usize, usize, usize, f64),
{
    let mut elim = Eliminated::new(lines, seg);

    let chunks = p.chunks.min(lines.max(1));
    // ---- forward elimination ----
    for c in 0..chunks {
        let group = block_range(lines, chunks, c);
        // Carries from the left/up rank: (c', d') of each line's last
        // column, for each variable. Elimination advances them in
        // place, and they travel on to the right/down rank.
        let mut carry: Vec<f64> = match prev {
            Some(src) => comm.recv(src, tag_fwd),
            None => vec![0.0; 2 * VARS * group.len()],
        };
        forward(p.alpha, group.clone(), &mut carry, &get, &mut elim);
        charge(comm, (8 * VARS * group.len() * seg) as f64, p.work_scale, BT_UPM);
        if let Some(dst) = next {
            comm.send(dst, tag_fwd, carry);
        }
    }

    // ---- back substitution ----
    for c in (0..chunks).rev() {
        let group = block_range(lines, chunks, c);
        // Solution values just beyond our segment, from the right/down
        // rank (zero Dirichlet boundary at the domain edge); substitution
        // turns them into the values at our segment's start.
        let mut x: Vec<f64> = match next {
            Some(src) => comm.recv(src, tag_bwd),
            None => vec![0.0; VARS * group.len()],
        };
        backward(group.clone(), &mut x, &elim, &mut set);
        charge(comm, (3 * VARS * group.len() * seg) as f64, p.work_scale, BT_UPM);
        if let Some(dst) = prev {
            comm.send(dst, tag_bwd, x);
        }
    }
}

/// Forward elimination's output for every `(var, line, k)` of a rank's
/// segment, the normalized `(c', d')` back substitution reads.
struct Eliminated {
    lines: usize,
    seg: usize,
    cp: Vec<f64>,
    dp: Vec<f64>,
}

impl Eliminated {
    fn new(lines: usize, seg: usize) -> Self {
        let len = VARS * lines * seg;
        Eliminated { lines, seg, cp: vec![0.0; len], dp: vec![0.0; len] }
    }

    /// Where lines `l0..l0 + width` of variable `v` live in `cp`/`dp`:
    /// `seg` values per line, line after line.
    fn rows(&self, v: usize, l0: usize, width: usize) -> Range<usize> {
        let first = v * self.lines + l0;
        first * self.seg..(first + width) * self.seg
    }
}

/// Forward Thomas elimination of one chunk's `group` of lines, every
/// variable, `LANES` lines at a time. `carry` holds `(c', d')` per
/// `(var, line)` of the group, var-major, and is advanced in place.
fn forward<G: Fn(usize, usize, usize) -> f64>(
    alpha: f64,
    group: Range<usize>,
    carry: &mut [f64],
    get: &G,
    elim: &mut Eliminated,
) {
    let seg = elim.seg;
    for (v, carry) in carry.chunks_exact_mut(2 * group.len().max(1)).enumerate() {
        for (l0, width) in lane_blocks(group.clone()) {
            let carry = &mut carry[2 * (l0 - group.start)..2 * (l0 - group.start + width)];
            let at = elim.rows(v, l0, width);
            let (cp, dp) = (&mut elim.cp[at.clone()], &mut elim.dp[at]);
            let get = |i: usize, k: usize| get(v, l0 + i, k);
            if width == LANES {
                forward_lanes::<LANES>(alpha, seg, carry, get, cp, dp);
            } else {
                forward_lanes::<1>(alpha, seg, carry, get, cp, dp);
            }
        }
    }
}

/// Thomas elimination of `L` lines side by side: lane `i` reads
/// `get(i, k)`, writes row `i` of `cp`/`dp` (`seg` values each) and
/// starts from, and leaves its last `(c', d')` in, `carry[2i..2i + 2]`.
/// Every lane runs exactly the sequential recurrence.
fn forward_lanes<const L: usize>(
    alpha: f64,
    seg: usize,
    carry: &mut [f64],
    get: impl Fn(usize, usize) -> f64,
    cp: &mut [f64],
    dp: &mut [f64],
) {
    let a = -alpha;
    let b = 1.0 + 2.0 * alpha;
    let mut state: [[f64; 2]; L] = std::array::from_fn(|i| [carry[2 * i], carry[2 * i + 1]]);
    for k in 0..seg {
        for (i, [cprev, dprev]) in state.iter_mut().enumerate() {
            let denom = b - a * *cprev;
            let cnew = a / denom;
            let dnew = (get(i, k) - a * *dprev) / denom;
            cp[i * seg + k] = cnew;
            dp[i * seg + k] = dnew;
            *cprev = cnew;
            *dprev = dnew;
        }
    }
    for (out, s) in carry.chunks_exact_mut(2).zip(state) {
        out.copy_from_slice(&s);
    }
}

/// Back substitution of one chunk's `group` of lines, every variable,
/// `LANES` lines at a time. `x` holds, per `(var, line)` of the group,
/// var-major, the solution just beyond the segment on entry and at its
/// first point on return.
fn backward<S: FnMut(usize, usize, usize, f64)>(
    group: Range<usize>,
    x: &mut [f64],
    elim: &Eliminated,
    set: &mut S,
) {
    let seg = elim.seg;
    for (v, x) in x.chunks_exact_mut(group.len().max(1)).enumerate() {
        for (l0, width) in lane_blocks(group.clone()) {
            let x = &mut x[l0 - group.start..l0 - group.start + width];
            let at = elim.rows(v, l0, width);
            let (cp, dp) = (&elim.cp[at.clone()], &elim.dp[at]);
            let set = |i: usize, k: usize, value: f64| set(v, l0 + i, k, value);
            if width == LANES {
                backward_lanes::<LANES>(seg, x, cp, dp, set);
            } else {
                backward_lanes::<1>(seg, x, cp, dp, set);
            }
        }
    }
}

/// Back substitution of `L` lines side by side, lane `i` from `x[i]`
/// through row `i` of `cp`/`dp`, leaving its first solution value in
/// `x[i]`.
fn backward_lanes<const L: usize>(
    seg: usize,
    x: &mut [f64],
    cp: &[f64],
    dp: &[f64],
    mut set: impl FnMut(usize, usize, f64),
) {
    let mut state: [f64; L] = std::array::from_fn(|i| x[i]);
    for k in (0..seg).rev() {
        for (i, xnext) in state.iter_mut().enumerate() {
            let value = dp[i * seg + k] - cp[i * seg + k] * *xnext;
            set(i, k, value);
            *xnext = value;
        }
    }
    x.copy_from_slice(&state);
}

/// Run BT on the communicator. The node count must be a perfect square.
pub fn run(comm: &mut Comm, p: &BtParams) -> BtOutput {
    comm.set_wire_scale(p.wire_scale);
    let tile = Tile::new(p.m, comm.rank(), comm.size());
    let (nr, nc) = (tile.rows.len(), tile.cols.len());
    let h = 1.0 / (p.m + 1) as f64;

    // Three coupled variables with smooth, decaying initial conditions.
    let mut u: Vec<Field> = (0..VARS)
        .map(|v| {
            let mut f = vec![0.0; nr * nc];
            for (li, i) in tile.rows.clone().enumerate() {
                for (lj, j) in tile.cols.clone().enumerate() {
                    let (x, y) = ((j + 1) as f64 * h, (i + 1) as f64 * h);
                    f[li * nc + lj] = (v + 1) as f64
                        * (std::f64::consts::PI * x).sin()
                        * (std::f64::consts::PI * y).sin();
                }
            }
            f
        })
        .collect();

    // Each sweep reads the field as it stood before the sweep; one
    // buffer holds that copy for every sweep of every step.
    let mut snapshot = u.clone();
    let mut first_norm = 0.0;
    let mut norm = 0.0;
    for step in 0..p.steps {
        // x-direction: lines are local rows; segment crosses columns.
        {
            comm.span_begin("bt-xsolve");
            snapshot.clone_from(&u);
            line_solve(
                comm,
                p,
                nr,
                nc,
                tile.left(),
                tile.right(),
                TAG_X_FWD,
                TAG_X_BWD,
                |v, l, k| snapshot[v][l * nc + k],
                |v, l, k, x| u[v][l * nc + k] = x,
            );
            comm.span_end();
        }
        // y-direction: lines are local columns; segment crosses rows.
        {
            comm.span_begin("bt-ysolve");
            snapshot.clone_from(&u);
            line_solve(
                comm,
                p,
                nc,
                nr,
                tile.up(),
                tile.down(),
                TAG_Y_FWD,
                TAG_Y_BWD,
                |v, l, k| snapshot[v][k * nc + l],
                |v, l, k, x| u[v][k * nc + l] = x,
            );
            comm.span_end();
        }
        // Residual-style monitoring: global max magnitude.
        let local_max = u.iter().flat_map(|f| f.iter()).fold(0.0f64, |m, &x| m.max(x.abs()));
        norm = comm.span("bt-norm", |comm| comm.allreduce_scalar(local_max, ReduceOp::Max));
        if step == 0 {
            first_norm = norm;
        }
    }

    let local_sum: f64 = u.iter().flat_map(|f| f.iter()).sum();
    let checksum = comm.span("bt-checksum", |comm| comm.allreduce_scalar(local_sum, ReduceOp::Sum));
    BtOutput { final_norm: norm, first_norm, checksum, iterations: p.steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_values;
    use psc_mpi::{Cluster, ClusterConfig};

    /// The sequential elimination `forward` replaced: one line at a
    /// time, carries copied out in (var, line) order.
    fn forward_scalar<G: Fn(usize, usize, usize) -> f64>(
        alpha: f64,
        group: Range<usize>,
        carry: &mut [f64],
        get: &G,
        elim: &mut Eliminated,
    ) {
        let a = -alpha;
        let b = 1.0 + 2.0 * alpha;
        let (lines, seg) = (elim.lines, elim.seg);
        let idx = |v: usize, l: usize, k: usize| (v * lines + l) * seg + k;
        let Eliminated { cp, dp, .. } = elim;
        let carry_in = carry.to_vec();
        let mut carry_out = Vec::with_capacity(2 * VARS * group.len());
        for v in 0..VARS {
            for (gl, l) in group.clone().enumerate() {
                let base = 2 * (v * group.len() + gl);
                let (mut cprev, mut dprev) = (carry_in[base], carry_in[base + 1]);
                for k in 0..seg {
                    let denom = b - a * cprev;
                    let cnew = a / denom;
                    let dnew = (get(v, l, k) - a * dprev) / denom;
                    cp[idx(v, l, k)] = cnew;
                    dp[idx(v, l, k)] = dnew;
                    cprev = cnew;
                    dprev = dnew;
                }
                carry_out.push(cprev);
                carry_out.push(dprev);
            }
        }
        carry.copy_from_slice(&carry_out);
    }

    /// The sequential back substitution `backward` replaced.
    fn backward_scalar<S: FnMut(usize, usize, usize, f64)>(
        group: Range<usize>,
        x: &mut [f64],
        elim: &Eliminated,
        set: &mut S,
    ) {
        let (lines, seg) = (elim.lines, elim.seg);
        let idx = |v: usize, l: usize, k: usize| (v * lines + l) * seg + k;
        let Eliminated { cp, dp, .. } = elim;
        let mut x_out = Vec::with_capacity(VARS * group.len());
        for v in 0..VARS {
            for (gl, l) in group.clone().enumerate() {
                let mut xnext = x[v * group.len() + gl];
                for k in (0..seg).rev() {
                    let value = dp[idx(v, l, k)] - cp[idx(v, l, k)] * xnext;
                    set(v, l, k, value);
                    xnext = value;
                }
                x_out.push(xnext);
            }
        }
        x.copy_from_slice(&x_out);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn four_lane_solves_are_bitwise_the_scalar_loops() {
        // Chunk groups of every size mod 4 (tails of 1–3 lines), as
        // `m = 37, chunks = 5` cuts them on 1, 4 and 9 nodes, and the
        // empty segment.
        for lines in [1usize, 2, 3, 4, 5, 7, 12, 13, 18, 19, 37] {
            for seg in [0usize, 1, 2, 5, 13] {
                let n = VARS * lines * seg;
                let field = test_values(n, (lines * 100 + seg) as u64);
                let get = |v: usize, l: usize, k: usize| field[(v * lines + l) * seg + k];
                let chunks = 5.min(lines);
                let (mut elim, mut elim_ref) =
                    (Eliminated::new(lines, seg), Eliminated::new(lines, seg));
                let (mut out, mut out_ref) = (vec![0.0; n], vec![0.0; n]);
                for c in 0..chunks {
                    let group = block_range(lines, chunks, c);
                    let ctx = format!("lines={lines} seg={seg} group={group:?}");
                    let carry_in = test_values(2 * VARS * group.len(), c as u64);
                    let (mut carry, mut carry_ref) = (carry_in.clone(), carry_in);
                    forward(0.8, group.clone(), &mut carry, &get, &mut elim);
                    forward_scalar(0.8, group.clone(), &mut carry_ref, &get, &mut elim_ref);
                    assert_eq!(bits(&carry), bits(&carry_ref), "{ctx}: carry");

                    let x_in = test_values(VARS * group.len(), 7 + c as u64);
                    let (mut x, mut x_ref) = (x_in.clone(), x_in);
                    let mut set = |v: usize, l: usize, k: usize, value: f64| {
                        out[(v * lines + l) * seg + k] = value;
                    };
                    backward(group.clone(), &mut x, &elim, &mut set);
                    let mut set_ref = |v: usize, l: usize, k: usize, value: f64| {
                        out_ref[(v * lines + l) * seg + k] = value;
                    };
                    backward_scalar(group, &mut x_ref, &elim_ref, &mut set_ref);
                    assert_eq!(bits(&x), bits(&x_ref), "{ctx}: x");
                }
                let ctx = format!("lines={lines} seg={seg}");
                assert_eq!(bits(&elim.cp), bits(&elim_ref.cp), "{ctx}: c'");
                assert_eq!(bits(&elim.dp), bits(&elim_ref.dp), "{ctx}: d'");
                assert_eq!(bits(&out), bits(&out_ref), "{ctx}: solution");
            }
        }
    }

    fn run_on(nodes: usize, p: BtParams) -> (f64, BtOutput) {
        let c = Cluster::athlon_fast_ethernet();
        let (res, outs) = c.run(&ClusterConfig::uniform(nodes, 1), move |comm| run(comm, &p));
        (res.time_s, outs.into_iter().next().unwrap())
    }

    #[test]
    fn diffusion_decays_the_solution() {
        let (_, out) = run_on(1, BtParams::test());
        assert!(out.final_norm < out.first_norm, "{} !< {}", out.final_norm, out.first_norm);
        assert!(out.final_norm > 0.0);
    }

    #[test]
    fn matches_analytic_decay_rate() {
        // Lie-split implicit diffusion of the (1,1) sine mode multiplies
        // each variable by (1/(1+α·λ))² per step, with λ the discrete
        // 1D eigenvalue λ = 2−2cos(πh) scaled by 1/h² absorbed in α's
        // normalization. Verify the measured per-step decay is constant.
        let mut p = BtParams::test();
        p.steps = 4;
        let (_, a) = run_on(1, p);
        p.steps = 5;
        let (_, b) = run_on(1, p);
        let decay = b.final_norm / a.final_norm;
        p.steps = 6;
        let (_, c) = run_on(1, p);
        let decay2 = c.final_norm / b.final_norm;
        assert!((decay - decay2).abs() < 1e-6, "mode decay not geometric: {decay} vs {decay2}");
        assert!(decay < 1.0);
    }

    #[test]
    fn bitwise_identical_across_process_grids() {
        // The Test grid, and a ragged one whose chunk groups end in
        // tails of 1–3 lines on every grid.
        for p in [BtParams::test(), BtParams { m: 37, chunks: 5, ..BtParams::test() }] {
            let (_, base) = run_on(1, p);
            for n in [4usize, 9] {
                let (_, out) = run_on(n, p);
                assert!(
                    (out.checksum - base.checksum).abs() < 1e-10 * base.checksum.abs().max(1.0),
                    "m={} n={n}: {} vs {}",
                    p.m,
                    out.checksum,
                    base.checksum
                );
                assert_eq!(out.final_norm, base.final_norm, "m={} n={n}", p.m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "square number")]
    fn rejects_non_square_node_counts() {
        let _ = Tile::new(36, 0, 6);
    }

    #[test]
    fn speedup_modest_4_to_9() {
        let p = BtParams::class_b();
        let (t1, _) = run_on(1, p);
        let (t4, _) = run_on(4, p);
        let (t9, _) = run_on(9, p);
        let s4 = t1 / t4;
        let s9 = t1 / t9;
        assert!((2.0..=3.6).contains(&s4), "BT speedup(4) {s4}");
        let ratio = s9 / s4;
        assert!((1.2..=2.0).contains(&ratio), "BT 4→9 speedup ratio {ratio}");
    }
}
