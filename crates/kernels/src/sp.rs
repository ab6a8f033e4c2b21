//! SP — scalar pentadiagonal ADI solver (the NAS SP structure).
//!
//! Like [`crate::bt`], SP advances a diffusion-type system with ADI
//! sweeps over a √n×√n process grid, but each grid line yields a single
//! *pentadiagonal* system (a fourth-order hyper-diffusion term joins
//! the second-order one), solved with a banded elimination whose
//! carries span two columns. One scalar variable instead of BT's three,
//! with less arithmetic per point — which is why SP sits lower than BT
//! on the paper's UPM scale (49.5 vs 79.6) and shows a steeper
//! energy-time slope.

use crate::common::{block_range, charge, lane_blocks, LANES};
use psc_mpi::{Comm, ReduceOp};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Memory pressure of SP measured by the paper (Table 1).
pub const SP_UPM: f64 = 49.5;

const TAG_X_FWD: u64 = 1;
const TAG_X_BWD: u64 = 2;
const TAG_Y_FWD: u64 = 3;
const TAG_Y_BWD: u64 = 4;

/// SP configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpParams {
    /// Interior points per side (real).
    pub m: usize,
    /// Second-order diffusion number β = κ·Δt/h².
    pub beta: f64,
    /// Fourth-order (hyper-diffusion) number α = ν·Δt/h⁴.
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

impl SpParams {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        SpParams {
            m: 36,
            beta: 0.6,
            alpha: 0.05,
            steps: 8,
            chunks: 3,
            work_scale: 1.0,
            wire_scale: 1.0,
        }
    }

    /// The experiment configuration: real arithmetic on 144², charged
    /// and wired at NAS class-B scale (102³ scalar penta systems).
    pub fn class_b() -> Self {
        SpParams {
            m: 144,
            beta: 0.6,
            alpha: 0.05,
            steps: 50,
            chunks: 4,
            work_scale: 13_500.0,
            wire_scale: 220.0,
        }
    }
}

/// SP results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpOutput {
    /// Maximum |u| after the final step.
    pub final_norm: f64,
    /// Maximum |u| after the first step.
    pub first_norm: f64,
    /// Sum over all points.
    pub checksum: f64,
    /// Steps executed.
    pub iterations: usize,
}

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

/// Pipelined pentadiagonal solve along one direction.
///
/// System per line: `e·x_{k−2} + a·x_{k−1} + b·x_k + a·x_{k+1} +
/// e·x_{k+2} = d_k` with zero Dirichlet boundaries two points deep.
/// Forward elimination normalizes each row to
/// `x_k + α_k·x_{k+1} + β_k·x_{k+2} = γ_k`; the carry between ranks is
/// `(α, β, γ)` of the last *two* rows of the segment (6 doubles per
/// line), and back substitution carries the first two solution values.
#[allow(clippy::too_many_arguments)]
fn penta_solve<G, S>(
    comm: &mut Comm,
    p: &SpParams,
    lines: usize,
    seg: usize,
    prev: Option<usize>,
    next: Option<usize>,
    tag_fwd: u64,
    tag_bwd: u64,
    get: G,
    mut set: S,
) where
    G: Fn(usize, usize) -> f64,
    S: FnMut(usize, usize, f64),
{
    let mut elim = Eliminated::new(lines, seg);

    let chunks = p.chunks.min(lines.max(1));
    // ---- forward elimination ----
    for c in 0..chunks {
        let group = block_range(lines, chunks, c);
        // Carry: (α, β, γ) for the previous two rows of each line,
        // advanced in place to the segment's last two rows.
        let mut carry: Vec<f64> = match prev {
            Some(src) => comm.recv(src, tag_fwd),
            None => vec![0.0; 6 * group.len()],
        };
        forward(p, group.clone(), &mut carry, &get, &mut elim);
        charge(comm, (14 * group.len() * seg) as f64, p.work_scale, SP_UPM);
        if let Some(dst) = next {
            comm.send(dst, tag_fwd, carry);
        }
    }

    // ---- back substitution ----
    for c in (0..chunks).rev() {
        let group = block_range(lines, chunks, c);
        // Solution at the two points just beyond the segment, turned
        // into the two at its start.
        let mut x: Vec<f64> = match next {
            Some(src) => comm.recv(src, tag_bwd),
            None => vec![0.0; 2 * group.len()],
        };
        backward(group.clone(), &mut x, &elim, &mut set);
        charge(comm, (5 * group.len() * seg) as f64, p.work_scale, SP_UPM);
        if let Some(dst) = prev {
            comm.send(dst, tag_bwd, x);
        }
    }
}

/// Forward elimination's output for every `(line, k)` of a rank's
/// segment, the normalized `(α, β, γ)` back substitution reads, `seg`
/// values per line, line after line.
struct Eliminated {
    seg: usize,
    al: Vec<f64>,
    be: Vec<f64>,
    ga: Vec<f64>,
}

impl Eliminated {
    fn new(lines: usize, seg: usize) -> Self {
        let zeros = vec![0.0; lines * seg];
        Eliminated { seg, al: zeros.clone(), be: zeros.clone(), ga: zeros }
    }
}

/// Forward elimination of one chunk's `group` of lines, `LANES` lines
/// at a time. `carry` holds six values per line of the group and is
/// advanced in place.
fn forward<G: Fn(usize, usize) -> f64>(
    p: &SpParams,
    group: Range<usize>,
    carry: &mut [f64],
    get: &G,
    elim: &mut Eliminated,
) {
    let seg = elim.seg;
    for (l0, width) in lane_blocks(group.clone()) {
        let carry = &mut carry[6 * (l0 - group.start)..6 * (l0 - group.start + width)];
        let at = l0 * seg..(l0 + width) * seg;
        let (al, be, ga) = (&mut elim.al[at.clone()], &mut elim.be[at.clone()], &mut elim.ga[at]);
        let get = |i: usize, k: usize| get(l0 + i, k);
        if width == LANES {
            forward_lanes::<LANES>(p, seg, carry, get, al, be, ga);
        } else {
            forward_lanes::<1>(p, seg, carry, get, al, be, ga);
        }
    }
}

/// Back substitution of one chunk's `group` of lines, `LANES` lines at
/// a time. `x` holds two values per line of the group: the solution
/// at the two points beyond the segment on entry, at its first two on
/// return.
fn backward<S: FnMut(usize, usize, f64)>(
    group: Range<usize>,
    x: &mut [f64],
    elim: &Eliminated,
    set: &mut S,
) {
    let seg = elim.seg;
    for (l0, width) in lane_blocks(group.clone()) {
        let x = &mut x[2 * (l0 - group.start)..2 * (l0 - group.start + width)];
        let at = l0 * seg..(l0 + width) * seg;
        let (al, be, ga) = (&elim.al[at.clone()], &elim.be[at.clone()], &elim.ga[at]);
        let set = |i: usize, k: usize, value: f64| set(l0 + i, k, value);
        if width == LANES {
            backward_lanes::<LANES>(seg, x, al, be, ga, set);
        } else {
            backward_lanes::<1>(seg, x, al, be, ga, set);
        }
    }
}

/// Banded elimination of `L` lines side by side: lane `i` reads
/// `get(i, k)`, writes row `i` of `al`/`be`/`ga` (`seg` values each) and
/// starts from, and leaves the `(α, β, γ)` of its last two rows in,
/// `carry[6i..6i + 6]`. Every lane runs exactly the sequential
/// recurrence.
fn forward_lanes<const L: usize>(
    p: &SpParams,
    seg: usize,
    carry: &mut [f64],
    get: impl Fn(usize, usize) -> f64,
    al: &mut [f64],
    be: &mut [f64],
    ga: &mut [f64],
) {
    let e = p.alpha;
    let a = -4.0 * p.alpha - p.beta;
    let b = 1.0 + 6.0 * p.alpha + 2.0 * p.beta;
    // Per lane, (α,β,γ) of rows k−2 and k−1.
    let mut state: [[f64; 6]; L] =
        std::array::from_fn(|i| std::array::from_fn(|j| carry[6 * i + j]));
    for k in 0..seg {
        for (i, s) in state.iter_mut().enumerate() {
            let [al2, be2, ga2, al1, be1, ga1] = *s;
            // Eliminate x_{k−2} then x_{k−1} from the raw row.
            let a1 = a - e * al2; // coefficient of x_{k−1}
            let b0 = b - e * be2 - a1 * al1; // coefficient of x_k
            let a2 = a - a1 * be1; // coefficient of x_{k+1}
            let d0 = get(i, k) - e * ga2 - a1 * ga1;
            let alk = a2 / b0;
            let bek = e / b0;
            let gak = d0 / b0;
            al[i * seg + k] = alk;
            be[i * seg + k] = bek;
            ga[i * seg + k] = gak;
            *s = [al1, be1, ga1, alk, bek, gak];
        }
    }
    for (out, s) in carry.chunks_exact_mut(6).zip(state) {
        out.copy_from_slice(&s);
    }
}

/// Back substitution of `L` lines side by side, lane `i` from
/// `(x_{k+1}, x_{k+2}) = x[2i..2i + 2]` through row `i` of
/// `al`/`be`/`ga`, leaving its first two solution values there.
fn backward_lanes<const L: usize>(
    seg: usize,
    x: &mut [f64],
    al: &[f64],
    be: &[f64],
    ga: &[f64],
    mut set: impl FnMut(usize, usize, f64),
) {
    let mut state: [[f64; 2]; L] = std::array::from_fn(|i| [x[2 * i], x[2 * i + 1]]);
    for k in (0..seg).rev() {
        for (i, [x1, x2]) in state.iter_mut().enumerate() {
            let value = ga[i * seg + k] - al[i * seg + k] * *x1 - be[i * seg + k] * *x2;
            set(i, k, value);
            *x2 = *x1;
            *x1 = value;
        }
    }
    for (out, s) in x.chunks_exact_mut(2).zip(state) {
        out.copy_from_slice(&s);
    }
}

/// Run SP on the communicator. The node count must be a perfect square.
pub fn run(comm: &mut Comm, p: &SpParams) -> SpOutput {
    comm.set_wire_scale(p.wire_scale);
    let tile = Tile::new(p.m, comm.rank(), comm.size());
    let (nr, nc) = (tile.rows.len(), tile.cols.len());
    let h = 1.0 / (p.m + 1) as f64;

    let mut u = vec![0.0f64; nr * nc];
    for (li, i) in tile.rows.clone().enumerate() {
        for (lj, j) in tile.cols.clone().enumerate() {
            let (x, y) = ((j + 1) as f64 * h, (i + 1) as f64 * h);
            u[li * nc + lj] =
                (std::f64::consts::PI * x).sin() * (2.0 * std::f64::consts::PI * y).sin();
        }
    }

    // Each sweep reads the field as it stood before the sweep; one
    // buffer holds that copy for every sweep of every step.
    let mut snapshot = u.clone();
    let mut first_norm = 0.0;
    let mut norm = 0.0;
    for step in 0..p.steps {
        {
            comm.span_begin("sp-xsolve");
            snapshot.clone_from(&u);
            penta_solve(
                comm,
                p,
                nr,
                nc,
                tile.left(),
                tile.right(),
                TAG_X_FWD,
                TAG_X_BWD,
                |l, k| snapshot[l * nc + k],
                |l, k, x| u[l * nc + k] = x,
            );
            comm.span_end();
        }
        {
            comm.span_begin("sp-ysolve");
            snapshot.clone_from(&u);
            penta_solve(
                comm,
                p,
                nc,
                nr,
                tile.up(),
                tile.down(),
                TAG_Y_FWD,
                TAG_Y_BWD,
                |l, k| snapshot[k * nc + l],
                |l, k, x| u[k * nc + l] = x,
            );
            comm.span_end();
        }
        let local_max = u.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        norm = comm.span("sp-norm", |comm| comm.allreduce_scalar(local_max, ReduceOp::Max));
        if step == 0 {
            first_norm = norm;
        }
    }

    // Sum of squares: the plain sum of this antisymmetric field is ~0,
    // which would make the checksum pure roundoff noise.
    let local_sum: f64 = u.iter().map(|x| x * x).sum();
    let checksum = comm.span("sp-checksum", |comm| comm.allreduce_scalar(local_sum, ReduceOp::Sum));
    SpOutput { final_norm: norm, first_norm, checksum, iterations: p.steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_values;
    use psc_mpi::{Cluster, ClusterConfig};

    /// The sequential elimination `forward` replaced: one line at a
    /// time, carries copied out line by line.
    fn forward_scalar<G: Fn(usize, usize) -> f64>(
        p: &SpParams,
        group: Range<usize>,
        carry: &mut [f64],
        get: &G,
        elim: &mut Eliminated,
    ) {
        let Eliminated { seg, al, be, ga } = elim;
        let seg = *seg;
        let e = p.alpha;
        let a = -4.0 * p.alpha - p.beta;
        let b = 1.0 + 6.0 * p.alpha + 2.0 * p.beta;
        let idx = |l: usize, k: usize| l * seg + k;
        let carry_in = carry.to_vec();
        let mut carry_out = Vec::with_capacity(6 * group.len());
        for (gl, l) in group.clone().enumerate() {
            let base = 6 * gl;
            let (mut al2, mut be2, mut ga2) =
                (carry_in[base], carry_in[base + 1], carry_in[base + 2]);
            let (mut al1, mut be1, mut ga1) =
                (carry_in[base + 3], carry_in[base + 4], carry_in[base + 5]);
            for k in 0..seg {
                let a1 = a - e * al2;
                let b0 = b - e * be2 - a1 * al1;
                let a2 = a - a1 * be1;
                let d0 = get(l, k) - e * ga2 - a1 * ga1;
                let alk = a2 / b0;
                let bek = e / b0;
                let gak = d0 / b0;
                al[idx(l, k)] = alk;
                be[idx(l, k)] = bek;
                ga[idx(l, k)] = gak;
                al2 = al1;
                be2 = be1;
                ga2 = ga1;
                al1 = alk;
                be1 = bek;
                ga1 = gak;
            }
            carry_out.extend_from_slice(&[al2, be2, ga2, al1, be1, ga1]);
        }
        carry.copy_from_slice(&carry_out);
    }

    /// The sequential back substitution `backward` replaced.
    fn backward_scalar<S: FnMut(usize, usize, f64)>(
        group: Range<usize>,
        x: &mut [f64],
        elim: &Eliminated,
        set: &mut S,
    ) {
        let Eliminated { seg, al, be, ga } = elim;
        let seg = *seg;
        let idx = |l: usize, k: usize| l * seg + k;
        let mut x_out = Vec::with_capacity(2 * group.len());
        for (gl, l) in group.enumerate() {
            let (mut x1, mut x2) = (x[2 * gl], x[2 * gl + 1]);
            for k in (0..seg).rev() {
                let value = ga[idx(l, k)] - al[idx(l, k)] * x1 - be[idx(l, k)] * x2;
                set(l, k, value);
                x2 = x1;
                x1 = value;
            }
            x_out.extend_from_slice(&[x1, x2]);
        }
        x.copy_from_slice(&x_out);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn four_lane_solves_are_bitwise_the_scalar_loops() {
        // Chunk groups of every size mod 4 (tails of 1–3 lines), as
        // `m = 37, chunks = 5` cuts them on 1, 4 and 9 nodes, and
        // segments shorter than the two-row carry.
        let p = SpParams::test();
        for lines in [1usize, 2, 3, 4, 5, 7, 12, 13, 18, 19, 37] {
            for seg in [0usize, 1, 2, 5, 13] {
                let n = lines * seg;
                let field = test_values(n, (lines * 100 + seg) as u64);
                let get = |l: usize, k: usize| field[l * seg + k];
                let chunks = 5.min(lines);
                let (mut elim, mut elim_ref) =
                    (Eliminated::new(lines, seg), Eliminated::new(lines, seg));
                let (mut out, mut out_ref) = (vec![0.0; n], vec![0.0; n]);
                for c in 0..chunks {
                    let group = block_range(lines, chunks, c);
                    let ctx = format!("lines={lines} seg={seg} group={group:?}");
                    let carry_in = test_values(6 * group.len(), c as u64);
                    let (mut carry, mut carry_ref) = (carry_in.clone(), carry_in);
                    forward(&p, group.clone(), &mut carry, &get, &mut elim);
                    forward_scalar(&p, group.clone(), &mut carry_ref, &get, &mut elim_ref);
                    assert_eq!(bits(&carry), bits(&carry_ref), "{ctx}: carry");

                    let x_in = test_values(2 * group.len(), 7 + c as u64);
                    let (mut x, mut x_ref) = (x_in.clone(), x_in);
                    let mut set = |l: usize, k: usize, value: f64| out[l * seg + k] = value;
                    backward(group.clone(), &mut x, &elim, &mut set);
                    let mut set_ref = |l: usize, k: usize, value: f64| out_ref[l * seg + k] = value;
                    backward_scalar(group, &mut x_ref, &elim_ref, &mut set_ref);
                    assert_eq!(bits(&x), bits(&x_ref), "{ctx}: x");
                }
                let ctx = format!("lines={lines} seg={seg}");
                for (got, want) in
                    [(&elim.al, &elim_ref.al), (&elim.be, &elim_ref.be), (&elim.ga, &elim_ref.ga)]
                {
                    assert_eq!(bits(got), bits(want), "{ctx}: (α, β, γ)");
                }
                assert_eq!(bits(&out), bits(&out_ref), "{ctx}: solution");
            }
        }
    }

    fn run_on(nodes: usize, p: SpParams) -> (f64, SpOutput) {
        let c = Cluster::athlon_fast_ethernet();
        let (res, outs) = c.run(&ClusterConfig::uniform(nodes, 1), move |comm| run(comm, &p));
        (res.time_s, outs.into_iter().next().unwrap())
    }

    #[test]
    fn hyper_diffusion_decays_the_solution() {
        let (_, out) = run_on(1, SpParams::test());
        assert!(out.final_norm < out.first_norm);
        assert!(out.final_norm > 0.0);
        assert!(out.final_norm.is_finite());
    }

    #[test]
    fn penta_solver_is_stable_and_geometric() {
        let mut p = SpParams::test();
        p.steps = 4;
        let (_, a) = run_on(1, p);
        p.steps = 5;
        let (_, b) = run_on(1, p);
        p.steps = 6;
        let (_, c) = run_on(1, p);
        let d1 = b.final_norm / a.final_norm;
        let d2 = c.final_norm / b.final_norm;
        // Sine modes are only near-eigenmodes of the truncated discrete
        // biharmonic (the boundary rows differ from (D²)²), so the decay
        // is approximately geometric, not exactly.
        assert!((d1 - d2).abs() < 1e-3, "decay not near-geometric: {d1} vs {d2}");
        assert!(d1 < 1.0);
    }

    #[test]
    fn bitwise_identical_across_process_grids() {
        // The Test grid, and a ragged one whose chunk groups end in
        // tails of 1–3 lines on every grid.
        for p in [SpParams::test(), SpParams { m: 37, chunks: 5, ..SpParams::test() }] {
            let (_, base) = run_on(1, p);
            for n in [4usize, 9] {
                let (_, out) = run_on(n, p);
                assert!(
                    (out.checksum - base.checksum).abs() < 1e-10 * base.checksum.abs().max(1e-12),
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
    fn pure_tridiagonal_limit_matches_direct_check() {
        // With α = 0 the pentadiagonal solver degenerates to the Thomas
        // algorithm; a single x-sweep on one rank then solves
        // (I − β∂²) per row, which must reproduce the analytic decay of
        // a 1D sine mode.
        let mut p = SpParams::test();
        p.alpha = 0.0;
        p.steps = 1;
        let (_, out) = run_on(1, p);
        assert!(out.final_norm < 1.0 && out.final_norm > 0.0);
    }

    #[test]
    fn speedup_modest_4_to_9() {
        let p = SpParams::class_b();
        let (t1, _) = run_on(1, p);
        let (t4, _) = run_on(4, p);
        let (t9, _) = run_on(9, p);
        let s4 = t1 / t4;
        let s9 = t1 / t9;
        assert!((1.8..=3.6).contains(&s4), "SP speedup(4) {s4}");
        let ratio = s9 / s4;
        assert!((1.2..=2.0).contains(&ratio), "SP 4→9 speedup ratio {ratio}");
    }
}
