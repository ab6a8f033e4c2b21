//! Jacobi iteration — the paper's hand-written Figure 3 application.
//!
//! Solves Laplace's equation on a 2D grid with fixed boundary values by
//! Jacobi relaxation. Rows are block-distributed; each iteration
//! exchanges one halo row with each neighbor and (every few iterations)
//! all-reduces the maximum update for convergence monitoring. Chosen by
//! the paper because it runs on *any* number of nodes and achieves good
//! speedup (1.9 / 3.6 / 5.0 / 6.4 / 7.7 on 2–10 nodes) — every adjacent
//! pair of node-count curves falls in case 3.

use crate::common::{block_range, charge};
use psc_mpi::{Comm, ReduceOp};
use serde::{Deserialize, Serialize};

/// Memory pressure of the Jacobi stencil (streaming two grids through
/// the cache; between SP and CG on the paper's scale).
pub const JACOBI_UPM: f64 = 30.0;

/// Jacobi configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JacobiParams {
    /// Interior rows (real).
    pub rows: usize,
    /// Interior columns (real).
    pub cols: usize,
    /// Iterations (fixed count, so results are decomposition-exact).
    pub iters: usize,
    /// Check convergence (all-reduce max diff) every this many iters.
    pub check_every: usize,
    /// Top boundary temperature.
    pub top: f64,
    /// Class-B work multiplier.
    pub work_scale: f64,
    /// Class-B wire multiplier.
    pub wire_scale: f64,
    /// Overlap communication with interior computation: post the halo
    /// receives, send boundaries, relax the *interior* rows while the
    /// messages fly, then wait and relax the boundary rows. Produces
    /// identical numerics (Jacobi reads only old values) but turns the
    /// interior computation into *reducible work* in the paper's
    /// refined-model sense.
    pub overlap: bool,
}

impl JacobiParams {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        JacobiParams {
            rows: 48,
            cols: 48,
            iters: 120,
            check_every: 10,
            top: 100.0,
            work_scale: 1.0,
            wire_scale: 1.0,
            overlap: false,
        }
    }

    /// The experiment configuration: real arithmetic on 192², charged
    /// as a ~2000² grid run long enough to give a ~50-second
    /// single-node time, with halo rows wired at the 2000² width.
    pub fn experiment() -> Self {
        JacobiParams {
            rows: 192,
            cols: 192,
            iters: 500,
            check_every: 10,
            top: 100.0,
            // (2000/192)² spatial × ~3.5 more iterations at full scale.
            work_scale: 380.0,
            wire_scale: 2000.0 / 192.0,
            overlap: false,
        }
    }

    /// The experiment configuration with communication/computation
    /// overlap enabled.
    pub fn experiment_overlap() -> Self {
        JacobiParams { overlap: true, ..JacobiParams::experiment() }
    }
}

/// Jacobi results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JacobiOutput {
    /// Sum of all interior grid values after the final iteration.
    pub checksum: f64,
    /// Last monitored maximum pointwise update.
    pub last_diff: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Run Jacobi iteration on the communicator.
pub fn run(comm: &mut Comm, p: &JacobiParams) -> JacobiOutput {
    comm.set_wire_scale(p.wire_scale);
    let (rank, size) = (comm.rank(), comm.size());
    let my = block_range(p.rows, size, rank);
    let local = my.len();
    let w = p.cols;

    // Local slab with two ghost rows (index 0 and local+1). The global
    // top boundary is hot; all other boundaries are 0.
    let mut u = vec![vec![0.0f64; w + 2]; local + 2];
    let mut unew = u.clone();
    if my.start == 0 {
        u[0].fill(p.top);
        unew[0].fill(p.top);
    }

    let up = if my.start == 0 { None } else { Some(owner_of(p.rows, size, my.start - 1)) };
    let down = if my.end == p.rows { None } else { Some(owner_of(p.rows, size, my.end)) };

    let mut last_diff = f64::INFINITY;
    for it in 0..p.iters {
        let diff;
        if p.overlap && local >= 3 {
            // Post receives and fire the boundary sends, then relax the
            // interior while the halos are in flight (reducible work),
            // then complete the receives and relax the boundary rows.
            comm.span_begin("jacobi-halo");
            let req_top = up.map(|u_n| {
                comm.isend(u_n, 1, u[1].clone());
                comm.irecv::<Vec<f64>>(u_n, 2)
            });
            let req_bot = down.map(|d_n| {
                comm.isend(d_n, 2, u[local].clone());
                comm.irecv::<Vec<f64>>(d_n, 1)
            });
            comm.span_end();
            comm.span_begin("jacobi-relax");
            let interior = relax_rows(&u, &mut unew, 2..local);
            charge(comm, 5.0 * ((local - 2) * w) as f64, p.work_scale, JACOBI_UPM);
            comm.span_end();
            comm.span_begin("jacobi-halo");
            if let Some(req) = req_top {
                u[0] = comm.wait(req);
            }
            if let Some(req) = req_bot {
                u[local + 1] = comm.wait(req);
            }
            comm.span_end();
            comm.span_begin("jacobi-relax");
            diff = interior.max(relax_rows(&u, &mut unew, [1, local]));
            charge(comm, 5.0 * (2 * w) as f64, p.work_scale, JACOBI_UPM);
            comm.span_end();
        } else {
            // Blocking halo exchange, then relax everything.
            comm.span_begin("jacobi-halo");
            if local > 0 {
                if let Some(u_n) = up {
                    let ghost_top: Vec<f64> = comm.sendrecv(u_n, 1, u[1].clone(), u_n, 2);
                    u[0] = ghost_top;
                }
                if let Some(d_n) = down {
                    let ghost_bot: Vec<f64> = comm.sendrecv(d_n, 2, u[local].clone(), d_n, 1);
                    u[local + 1] = ghost_bot;
                }
            }
            comm.span_end();
            comm.span_begin("jacobi-relax");
            diff = relax_rows(&u, &mut unew, 1..=local);
            charge(comm, 5.0 * (local * w) as f64, p.work_scale, JACOBI_UPM);
            comm.span_end();
        }
        std::mem::swap(&mut u, &mut unew);
        // Keep the hot boundary pinned in the ghost row after the swap.
        if my.start == 0 {
            u[0].fill(p.top);
        }

        if (it + 1) % p.check_every == 0 {
            last_diff =
                comm.span("jacobi-residual", |comm| comm.allreduce_scalar(diff, ReduceOp::Max));
        }
    }

    let checksum_local: f64 = (1..=local).map(|i| u[i][1..=w].iter().sum::<f64>()).sum();
    let checksum =
        comm.span("jacobi-checksum", |comm| comm.allreduce_scalar(checksum_local, ReduceOp::Sum));
    JacobiOutput { checksum, last_diff, iterations: p.iters }
}

/// Relax the slab rows `rows` of `u` into `unew`, returning the largest
/// pointwise update (0 for no rows).
fn relax_rows(u: &[Vec<f64>], unew: &mut [Vec<f64>], rows: impl IntoIterator<Item = usize>) -> f64 {
    rows.into_iter()
        .fold(0.0, |diff, i| diff.max(relax_row(&u[i - 1], &u[i], &u[i + 1], &mut unew[i])))
}

/// Relax one interior row, `out[j] = 0.25 * (((above[j] + below[j]) +
/// row[j - 1]) + row[j + 1])` for every interior column `j`, and return
/// the largest `|out[j] - row[j]|`. All four slices are the `cols + 2`
/// points of a row, ghost columns included.
///
/// The stencil pass has no loop-carried value, so it vectorizes. The
/// largest update is taken in a second pass over four accumulators:
/// `max` of non-NaN values is order-free, so this is the answer of the
/// serial chain (DESIGN.md, "Kernel arithmetic contract").
fn relax_row(above: &[f64], row: &[f64], below: &[f64], out: &mut [f64]) -> f64 {
    let w = row.len() - 2;
    let (above, below, old) = (&above[1..=w], &below[1..=w], &row[1..=w]);
    let (left, right) = (&row[..w], &row[2..]);
    let out = &mut out[1..=w];
    for ((((v, &a), &b), &l), &r) in out.iter_mut().zip(above).zip(below).zip(left).zip(right) {
        *v = 0.25 * (((a + b) + l) + r);
    }

    let (new4, new_tail) = out.as_chunks::<4>();
    let (old4, old_tail) = old.as_chunks::<4>();
    let mut acc = [0.0f64; 4];
    for (n, o) in new4.iter().zip(old4) {
        for ((m, &n), &o) in acc.iter_mut().zip(n).zip(o) {
            *m = m.max((n - o).abs());
        }
    }
    for (&n, &o) in new_tail.iter().zip(old_tail) {
        acc[0] = acc[0].max((n - o).abs());
    }
    acc[0].max(acc[1]).max(acc[2].max(acc[3]))
}

/// Which rank owns a global row under the balanced block decomposition.
pub(crate) fn owner_of(total: usize, parts: usize, row: usize) -> usize {
    let base = total / parts;
    let rem = total % parts;
    let big = (base + 1) * rem;
    if row < big {
        row / (base + 1)
    } else {
        rem + (row - big) / base.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_mpi::{Cluster, ClusterConfig};

    /// The sequential relaxation loop `relax_rows` replaced: one `max`
    /// chain, `Vec<Vec<f64>>` indexing, the same sum order.
    fn relax_rows_scalar(
        u: &[Vec<f64>],
        unew: &mut [Vec<f64>],
        rows: impl IntoIterator<Item = usize>,
    ) -> f64 {
        let w = u[0].len() - 2;
        let mut diff = 0.0f64;
        for i in rows {
            for j in 1..=w {
                let v = 0.25 * (u[i - 1][j] + u[i + 1][j] + u[i][j - 1] + u[i][j + 1]);
                diff = diff.max((v - u[i][j]).abs());
                unew[i][j] = v;
            }
        }
        diff
    }

    /// A `local`-row slab (plus ghost rows) of `w` interior columns.
    fn slab(local: usize, w: usize, seed: u64) -> Vec<Vec<f64>> {
        crate::common::test_values((local + 2) * (w + 2), seed)
            .chunks_exact(w + 2)
            .map(<[f64]>::to_vec)
            .collect()
    }

    #[test]
    fn row_stencil_is_bitwise_the_scalar_loop() {
        // Every chunk tail of the max pass (cols mod 4), one-row slabs,
        // and the overlap path's interior-then-boundary row sets.
        for w in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 192] {
            for local in 1..=5usize {
                let u = slab(local, w, (w * 31 + local) as u64);
                let mut row_sets: Vec<Vec<usize>> = vec![(1..=local).collect()];
                if local >= 3 {
                    row_sets.push((2..local).collect());
                    row_sets.push(vec![1, local]);
                }
                for rows in row_sets {
                    let (mut fast, mut slow) = (slab(local, w, 7), slab(local, w, 7));
                    let got = relax_rows(&u, &mut fast, rows.iter().copied());
                    let want = relax_rows_scalar(&u, &mut slow, rows.iter().copied());
                    let ctx = format!("w={w} local={local} rows={rows:?}");
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: max update");
                    for (a, b) in fast.iter().flatten().zip(slow.iter().flatten()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: grid");
                    }
                }
            }
        }
    }

    fn run_on(nodes: usize, p: JacobiParams) -> (f64, JacobiOutput) {
        let c = Cluster::athlon_fast_ethernet();
        let (res, outs) = c.run(&ClusterConfig::uniform(nodes, 1), move |comm| run(comm, &p));
        (res.time_s, outs.into_iter().next().unwrap())
    }

    #[test]
    fn owner_of_inverts_block_range() {
        for total in [7usize, 48, 100, 192] {
            for parts in [1usize, 2, 3, 5, 10] {
                for part in 0..parts {
                    for row in crate::common::block_range(total, parts, part) {
                        assert_eq!(owner_of(total, parts, row), part, "{total}/{parts}/{row}");
                    }
                }
            }
        }
    }

    #[test]
    fn heat_flows_from_hot_boundary() {
        let (_, out) = run_on(1, JacobiParams::test());
        assert!(out.checksum > 0.0, "heat should diffuse into the grid");
        assert!(out.last_diff < 1.0, "updates should shrink: {}", out.last_diff);
    }

    #[test]
    fn result_exactly_independent_of_node_count() {
        let (_, base) = run_on(1, JacobiParams::test());
        for n in [2usize, 3, 5, 10] {
            let (_, out) = run_on(n, JacobiParams::test());
            // Pointwise Jacobi with exact halo exchange: bitwise-equal
            // grids; only the final checksum reduction order differs.
            assert!(
                (out.checksum - base.checksum).abs() <= 1e-9 * base.checksum.abs(),
                "n={n}: {} vs {}",
                out.checksum,
                base.checksum
            );
        }
    }

    #[test]
    fn convergence_monitor_decreases() {
        let p = JacobiParams::test();
        let mut short = p;
        short.iters = 20;
        let (_, early) = run_on(2, short);
        let (_, late) = run_on(2, p);
        assert!(late.last_diff < early.last_diff);
    }

    #[test]
    fn overlap_produces_identical_numerics() {
        // The Test grid, and narrow ones cut into one- to three-row
        // slabs (only a slab of three or more rows overlaps).
        let narrow = |cols| JacobiParams { rows: 7, cols, iters: 30, ..JacobiParams::test() };
        let mut cases = vec![(JacobiParams::test(), 4usize)];
        for cols in [1usize, 2, 3, 5] {
            cases.extend([3usize, 4, 7].map(|n| (narrow(cols), n)));
        }
        for (p, n) in cases {
            let (_, plain) = run_on(n, p);
            let (_, overlapped) = run_on(n, JacobiParams { overlap: true, ..p });
            // Jacobi reads only old values, so reordering boundary vs
            // interior relaxation is bitwise irrelevant.
            assert_eq!(plain, overlapped, "cols={} n={n}", p.cols);
        }
    }

    #[test]
    fn overlap_never_slower() {
        let plain = JacobiParams::experiment();
        let over = JacobiParams::experiment_overlap();
        for n in [2usize, 4, 8] {
            let (tp, _) = run_on(n, plain);
            let (to, _) = run_on(n, over);
            assert!(to <= tp + 1e-9, "n={n}: overlap slower ({to} vs {tp})");
        }
    }

    #[test]
    fn overlap_creates_reducible_work() {
        let c = Cluster::athlon_fast_ethernet();
        let p = JacobiParams::experiment_overlap();
        let (res, _) = c.run(&psc_mpi::ClusterConfig::uniform(4, 1), move |comm| run(comm, &p));
        // A middle rank posts receives, computes its interior, then
        // waits — the interior compute is between the last send and a
        // blocking point, i.e. reducible.
        let (crit, red) = res.ranks[1].trace.critical_reducible_split();
        let frac = red / (crit + red);
        assert!(frac > 0.5, "reducible fraction only {frac}");
    }

    #[test]
    fn speedups_match_paper_figure3() {
        // Paper: 1.9, 3.6, 5.0, 6.4, 7.7 on 2, 4, 6, 8, 10 nodes.
        let p = JacobiParams::experiment();
        let (t1, _) = run_on(1, p);
        let expect = [(2usize, 1.9), (4, 3.6), (6, 5.0), (8, 6.4), (10, 7.7)];
        for (n, target) in expect {
            let (tn, _) = run_on(n, p);
            let s = t1 / tn;
            assert!(
                (s - target).abs() / target < 0.15,
                "Jacobi speedup({n}) = {s:.2}, paper {target}"
            );
        }
    }
}
