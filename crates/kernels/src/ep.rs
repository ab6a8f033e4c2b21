//! EP — the NAS "embarrassingly parallel" benchmark.
//!
//! Generates pairs of uniform deviates with the NAS linear congruential
//! generator, applies the Marsaglia polar (Box–Muller) acceptance test,
//! tabulates the resulting Gaussian deviates into ten annuli, and sums
//! them. The only communication is a trailing all-reduce of the sums and
//! counts, so speedup is essentially perfect — the paper's reference
//! point for "the CPU is the critical path" (UPM 844, slowdown tracking
//! the CPU cycle time, and no benefit from extra nodes' lower gears).

use crate::common::{block_range, charge, NasRng};
use psc_mpi::{Comm, ReduceOp};
use serde::{Deserialize, Serialize};

/// Memory pressure of EP measured by the paper (Table 1).
pub const EP_UPM: f64 = 844.0;

/// Flops charged per generated pair (generation, acceptance test, and
/// amortized transform/tabulation of accepted pairs).
const FLOPS_PER_PAIR: f64 = 30.0;

/// EP configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpParams {
    /// Number of random pairs across all ranks.
    pub pairs: u64,
    /// NAS LCG seed (odd).
    pub seed: u64,
    /// Class-B work multiplier (see crate docs).
    pub work_scale: f64,
}

impl EpParams {
    /// Tiny configuration for unit tests.
    pub fn test() -> Self {
        EpParams { pairs: 20_000, seed: 271_828_183, work_scale: 1.0 }
    }

    /// The experiment configuration: real arithmetic on 2^20 pairs,
    /// charged at class-B magnitude (2^33 pairs, ≈140 virtual seconds on
    /// one node at gear 1 — the scale of the paper's Figure 1).
    pub fn class_b() -> Self {
        let real_pairs = 1u64 << 20;
        let target_pairs = 1u64 << 33;
        EpParams {
            pairs: real_pairs,
            seed: 271_828_183,
            work_scale: target_pairs as f64 / real_pairs as f64,
        }
    }
}

/// EP results (identical on every rank after the final all-reduce).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpOutput {
    /// Sum of accepted Gaussian X deviates.
    pub sx: f64,
    /// Sum of accepted Gaussian Y deviates.
    pub sy: f64,
    /// Annulus counts: `counts[k]` pairs with `max(|X|,|Y|) ∈ [k, k+1)`.
    pub counts: [u64; 10],
    /// Total accepted pairs.
    pub accepted: u64,
}

/// Run EP on the communicator. Every rank draws an independent slice of
/// one global random stream (via LCG jump-ahead), so results are
/// independent of the rank count up to floating-point summation order.
pub fn run(comm: &mut Comm, p: &EpParams) -> EpOutput {
    run_with(comm, p, tally)
}

/// [`run`], with the pair loop `tally` passed in.
fn run_with(comm: &mut Comm, p: &EpParams, tally: fn(&mut NasRng, usize, &mut Tally)) -> EpOutput {
    let range = block_range(p.pairs as usize, comm.size(), comm.rank());
    // Each pair consumes two deviates; jump to this rank's slice start.
    let mut rng = NasRng::skip(p.seed, 2 * range.start as u64);
    let mut sums = Tally::default();

    // Process in chunks so work is charged alongside the arithmetic it
    // models, letting per-gear power averaging see realistic block sizes.
    const CHUNK: usize = 65_536;
    let mut remaining = range.len();
    comm.span_begin("ep-gaussian");
    while remaining > 0 {
        let batch = remaining.min(CHUNK);
        tally(&mut rng, batch, &mut sums);
        charge(comm, batch as f64 * FLOPS_PER_PAIR, p.work_scale, EP_UPM);
        remaining -= batch;
    }
    comm.span_end();

    // The single communication step: sum everything across ranks.
    let mut buf = vec![sums.sx, sums.sy, sums.accepted as f64];
    buf.extend(sums.counts.map(|c| c as f64));
    let total = comm.span("ep-reduce", |comm| comm.allreduce(buf, ReduceOp::Sum));

    let mut out_counts = [0u64; 10];
    for (dst, src) in out_counts.iter_mut().zip(&total[3..13]) {
        *dst = src.round() as u64;
    }
    EpOutput { sx: total[0], sy: total[1], counts: out_counts, accepted: total[2].round() as u64 }
}

/// One rank's running sums over its accepted pairs.
#[derive(Default)]
struct Tally {
    sx: f64,
    sy: f64,
    counts: [u64; 10],
    accepted: u64,
}

/// Pairs [`tally`] draws, tests and transforms per batch.
const BATCH: usize = 256;

/// Draw `pairs` pairs from `rng` and add the accepted ones to `sums`.
///
/// About one pair in five fails the acceptance test, at random, so a
/// branch on it mispredicts often. Each batch of up to [`BATCH`] pairs
/// therefore draws every pair first, keeps the indices of the accepted
/// ones without a branch, transforms only those, and then adds them to
/// the sums one by one in pair order: the sums are serial chains, so
/// they keep their order (DESIGN.md §13). The counts are integers, exact
/// in any order.
fn tally(rng: &mut NasRng, pairs: usize, sums: &mut Tally) {
    let (mut x, mut y, mut t) = ([0.0f64; BATCH], [0.0f64; BATCH], [0.0f64; BATCH]);
    let (mut kept, mut f) = ([0u16; BATCH], [0.0f64; BATCH]);
    let mut left = pairs;
    while left > 0 {
        let n = left.min(BATCH);
        for k in 0..n {
            x[k] = 2.0 * rng.next_f64() - 1.0;
            y[k] = 2.0 * rng.next_f64() - 1.0;
            t[k] = x[k] * x[k] + y[k] * y[k];
        }
        let mut accepted = 0;
        for (k, &t) in t[..n].iter().enumerate() {
            kept[accepted] = k as u16;
            accepted += usize::from(t <= 1.0 && t > 0.0);
        }
        let kept = &kept[..accepted];
        for (f, &k) in f.iter_mut().zip(kept) {
            let t = t[usize::from(k)];
            *f = (-2.0 * t.ln() / t).sqrt();
        }
        for (&f, &k) in f.iter().zip(kept) {
            let (gx, gy) = (x[usize::from(k)] * f, y[usize::from(k)] * f);
            sums.sx += gx;
            sums.sy += gy;
            let m = gx.abs().max(gy.abs()) as usize;
            if m < 10 {
                sums.counts[m] += 1;
            }
        }
        sums.accepted += accepted as u64;
        left -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_mpi::{Cluster, ClusterConfig};

    /// The pair loop `tally` replaced: one pair at a time, branching on
    /// the acceptance test.
    fn tally_scalar(rng: &mut NasRng, pairs: usize, sums: &mut Tally) {
        for _ in 0..pairs {
            let x = 2.0 * rng.next_f64() - 1.0;
            let y = 2.0 * rng.next_f64() - 1.0;
            let t = x * x + y * y;
            if t <= 1.0 && t > 0.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let gx = x * f;
                let gy = y * f;
                sums.sx += gx;
                sums.sy += gy;
                let m = gx.abs().max(gy.abs()) as usize;
                if m < 10 {
                    sums.counts[m] += 1;
                }
                sums.accepted += 1;
            }
        }
    }

    #[test]
    fn batched_tally_is_bitwise_the_scalar_loop() {
        // Pair counts off the batch size (one spans two chunks), split
        // into rank slices of unequal length, some of them empty.
        let c = Cluster::athlon_fast_ethernet();
        for pairs in [1u64, 255, 257, 1_000, 70_001] {
            for n in [1usize, 3, 7] {
                let p = EpParams { pairs, ..EpParams::test() };
                let cfg = ClusterConfig::uniform(n, 1);
                let (fast_res, fast) = c.run(&cfg, move |comm| run_with(comm, &p, tally));
                let (slow_res, slow) = c.run(&cfg, move |comm| run_with(comm, &p, tally_scalar));
                let ctx = format!("pairs={pairs} n={n}");
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.sx.to_bits(), b.sx.to_bits(), "{ctx}: sx");
                    assert_eq!(a.sy.to_bits(), b.sy.to_bits(), "{ctx}: sy");
                    assert_eq!(a.counts, b.counts, "{ctx}: counts");
                    assert_eq!(a.accepted, b.accepted, "{ctx}: accepted");
                }
                assert_eq!(fast_res.time_s.to_bits(), slow_res.time_s.to_bits(), "{ctx}: time");
            }
        }
    }

    fn run_on(nodes: usize) -> EpOutput {
        let c = Cluster::athlon_fast_ethernet();
        let p = EpParams::test();
        let (_, outs) = c.run(&ClusterConfig::uniform(nodes, 1), move |comm| run(comm, &p));
        outs.into_iter().next().unwrap()
    }

    #[test]
    fn acceptance_rate_near_pi_over_four() {
        let out = run_on(1);
        let rate = out.accepted as f64 / EpParams::test().pairs as f64;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn counts_identical_across_node_counts() {
        let base = run_on(1);
        for n in [2usize, 4, 8] {
            let out = run_on(n);
            assert_eq!(out.counts, base.counts, "n={n}");
            assert_eq!(out.accepted, base.accepted, "n={n}");
            assert!((out.sx - base.sx).abs() < 1e-6 * base.sx.abs().max(1.0));
            assert!((out.sy - base.sy).abs() < 1e-6 * base.sy.abs().max(1.0));
        }
    }

    #[test]
    fn gaussian_sums_small_relative_to_samples() {
        // Gaussians are zero-mean: |sx| should be O(sqrt(accepted)).
        let out = run_on(1);
        let bound = 10.0 * (out.accepted as f64).sqrt();
        assert!(out.sx.abs() < bound, "sx {} vs bound {bound}", out.sx);
        assert!(out.sy.abs() < bound);
    }

    #[test]
    fn annuli_counts_decrease() {
        // Almost all Gaussian mass is within |x| < 4.
        let out = run_on(1);
        assert!(out.counts[0] > out.counts[2]);
        let tail: u64 = out.counts[4..].iter().sum();
        assert!(tail * 100 < out.accepted, "tail too heavy: {:?}", out.counts);
    }

    #[test]
    fn near_perfect_speedup() {
        let c = Cluster::athlon_fast_ethernet();
        let p = EpParams::class_b();
        let time_on = |n: usize| {
            let (res, _) = c.run(&ClusterConfig::uniform(n, 1), move |comm| run(comm, &p));
            res.time_s
        };
        let t1 = time_on(1);
        let t8 = time_on(8);
        let speedup = t1 / t8;
        assert!(speedup > 7.5, "EP speedup on 8 nodes only {speedup}");
    }
}
