//! Shared kernel infrastructure: work charging, decomposition helpers,
//! and the NAS pseudo-random number generator.

use psc_mpi::Comm;
use std::ops::Range;

/// Micro-operations charged per floating-point operation. A flop in a
/// scientific loop carries address arithmetic, loads/stores, and loop
/// control alongside the arithmetic µop itself.
pub const UOPS_PER_FLOP: f64 = 2.0;

/// Charge `flops` floating-point operations of *real* work, scaled by
/// `work_scale` to class-B magnitude, at memory pressure `upm`
/// (µops per L2 miss).
#[inline]
pub fn charge(comm: &mut Comm, flops: f64, work_scale: f64, upm: f64) {
    debug_assert!(flops >= 0.0);
    if flops > 0.0 {
        comm.compute_uops(flops * UOPS_PER_FLOP * work_scale, upm);
    }
}

/// Balanced block decomposition: the sub-range of `0..total` owned by
/// `part` of `parts`. Earlier parts get the remainder elements, so
/// sizes differ by at most one.
pub fn block_range(total: usize, parts: usize, part: usize) -> Range<usize> {
    assert!(part < parts, "part {part} out of {parts}");
    let base = total / parts;
    let rem = total % parts;
    let start = part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    start..(start + len)
}

/// Lines the ADI line solves (BT, SP) advance side by side. Each line's
/// recurrence is a serial chain of divisions; interleaving independent
/// lines lets their chains overlap (DESIGN.md, "Kernel arithmetic
/// contract").
pub(crate) const LANES: usize = 4;

/// `group` as `(first line, width)` blocks: runs of [`LANES`] lines,
/// then the remainder one line at a time.
pub(crate) fn lane_blocks(group: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    let full = group.start + group.len() / LANES * LANES;
    (group.start..full).step_by(LANES).map(|l| (l, LANES)).chain((full..group.end).map(|l| (l, 1)))
}

/// `n` deterministic test values of mixed sign and magnitude (a
/// 64-bit LCG), for holding rewritten kernel loops against references.
#[cfg(test)]
pub(crate) fn test_values(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.3) * 100.0
        })
        .collect()
}

/// The NAS parallel benchmarks' linear congruential generator:
/// `x_{k+1} = a·x_k mod 2^46` with `a = 5^13`, yielding uniform
/// derandomizable streams with O(log k) arbitrary seeking — exactly what
/// EP uses to give every rank an independent slice of one global stream.
#[derive(Debug, Clone, Copy)]
pub struct NasRng {
    seed: u64,
}

/// The NAS multiplier `5^13`.
pub const NAS_A: u64 = 1_220_703_125;
const MASK46: u64 = (1 << 46) - 1;

impl NasRng {
    /// Start a stream at `seed` (must be odd, per the NAS spec).
    pub fn new(seed: u64) -> Self {
        assert!(seed % 2 == 1, "NAS LCG seed must be odd");
        NasRng { seed: seed & MASK46 }
    }

    /// Advance to the state *after* `k` draws from the given seed — the
    /// NAS `randlc` jump-ahead, O(log k). Lets rank `r` start exactly
    /// where rank `r-1`'s slice ends without generating it.
    pub fn skip(seed: u64, k: u64) -> Self {
        let mut mult = NAS_A;
        let mut s = seed & MASK46;
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                s = s.wrapping_mul(mult) & MASK46;
            }
            mult = mult.wrapping_mul(mult) & MASK46;
            k >>= 1;
        }
        NasRng { seed: s }
    }

    /// Next uniform deviate in (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.seed = self.seed.wrapping_mul(NAS_A) & MASK46;
        self.seed as f64 / (1u64 << 46) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_exactly_once() {
        for total in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 7, 9] {
                let mut covered = vec![false; total];
                let mut sizes = Vec::new();
                for p in 0..parts {
                    let r = block_range(total, parts, p);
                    sizes.push(r.len());
                    for i in r {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "total={total} parts={parts}");
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn nas_rng_skip_matches_sequential_draws() {
        let seed = 271_828_183u64;
        let mut seq = NasRng::new(seed);
        for _ in 0..1000 {
            seq.next_f64();
        }
        let jumped = NasRng::skip(seed, 1000);
        assert_eq!(seq.seed, jumped.seed);
    }

    #[test]
    fn nas_rng_uniform_in_unit_interval() {
        let mut rng = NasRng::new(314_159_265);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!(x > 0.0 && x < 1.0);
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn nas_rng_deterministic() {
        let mut a = NasRng::new(271_828_183);
        let mut b = NasRng::new(271_828_183);
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn skip_zero_is_identity() {
        let seed = 271_828_183u64;
        let j = NasRng::skip(seed, 0);
        assert_eq!(j.seed, seed & ((1 << 46) - 1));
    }
}
