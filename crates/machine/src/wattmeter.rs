//! The simulated wall-outlet power measurement rig.
//!
//! The paper measures "the voltage and current consumed by the entire
//! system ... at the wall outlet" with precision multimeters, and a
//! separate computer "samples two multimeters several tens of times a
//! second" and integrates instantaneous power over time to obtain energy.
//!
//! We reproduce that methodology over virtual time. A node's power draw is
//! a step function of time (the paper's own modelling assumption, §4.1):
//! a sequence of [`Segment`]s each with a constant wattage. The
//! [`Wattmeter`] samples this profile at a configurable rate and
//! integrates the samples; [`PowerTrace::exact_energy_j`] provides the
//! closed-form integral for cross-checking.

use crate::wire::{Reader, WireError, Writer};
use serde::{Deserialize, Serialize};

/// A period of constant power draw `[t0_s, t1_s)` at `power_w`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start time, seconds of virtual time.
    pub t0_s: f64,
    /// Segment end time, seconds of virtual time.
    pub t1_s: f64,
    /// Constant power over the segment, watts.
    pub power_w: f64,
}

impl Segment {
    /// Duration of the segment, seconds.
    #[inline]
    pub fn duration_s(&self) -> f64 {
        self.t1_s - self.t0_s
    }

    /// Exact energy of the segment, joules.
    #[inline]
    pub fn energy_j(&self) -> f64 {
        self.duration_s() * self.power_w
    }
}

/// A step-function power profile for one node over one run.
///
/// Segments are appended in time order; zero-length segments are dropped.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    segments: Vec<Segment>,
}

impl PowerTrace {
    /// An empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// An empty trace with room for `segments` appends before the
    /// backing buffer reallocates. The cluster driver pre-sizes rank
    /// traces with this so steady-state runs append without growth.
    pub fn with_capacity(segments: usize) -> Self {
        PowerTrace { segments: Vec::with_capacity(segments) }
    }

    /// Append a segment ending at `t1_s` with the given power. The segment
    /// starts at the end of the previous segment (or 0). Out-of-order
    /// appends are a programmer error.
    pub fn push(&mut self, t1_s: f64, power_w: f64) {
        let t0_s = self.end_s();
        assert!(
            t1_s >= t0_s - 1e-12,
            "power trace must be appended in time order ({t1_s} < {t0_s})"
        );
        assert!(power_w.is_finite() && power_w >= 0.0, "power must be finite and non-negative");
        if t1_s > t0_s {
            // Coalesce with the previous segment when the wattage matches,
            // keeping traces compact over long alternating runs.
            if let Some(last) = self.segments.last_mut() {
                if (last.power_w - power_w).abs() < 1e-9 {
                    last.t1_s = t1_s;
                    return;
                }
            }
            self.segments.push(Segment { t0_s, t1_s, power_w });
        }
    }

    /// End time of the trace (0 when empty), seconds.
    pub fn end_s(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.t1_s)
    }

    /// The segments, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Merge adjacent segments that are contiguous in time and have
    /// bitwise-equal wattage. Long runs at a fixed gear emit constant
    /// power punctuated only by MPI idling, so traces that alternate
    /// between two levels — or that were stitched together from
    /// serialized parts — compact substantially.
    ///
    /// Compaction is *exact*: [`PowerTrace::exact_energy_j`] and
    /// [`PowerTrace::end_s`] return bitwise-identical values before and
    /// after, because the energy integral is computed over maximal
    /// equal-power runs (see below) — exactly the runs this merges.
    pub fn compact(&mut self) {
        let mut out = 0usize; // last written segment
        for i in 1..self.segments.len() {
            let cur = self.segments[i];
            let prev = &mut self.segments[out];
            if Self::mergeable(prev, &cur) {
                prev.t1_s = cur.t1_s;
            } else {
                out += 1;
                self.segments[out] = cur;
            }
        }
        self.segments.truncate(if self.segments.is_empty() { 0 } else { out + 1 });
    }

    /// Release the segment buffer's unused capacity (see
    /// [`PowerTrace::with_capacity`]: finished traces are kept, their
    /// pre-sizing slack need not be).
    pub fn shrink_to_fit(&mut self) {
        self.segments.shrink_to_fit();
    }

    /// Append the segment count, then `t0_s`, `t1_s`, `power_w` of each
    /// segment by their bits.
    pub fn encode(&self, w: &mut Writer) {
        w.seq(&self.segments, |w, s| {
            w.f64(s.t0_s);
            w.f64(s.t1_s);
            w.f64(s.power_w);
        });
    }

    /// Inverse of [`PowerTrace::encode`]; the segment buffer comes back
    /// with no spare capacity.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let segments =
            r.seq(24, |r| Ok(Segment { t0_s: r.f64()?, t1_s: r.f64()?, power_w: r.f64()? }))?;
        Ok(PowerTrace { segments })
    }

    /// Whether `b` directly continues `a` at the same power level.
    #[inline]
    fn mergeable(a: &Segment, b: &Segment) -> bool {
        a.t1_s == b.t0_s && a.power_w == b.power_w
    }

    /// Exact energy: the closed-form integral of the step function, joules.
    ///
    /// The sum is taken per maximal run of contiguous equal-power
    /// segments — `(t_end − t_start) · power_w` for the whole run rather
    /// than per segment — so it is invariant (bitwise) under
    /// [`PowerTrace::compact`], which merges exactly those runs.
    pub fn exact_energy_j(&self) -> f64 {
        let mut acc = 0.0;
        let mut i = 0;
        while i < self.segments.len() {
            let start = self.segments[i];
            let mut j = i;
            while j + 1 < self.segments.len()
                && Self::mergeable(&self.segments[j], &self.segments[j + 1])
            {
                j += 1;
            }
            acc += (self.segments[j].t1_s - start.t0_s) * start.power_w;
            i = j + 1;
        }
        acc
    }

    /// Instantaneous power at time `t_s`, watts. Between segments and after
    /// the end the trace reads 0 W (the node is unplugged / the run over).
    pub fn power_at(&self, t_s: f64) -> f64 {
        // Binary search over segment start times.
        match self.segments.binary_search_by(|s| {
            if t_s < s.t0_s {
                std::cmp::Ordering::Greater
            } else if t_s >= s.t1_s {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.segments[i].power_w,
            Err(_) => 0.0,
        }
    }

    /// Exact energy over the window `[t0_s, t1_s]`, joules: the integral
    /// of the step function restricted to the window. Windows summed over
    /// a partition of `[0, end_s]` reproduce [`PowerTrace::exact_energy_j`]
    /// (the per-segment overlaps telescope), which is what the telemetry
    /// layer's attribution invariant relies on.
    pub fn energy_between(&self, t0_s: f64, t1_s: f64) -> f64 {
        if t1_s <= t0_s {
            return 0.0;
        }
        // Segments are appended in time order, so everything before the
        // window can be skipped with a binary search and the iteration
        // stops at the first segment past it. Only zero-contribution
        // terms are skipped relative to summing the whole trace, and
        // adding 0.0 to a non-negative accumulator is exact — so this
        // is bitwise-identical to the full sum (the policy hook calls
        // this once per MPI-call exit; a full scan there would make
        // policy runs quadratic in the trace length).
        let lo = self.segments.partition_point(|s| s.t1_s <= t0_s);
        let e: f64 = self.segments[lo..]
            .iter()
            .take_while(|s| s.t0_s < t1_s)
            .map(|s| (s.t1_s.min(t1_s) - s.t0_s.max(t0_s)).max(0.0) * s.power_w)
            .sum();
        // std's f64 sum folds from a -0.0 seed, so a window overlapping
        // nothing yields -0.0 here while the full scan would have folded
        // at least one exact +0.0 term on a non-empty trace. Fold one in.
        if self.segments.is_empty() {
            e
        } else {
            e + 0.0
        }
    }

    /// Average power over the trace duration, power_w (0 for an empty trace).
    pub fn average_w(&self) -> f64 {
        let d = self.end_s();
        if d == 0.0 {
            0.0
        } else {
            self.exact_energy_j() / d
        }
    }
}

/// [`PowerTrace::power_at`] for a non-decreasing sequence of times, in
/// one pass over the segments instead of one binary search per read.
/// Segments are appended in time order with positive length, so the
/// one that can hold `t_s` is the first that ends after it.
struct Sampler<'a> {
    segments: &'a [Segment],
    /// Segments before this one end at or before every later read.
    next: usize,
}

impl Sampler<'_> {
    fn power_at(&mut self, t_s: f64) -> f64 {
        while self.segments.get(self.next).is_some_and(|s| t_s >= s.t1_s) {
            self.next += 1;
        }
        match self.segments.get(self.next) {
            Some(s) if t_s >= s.t0_s => s.power_w,
            _ => 0.0,
        }
    }
}

/// The sampling integrator: models the separate computer that polls the
/// multimeters "several tens of times a second" and integrates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wattmeter {
    /// Samples per second of virtual time.
    pub sample_hz: f64,
}

impl Default for Wattmeter {
    /// 30 Hz — "several tens of times a second".
    fn default() -> Self {
        Wattmeter { sample_hz: 30.0 }
    }
}

impl Wattmeter {
    /// Create a wattmeter sampling at `sample_hz`.
    pub fn new(sample_hz: f64) -> Self {
        assert!(sample_hz > 0.0 && sample_hz.is_finite());
        Wattmeter { sample_hz }
    }

    /// Measure energy of a trace by midpoint-sampled numerical
    /// integration, joules. Converges to [`PowerTrace::exact_energy_j`]
    /// as the sample rate grows; at 30 Hz it carries the same kind of
    /// quantization error a real rig does.
    pub fn measure_energy_j(&self, trace: &PowerTrace) -> f64 {
        let end = trace.end_s();
        if end == 0.0 {
            return 0.0;
        }
        let dt = 1.0 / self.sample_hz;
        let n = (end / dt).ceil() as u64;
        // Sample midpoints never decrease, so one cursor serves them all.
        let mut power = Sampler { segments: trace.segments(), next: 0 };
        let mut acc = 0.0;
        for k in 0..n {
            let t0 = k as f64 * dt;
            let t1 = (t0 + dt).min(end);
            let mid = 0.5 * (t0 + t1);
            acc += power.power_at(mid) * (t1 - t0);
        }
        acc
    }

    /// Measure energy like [`Wattmeter::measure_energy_j`], but through
    /// a faulty rig: each sample may be dropped (the integrator holds
    /// the previous reading — 0 W before the first successful poll) and
    /// every reading carries relative Gaussian noise, clamped at 0 W.
    ///
    /// Deterministic: sample `k` of rank `rank` perturbs identically
    /// for a given `seed`, independent of host scheduling. Only the
    /// *measured* energy is affected; [`PowerTrace::exact_energy_j`]
    /// still reports the true integral.
    pub fn measure_energy_j_faulted(
        &self,
        trace: &PowerTrace,
        faults: &psc_faults::WattmeterFaults,
        seed: u64,
        rank: usize,
    ) -> f64 {
        let end = trace.end_s();
        if end == 0.0 {
            return 0.0;
        }
        let dt = 1.0 / self.sample_hz;
        let n = (end / dt).ceil() as u64;
        let mut power = Sampler { segments: trace.segments(), next: 0 };
        let mut acc = 0.0;
        let mut held = 0.0;
        for k in 0..n {
            let t0 = k as f64 * dt;
            let t1 = (t0 + dt).min(end);
            let mid = 0.5 * (t0 + t1);
            if let Some(w) =
                psc_faults::plan::meter_sample(faults, seed, rank, k, power.power_at(mid))
            {
                held = w;
            }
            acc += held * (t1 - t0);
        }
        acc
    }
}

/// Sum the exact energies of a set of node traces — the paper's
/// "cumulative energy of all nodes used" (Figure 2). Accepts any
/// iterator of trace references, so callers holding traces inside
/// larger per-rank records can sum them without cloning.
pub fn cluster_energy_j<'a>(traces: impl IntoIterator<Item = &'a PowerTrace>) -> f64 {
    traces.into_iter().map(PowerTrace::exact_energy_j).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_trace() -> PowerTrace {
        let mut t = PowerTrace::new();
        t.push(1.0, 145.0); // 1 s computing
        t.push(1.5, 92.0); // 0.5 s idle
        t.push(3.0, 145.0); // 1.5 s computing
        t
    }

    #[test]
    fn exact_energy_is_sum_of_rectangles() {
        let t = two_level_trace();
        let expect = 1.0 * 145.0 + 0.5 * 92.0 + 1.5 * 145.0;
        assert!((t.exact_energy_j() - expect).abs() < 1e-9);
    }

    #[test]
    fn sampled_energy_close_to_exact_at_30hz() {
        let t = two_level_trace();
        let m = Wattmeter::default();
        let e = m.measure_energy_j(&t);
        let exact = t.exact_energy_j();
        assert!((e - exact).abs() / exact < 0.02, "sampled {e} vs exact {exact}");
    }

    #[test]
    fn sampled_energy_converges_with_rate() {
        // Irregular boundaries so no sample grid aligns exactly.
        let mut t = PowerTrace::new();
        t.push(1.037, 145.0);
        t.push(1.583, 92.0);
        t.push(2.941, 131.0);
        let exact = t.exact_energy_j();
        let coarse = (Wattmeter::new(7.0).measure_energy_j(&t) - exact).abs();
        let fine = (Wattmeter::new(10_000.0).measure_energy_j(&t) - exact).abs();
        assert!(fine <= coarse, "fine error {fine} should not exceed coarse error {coarse}");
        assert!(fine / exact < 1e-4);
    }

    #[test]
    fn power_at_reads_step_function() {
        let t = two_level_trace();
        assert_eq!(t.power_at(0.5), 145.0);
        assert_eq!(t.power_at(1.2), 92.0);
        assert_eq!(t.power_at(2.0), 145.0);
        assert_eq!(t.power_at(99.0), 0.0);
    }

    #[test]
    fn coalesces_equal_wattage_segments() {
        let mut t = PowerTrace::new();
        t.push(1.0, 100.0);
        t.push(2.0, 100.0);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.end_s(), 2.0);
    }

    #[test]
    fn zero_length_push_is_dropped() {
        let mut t = PowerTrace::new();
        t.push(1.0, 100.0);
        t.push(1.0, 50.0);
        assert_eq!(t.segments().len(), 1);
    }

    #[test]
    fn energy_between_windows_partition_the_total() {
        let t = two_level_trace();
        // Windows that straddle segment boundaries.
        let cuts = [0.0, 0.4, 1.2, 1.5, 2.2, 3.0];
        let sum: f64 = cuts.windows(2).map(|w| t.energy_between(w[0], w[1])).sum();
        assert!((sum - t.exact_energy_j()).abs() < 1e-9);
        // A window inside one segment is rectangle area.
        assert!((t.energy_between(0.2, 0.7) - 0.5 * 145.0).abs() < 1e-9);
        // Degenerate and out-of-range windows are zero.
        assert_eq!(t.energy_between(1.0, 1.0), 0.0);
        assert_eq!(t.energy_between(5.0, 9.0), 0.0);
    }

    #[test]
    fn energy_between_matches_full_scan_bitwise() {
        // The windowed scan must return the exact bits the naive
        // whole-trace sum would: skipped segments contribute a literal
        // 0.0, and adding 0.0 to a non-negative accumulator is exact.
        let mut t = PowerTrace::new();
        let mut end = 0.0;
        for i in 0..200u32 {
            end += 0.013 + f64::from(i % 7) * 0.0031;
            t.push(end, 60.0 + f64::from(i % 11) * 9.5);
        }
        let naive = |t0: f64, t1: f64| -> f64 {
            t.segments()
                .iter()
                .map(|s| (s.t1_s.min(t1) - s.t0_s.max(t0)).max(0.0) * s.power_w)
                .sum::<f64>()
        };
        let cuts = [-0.5, 0.0, 0.0137, 0.9, 1.0, end / 2.0, end - 0.01, end, end + 1.0];
        for &t0 in &cuts {
            for &t1 in &cuts {
                if t1 <= t0 {
                    assert_eq!(t.energy_between(t0, t1), 0.0);
                } else {
                    assert_eq!(t.energy_between(t0, t1).to_bits(), naive(t0, t1).to_bits());
                }
            }
        }
    }

    #[test]
    fn average_power_weighted_by_duration() {
        let t = two_level_trace();
        let avg = t.average_w();
        let expect = t.exact_energy_j() / 3.0;
        assert!((avg - expect).abs() < 1e-9);
    }

    #[test]
    fn cluster_energy_sums_nodes() {
        let t = two_level_trace();
        let total = cluster_energy_j(&[t.clone(), t.clone()]);
        assert!((total - 2.0 * t.exact_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn compact_merges_contiguous_equal_power_runs() {
        // Build a trace whose segments alternate then repeat a level by
        // constructing it from serialized parts (push would already have
        // merged live appends).
        let mut t = PowerTrace {
            segments: vec![
                Segment { t0_s: 0.0, t1_s: 1.0, power_w: 145.0 },
                Segment { t0_s: 1.0, t1_s: 1.5, power_w: 145.0 },
                Segment { t0_s: 1.5, t1_s: 2.0, power_w: 92.0 },
                Segment { t0_s: 2.0, t1_s: 2.25, power_w: 92.0 },
                Segment { t0_s: 2.25, t1_s: 3.0, power_w: 145.0 },
            ],
        };
        let energy = t.exact_energy_j();
        let end = t.end_s();
        t.compact();
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.exact_energy_j().to_bits(), energy.to_bits(), "energy must be exact");
        assert_eq!(t.end_s().to_bits(), end.to_bits());
        assert_eq!(t.power_at(1.2), 145.0);
        assert_eq!(t.power_at(2.1), 92.0);
    }

    #[test]
    fn compact_keeps_gaps_and_distinct_levels() {
        let mut t = PowerTrace {
            segments: vec![
                Segment { t0_s: 0.0, t1_s: 1.0, power_w: 100.0 },
                // Gap in time: must NOT merge even at equal watts.
                Segment { t0_s: 2.0, t1_s: 3.0, power_w: 100.0 },
            ],
        };
        t.compact();
        assert_eq!(t.segments().len(), 2);
        assert_eq!(t.power_at(1.5), 0.0);
    }

    #[test]
    fn compact_on_empty_and_singleton_is_noop() {
        let mut e = PowerTrace::new();
        e.compact();
        assert!(e.segments().is_empty());
        let mut s = PowerTrace::new();
        s.push(1.0, 50.0);
        s.compact();
        assert_eq!(s.segments().len(), 1);
    }

    #[test]
    fn wire_round_trip_keeps_bits_gaps_and_no_spare_capacity() {
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let mut t = PowerTrace::with_capacity(64);
        t.segments.extend([
            Segment { t0_s: -0.0, t1_s: f64::MIN_POSITIVE / 2.0, power_w: nan },
            Segment { t0_s: 2.0, t1_s: 3.0, power_w: 100.0 }, // a gap before it
        ]);
        let mut w = Writer::new();
        t.encode(&mut w);
        PowerTrace::new().encode(&mut w);
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        let (back, empty) = (PowerTrace::decode(&mut r).unwrap(), PowerTrace::decode(&mut r));
        r.finish().unwrap();
        let bits = |t: &PowerTrace| -> Vec<[u64; 3]> {
            t.segments.iter().map(|s| [s.t0_s, s.t1_s, s.power_w].map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&back), bits(&t));
        assert_eq!((back.segments.capacity(), back.segments.len()), (2, 2));
        assert_eq!(empty.unwrap().segments.capacity(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut t = PowerTrace::with_capacity(16);
        t.push(1.0, 100.0);
        assert_eq!(t.exact_energy_j(), 100.0);
    }

    #[test]
    fn cluster_energy_accepts_borrowed_traces() {
        let t = two_level_trace();
        let refs = [&t, &t];
        let total = cluster_energy_j(refs.iter().copied());
        assert!((total - 2.0 * t.exact_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_zero_everywhere() {
        let t = PowerTrace::new();
        assert_eq!(t.exact_energy_j(), 0.0);
        assert_eq!(t.average_w(), 0.0);
        assert_eq!(Wattmeter::default().measure_energy_j(&t), 0.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut t = PowerTrace::new();
        t.push(2.0, 100.0);
        t.push(1.0, 100.0);
    }

    #[test]
    fn faulted_measurement_with_quiet_faults_matches_clean() {
        let t = two_level_trace();
        let m = Wattmeter::default();
        let quiet = psc_faults::WattmeterFaults { dropout_prob: 0.0, noise_sigma: 0.0 };
        let clean = m.measure_energy_j(&t);
        let faulted = m.measure_energy_j_faulted(&t, &quiet, 123, 0);
        assert_eq!(faulted.to_bits(), clean.to_bits(), "no faults ⇒ identical integration");
    }

    #[test]
    fn faulted_measurement_is_deterministic_per_seed_and_rank() {
        let t = two_level_trace();
        let m = Wattmeter::default();
        let wf = psc_faults::WattmeterFaults { dropout_prob: 0.2, noise_sigma: 0.1 };
        let a = m.measure_energy_j_faulted(&t, &wf, 9, 3);
        let b = m.measure_energy_j_faulted(&t, &wf, 9, 3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(a.to_bits(), m.measure_energy_j_faulted(&t, &wf, 10, 3).to_bits());
        assert_ne!(a.to_bits(), m.measure_energy_j_faulted(&t, &wf, 9, 4).to_bits());
    }

    #[test]
    fn faulted_measurement_error_stays_small_at_mild_noise() {
        // At the default robustness level the measured energy must stay
        // within a few percent of the exact integral — otherwise the
        // figure-level energy claims could break on measurement noise
        // alone.
        let mut t = PowerTrace::new();
        t.push(5.0, 145.0);
        t.push(6.0, 92.0);
        t.push(12.0, 131.0);
        let m = Wattmeter::default();
        let wf = psc_faults::WattmeterFaults { dropout_prob: 0.02, noise_sigma: 0.02 };
        let exact = t.exact_energy_j();
        for seed in 0..8u64 {
            let e = m.measure_energy_j_faulted(&t, &wf, seed, 0);
            let rel = (e - exact).abs() / exact;
            assert!(rel < 0.03, "seed {seed}: relative error {rel}");
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary fragmented traces: contiguous runs (often repeating a
    /// power level, so there is something to merge) with occasional
    /// gaps, built directly from segments the way deserialized or
    /// stitched traces arrive — `push` would have pre-merged them.
    fn fragmented_trace() -> impl Strategy<Value = PowerTrace> {
        let level = prop_oneof![Just(92.0f64), Just(118.5), Just(145.0), 50.0..200.0f64];
        proptest::collection::vec((0.001..0.7f64, 0.0..0.3f64, level, 0u8..2), 1..40).prop_map(
            |parts| {
                let mut segments = Vec::new();
                let mut t = 0.0f64;
                for (dur, gap, power_w, gapped) in parts {
                    if gapped == 1 {
                        t += gap;
                    }
                    segments.push(Segment { t0_s: t, t1_s: t + dur, power_w });
                    t += dur;
                }
                PowerTrace { segments }
            },
        )
    }

    proptest! {
        /// The satellite invariant: compaction preserves the energy
        /// integral and the end time EXACTLY (bitwise), not just to
        /// within a tolerance.
        #[test]
        fn compact_preserves_energy_and_end_bitwise(mut trace in fragmented_trace()) {
            let energy = trace.exact_energy_j();
            let end = trace.end_s();
            let original = trace.clone();
            trace.compact();
            prop_assert_eq!(trace.exact_energy_j().to_bits(), energy.to_bits());
            prop_assert_eq!(trace.end_s().to_bits(), end.to_bits());
            // No mergeable pair survives, and the step function still
            // reads the same wattage inside every original segment.
            for w in trace.segments().windows(2) {
                prop_assert!(!(w[0].t1_s == w[1].t0_s && w[0].power_w == w[1].power_w));
            }
            for s in original.segments() {
                let mid = 0.5 * (s.t0_s + s.t1_s);
                prop_assert_eq!(trace.power_at(mid).to_bits(), s.power_w.to_bits());
            }
        }

        /// The wattmeter's cursor reads exactly what a binary search per
        /// sample reads, gaps and boundaries included, so both
        /// integrals keep their bits.
        #[test]
        fn measured_energy_matches_per_sample_power_at(
            trace in fragmented_trace(),
            hz in prop_oneof![Just(30.0f64), 1.0..500.0f64],
            seed in 0u64..1000,
        ) {
            let meter = Wattmeter::new(hz);
            let dt = 1.0 / hz;
            let end = trace.end_s();
            let samples = (0..(end / dt).ceil() as u64).map(|k| {
                let t0 = k as f64 * dt;
                let t1 = (t0 + dt).min(end);
                (k, 0.5 * (t0 + t1), t1 - t0)
            });
            let reference: f64 =
                samples.clone().fold(0.0, |acc, (_, mid, w)| acc + trace.power_at(mid) * w);
            prop_assert_eq!(meter.measure_energy_j(&trace).to_bits(), reference.to_bits());

            let faults = psc_faults::WattmeterFaults { dropout_prob: 0.1, noise_sigma: 0.05 };
            let mut held = 0.0;
            let reference = samples.fold(0.0, |acc, (k, mid, w)| {
                let read = trace.power_at(mid);
                if let Some(p) = psc_faults::plan::meter_sample(&faults, seed, 0, k, read) {
                    held = p;
                }
                acc + held * w
            });
            let faulted = meter.measure_energy_j_faulted(&trace, &faults, seed, 0);
            prop_assert_eq!(faulted.to_bits(), reference.to_bits());
        }

        /// Compaction is idempotent.
        #[test]
        fn compact_is_idempotent(mut trace in fragmented_trace()) {
            trace.compact();
            let once = trace.clone();
            trace.compact();
            prop_assert_eq!(trace.segments(), once.segments());
        }
    }
}
