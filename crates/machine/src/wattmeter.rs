//! The simulated wall-outlet power measurement rig.
//!
//! The paper measures "the voltage and current consumed by the entire
//! system ... at the wall outlet" with precision multimeters, and a
//! separate computer "samples two multimeters several tens of times a
//! second" and integrates instantaneous power over time to obtain energy.
//!
//! We reproduce that methodology over virtual time. A node's power draw is
//! a step function of time (the paper's own modelling assumption, §4.1):
//! a sequence of [`Segment`]s each with a constant wattage, every one
//! starting where the one before it ends. The [`Wattmeter`] samples this
//! profile at a configurable rate and integrates the samples;
//! [`PowerTrace::exact_energy_j`] provides the closed-form integral for
//! cross-checking.

use crate::wire::{Reader, WireError, Writer};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

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
/// Segments are appended in time order, each starting where the one
/// before it ends (the first at `+0.0`); zero-length segments are
/// dropped. So a trace keeps only each segment's end time, and — since a
/// node draws a few distinct wattages (P_g computing, I_g blocked) — a
/// `u32` index into a table of them: 12 bytes a segment. [`segments`]
/// reads them back as whole [`Segment`] values.
///
/// [`segments`]: PowerTrace::segments
#[derive(Clone, Default)]
pub struct PowerTrace {
    /// `t1_s` of each segment; segment `i` starts at `ends[i - 1]`.
    ends: Vec<f64>,
    /// Each segment's `power_w`, as an index into `levels`.
    level: Vec<u32>,
    /// The trace's wattages, interned by their bits. Only the last
    /// [`PowerTrace::RECENT_LEVELS`] are searched, so a trace with many
    /// levels may hold one more than once.
    levels: Vec<f64>,
}

impl PowerTrace {
    /// How many of the newest levels a new segment's wattage is looked
    /// up among, which keeps [`PowerTrace::push`] O(1).
    const RECENT_LEVELS: usize = 8;

    /// An empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// An empty trace with room for `segments` appends before the
    /// backing buffer reallocates. The cluster driver pre-sizes rank
    /// traces with this so steady-state runs append without growth.
    pub fn with_capacity(segments: usize) -> Self {
        PowerTrace {
            ends: Vec::with_capacity(segments),
            level: Vec::with_capacity(segments),
            levels: Vec::new(),
        }
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
            // keeping traces short over long alternating runs.
            if let (Some(end), Some(&last)) = (self.ends.last_mut(), self.level.last()) {
                if (self.levels[last as usize] - power_w).abs() < 1e-9 {
                    *end = t1_s;
                    return;
                }
            }
            self.append(t1_s, power_w);
        }
    }

    /// Append a segment from the trace's end to `t1_s`, as it is.
    #[inline]
    fn append(&mut self, t1_s: f64, power_w: f64) {
        let level = self.intern(power_w);
        self.ends.push(t1_s);
        self.level.push(level);
    }

    /// The index of `power_w` in the level table, by bits; added unless
    /// it is among the newest entries. A step mostly returns to the
    /// level of the step before the last (compute, block, compute), so
    /// that one is tried first.
    #[inline]
    fn intern(&mut self, power_w: f64) -> u32 {
        let bits = power_w.to_bits();
        if let Some(&l) = self.level.len().checked_sub(2).and_then(|i| self.level.get(i)) {
            if self.levels[l as usize].to_bits() == bits {
                return l;
            }
        }
        let recent = self.levels.len().saturating_sub(Self::RECENT_LEVELS);
        let level = match self.levels[recent..].iter().rposition(|w| w.to_bits() == bits) {
            Some(i) => recent + i,
            None => {
                self.levels.push(power_w);
                self.levels.len() - 1
            }
        };
        u32::try_from(level).expect("a power trace has under 2^32 levels")
    }

    /// Append `s` as it is if it starts at the trace's end, bit for bit
    /// (`+0.0` for the first); whether it did. How decoded segments come
    /// back: a gap is not representable.
    fn append_contiguous(&mut self, s: Segment) -> bool {
        let starts_at_end = s.t0_s.to_bits() == self.end_s().to_bits();
        if starts_at_end {
            self.append(s.t1_s, s.power_w);
        }
        starts_at_end
    }

    /// End time of the trace (0 when empty), seconds.
    pub fn end_s(&self) -> f64 {
        self.ends.last().copied().unwrap_or(0.0)
    }

    /// The segments, in time order.
    pub fn segments(&self) -> Segments<'_> {
        self.segments_from(0)
    }

    /// The segments from the `i`-th on.
    fn segments_from(&self, i: usize) -> Segments<'_> {
        Segments {
            t0_s: self.start_s(i),
            ends: &self.ends[i..],
            level: &self.level[i..],
            levels: &self.levels,
        }
    }

    /// Start of the `i`-th segment: the end of the one before it.
    #[inline]
    fn start_s(&self, i: usize) -> f64 {
        i.checked_sub(1).map_or(0.0, |prev| self.ends[prev])
    }

    /// Power of the `i`-th segment, watts.
    #[inline]
    fn power_w(&self, i: usize) -> f64 {
        self.levels[self.level[i] as usize]
    }

    /// Release the columns' unused capacity (see
    /// [`PowerTrace::with_capacity`]: finished traces are kept, their
    /// pre-sizing slack need not be).
    pub fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.level.shrink_to_fit();
        self.levels.shrink_to_fit();
    }

    /// Append the segment count, then `t0_s`, `t1_s`, `power_w` of each
    /// segment by their bits.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.ends.len());
        for s in self.segments() {
            w.f64(s.t0_s);
            w.f64(s.t1_s);
            w.f64(s.power_w);
        }
    }

    /// Inverse of [`PowerTrace::encode`]; the columns come back with no
    /// spare capacity. A segment that does not start at the previous
    /// one's end, bit for bit (the first at `+0.0`), is
    /// `BadTag("Segment.t0_s")`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(3 * 8)?;
        let mut trace = PowerTrace::with_capacity(n);
        // `append_contiguous`'s rule, with the end kept in a register:
        // this loop is most of a disk hit.
        let mut end = 0.0f64;
        for _ in 0..n {
            let (t0_s, t1_s, power_w) = (r.f64()?, r.f64()?, r.f64()?);
            if t0_s.to_bits() != end.to_bits() {
                return Err(WireError::BadTag("Segment.t0_s"));
            }
            trace.append(t1_s, power_w);
            end = t1_s;
        }
        trace.levels.shrink_to_fit();
        Ok(trace)
    }

    /// Exact energy: the closed-form integral of the step function, joules.
    ///
    /// The sum is taken per maximal run of contiguous equal-power
    /// segments — `(t_end − t_start) · power_w` for the whole run rather
    /// than per segment. `push` coalesces such runs as it goes, so on a
    /// trace it built this is the per-segment sum; a decoded trace that
    /// holds one reads as if it were merged.
    pub fn exact_energy_j(&self) -> f64 {
        let n = self.ends.len();
        let mut acc = 0.0;
        let mut i = 0;
        while i < n {
            let mut j = i;
            // Segment `j + 1` starts at `ends[j]`: the two are contiguous
            // unless that end is NaN.
            while j + 1 < n && !self.ends[j].is_nan() && self.power_w(j) == self.power_w(j + 1) {
                j += 1;
            }
            acc += (self.ends[j] - self.start_s(i)) * self.power_w(i);
            i = j + 1;
        }
        acc
    }

    /// Instantaneous power at time `t_s`, watts. After the end the trace
    /// reads 0 W (the node is unplugged / the run over).
    pub fn power_at(&self, t_s: f64) -> f64 {
        // The segment that can hold `t_s` is the first that ends after it.
        let next = self.ends.partition_point(|&t1_s| t_s >= t1_s);
        Sampler { trace: self, next }.power_at(t_s)
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
        let lo = self.ends.partition_point(|&end| end <= t0_s);
        let e: f64 = self
            .segments_from(lo)
            .take_while(|s| s.t0_s < t1_s)
            .map(|s| (s.t1_s.min(t1_s) - s.t0_s.max(t0_s)).max(0.0) * s.power_w)
            .sum();
        // std's f64 sum folds from a -0.0 seed, so a window overlapping
        // nothing yields -0.0 here while the full scan would have folded
        // at least one exact +0.0 term on a non-empty trace. Fold one in.
        if self.ends.is_empty() {
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

/// Equal when the segments are, value by value, however the level
/// tables are laid out.
impl PartialEq for PowerTrace {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl fmt::Debug for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PowerTrace").field("segments", &self.segments()).finish()
    }
}

/// JSON lists whole segments, as the wire frame does.
impl Serialize for PowerTrace {
    fn to_value(&self) -> Value {
        let segments = self.segments().map(|s| s.to_value()).collect();
        Value::Map(vec![("segments".into(), Value::Seq(segments))])
    }
}

impl Deserialize for PowerTrace {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let segments: Vec<Segment> = serde::__from_field(v, "segments")?;
        let mut trace = PowerTrace::with_capacity(segments.len());
        for (i, s) in segments.into_iter().enumerate() {
            if !trace.append_contiguous(s) {
                let msg = format!("field `segments`: segment {i} does not start at the last end");
                return Err(serde::Error::msg(msg));
            }
        }
        Ok(trace)
    }
}

/// A [`PowerTrace`]'s segments as [`Segment`] values, in time order. It
/// allocates nothing and is its own (exact-size) iterator.
#[derive(Clone, Copy)]
pub struct Segments<'a> {
    /// Start of the next segment.
    t0_s: f64,
    ends: &'a [f64],
    level: &'a [u32],
    levels: &'a [f64],
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        let (&t1_s, ends) = self.ends.split_first()?;
        let (&level, rest) = self.level.split_first()?;
        let s = Segment { t0_s: self.t0_s, t1_s, power_w: self.levels[level as usize] };
        (self.t0_s, self.ends, self.level) = (t1_s, ends, rest);
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ends.len(), Some(self.ends.len()))
    }
}

impl ExactSizeIterator for Segments<'_> {}

impl PartialEq for Segments<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && Iterator::eq(*self, *other)
    }
}

impl fmt::Debug for Segments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(*self).finish()
    }
}

/// [`PowerTrace::power_at`] for a non-decreasing sequence of times, in
/// one pass over the segments instead of one binary search per read.
/// Segments are appended in time order with positive length, so the
/// one that can hold `t_s` is the first that ends after it.
struct Sampler<'a> {
    trace: &'a PowerTrace,
    /// Segments before this one end at or before every later read.
    next: usize,
}

impl Sampler<'_> {
    fn power_at(&mut self, t_s: f64) -> f64 {
        let ends = &self.trace.ends;
        while ends.get(self.next).is_some_and(|&t1_s| t_s >= t1_s) {
            self.next += 1;
        }
        if self.next < ends.len() && t_s >= self.trace.start_s(self.next) {
            self.trace.power_w(self.next)
        } else {
            0.0
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
        let mut power = Sampler { trace, next: 0 };
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
        let mut power = Sampler { trace, next: 0 };
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

    /// A trace straight from segments, as a decoded frame arrives (no
    /// coalescing).
    fn from_segments(segments: &[Segment]) -> PowerTrace {
        let mut t = PowerTrace::new();
        for &s in segments {
            assert!(t.append_contiguous(s), "{s:?} does not start at {}", t.end_s());
        }
        t
    }

    /// `t`'s segments as raw bits.
    fn bits(t: &PowerTrace) -> Vec<[u64; 3]> {
        t.segments().map(|s| [s.t0_s, s.t1_s, s.power_w].map(f64::to_bits)).collect()
    }

    #[test]
    fn wire_round_trip_keeps_bits_gaps_and_no_spare_capacity() {
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let mut t = PowerTrace::with_capacity(64);
        for s in [
            Segment { t0_s: 0.0, t1_s: f64::MIN_POSITIVE / 2.0, power_w: nan },
            Segment { t0_s: f64::MIN_POSITIVE / 2.0, t1_s: 3.0, power_w: 100.0 },
        ] {
            assert!(t.append_contiguous(s));
        }
        let mut w = Writer::new();
        t.encode(&mut w);
        PowerTrace::new().encode(&mut w);
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        let (back, empty) = (PowerTrace::decode(&mut r).unwrap(), PowerTrace::decode(&mut r));
        r.finish().unwrap();
        assert_eq!(bits(&back), bits(&t));
        let capacity =
            |t: &PowerTrace| [t.ends.capacity(), t.level.capacity(), t.levels.capacity()];
        assert_eq!(capacity(&back), [2, 2, 2]);
        assert_eq!(capacity(&empty.unwrap()), [0, 0, 0]);
    }

    /// A frame whose segment does not start at the previous end — a gap,
    /// or a first segment at `-0.0` — is refused, so a corrupt cache
    /// entry heals as a miss.
    #[test]
    fn decode_refuses_a_segment_off_the_previous_end() {
        let frame = |segments: &[[f64; 3]]| {
            let mut w = Writer::new();
            w.seq(segments, |w, s| s.iter().for_each(|&x| w.f64(x)));
            w.finish()
        };
        let decode = |frame: &[u8]| PowerTrace::decode(&mut Reader::open(frame).unwrap());
        let good = [[0.0, 1.0, 145.0], [1.0, 1.5, 92.0]];
        assert_eq!(decode(&frame(&good)).unwrap(), two_level_trace_prefix());
        for bad in [
            [[0.0, 1.0, 145.0], [1.25, 1.5, 92.0]], // a gap
            [[-0.0, 1.0, 145.0], [1.0, 1.5, 92.0]], // starts at -0.0
            [[0.0, 1.0, 145.0], [0.5, 1.5, 92.0]],  // overlaps
        ] {
            assert_eq!(decode(&frame(&bad)), Err(WireError::BadTag("Segment.t0_s")), "{bad:?}");
        }
    }

    fn two_level_trace_prefix() -> PowerTrace {
        let mut t = PowerTrace::new();
        t.push(1.0, 145.0);
        t.push(1.5, 92.0);
        t
    }

    /// Past [`PowerTrace::RECENT_LEVELS`] distinct wattages the level
    /// table holds duplicates; segments still read, encode and decode
    /// bit for bit.
    #[test]
    fn a_hundred_levels_round_trip_by_bits() {
        let power = |i: u32| 50.0 + f64::from(i % 100) * 1.5;
        let mut t = PowerTrace::new();
        for i in 0..300u32 {
            t.push(f64::from(i + 1) * 0.01, power(i));
        }
        assert_eq!(t.segments().len(), 300);
        assert!(t.levels.len() > 100, "cycling 100 levels must overflow the bounded search");
        for (i, s) in (0..).zip(t.segments()) {
            assert_eq!(s.power_w.to_bits(), power(i).to_bits());
        }
        let mut w = Writer::new();
        t.encode(&mut w);
        let frame = w.finish();
        let mut r = Reader::open(&frame).unwrap();
        let back = PowerTrace::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(bits(&back), bits(&t));
        assert_eq!(back.exact_energy_j().to_bits(), t.exact_energy_j().to_bits());
        let mut again = Writer::new();
        back.encode(&mut again);
        assert_eq!(again.finish(), frame);
    }

    #[test]
    fn segments_view_reads_contiguous_steps() {
        let t = two_level_trace();
        let segments = t.segments();
        assert_eq!(segments.len(), 3);
        assert_eq!(segments.last(), Some(Segment { t0_s: 1.5, t1_s: 3.0, power_w: 145.0 }));
        assert_eq!(segments.map(|s| s.t0_s).collect::<Vec<_>>(), [0.0, 1.0, 1.5]);
        assert_eq!(t, from_segments(&segments.collect::<Vec<_>>()));
        let json = serde::json::to_string(&t);
        assert_eq!(serde::json::from_str::<PowerTrace>(&json).unwrap(), t);
        let gapped = json.replacen("\"t0_s\":1.0", "\"t0_s\":1.25", 1);
        assert!(serde::json::from_str::<PowerTrace>(&gapped).is_err(), "{gapped}");
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

    /// Arbitrary fragmented traces: contiguous runs from `+0.0` that
    /// often repeat a power level, built directly from segments the way
    /// a decoded trace arrives — `push` would have merged them.
    fn fragmented_trace() -> impl Strategy<Value = PowerTrace> {
        let level = prop_oneof![Just(92.0f64), Just(118.5), Just(145.0), 50.0..200.0f64];
        proptest::collection::vec((0.001..0.7f64, level), 1..40).prop_map(|parts| {
            let mut trace = PowerTrace::new();
            for (dur, power_w) in parts {
                let t0_s = trace.end_s();
                assert!(trace.append_contiguous(Segment { t0_s, t1_s: t0_s + dur, power_w }));
            }
            trace
        })
    }

    /// Arbitrary `push` calls: steps that are often empty, and levels
    /// that often repeat or land within 1e-9 W of the one before.
    fn pushes() -> impl Strategy<Value = Vec<(f64, f64)>> {
        let level = prop_oneof![
            Just(92.0f64),
            Just(145.0),
            Just(145.0 + 5e-10),
            Just(0.0),
            Just(-0.0),
            0.0..200.0f64,
        ];
        let step = prop_oneof![Just(0.0f64), 0.0..0.5f64, Just(f64::MIN_POSITIVE / 4.0)];
        proptest::collection::vec((step, level), 0..60)
    }

    proptest! {
        /// What `push` builds needs no compaction: no two adjacent
        /// segments share a power's bits, the segments run contiguously
        /// from `+0.0`, and the exact integral is the per-segment sum.
        #[test]
        fn push_builds_contiguous_steps_of_distinct_power(steps in pushes()) {
            let mut trace = PowerTrace::new();
            let mut t = 0.0f64;
            for (dt, power_w) in steps {
                t += dt;
                trace.push(t, power_w);
            }
            let segments: Vec<Segment> = trace.segments().collect();
            for w in segments.windows(2) {
                prop_assert_ne!(w[0].power_w.to_bits(), w[1].power_w.to_bits());
            }
            let mut end = 0.0f64;
            for s in &segments {
                prop_assert_eq!(s.t0_s.to_bits(), end.to_bits());
                prop_assert!(s.t1_s > s.t0_s);
                end = s.t1_s;
            }
            prop_assert_eq!(trace.end_s().to_bits(), end.to_bits());
            let reference = segments.iter().fold(0.0, |acc, s| acc + s.energy_j());
            prop_assert_eq!(trace.exact_energy_j().to_bits(), reference.to_bits());
        }

        /// The wattmeter's cursor reads exactly what a binary search per
        /// sample reads, boundaries included, so both
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
    }
}
