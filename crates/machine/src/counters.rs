//! Simulated hardware counters.
//!
//! The paper characterizes applications with CPU performance counters:
//! retired micro-operations, L2 cache misses, and elapsed cycles. From
//! these it derives UPM (µops per miss — its energy-time-tradeoff
//! predictor, Table 1) and UPC (µops per cycle, which rises at lower
//! gears for memory-bound programs, §3.1).
//!
//! [`Counters`] accumulates these per rank during a simulated run,
//! together with the active/idle time decomposition used by the model.

use crate::cpu::WorkBlock;
use crate::wire::{Reader, WireError, Writer};
use serde::{Deserialize, Serialize};

/// Accumulated per-rank execution statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Retired micro-operations.
    pub uops: f64,
    /// L2 cache misses.
    pub l2_misses: f64,
    /// Elapsed CPU cycles over the *active* portion of the run.
    pub active_cycles: f64,
    /// Virtual time spent computing (outside message-passing calls), s.
    pub active_s: f64,
    /// Virtual time spent inside message-passing calls (communication
    /// plus blocking), s. The paper's `T^I` includes both.
    pub idle_s: f64,
    /// Bytes sent through the message-passing layer.
    pub bytes_sent: u64,
    /// Number of message-passing operations issued.
    pub mpi_calls: u64,
}

impl Counters {
    /// Record a compute block executed over `elapsed_s` seconds at clock
    /// frequency `freq_hz`.
    pub fn record_compute(&mut self, work: &WorkBlock, elapsed_s: f64, freq_hz: f64) {
        self.uops += work.uops;
        self.l2_misses += work.l2_misses;
        self.active_s += elapsed_s;
        self.active_cycles += elapsed_s * freq_hz;
    }

    /// Record time spent inside a message-passing call.
    pub fn record_idle(&mut self, elapsed_s: f64) {
        self.idle_s += elapsed_s;
    }

    /// Record a message-passing operation that sent `bytes`.
    pub fn record_mpi_op(&mut self, bytes: u64) {
        self.mpi_calls += 1;
        self.bytes_sent += bytes;
    }

    /// Total virtual run time, seconds.
    pub fn total_s(&self) -> f64 {
        self.active_s + self.idle_s
    }

    /// µops per L2 miss — the paper's Table 1 metric. Infinite when the
    /// run produced no misses.
    pub fn upm(&self) -> f64 {
        if self.l2_misses == 0.0 {
            f64::INFINITY
        } else {
            self.uops / self.l2_misses
        }
    }

    /// µops per cycle over the active portion of the run.
    pub fn upc(&self) -> f64 {
        if self.active_cycles == 0.0 {
            0.0
        } else {
            self.uops / self.active_cycles
        }
    }

    /// Counters accumulated since `mark` was captured: the element-wise
    /// difference `self − mark`. Runtime DVFS policies use this to read a
    /// *window* (one phase, one MPI interval) out of the monotone
    /// cumulative counters — `mark.merge(&mark.delta_since(..))` would
    /// reproduce `self`. `mark` must be an earlier snapshot of the same
    /// counter stream.
    pub fn delta_since(&self, mark: &Counters) -> Counters {
        debug_assert!(self.uops >= mark.uops && self.mpi_calls >= mark.mpi_calls);
        Counters {
            uops: self.uops - mark.uops,
            l2_misses: self.l2_misses - mark.l2_misses,
            active_cycles: self.active_cycles - mark.active_cycles,
            active_s: self.active_s - mark.active_s,
            idle_s: self.idle_s - mark.idle_s,
            bytes_sent: self.bytes_sent - mark.bytes_sent,
            mpi_calls: self.mpi_calls - mark.mpi_calls,
        }
    }

    /// Append the seven fields, in declaration order, one word each.
    pub fn encode(&self, w: &mut Writer) {
        w.f64(self.uops);
        w.f64(self.l2_misses);
        w.f64(self.active_cycles);
        w.f64(self.active_s);
        w.f64(self.idle_s);
        w.u64(self.bytes_sent);
        w.u64(self.mpi_calls);
    }

    /// Inverse of [`Counters::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Counters {
            uops: r.f64()?,
            l2_misses: r.f64()?,
            active_cycles: r.f64()?,
            active_s: r.f64()?,
            idle_s: r.f64()?,
            bytes_sent: r.u64()?,
            mpi_calls: r.u64()?,
        })
    }

    /// Merge another rank's counters into this one (for cluster totals).
    pub fn merge(&mut self, other: &Counters) {
        self.uops += other.uops;
        self.l2_misses += other.l2_misses;
        self.active_cycles += other.active_cycles;
        self.active_s += other.active_s;
        self.idle_s += other.idle_s;
        self.bytes_sent += other.bytes_sent;
        self.mpi_calls += other.mpi_calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_compute_and_idle() {
        let mut c = Counters::default();
        c.record_compute(&WorkBlock::new(2.0e9, 1.0e6), 1.5, 2.0e9);
        c.record_idle(0.5);
        assert_eq!(c.uops, 2.0e9);
        assert_eq!(c.l2_misses, 1.0e6);
        assert_eq!(c.active_s, 1.5);
        assert_eq!(c.idle_s, 0.5);
        assert_eq!(c.total_s(), 2.0);
        assert_eq!(c.active_cycles, 3.0e9);
    }

    #[test]
    fn upm_and_upc() {
        let mut c = Counters::default();
        c.record_compute(&WorkBlock::new(860.0, 100.0), 1.0, 1.0e3);
        assert!((c.upm() - 8.6).abs() < 1e-12);
        assert!((c.upc() - 0.86).abs() < 1e-12);
    }

    #[test]
    fn upm_infinite_without_misses() {
        let mut c = Counters::default();
        c.record_compute(&WorkBlock::cpu_only(10.0), 1.0, 1.0e9);
        assert_eq!(c.upm(), f64::INFINITY);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = Counters::default();
        a.record_compute(&WorkBlock::new(10.0, 1.0), 1.0, 100.0);
        a.record_mpi_op(64);
        let mut b = Counters::default();
        b.record_compute(&WorkBlock::new(20.0, 3.0), 2.0, 100.0);
        b.record_idle(1.0);
        b.record_mpi_op(128);
        a.merge(&b);
        assert_eq!(a.uops, 30.0);
        assert_eq!(a.l2_misses, 4.0);
        assert_eq!(a.active_s, 3.0);
        assert_eq!(a.idle_s, 1.0);
        assert_eq!(a.bytes_sent, 192);
        assert_eq!(a.mpi_calls, 2);
    }

    #[test]
    fn delta_since_inverts_accumulation() {
        let mut c = Counters::default();
        c.record_compute(&WorkBlock::new(10.0, 1.0), 1.0, 100.0);
        c.record_mpi_op(64);
        let mark = c;
        c.record_compute(&WorkBlock::new(20.0, 3.0), 2.0, 100.0);
        c.record_idle(0.5);
        c.record_mpi_op(128);
        let w = c.delta_since(&mark);
        assert_eq!(w.uops, 20.0);
        assert_eq!(w.l2_misses, 3.0);
        assert_eq!(w.active_s, 2.0);
        assert_eq!(w.idle_s, 0.5);
        assert_eq!(w.bytes_sent, 128);
        assert_eq!(w.mpi_calls, 1);
        let mut rebuilt = mark;
        rebuilt.merge(&w);
        assert_eq!(rebuilt, c);
    }

    #[test]
    fn zero_counters_have_defined_metrics() {
        let c = Counters::default();
        assert_eq!(c.upc(), 0.0);
        assert_eq!(c.upm(), f64::INFINITY);
        assert_eq!(c.total_s(), 0.0);
    }
}
