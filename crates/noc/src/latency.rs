//! Per-packet latency statistics.
//!
//! Every packet carries the cycle it was *born* (scheduled or handed to
//! the NoC injection point); when it ejects, the shard records
//! `eject_cycle − born` here. The accumulator is a log₂ histogram plus
//! exact count/sum/max, so merging per-shard instances is commutative —
//! results are bit-identical across host-thread counts — and memory is a
//! fixed few hundred bytes regardless of traffic volume.
//!
//! This is the measurement half of latency-versus-offered-load NoC
//! characterization (see `muchisim-traffic`): the mean is exact, and
//! percentiles are resolved to power-of-two bucket bounds, which is
//! plenty to locate a saturation knee that moves latency by orders of
//! magnitude.

use crate::counters::checked_acc;
use serde::{Deserialize, Serialize};

/// Number of log₂ buckets (bucket 31 absorbs everything ≥ 2³⁰ cycles).
const BUCKETS: usize = 32;

/// A log₂ latency histogram with exact count, sum and max.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Packets recorded.
    pub count: u64,
    /// Sum of all recorded latencies, in cycles.
    pub total_cycles: u64,
    /// Largest recorded latency.
    pub max_cycles: u64,
    /// `buckets[i]` counts latencies in `[2^(i-1), 2^i)` (bucket 0: zero
    /// latency; the last bucket absorbs the tail).
    pub buckets: [u64; BUCKETS],
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            count: 0,
            total_cycles: 0,
            max_cycles: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// The histogram bucket of a latency value.
fn bucket_of(latency: u64) -> usize {
    (64 - latency.leading_zeros() as usize).min(BUCKETS - 1)
}

impl LatencyStats {
    /// Records one packet latency.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.total_cycles += latency;
        self.max_cycles = self.max_cycles.max(latency);
        self.buckets[bucket_of(latency)] += 1;
    }

    /// Accumulates `other` into `self` (commutative).
    ///
    /// # Panics
    ///
    /// Panics when a count overflows; statistics that come from a file go
    /// through [`LatencyStats::checked_merge`] instead.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.checked_merge(other)
            .expect("latency statistics overflow");
    }

    /// Accumulates `other` into `self`; `None` (with `self` partly
    /// merged) when a count overflows.
    pub fn checked_merge(&mut self, other: &LatencyStats) -> Option<()> {
        checked_acc(&mut self.count, other.count)?;
        checked_acc(&mut self.total_cycles, other.total_cycles)?;
        self.max_cycles = self.max_cycles.max(other.max_cycles);
        for (sum, &part) in self.buckets.iter_mut().zip(&other.buckets) {
            checked_acc(sum, part)?;
        }
        Some(())
    }

    /// Mean latency in cycles (0 when nothing was recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`): the upper bound of the
    /// first histogram bucket whose cumulative count reaches `q · count`,
    /// clamped to the exact maximum. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= need.max(1) {
                // bucket i spans [2^(i-1), 2^i); report its inclusive top
                let top = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return top.min(self.max_cycles);
            }
        }
        self.max_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_max_and_percentiles() {
        let mut s = LatencyStats::default();
        for lat in [4u64, 5, 6, 7, 100] {
            s.record(lat);
        }
        assert_eq!(s.count, 5);
        assert!((s.mean() - 24.4).abs() < 1e-9);
        assert_eq!(s.max_cycles, 100);
        // four of five samples sit in [4, 8): the median resolves there
        assert_eq!(s.percentile(0.5), 7);
        // the tail hits the max exactly
        assert_eq!(s.percentile(1.0), 100);
        assert_eq!(LatencyStats::default().percentile(0.5), 0);
        assert_eq!(LatencyStats::default().mean(), 0.0);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = LatencyStats::default();
        let mut b = LatencyStats::default();
        for lat in [1u64, 2, 3] {
            a.record(lat);
        }
        for lat in [10u64, 20] {
            b.record(lat);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.total_cycles, 36);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = LatencyStats::default();
        s.record(9);
        let json = serde_json::to_string(&s).unwrap();
        let back: LatencyStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
