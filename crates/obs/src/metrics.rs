//! The metric primitives: counters, gauges, and fixed-bucket histograms
//! with mergeable snapshots.
//!
//! Everything here is lock-free on the record path: each accumulator is a
//! relaxed integer `fetch_add`, because counters are bumped from inside the
//! exec pool's workers concurrently. Integer adds commute, so a total does
//! not depend on how the threads interleave — the property tests prove no
//! update is lost and that concurrent sums equal the sequential one.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, the last catching
/// everything above the largest bound. Bounds are fixed at registration so
/// snapshots from different processes/phases merge bucket-by-bucket.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
    total: AtomicU64,
}

/// A histogram's sum is kept in units of 1e-9 of the observed value
/// (nanoseconds for the duration histograms), each observation rounded
/// once to the nearest unit.
const SUM_UNITS: f64 = 1e9;

impl Histogram {
    /// A histogram over `bounds` (must be finite and strictly increasing).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Record one observation. Its sum share is rounded to the nearest
    /// 1e-9; a negative or NaN value adds nothing to the sum.
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let nanos = (v * SUM_UNITS).round() as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_nanos.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of a [`Histogram`]'s state; merges with any snapshot that
/// shares its bucket bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The bucket upper bounds (the final, implicit bucket is `+inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts, `bounds.len() + 1` long.
    pub counts: Vec<u64>,
    /// Sum of every observed value, in units of 1e-9 of it (nanoseconds
    /// for a duration histogram); [`Self::sum`] gives it in the value's
    /// own unit.
    pub sum_nanos: u64,
    /// Number of observations.
    pub total: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `bounds` (merge identity).
    pub fn empty(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum_nanos: 0,
            total: 0,
        }
    }

    /// Merge two snapshots bucket-by-bucket. Counts, totals and sums all
    /// add exactly (associative and commutative — `u64` addition). Errors
    /// when the bucket shapes differ.
    pub fn merge(&self, other: &Self) -> Result<Self, String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "cannot merge histograms with different bounds ({} vs {} buckets)",
                self.bounds.len(),
                other.bounds.len()
            ));
        }
        Ok(Self {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            sum_nanos: self.sum_nanos + other.sum_nanos,
            total: self.total + other.total,
        })
    }

    /// Sum of every observed value, in the value's own unit (seconds for
    /// a duration histogram).
    pub fn sum(&self) -> f64 {
        self.sum_nanos as f64 / SUM_UNITS
    }

    /// Mean observed value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum() / self.total as f64
        }
    }

    /// Upper bound of the highest non-empty bucket (`inf` when the overflow
    /// bucket holds observations; zero when empty) — a coarse maximum.
    pub fn max_bound(&self) -> f64 {
        match self.counts.iter().rposition(|&c| c > 0) {
            None => 0.0,
            Some(i) if i == self.bounds.len() => f64::INFINITY,
            Some(i) => self.bounds[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bound() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5); // bucket 0 (≤ 1.0)
        h.observe(1.0); // bucket 0 (bound is inclusive)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.total, 4);
        assert_eq!(s.sum_nanos, 106_500_000_000);
        assert_eq!(s.sum(), 106.5);
        assert!((s.mean() - 26.625).abs() < 1e-12);
        assert_eq!(s.max_bound(), f64::INFINITY);
    }

    #[test]
    fn merge_conserves_counts_and_rejects_shape_mismatch() {
        let a = {
            let h = Histogram::new(&[1.0]);
            h.observe(0.5);
            h.snapshot()
        };
        let b = {
            let h = Histogram::new(&[1.0]);
            h.observe(2.0);
            h.observe(0.1);
            h.snapshot()
        };
        let m = a.merge(&b).unwrap();
        assert_eq!(m.total, 3);
        assert_eq!(m.counts, vec![2, 1]);
        let other_shape = HistogramSnapshot::empty(&[1.0, 2.0]);
        assert!(a.merge(&other_shape).is_err());
    }
}
