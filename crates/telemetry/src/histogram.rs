//! In-tree log-linear histogram.
//!
//! The bucketing follows the HdrHistogram family: small values get exact
//! unit buckets, larger values fall into power-of-two octaves each split
//! into [`SUB_BUCKETS`] equal-width linear sub-buckets, so relative
//! resolution stays bounded (≤ 12.5 %) at every magnitude while the whole
//! `u64` range fits in under 500 buckets. No dependencies, no
//! floating-point in the index math, and bucket boundaries are a pure
//! function of the index — pinned by unit tests so exported snapshots are
//! stable across versions.

use serde::{Deserialize, Serialize};

/// Values below this get an exact bucket each (`bucket i == value i`).
pub const LINEAR_MAX: u64 = 16;

/// Sub-buckets per power-of-two octave above [`LINEAR_MAX`].
pub const SUB_BUCKETS: u64 = 8;

/// Bucket index for `value`. Monotone in `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    // value ≥ 16 ⇒ msb ≥ 4. The octave for msb `m` spans [2^m, 2^(m+1)),
    // split into 8 sub-buckets of width 2^(m−3).
    let msb = 63 - value.leading_zeros() as u64;
    let sub = (value >> (msb - 3)) & (SUB_BUCKETS - 1);
    (LINEAR_MAX + (msb - 4) * SUB_BUCKETS + sub) as usize
}

/// Inclusive lower boundary of bucket `index`.
pub fn bucket_lo(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_MAX {
        return i;
    }
    let octave = (i - LINEAR_MAX) / SUB_BUCKETS;
    let sub = (i - LINEAR_MAX) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (octave + 1)
}

/// Exclusive upper boundary of bucket `index` (saturating at the top of
/// the `u64` range).
pub fn bucket_hi(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_MAX {
        return i + 1;
    }
    let octave = (i - LINEAR_MAX) / SUB_BUCKETS;
    bucket_lo(index).saturating_add(1u64 << (octave + 1))
}

/// A recorded histogram: per-bucket counts plus exact count/sum/min/max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1): the
    /// inclusive upper edge of the first bucket whose cumulative count
    /// reaches `ceil(q · count)`, clamped to the exact recorded maximum.
    /// Exact for values below [`LINEAR_MAX`]; within one sub-bucket width
    /// (≤ 12.5 % relative) above it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return (bucket_hi(i) - 1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
            .collect()
    }

    /// Rebuild a histogram from an exported snapshot. Per-bucket counts
    /// are restored exactly (saturating where an imported snapshot puts
    /// more than `u64::MAX` into one bucket); `min`/`max`/`sum` come from
    /// the snapshot's exact fields.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Histogram {
        let mut h = Histogram::new();
        for &(lo, _, c) in &s.buckets {
            let idx = bucket_index(lo);
            if idx >= h.buckets.len() {
                h.buckets.resize(idx + 1, 0);
            }
            h.buckets[idx] = h.buckets[idx].saturating_add(c);
        }
        h.count = s.count;
        h.sum = s.sum;
        h.min = s.min;
        h.max = s.max;
        h
    }

    /// Export the histogram for serialization.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.nonzero_buckets(),
        }
    }
}

/// Serializable form of a [`Histogram`]: exact summary statistics plus
/// the non-empty `(lo, hi, count)` buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Non-empty buckets as `(inclusive lo, exclusive hi, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    /// Whether the fields can describe one set of observations: `min ≤
    /// max`, every bucket a non-empty range, and the bucket counts
    /// adding up to `count`. What [`Histogram::snapshot`] exports always
    /// is; an imported line has to be checked. `Err` names the first
    /// broken rule.
    pub fn check_coherent(&self) -> Result<(), String> {
        if self.min > self.max {
            return Err(format!("histogram min {} > max {}", self.min, self.max));
        }
        let mut total = Some(0u64);
        for &(lo, hi, c) in &self.buckets {
            if lo >= hi {
                return Err(format!("histogram bucket [{lo}, {hi}) is empty"));
            }
            total = total.and_then(|t| t.checked_add(c));
        }
        if total != Some(self.count) {
            return Err(format!(
                "histogram bucket counts sum to {}, not to count {}",
                total.map_or("more than u64::MAX".to_string(), |t| t.to_string()),
                self.count
            ));
        }
        Ok(())
    }

    /// Merge `other` into `self`, as if every observation behind both
    /// snapshots had been recorded into one histogram: counts and sums
    /// add (saturating — snapshots come from files), `min`/`max` stay the
    /// **exact** extremes (never re-derived from bucket boundaries, which
    /// would round a max like 33 up to its octave bucket edge), and
    /// buckets with equal boundaries combine.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for &(lo, hi, c) in &other.buckets {
            match self.buckets.iter_mut().find(|b| b.0 == lo && b.1 == hi) {
                Some(b) => b.2 = b.2.saturating_add(c),
                None => self.buckets.push((lo, hi, c)),
            }
        }
        self.buckets.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The boundary pins: these exact numbers are the wire format.
    #[test]
    fn bucket_boundaries_are_pinned() {
        // Unit buckets below 16.
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lo(v as usize), v);
            assert_eq!(bucket_hi(v as usize), v + 1);
        }
        // First octave [16, 32): width-2 sub-buckets.
        assert_eq!(bucket_index(16), 16);
        assert_eq!((bucket_lo(16), bucket_hi(16)), (16, 18));
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        assert_eq!(bucket_index(31), 23);
        assert_eq!((bucket_lo(23), bucket_hi(23)), (30, 32));
        // Second octave [32, 64): width-4 sub-buckets.
        assert_eq!(bucket_index(32), 24);
        assert_eq!((bucket_lo(24), bucket_hi(24)), (32, 36));
        assert_eq!(bucket_index(63), 31);
        assert_eq!((bucket_lo(31), bucket_hi(31)), (60, 64));
        // A large value: 1000 = 0b1111101000, msb 9, sub (1000>>6)&7 = 7.
        assert_eq!(bucket_index(1000), (16 + (9 - 4) * 8 + 7) as usize);
        assert_eq!(bucket_lo(bucket_index(1000)), 960);
        assert_eq!(bucket_hi(bucket_index(1000)), 1024);
    }

    #[test]
    fn bucket_index_is_monotone_and_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotone at {v}");
            assert!(bucket_lo(i) <= v && v < bucket_hi(i), "v={v} i={i}");
            prev = i;
        }
        // Top of the range does not overflow (the call itself is the
        // assertion: a shift overflow would panic in debug builds).
        let top = bucket_index(u64::MAX);
        assert!(bucket_lo(top) > 0);
        assert_eq!(bucket_hi(top), u64::MAX);
    }

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 108);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.6).abs() < 1e-12);
        // Small values are exact; the p50 of [1,2,2,3,100] is 2.
        assert_eq!(h.quantile(0.5), 2);
        // The max is clamped to the exact recorded maximum.
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(1, 2, 1), (2, 3, 2), (3, 4, 1), (96, 104, 1)]
        );
    }

    #[test]
    fn snapshot_round_trips() {
        let mut h = Histogram::new();
        for v in 0..2000u64 {
            h.record(v % 37);
            h.record(v);
        }
        let snap = h.snapshot();
        let back = Histogram::from_snapshot(&snap);
        assert_eq!(h, back);
        let json = serde_json::to_string(&snap).unwrap();
        let reparsed: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, reparsed);
    }

    #[test]
    fn merge_preserves_exact_max_above_power_of_two_boundaries() {
        // 17 and 33 sit just above octave boundaries: their buckets are
        // [16, 18) and [32, 36), so a bucket-derived max would report 17
        // and 35. The snapshot must keep the exact observed values.
        let mut a = Histogram::new();
        a.record(17);
        let mut b = Histogram::new();
        b.record(33);
        b.record(5);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 55);
        assert_eq!(merged.min, 5);
        assert_eq!(merged.max, 33, "max must be exact, not the bucket edge 35");
        assert_eq!(merged.buckets, vec![(5, 6, 1), (16, 18, 1), (32, 36, 1)]);
        // Shared buckets combine rather than duplicate.
        let mut c = Histogram::new();
        c.record(34);
        merged.merge(&c.snapshot());
        assert_eq!(merged.max, 34);
        assert!(
            merged.buckets.contains(&(32, 36, 2)),
            "{:?}",
            merged.buckets
        );
        // Merging an empty snapshot is a no-op; merging into one copies.
        let before = merged.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, before);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }
}
