//! A bounded-memory, log-bucketed latency histogram (HDR-style).
//!
//! [`LogHistogram`] replaces the grow-forever `Vec<f64>` latency samples
//! that used to feed [`LatencyProfile`](crate::telemetry::LatencyProfile):
//! recording a value touches a fixed set of atomic counters and never
//! allocates, so a million-round soak costs exactly the same memory as a
//! hundred-round smoke test.  The price is resolution, and the price is
//! bounded: values are binned into [`BUCKETS`] buckets whose width grows
//! geometrically (4 sub-buckets per octave), so any quantile read back from
//! the histogram is exact to within one bucket width — a relative error of
//! at most 25% of the value, and usually far less.
//!
//! The histogram is written concurrently (relaxed atomics — per-event
//! ordering between counters is irrelevant, only totals matter) and read by
//! taking a [`HistogramSnapshot`], a plain-data copy that can be merged
//! across workers, serialized, and queried for quantiles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave: each power of two is split four ways.
const SUB_COUNT: u64 = 4;

/// Total bucket count.  With 4 sub-buckets per octave this tracks values up
/// to [`MAX_TRACKABLE`]; larger values are clamped into the last bucket.
pub const BUCKETS: usize = 128;

/// The largest distinguishable value (nanoseconds): ~8.6 seconds.  Values
/// above this land in the final bucket.
pub const MAX_TRACKABLE: u64 = (1 << 33) - 1;

/// Maps a value to its bucket index (0..[`BUCKETS`]).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    let v = value.min(MAX_TRACKABLE);
    if v < SUB_COUNT {
        return v as usize;
    }
    let h = 63 - v.leading_zeros() as u64; // ilog2(v), >= 2 here
    let shift = h - 2;
    (4 * (h - 1) + ((v >> shift) - 4)) as usize
}

/// The half-open value range `[lo, hi)` covered by bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    let i = index as u64;
    if i < SUB_COUNT {
        return (i, i + 1);
    }
    let shift = i / 4 - 1;
    let lo = (4 + i % 4) << shift;
    (lo, lo + (1 << shift))
}

/// A fixed-size concurrent latency histogram.  See the module docs.
#[derive(Debug)]
pub struct LogHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.  All storage is allocated here, up front.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds).  Lock-free, allocation-free; safe to
    /// call from any number of threads concurrently.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the value's *bucket* only — a single relaxed atomic add, the
    /// cheapest possible shared-histogram write.  Quantiles read back from a
    /// snapshot stay exact to within one bucket (the snapshot derives the
    /// total and the extrema bounds from the occupied buckets); the exact
    /// sum/min/max books are skipped, so [`HistogramSnapshot::mean_ns`] on a
    /// bucket-only histogram is approximate (bucket midpoints).  This is the
    /// hot-path feed for live mid-run sampling, where only quantiles are
    /// read; end-of-run profiles come from full [`LogHistogram::record`]
    /// books instead.
    pub fn record_bucket(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a plain-data [`HistogramSnapshot`].
    ///
    /// Concurrent recorders may be mid-update, so a snapshot taken mid-run
    /// is approximate at the margin (the final snapshot, taken after the
    /// workers quiesce, is exact).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let bucket_total: u64 = counts.iter().sum();
        // Values fed through `record_bucket` bump only their bucket, so the
        // exact books may trail the buckets: take the bucket total as the
        // count and bound the extrema by the occupied bucket range when the
        // exact extrema were never written.
        let count = self.count.load(Ordering::Relaxed).max(bucket_total);
        let exact_min = self.min.load(Ordering::Relaxed);
        let min_ns = if count == 0 {
            0
        } else if exact_min == u64::MAX {
            counts
                .iter()
                .position(|&c| c > 0)
                .map_or(0, |i| bucket_bounds(i).0)
        } else {
            exact_min
        };
        let exact_max = self.max.load(Ordering::Relaxed);
        let max_ns = if count > 0 && exact_max == 0 {
            counts
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| bucket_bounds(i).1 - 1)
        } else {
            exact_max
        };
        HistogramSnapshot {
            counts,
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            min_ns,
            max_ns,
        }
    }
}

/// The single-owner counterpart of [`LogHistogram`]: identical bucket
/// layout and snapshot semantics, but plain (non-atomic) storage, so a
/// recorder that already holds `&mut` — a worker's private per-lattice
/// latency books, say — pays ordinary integer arithmetic per sample
/// instead of five atomic read-modify-writes.  Snapshots from the two
/// types are interchangeable and merge freely.
#[derive(Debug)]
pub struct LocalHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram.  All storage is allocated here, up front.
    #[must_use]
    pub fn new() -> Self {
        LocalHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value (nanoseconds).  Allocation-free plain arithmetic.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Values recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Copies the current state into a plain-data [`HistogramSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.counts.to_vec(),
            count: self.count,
            sum_ns: self.sum,
            min_ns: if self.count == 0 { 0 } else { self.min },
            max_ns: self.max,
        }
    }
}

/// A plain-data copy of a [`LogHistogram`]: mergeable, serializable, and
/// queryable for quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `counts[i]` covers the value range
    /// [`bucket_bounds`]`(i)`.  Always [`BUCKETS`] entries.
    pub counts: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Exact sum of all recorded values, nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value (0 when empty).
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }

    /// Returns `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`.  Totals add; extrema widen.  Merging
    /// per-worker snapshots yields exactly the histogram a single shared
    /// recorder would have produced.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if other.count > 0 {
            self.min_ns = if self.count == 0 {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// The exact mean, nanoseconds (the sum is tracked exactly; only the
    /// per-value distribution is bucketed).  Zero when empty.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate standard deviation, nanoseconds, computed from bucket
    /// midpoints (exact to within bucket resolution).  Zero when empty.
    #[must_use]
    pub fn std_dev_ns(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mut mid_sum = 0.0;
        let mut mid_sq_sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            let mid = (lo as f64 + hi as f64) / 2.0;
            mid_sum += c as f64 * mid;
            mid_sq_sum += c as f64 * mid * mid;
        }
        let mean = mid_sum / n;
        (mid_sq_sum / n - mean * mean).max(0.0).sqrt()
    }

    /// The `q`-quantile (`0.0..=1.0`), nanoseconds, interpolated within its
    /// bucket and clamped to the recorded `[min, max]` range.  Exact to
    /// within one bucket width.  Zero when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let within = (rank - seen) as f64 / c as f64;
                let value = lo as f64 + (hi - lo) as f64 * within;
                return value.clamp(self.min_ns as f64, self.max_ns as f64);
            }
            seen += c;
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        let probes: Vec<u64> = (0..64)
            .flat_map(|shift: u32| {
                let base = 1u64.checked_shl(shift).unwrap_or(u64::MAX);
                [base.saturating_sub(1), base, base.saturating_add(1)]
            })
            .collect();
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            let clamped = v.min(MAX_TRACKABLE);
            assert!(
                lo <= clamped && clamped < hi,
                "value {v} (clamped {clamped}) not in bucket {i} = [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_buckets_tile_the_range() {
        for i in 1..BUCKETS {
            let (_, prev_hi) = bucket_bounds(i - 1);
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(prev_hi, lo, "gap between buckets {} and {}", i - 1, i);
            assert!(lo < hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, MAX_TRACKABLE + 1);
    }

    #[test]
    fn empty_histogram_reads_all_zero() {
        let hist = LogHistogram::new();
        let snap = hist.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.min_ns, 0);
        assert_eq!(snap.max_ns, 0);
        assert_eq!(snap.mean_ns(), 0.0);
        assert_eq!(snap.std_dev_ns(), 0.0);
        assert_eq!(snap.quantile_ns(0.99), 0.0);
    }

    #[test]
    fn mean_is_exact_and_extrema_are_exact() {
        let hist = LogHistogram::new();
        for v in [100u64, 250, 3_000, 47] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_ns, 3_397);
        assert_eq!(snap.min_ns, 47);
        assert_eq!(snap.max_ns, 3_000);
        assert!((snap.mean_ns() - 849.25).abs() < 1e-9);
    }

    #[test]
    fn quantiles_agree_with_exact_order_statistics_within_one_bucket() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0B5);
        // A latency-shaped distribution: a tight body plus a long tail.
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| {
                let body = rng.gen_range(3_000..9_000) as u64;
                if rng.gen_range(0..100) < 3 {
                    body * rng.gen_range(5..40) as u64
                } else {
                    body
                }
            })
            .collect();
        let hist = LogHistogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let approx = snap.quantile_ns(q);
            let width = bucket_bounds(bucket_index(exact as u64)).1 as f64
                - bucket_bounds(bucket_index(exact as u64)).0 as f64;
            assert!(
                (approx - exact).abs() <= width,
                "q={q}: approx {approx} vs exact {exact}, bucket width {width}"
            );
        }
    }

    #[test]
    fn merged_snapshots_equal_a_single_shared_histogram() {
        let shared = LogHistogram::new();
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for i in 0..5_000u64 {
            let v = rng.gen_range(10..1_000_000) as u64;
            shared.record(v);
            if i % 2 == 0 { &a } else { &b }.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, shared.snapshot());
    }

    #[test]
    fn local_histogram_snapshot_matches_the_atomic_one() {
        let shared = LogHistogram::new();
        let mut local = LocalHistogram::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..5_000 {
            let v = rng.gen_range(10..1_000_000) as u64;
            shared.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 5_000);
        assert_eq!(local.snapshot(), shared.snapshot());
    }

    #[test]
    fn bucket_only_records_still_serve_quantiles_and_bounded_extrema() {
        let full = LogHistogram::new();
        let coarse = LogHistogram::new();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..10_000 {
            let v = rng.gen_range(100..50_000) as u64;
            full.record(v);
            coarse.record_bucket(v);
        }
        let full_snap = full.snapshot();
        let coarse_snap = coarse.snapshot();
        assert_eq!(coarse_snap.count, 10_000, "count derives from the buckets");
        assert_eq!(coarse_snap.counts, full_snap.counts);
        for q in [0.5, 0.99, 0.999] {
            let (lo, hi) = bucket_bounds(bucket_index(full_snap.quantile_ns(q) as u64));
            assert!(
                (coarse_snap.quantile_ns(q) - full_snap.quantile_ns(q)).abs() <= (hi - lo) as f64,
                "bucket-only quantiles stay within one bucket of the full books"
            );
        }
        // Extrema are bounded by the occupied bucket range, not exact.
        assert!(coarse_snap.min_ns <= full_snap.min_ns);
        assert!(coarse_snap.max_ns >= full_snap.max_ns);
    }

    #[test]
    fn values_beyond_the_trackable_range_clamp_into_the_last_bucket() {
        let hist = LogHistogram::new();
        hist.record(u64::MAX);
        let snap = hist.snapshot();
        assert_eq!(snap.counts[BUCKETS - 1], 1);
        assert_eq!(
            snap.max_ns,
            u64::MAX,
            "extrema stay exact even when binning clamps"
        );
    }
}
