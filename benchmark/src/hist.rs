//! A fixed-bucket logarithmic histogram of durations in nanoseconds.
//!
//! Values below 64 ns get one bucket each; above that every power of two
//! is cut into 64 equal sub-buckets (≈1.1 % resolution).  Recording is two
//! shifts and an increment and never allocates, so the clients can record
//! every transaction inside the measured window.  Percentiles interpolate
//! linearly inside the bucket that holds the rank, so a reported value is
//! not pinned to a bucket edge.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Largest exponent tracked: values of 2^40 ns (≈18 min) and above land in
/// the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS) as usize * SUB;

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the figure is decided by a handful of outliers.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (exp - SUB_BITS) as usize * SUB + sub
}

/// The half-open value range `[lo, hi)` a bucket covers.
fn bounds_of(bucket: usize) -> (u64, u64) {
    if bucket < SUB {
        return (bucket as u64, bucket as u64 + 1);
    }
    let exp = ((bucket - SUB) / SUB) as u32 + SUB_BITS;
    let sub = ((bucket - SUB) % SUB) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (1u64 << exp) + sub * width;
    (lo, lo + width)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `p`-quantile (0 < p < 1) in nanoseconds, or `None` when fewer
    /// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples_beyond(p) < MIN_SAMPLES_BEYOND {
            return None;
        }
        self.quantile(p)
    }

    /// The `p`-quantile however few samples lie beyond it; `None` only for
    /// an empty histogram.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let rank = p * self.total as f64;
        let mut before = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (before + count) as f64 >= rank {
                let (lo, hi) = bounds_of(bucket);
                let within = (rank - before as f64) / count as f64;
                return Some(lo as f64 + (hi - lo) as f64 * within);
            }
            before += count;
        }
        None
    }

    /// Samples strictly beyond the `p`-quantile's rank.
    pub fn samples_beyond(&self, p: f64) -> u64 {
        self.total - (p * self.total as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        let mut expected_lo = 0u64;
        for bucket in 0..BUCKETS {
            let (lo, hi) = bounds_of(bucket);
            assert_eq!(lo, expected_lo, "bucket {bucket}");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), bucket);
            assert_eq!(bucket_of(hi - 1), bucket);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 1u64 << MAX_EXP);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn resolution_is_about_one_percent() {
        for ns in [100u64, 1_000, 9_999, 250_000, 630_000, 50_000_000] {
            let (lo, hi) = bounds_of(bucket_of(ns));
            assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 64.0 + 1e-9, "{ns}");
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = Histogram::new();
        for i in 0..1_000 {
            h.record(1_000 + i);
        }
        // 1000 samples: exactly 10 lie beyond the p99 rank.
        assert_eq!(h.samples_beyond(0.99), 10);
        assert!(h.percentile(0.99).is_some());
        assert!(h.percentile(0.999).is_none());
        let mut short = Histogram::new();
        for i in 0..999 {
            short.record(1_000 + i);
        }
        assert_eq!(short.samples_beyond(0.99), 9);
        assert!(short.percentile(0.99).is_none());
        assert!(short.percentile(0.5).is_some());
        assert!(Histogram::new().percentile(0.5).is_none());
    }

    #[test]
    fn percentiles_of_a_uniform_sample_land_within_resolution() {
        let mut h = Histogram::new();
        for ns in 10_000..20_000u64 {
            h.record(ns);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((p50 - 15_000.0).abs() < 15_000.0 * 0.02, "{p50}");
        assert!((p99 - 19_900.0).abs() < 19_900.0 * 0.02, "{p99}");
    }

    #[test]
    fn interpolation_moves_with_the_rank_inside_one_bucket() {
        // All samples share one bucket; different quantiles must still
        // give different values.
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(1 << 20);
        }
        let (lo, hi) = bounds_of(bucket_of(1 << 20));
        let p25 = h.percentile(0.25).unwrap();
        let p75 = h.percentile(0.75).unwrap();
        assert!(lo as f64 <= p25 && p25 < p75 && p75 <= hi as f64);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..600 {
            a.record(100 + i);
            b.record(100_000 + i);
        }
        a.merge(&b);
        assert_eq!(a.len(), 1_200);
        let p50 = a.percentile(0.5).unwrap();
        assert!(p50 < 1_000.0, "{p50}");
        assert!(a.percentile(0.75).unwrap() > 100_000.0);
    }
}
