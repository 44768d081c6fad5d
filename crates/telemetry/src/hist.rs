//! A log-bucketed histogram with an *exact* merge.
//!
//! Exact percentiles over one run need every sample; a campaign cannot
//! keep every sample of every cell, and sampled summaries (reservoirs,
//! streaming estimators) cannot be merged across cells or shards without
//! losing accuracy and depending on merge order.
//!
//! [`LogHistogram`] trades a small, *bounded* relative error on the value
//! axis for exactness on the count axis: values land in a fixed,
//! universal bucket layout, so merging two histograms is element-wise
//! addition of bucket counts — commutative, associative, and bit-exact
//! (property-tested). A population percentile computed from a merged
//! histogram is identical to one computed from the single concatenated
//! stream, regardless of how the stream was sharded.
//!
//! ## Bucket layout
//!
//! Values are `u64` (callers scale: nanoseconds for times, nanojoules for
//! energy, ppm for rates). With `SUB_BITS = 4` there are 16 sub-buckets
//! per power of two:
//!
//! * `v < 16`: bucket `v` — small values are exact.
//! * `v ≥ 16`: let `m = floor(log2 v)`; bucket
//!   `(m - 4) * 16 + (v >> (m - 4))`. Each octave `[2^m, 2^(m+1))` splits
//!   into 16 equal sub-buckets, so the bucket lower bound is within
//!   6.25 % of any member value.
//!
//! The layout is total over `u64` (976 buckets, ~7.6 KiB of counts) and
//! never rescales, so any two histograms are mergeable by construction.
//! Quantiles are nearest-rank over the cumulative counts; a bucket's
//! reported value is its lower bound, clamped into the exact observed
//! `[min, max]` so degenerate distributions report exactly.

use crate::json::{escape, Json};

/// Sub-bucket resolution: `2^SUB_BITS` sub-buckets per octave.
pub const SUB_BITS: u32 = 4;

/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Total buckets in the fixed layout (covers all of `u64`).
pub const NUM_BUCKETS: usize = (65 - SUB_BITS as usize) * SUB;

/// A log-bucketed value distribution over `u64` with exact merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts in the fixed layout.
    buckets: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all samples (u128: no overflow for any realistic
    /// campaign, and integer addition keeps the merge bit-exact).
    sum: u128,
    /// Exact smallest sample (`u64::MAX` while empty).
    min: u64,
    /// Exact largest sample (0 while empty).
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The fixed bucket index of a value.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let m = 63 - v.leading_zeros();
            let shift = m - SUB_BITS;
            (shift as usize) * SUB + (v >> shift) as usize
        }
    }

    /// The smallest value that lands in bucket `i` (the bucket's
    /// representative for quantiles).
    #[inline]
    pub fn bucket_lower(i: usize) -> u64 {
        debug_assert!(i < NUM_BUCKETS);
        if i < 2 * SUB {
            i as u64
        } else {
            let g = i / SUB;
            let sub = i % SUB;
            ((SUB + sub) as u64) << (g - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Absorbs `other` exactly: the result is indistinguishable from a
    /// histogram that ingested both streams in any order (commutative and
    /// associative — property-tested).
    pub fn merge_from(&mut self, other: &LogHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile: the lower bound of the bucket holding the
    /// `ceil(p * count)`-th sample, clamped into the exact `[min, max]`.
    /// Deterministic, merge-invariant, and within one sub-bucket (6.25 %)
    /// of the true order statistic. Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The distilled percentile view.
    pub fn summary(&self) -> LogHistSummary {
        LogHistSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Occupied buckets as `(index, count)` pairs, ascending — the sparse
    /// form serialized into NDJSON cell records.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Serializes the histogram as a JSON object with sparse buckets:
    /// `{"count":…,"sum":"…","min":"…","max":"…","buckets":[[i,c],…]}`.
    ///
    /// `sum`, `min` and `max` are decimal *strings*: samples are raw u64
    /// values (so min/max can exceed 2^53, and sum 2^64), and JSON numbers
    /// round-trip through `f64` in our parser, which would silently lose
    /// low bits. `count` and bucket counts stay numbers — they are bounded
    /// by the sample count, which no realistic campaign pushes past 2^53.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\": {}, \"sum\": \"{}\", \"min\": \"{}\", \"max\": \"{}\", \"buckets\": [",
            self.count,
            self.sum,
            self.min().unwrap_or(0),
            self.max().unwrap_or(0)
        );
        for (n, (i, c)) in self.nonzero().enumerate() {
            if n > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{i}, {c}]"));
        }
        out.push_str("]}");
        out
    }

    /// Rebuilds a histogram from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field. Bucket counts
    /// must re-sum to `count` — a journal record that fails this was
    /// corrupted, not truncated.
    pub fn from_json(v: &Json) -> Result<LogHistogram, String> {
        let field = |name: &str| -> Result<&Json, String> {
            v.get(name)
                .ok_or_else(|| format!("histogram missing '{name}'"))
        };
        let num = |name: &str| -> Result<u64, String> {
            field(name)?
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("histogram '{name}' is not a non-negative integer"))
        };
        let str_u64 = |name: &str| -> Result<u64, String> {
            field(name)?
                .as_str()
                .ok_or_else(|| format!("histogram '{name}' is not a string"))?
                .parse()
                .map_err(|e| format!("histogram '{name}' is not a u64: {e}"))
        };
        let mut h = LogHistogram::new();
        let count = num("count")?;
        let sum: u128 = field("sum")?
            .as_str()
            .ok_or("histogram 'sum' is not a string")?
            .parse()
            .map_err(|e| format!("histogram 'sum' is not a u128: {e}"))?;
        let min = str_u64("min")?;
        let max = str_u64("max")?;
        let buckets = field("buckets")?
            .as_arr()
            .ok_or("histogram 'buckets' is not an array")?;
        let mut total = 0u64;
        for pair in buckets {
            let pair = pair.as_arr().ok_or("bucket entry is not a pair")?;
            if pair.len() != 2 {
                return Err("bucket entry is not a pair".into());
            }
            let idx = pair[0]
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as usize)
                .filter(|&i| i < NUM_BUCKETS)
                .ok_or("bucket index out of layout")?;
            let c = pair[1]
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or("bucket count is not a positive integer")?;
            if h.buckets[idx] != 0 {
                return Err(format!("bucket {idx} listed twice"));
            }
            h.buckets[idx] = c;
            total += c;
        }
        if total != count {
            return Err(format!(
                "bucket counts sum to {total} but count says {count}"
            ));
        }
        h.count = count;
        h.sum = sum;
        if count > 0 {
            h.min = min;
            h.max = max;
        }
        Ok(h)
    }
}

/// The distilled percentile view of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LogHistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// Median estimate (≤ 6.25 % low).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate.
    pub p999: u64,
}

impl LogHistSummary {
    /// Serializes the summary as a compact JSON object.
    pub fn to_json_inline(&self, label: &str) -> String {
        format!(
            "\"{}\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
            escape(label),
            self.count,
            crate::json::fmt_f64(self.mean),
            self.min,
            self.max,
            self.p50,
            self.p90,
            self.p99,
            self.p999
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use desim::check::forall;

    #[test]
    fn layout_is_total_and_monotone() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(15), 15);
        assert_eq!(LogHistogram::bucket_index(16), 16);
        assert_eq!(LogHistogram::bucket_index(31), 31);
        assert_eq!(LogHistogram::bucket_index(32), 32);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Lower bound inverts the index, and indices never decrease.
        let mut prev = 0;
        for i in 0..NUM_BUCKETS {
            let lo = LogHistogram::bucket_lower(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "lower({i}) = {lo}");
            assert!(i == 0 || lo > prev);
            prev = lo;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        forall("bucket lower bound within 1/16", 256, |rng| {
            let v = rng.next_u64() >> (rng.below(60) as u32);
            let lo = LogHistogram::bucket_lower(LogHistogram::bucket_index(v));
            assert!(lo <= v);
            // lower > v - v/16 for v >= 16; exact below.
            if v >= 16 {
                assert!(lo as u128 * 16 > v as u128 * 15, "v={v} lo={lo}");
            } else {
                assert_eq!(lo, v);
            }
        });
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        for v in 0..16 {
            assert_eq!(h.quantile((v as f64 + 1.0) / 16.0), v);
        }
    }

    #[test]
    fn quantiles_clamp_to_observed_extremes() {
        let mut h = LogHistogram::new();
        h.record_n(1000, 5);
        // All mass in one bucket: every quantile is the exact value's
        // bucket lower bound clamped up to min.
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.min(), Some(1000));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.sum(), 5000);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = LogHistogram::new();
        assert_eq!(h.summary(), LogHistSummary::default());
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn merge_equals_single_stream() {
        forall("sharded ingest == single-stream ingest", 64, |rng| {
            let n = rng.range(1, 200) as usize;
            let values: Vec<u64> = (0..n).map(|_| rng.next_u64() >> rng.below(56)).collect();
            let shards = rng.range(1, 8) as usize;
            let mut single = LogHistogram::new();
            let mut parts = vec![LogHistogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                single.record(v);
                parts[i % shards].record(v);
            }
            let mut merged = LogHistogram::new();
            for p in &parts {
                merged.merge_from(p);
            }
            assert_eq!(merged, single);
        });
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        forall("merge laws", 64, |rng| {
            let draw = |rng: &mut desim::SplitMix64| {
                let mut h = LogHistogram::new();
                for _ in 0..rng.below(50) {
                    h.record(rng.next_u64() >> rng.below(56));
                }
                h
            };
            let (a, b, c) = (draw(rng), draw(rng), draw(rng));
            // a + b == b + a
            let mut ab = a.clone();
            ab.merge_from(&b);
            let mut ba = b.clone();
            ba.merge_from(&a);
            assert_eq!(ab, ba, "merge must commute");
            // (a + b) + c == a + (b + c)
            let mut ab_c = ab.clone();
            ab_c.merge_from(&c);
            let mut bc = b.clone();
            bc.merge_from(&c);
            let mut a_bc = a.clone();
            a_bc.merge_from(&bc);
            assert_eq!(ab_c, a_bc, "merge must associate");
        });
    }

    #[test]
    fn json_round_trips() {
        forall("histogram JSON round-trip", 32, |rng| {
            let mut h = LogHistogram::new();
            for _ in 0..rng.below(80) {
                h.record(rng.next_u64() >> rng.below(56));
            }
            let doc = h.to_json();
            let parsed = json::parse(&doc).expect("valid JSON");
            let back = LogHistogram::from_json(&parsed).expect("well-formed");
            assert_eq!(back, h);
        });
    }

    #[test]
    fn from_json_rejects_corruption() {
        let mut h = LogHistogram::new();
        h.record(42);
        let doc = h.to_json();
        let good = json::parse(&doc).unwrap();
        assert!(LogHistogram::from_json(&good).is_ok());
        // Tampered count no longer matches the bucket sum.
        let bad = json::parse(&doc.replace("\"count\": 1", "\"count\": 2")).unwrap();
        assert!(LogHistogram::from_json(&bad).is_err());
        assert!(LogHistogram::from_json(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn summary_percentiles_order() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        // Nearest-rank p50 of 1..=10000 is 5000; bucket error ≤ 6.25 %.
        assert!(
            (s.p50 as f64 - 5000.0).abs() / 5000.0 <= 0.0625,
            "{}",
            s.p50
        );
        assert!(
            (s.p999 as f64 - 9990.0).abs() / 9990.0 <= 0.0625,
            "{}",
            s.p999
        );
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
    }
}
