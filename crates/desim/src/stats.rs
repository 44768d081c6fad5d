//! Measurement toolkit.
//!
//! Every number reported by the VIP reproduction flows through one of these
//! collectors:
//!
//! * [`Counter`] — monotone event counts (interrupts, frames, instructions),
//! * [`Histogram`] — fixed-width binning (tap-interval and burst-length
//!   distributions of Figs 5 and 6),
//! * [`RateTracker`] — per-window accumulation (the memory-bandwidth
//!   time-distribution of Fig 3d).

use std::fmt;

use crate::time::{SimDelta, SimTime};

/// A monotone event counter.
///
/// # Example
///
/// ```
/// use desim::stats::Counter;
/// let mut irqs = Counter::default();
/// irqs.add(3);
/// irqs.incr();
/// assert_eq!(irqs.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }
    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }
    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fixed-width histogram over `f64` samples.
///
/// Samples below the first bin clamp into it; samples at or above the upper
/// edge land in the overflow bin.
///
/// # Example
///
/// ```
/// use desim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 1.0, 10); // 10 bins of width 0.1
/// h.push(0.05);
/// h.push(0.05);
/// h.push(0.95);
/// h.push(7.0); // overflow
/// assert_eq!(h.bin_count(0), 2);
/// assert_eq!(h.bin_count(9), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `nbins` equal bins covering `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `nbins == 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0, "bad histogram shape");
        Histogram {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: vec![0; nbins],
            overflow: 0,
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        let idx = (x - self.lo) / self.width;
        if idx < 0.0 {
            self.bins[0] += 1;
        } else if (idx as usize) < self.bins.len() {
            self.bins[idx as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of bins (excluding overflow).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }
    /// Count in bin `i`.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }
    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }
    /// Upper edge of bin `i`.
    pub fn bin_hi(&self, i: usize) -> f64 {
        self.lo + self.width * (i + 1) as f64
    }
    /// Count of samples at/above the top edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }
    /// Fraction of samples in bin `i` (0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bins[i] as f64 / self.total as f64
        }
    }
    /// Iterates `(bin_lo, bin_hi, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| (self.bin_lo(i), self.bin_hi(i), self.bins[i]))
    }
}

/// Accumulates a quantity into fixed windows of simulated time, yielding a
/// per-window rate series — e.g. bytes per 1 ms window → a bandwidth
/// timeline (Fig 3d of the paper).
///
/// # Example
///
/// ```
/// use desim::stats::RateTracker;
/// use desim::{SimDelta, SimTime};
/// let mut bw = RateTracker::new(SimDelta::from_ms(1));
/// bw.record(SimTime::from_us(100), 1000.0);
/// bw.record(SimTime::from_us(1500), 500.0);
/// let w = bw.windows(SimTime::from_ms(2));
/// assert_eq!(w, vec![1000.0, 500.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateTracker {
    window: SimDelta,
    buckets: Vec<f64>,
}

impl RateTracker {
    /// Creates a tracker with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window: SimDelta) -> Self {
        assert!(window > SimDelta::ZERO, "zero window");
        RateTracker {
            window,
            buckets: Vec::new(),
        }
    }

    /// Window size.
    pub fn window(&self) -> SimDelta {
        self.window
    }

    /// Adds `amount` at instant `t`.
    pub fn record(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_ns() / self.window.as_ns()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// The per-window totals covering `[0, until)`, zero-filled.
    pub fn windows(&self, until: SimTime) -> Vec<f64> {
        let n = (until.as_ns().div_ceil(self.window.as_ns())) as usize;
        let mut out = vec![0.0; n];
        for (i, v) in self.buckets.iter().take(n).enumerate() {
            out[i] = *v;
        }
        out
    }

    /// Fraction of windows in `[0, until)` whose total is at least `thresh`.
    pub fn fraction_at_least(&self, until: SimTime, thresh: f64) -> f64 {
        let w = self.windows(until);
        if w.is_empty() {
            return 0.0;
        }
        w.iter().filter(|&&v| v >= thresh).count() as f64 / w.len() as f64
    }

    /// Total recorded in `[0, until)`.
    pub fn total(&self, until: SimTime) -> f64 {
        self.windows(until).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0); // bin 0
        h.push(9.999); // bin 9
        h.push(10.0); // overflow
        h.push(-5.0); // clamps to bin 0
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.bin_lo(3), 3.0);
        assert_eq!(h.bin_hi(3), 4.0);
        assert!((h.fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_iter_covers_all_bins() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.push(1.5);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[1], (1.0, 2.0, 1));
    }

    #[test]
    fn rate_tracker_buckets() {
        let mut r = RateTracker::new(SimDelta::from_ms(1));
        r.record(SimTime::from_us(10), 5.0);
        r.record(SimTime::from_us(990), 5.0);
        r.record(SimTime::from_us(2500), 7.0);
        let w = r.windows(SimTime::from_ms(4));
        assert_eq!(w, vec![10.0, 0.0, 7.0, 0.0]);
        assert!((r.total(SimTime::from_ms(4)) - 17.0).abs() < 1e-12);
        assert!((r.fraction_at_least(SimTime::from_ms(4), 7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_tracker_empty() {
        let r = RateTracker::new(SimDelta::from_ms(1));
        assert_eq!(r.fraction_at_least(SimTime::ZERO, 1.0), 0.0);
        assert!(r.windows(SimTime::ZERO).is_empty());
    }
}
