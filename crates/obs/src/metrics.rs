//! Global metrics registry: counters, gauges, log₂ histograms.
//!
//! Everything is gated on [`crate::enabled`] — when the collector is off a
//! recording call costs one relaxed atomic load and returns.
//!
//! Histogram buckets are powers of two: bucket `e` covers `[2^e, 2^(e+1))`.
//! The bucket index is taken straight from the IEEE-754 exponent bits, so
//! boundaries are *exact* at powers of two — `2.0` lands in bucket 1,
//! the next float below it in bucket 0 — with none of the rounding slop a
//! `log2().floor()` would introduce.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::enabled;

/// Smallest tracked exponent; values below `2^MIN_EXP` underflow.
pub const MIN_EXP: i32 = -64;
/// Largest tracked exponent; values at or above `2^(MAX_EXP+1)` overflow.
pub const MAX_EXP: i32 = 64;

/// A log₂-bucketed histogram of positive values.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `counts[i]` counts values in `[2^(MIN_EXP+i), 2^(MIN_EXP+i+1))`.
    pub counts: Vec<u64>,
    /// Values `<= 0` or below `2^MIN_EXP`.
    pub underflow: u64,
    /// Values `>= 2^(MAX_EXP+1)` (and non-finite ones).
    pub overflow: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; (MAX_EXP - MIN_EXP + 1) as usize],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Exponent `e` such that `v` is in `[2^e, 2^(e+1))`, read from the
/// IEEE-754 exponent bits (exact at powers of two). `None` for values
/// that are not finite positive normals/subnormals.
pub fn bucket_exponent(v: f64) -> Option<i32> {
    if !v.is_finite() || v <= 0.0 {
        return None;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: below every bucket we track.
        Some(i32::MIN)
    } else {
        Some(biased - 1023)
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        match bucket_exponent(v) {
            None if v.is_finite() => self.underflow += 1, // v <= 0
            None => self.overflow += 1,                   // NaN / inf
            Some(e) if e < MIN_EXP => self.underflow += 1,
            Some(e) if e > MAX_EXP => self.overflow += 1,
            Some(e) => self.counts[(e - MIN_EXP) as usize] += 1,
        }
    }

    /// Count in the bucket covering `[2^e, 2^(e+1))`.
    pub fn bucket(&self, e: i32) -> u64 {
        if (MIN_EXP..=MAX_EXP).contains(&e) {
            self.counts[(e - MIN_EXP) as usize]
        } else {
            0
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the log₂ buckets.
    ///
    /// The rank `ceil(q * count)` (at least 1) is located in the
    /// underflow / bucket / overflow sequence; within a bucket the value
    /// is interpolated **geometrically** (log-linear), which is the
    /// natural interpolation for exponentially sized buckets. The result
    /// is clamped to the observed `[min, max]`, so a histogram holding a
    /// single repeated value reports that value exactly — including at
    /// bucket boundaries like `2.0`, which the IEEE-754 bucketing puts
    /// exactly in `[2, 4)`. Returns `NaN` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let bucketed = self.underflow + self.overflow + self.counts.iter().sum::<u64>();
        if bucketed == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * bucketed as f64).ceil() as u64).clamp(1, bucketed);
        let clamp = |v: f64| {
            if self.min.is_finite() && self.max.is_finite() {
                v.clamp(self.min, self.max)
            } else {
                v
            }
        };
        let mut cum = self.underflow;
        if target <= cum {
            // Below every tracked bucket: the observed minimum is the best
            // (and for all-underflow histograms, the only) estimate.
            return clamp(if self.min.is_finite() { self.min } else { 0.0 });
        }
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if target <= cum + n {
                let e = MIN_EXP + i as i32;
                // Midpoint-rank interpolation: rank k of n sits at
                // (k - 1/2)/n through the bucket, so the estimate stays
                // strictly inside [2^e, 2^(e+1)) before clamping.
                let frac = ((target - cum) as f64 - 0.5) / n as f64;
                return clamp(2f64.powi(e) * 2f64.powf(frac));
            }
            cum += n;
        }
        // Overflow (or numeric fall-through): report the observed maximum.
        clamp(if self.max.is_finite() {
            self.max
        } else {
            f64::INFINITY
        })
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Latest-value metric with running extrema (e.g. the MD total energy per
/// step).
#[derive(Clone, Debug)]
pub struct Gauge {
    /// Most recently set value.
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub count: u64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            last: f64::NAN,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }
}

/// Snapshot of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, Gauge>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

fn registry() -> &'static Mutex<MetricsSnapshot> {
    static REG: OnceLock<Mutex<MetricsSnapshot>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(MetricsSnapshot::default()))
}

fn with_registry<T>(f: impl FnOnce(&mut MetricsSnapshot) -> T) -> T {
    f(&mut registry().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Add `n` to the counter `name`.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| match r.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            r.counters.insert(name.to_string(), n);
        }
    });
}

/// Set the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        let g = match r.gauges.get_mut(name) {
            Some(g) => g,
            None => r.gauges.entry(name.to_string()).or_default(),
        };
        g.last = v;
        if v.is_finite() {
            g.min = g.min.min(v);
            g.max = g.max.max(v);
        }
        g.count += 1;
    });
}

/// Record `v` into the histogram `name`.
pub fn histogram_record(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        let h = match r.histograms.get_mut(name) {
            Some(h) => h,
            None => r.histograms.entry(name.to_string()).or_default(),
        };
        h.record(v);
    });
}

/// Clone the current state of every metric.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| r.clone())
}

/// Drop every registered metric.
pub fn clear() {
    with_registry(|r| *r = MetricsSnapshot::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_histogram_is_nan() {
        let h = Histogram::default();
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn single_repeated_value_is_reported_exactly() {
        // 2.0 sits exactly on a bucket boundary: the IEEE-754 exponent
        // bucketing puts it in [2, 4), and the [min, max] clamp collapses
        // the in-bucket interpolation back to the exact value.
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(2.0);
        }
        assert_eq!(h.bucket(1), 100);
        assert_eq!(h.bucket(0), 0);
        assert_eq!(h.p50(), 2.0);
        assert_eq!(h.p99(), 2.0);
    }

    #[test]
    fn boundary_neighbors_land_in_adjacent_buckets() {
        let mut h = Histogram::default();
        let below = f64::from_bits(2.0f64.to_bits() - 1); // next float below 2
        h.record(below);
        h.record(2.0);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        // Rank 1 of 2 is the sub-2 value, rank 2 the 2.0.
        assert!(h.quantile(0.5) < 2.0);
        assert_eq!(h.quantile(1.0), 2.0);
    }

    #[test]
    fn quantiles_are_monotone_and_within_bucket_ranges() {
        let mut h = Histogram::default();
        // 90 values in [1, 2), 10 values in [1024, 2048).
        for i in 0..90 {
            h.record(1.0 + (i as f64) / 100.0);
        }
        for i in 0..10 {
            h.record(1024.0 + i as f64);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!((1.0..2.0).contains(&p50), "p50 = {p50}");
        assert!((1024.0..2048.0).contains(&p95), "p95 = {p95}");
        assert!((1024.0..2048.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn underflow_and_overflow_ranks_resolve_to_extrema() {
        let mut h = Histogram::default();
        h.record(0.0); // underflow (v <= 0)
        h.record(1.5);
        h.record(f64::INFINITY); // overflow (non-finite)
                                 // min only tracks finite values, so the low quantile clamps to 0.0.
        assert_eq!(h.quantile(0.0), 0.0);
        // The middle rank interpolates inside its [1, 2) bucket, capped by
        // the observed maximum.
        let mid = h.quantile(0.5);
        assert!((1.0..=1.5).contains(&mid), "mid = {mid}");
        // The overflow rank clamps to the largest *finite* observation.
        assert_eq!(h.quantile(1.0), 1.5);
    }

    #[test]
    fn subnormal_values_count_as_underflow() {
        let mut h = Histogram::default();
        h.record(f64::MIN_POSITIVE / 4.0);
        assert_eq!(h.underflow, 1);
        let q = h.quantile(0.5);
        assert!(q > 0.0 && q < f64::MIN_POSITIVE);
    }
}
