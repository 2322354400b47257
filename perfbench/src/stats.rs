//! Sample statistics: exact quantiles, a log-bucketed histogram with
//! sub-1% buckets, and the rule that picks the reportable tail percentile.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// Percentiles a tail may be reported at, from lowest to highest.
const LADDER: [f64; 7] = [0.5, 0.9, 0.95, 0.98, 0.99, 0.999, 0.9999];

/// The highest percentile of the ladder, no higher than `cap`, that has at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it. `None` when even the
/// median lacks them.
pub fn tail_quantile(n: u64, cap: f64) -> Option<f64> {
    // The epsilon keeps 1 - 0.9999 from rounding 10 samples down to 9.99.
    LADDER.iter().rev().copied().find(|&q| q <= cap && n as f64 * (1.0 - q) >= TAIL_SAMPLES - 1e-6)
}

/// Quantile `q` of exact samples, linearly interpolated between ranks.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of exact samples (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Histogram over non-negative values with buckets [`LogHist::GROWTH`]
/// apart, so a quantile is never off by more than 1%. Quantiles are
/// interpolated inside the bucket, so they move continuously with the
/// data instead of snapping to bucket edges.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// Ratio between consecutive bucket edges.
    pub const GROWTH: f64 = 1.01;
    /// Upper edge of the first bucket, which holds `[0, MIN)` (1 µs when
    /// values are seconds).
    pub const MIN: f64 = 1e-6;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHist { counts: Vec::new(), total: 0, sum: 0.0 }
    }

    fn index(v: f64) -> usize {
        if v < Self::MIN {
            0
        } else {
            1 + ((v / Self::MIN).ln() / Self::GROWTH.ln()) as usize
        }
    }

    fn bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, Self::MIN)
        } else {
            let lo = Self::MIN * Self::GROWTH.powi(i as i32 - 1);
            (lo, lo * Self::GROWTH)
        }
    }

    /// Records one value; negative values count as zero.
    pub fn record(&mut self, v: f64) {
        let v = v.max(0.0);
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Quantile `q`, interpolated geometrically inside its bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if below + c >= target {
                let frac = ((target - below) / c).clamp(0.0, 1.0);
                let (lo, hi) = Self::bounds(i);
                return Some(if i == 0 { hi * frac } else { lo * (hi / lo).powf(frac) });
            }
            below += c;
        }
        Some(Self::bounds(self.counts.len() - 1).1)
    }

    /// The tail quantile at `cap` or the highest percentile below it that
    /// the sample count supports (see [`tail_quantile`]), with that
    /// percentile.
    pub fn tail(&self, cap: f64) -> Option<(f64, f64)> {
        let q = tail_quantile(self.total, cap)?;
        Some((q, self.quantile(q)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_one_percent() {
        let mut h = LogHist::new();
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-5).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = quantile(&values, q).unwrap();
            let approx = h.quantile(q).unwrap();
            assert!((approx / exact - 1.0).abs() < 0.01, "q{q}: {approx} vs {exact}");
        }
        assert!((h.sum() / h.count() as f64 - 0.050005).abs() < 1e-9);
    }

    #[test]
    fn exact_quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
