//! Latency samples and the percentile rule every timing in the report
//! follows: a median, the p90 the gate uses, and the highest percentile
//! that still has at least ten samples beyond it.

use std::time::Duration;

/// Nanosecond samples of one operation kind, each with the offset (in
/// ms) into the measured window at which its operation started.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    at_ms: Vec<u32>,
}

/// Medians over fixed-width windows of a run: each window's throughput,
/// p50 and p90, then the median of each across windows. A burst of
/// outside load that spoils a window or two leaves them unmoved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMedians {
    pub windows: usize,
    pub ops_per_s: f64,
    /// The slowest and fastest window's throughput.
    pub ops_per_s_range: (f64, f64),
    pub p50_ns: f64,
    pub p90_ns: f64,
}

/// Percentiles of a finished [`Samples`] set, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
    /// The highest of the candidate percentiles with at least ten
    /// samples above it, with its value (`None` under ten samples).
    pub tail: Option<(f64, u64)>,
}

/// Candidate percentiles for [`Summary::tail`], lowest first.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
            at_ms: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.push_at(ns, Duration::ZERO);
    }

    /// A sample whose operation started `offset` into the window.
    #[inline]
    pub fn push_at(&mut self, ns: u64, offset: Duration) {
        self.ns.push(ns);
        self.at_ms.push(offset.as_millis() as u32);
    }

    /// Per-window medians over `count` windows of `width` each.
    pub fn window_medians(&self, width: Duration, count: usize) -> WindowMedians {
        let w = width.as_millis().max(1) as u32;
        let mut buckets = vec![Vec::new(); count];
        for (&ns, &at) in self.ns.iter().zip(&self.at_ms) {
            if let Some(b) = buckets.get_mut((at / w) as usize) {
                b.push(ns);
            }
        }
        let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for mut b in buckets {
            b.sort_unstable();
            rate.push(b.len() as f64 / width.as_secs_f64());
            p50.push(percentile(&b, 50.0) as f64);
            p90.push(percentile(&b, 90.0) as f64);
        }
        let lo = rate.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rate.iter().copied().fold(0.0, f64::max);
        WindowMedians {
            windows: count,
            ops_per_s: median(&rate),
            ops_per_s_range: (lo, hi),
            p50_ns: median(&p50),
            p90_ns: median(&p90),
        }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.at_ms.extend_from_slice(&other.at_ms);
    }

    pub fn summary(&self) -> Summary {
        let mut v = self.ns.clone();
        v.sort_unstable();
        let n = v.len();
        let mean = if n == 0 {
            0.0
        } else {
            v.iter().map(|&x| x as f64).sum::<f64>() / n as f64
        };
        Summary {
            n,
            p50: percentile(&v, 50.0),
            p90: percentile(&v, 90.0),
            p99: percentile(&v, 99.0),
            max: v.last().copied().unwrap_or(0),
            mean,
            tail: tail_percentile(n).map(|p| (p, percentile(&v, p))),
        }
    }
}

/// The 1-based nearest rank of percentile `p` among `n > 0` samples
/// (the epsilon keeps `0.999 * 10000` from rounding up past 9990).
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile of `n > 0`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Median of a small set of measurements (mean of the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One line describing a latency summary, for the human part of the
/// output.
pub fn describe(name: &str, s: &Summary) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!("p{p}={:.1}us", v as f64 / 1e3),
        None => "tail=n/a".to_string(),
    };
    format!(
        "{name}: n={} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us highest-supported {tail}",
        s.n,
        s.p50 as f64 / 1e3,
        s.p90 as f64 / 1e3,
        s.p99 as f64 / 1e3,
        s.max as f64 / 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 90.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 above it, p99 only 1.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Fewer than 20 samples: even the median has under ten above.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let mut s = Samples::default();
        for i in 1..=1000u64 {
            s.push(i);
        }
        let sum = s.summary();
        assert_eq!((sum.p50, sum.p90, sum.p99, sum.max), (500, 900, 990, 1000));
        assert_eq!(sum.tail, Some((99.0, 990)));
        assert!((sum.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn window_medians_ignore_one_bad_window() {
        let mut s = Samples::default();
        for w in 0..5u64 {
            // Window 2 is slow and sparse; the others are alike.
            let (n, ns) = if w == 2 { (10, 900) } else { (100, 100 + w) };
            for _ in 0..n {
                s.push_at(ns, Duration::from_millis(w * 1000 + 10));
            }
        }
        let m = s.window_medians(Duration::from_secs(1), 5);
        assert_eq!(m.windows, 5);
        assert_eq!(m.ops_per_s, 100.0);
        assert_eq!(m.ops_per_s_range, (10.0, 100.0));
        assert_eq!(m.p50_ns, 103.0);
        assert_eq!(m.p90_ns, 103.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
