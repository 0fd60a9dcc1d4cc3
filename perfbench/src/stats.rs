//! Order statistics used by every workload.
//!
//! Percentiles are nearest-rank over weighted samples (a v3 batch frame
//! contributes its latency once per request it carries). A percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie strictly past
//! its rank, so a p99 is never read off a handful of outliers.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value; both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Weighted latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    points: Vec<(u64, u64)>,
    total: u64,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records `weight` samples of value `ns`.
    pub fn push(&mut self, ns: u64, weight: u64) {
        if weight > 0 {
            self.points.push((ns, weight));
            self.total += weight;
        }
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Samples) {
        self.points.extend_from_slice(&other.points);
        self.total += other.total;
    }

    /// Number of samples (sum of weights).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the samples in nanoseconds, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| {
            self.points
                .iter()
                .map(|&(v, w)| v as f64 * w as f64)
                .sum::<f64>()
                / self.total as f64
        })
    }

    /// Nearest-rank `q`-quantile (`0 < q < 1`) in nanoseconds, or `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if self.total - rank < MIN_BEYOND {
            return None;
        }
        self.points.sort_unstable();
        let mut seen = 0;
        for &(v, w) in &self.points {
            seen += w;
            if seen >= rank {
                return Some(v);
            }
        }
        unreachable!("rank {rank} lies within the {} samples", self.total)
    }
}

/// Share of a unit's CPU time the hypervisor may steal before the unit is
/// left out of a run's figure (see [`steady_mean`]).
pub const STEAL_LIMIT: f64 = 0.02;

/// Interquartile mean: the mean of `values` after dropping the lowest
/// and highest quarter.
///
/// # Panics
///
/// Panics on an empty slice or a NaN value; both are bugs in the caller.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A run's figure from its measurement units = (value, steal share):
/// the interquartile mean of the units, leaving out those the hypervisor
/// stole more than [`STEAL_LIMIT`] from, provided at least half the units
/// are clean (else every unit counts). Returns the figure and how many
/// units were left out.
///
/// On the reference host the CPU alternates, second by second, between
/// two speeds some 50% apart. The median of a run's units then jumps
/// between the two modes with the mix, while the interquartile mean
/// follows the mix smoothly and still ignores the extreme quarters. A
/// burst of steal stalls whatever runs at that moment, whatever the code,
/// so the units it hits measure the neighbours.
pub fn steady_mean(units: &[(f64, f64)]) -> (f64, usize) {
    let clean: Vec<f64> = units
        .iter()
        .filter(|u| u.1 <= STEAL_LIMIT)
        .map(|u| u.0)
        .collect();
    if !clean.is_empty() && 2 * clean.len() >= units.len() {
        (interquartile_mean(&clean), units.len() - clean.len())
    } else {
        (
            interquartile_mean(&units.iter().map(|u| u.0).collect::<Vec<_>>()),
            0,
        )
    }
}

/// Latency percentiles per window of consecutive samples, reported as
/// the interquartile mean over the windows of a run (see
/// [`steady_mean`]): a host stall then moves the windows it lands in,
/// not the figure, while a slower path moves every window.
#[derive(Debug, Default)]
pub struct Windows {
    /// Per-window (median, steal share), in microseconds.
    pub p50_us: Vec<(f64, f64)>,
    /// Per-window (99th percentile, steal share), in microseconds.
    pub p99_us: Vec<(f64, f64)>,
    /// Samples over all windows.
    pub samples: u64,
    /// Windows too small to support a p99.
    pub thin: usize,
}

impl Windows {
    /// Adds `values` (nanoseconds) cut into windows of `len` consecutive
    /// entries, each standing for `weight` samples; `steal[w]` is window
    /// `w`'s steal share (0 when absent). A short tail joins the last
    /// window.
    pub fn add(&mut self, values: &[u64], len: usize, weight: u64, steal: &[f64]) {
        let windows = (values.len() / len.max(1)).max(1);
        for w in 0..windows {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * len
            };
            let mut s = Samples::new();
            for &ns in &values[w * len..end] {
                s.push(ns, weight);
            }
            self.add_set(s, steal.get(w).copied().unwrap_or(0.0));
        }
    }

    /// Adds one window's samples and its steal share.
    pub fn add_set(&mut self, mut s: Samples, steal: f64) {
        self.samples += s.count();
        match (s.quantile(0.5), s.quantile(0.99)) {
            (Some(a), Some(b)) => {
                self.p50_us.push((a as f64 / 1e3, steal));
                self.p99_us.push((b as f64 / 1e3, steal));
            }
            _ => self.thin += 1,
        }
    }
}

/// Nanoseconds elapsed between two instants, saturating at zero.
pub fn ns_between(from: std::time::Instant, to: std::time::Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}
