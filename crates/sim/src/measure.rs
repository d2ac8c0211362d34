//! Monitoring probes: turn simulated dynamics into the coarse series the
//! paper's estimators consume.
//!
//! The reproduction needs three kinds of measurement, matching the paper's
//! toolchain:
//!
//! * [`BusyRecorder`] — per-window server busy time, i.e. `sar`-style
//!   utilization samples (`U_k`);
//! * [`CountRecorder`] — per-window completion counts, i.e. HP
//!   Diagnostics-style throughput samples (`n_k`);
//! * [`QueueLengthRecorder`] — time-averaged queue length per window
//!   (Figures 6-8);
//! * [`ResponseTally`] — response-time accumulation with retained samples
//!   for percentiles (Table 1).

use serde::{Deserialize, Serialize};

use burstcap_stats::descriptive::{percentile, RunningStats};

use crate::SimError;

/// Accumulates busy time into fixed windows and emits utilization samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BusyRecorder {
    resolution: f64,
    busy: Vec<f64>,
}

impl BusyRecorder {
    /// Create a recorder with the given window length (seconds).
    ///
    /// # Panics
    /// Panics on a non-positive resolution (configuration bug).
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        BusyRecorder {
            resolution,
            busy: Vec::new(),
        }
    }

    /// Record that the server was busy during `[from, to)`.
    pub fn add_busy(&mut self, from: f64, to: f64) {
        debug_assert!(to >= from, "interval must be ordered");
        let mut start = from;
        while start < to {
            let w = (start / self.resolution).floor() as usize;
            if self.busy.len() <= w {
                self.busy.resize(w + 1, 0.0);
            }
            let window_end = (w + 1) as f64 * self.resolution;
            let seg_end = to.min(window_end);
            self.busy[w] += seg_end - start;
            start = seg_end;
        }
    }

    /// Utilization per window up to `horizon`, clamped to `[0, 1]`.
    pub fn utilization(&self, horizon: f64) -> Vec<f64> {
        let n = (horizon / self.resolution).floor() as usize;
        (0..n)
            .map(|w| {
                let b = self.busy.get(w).copied().unwrap_or(0.0);
                // burstcap-lint: allow(silent-clamp) — busy time per window exceeds the window only by event-rounding at its edges; documented in the method contract
                (b / self.resolution).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Window length in seconds.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }
}

/// Counts events (completions) per fixed window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CountRecorder {
    resolution: f64,
    counts: Vec<u64>,
}

impl CountRecorder {
    /// Create a recorder with the given window length (seconds).
    ///
    /// # Panics
    /// Panics on a non-positive resolution (configuration bug).
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        CountRecorder {
            resolution,
            counts: Vec::new(),
        }
    }

    /// Record one event at time `t`.
    pub fn record(&mut self, t: f64) {
        let w = (t / self.resolution).floor() as usize;
        if self.counts.len() <= w {
            self.counts.resize(w + 1, 0);
        }
        self.counts[w] += 1;
    }

    /// Event counts per window up to `horizon`.
    pub fn counts(&self, horizon: f64) -> Vec<u64> {
        let n = (horizon / self.resolution).floor() as usize;
        (0..n)
            .map(|w| self.counts.get(w).copied().unwrap_or(0))
            .collect()
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Window length in seconds.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }
}

/// Time-averaged queue length per window (the paper's Figures 6-8 series).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueLengthRecorder {
    resolution: f64,
    area: Vec<f64>,
    last_time: f64,
    last_level: f64,
}

impl QueueLengthRecorder {
    /// Create a recorder with the given window length (seconds).
    ///
    /// # Panics
    /// Panics on a non-positive resolution (configuration bug).
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        QueueLengthRecorder {
            resolution,
            area: Vec::new(),
            last_time: 0.0,
            last_level: 0.0,
        }
    }

    /// Record that the queue level changed to `level` at time `t` (the level
    /// was constant since the previous call).
    pub fn update(&mut self, t: f64, level: f64) {
        debug_assert!(t >= self.last_time, "time must advance");
        self.integrate_to(t);
        self.last_level = level;
    }

    fn integrate_to(&mut self, t: f64) {
        let mut start = self.last_time;
        while start < t {
            let w = (start / self.resolution).floor() as usize;
            if self.area.len() <= w {
                self.area.resize(w + 1, 0.0);
            }
            let window_end = (w + 1) as f64 * self.resolution;
            let seg_end = t.min(window_end);
            self.area[w] += self.last_level * (seg_end - start);
            start = seg_end;
        }
        self.last_time = t;
    }

    /// Mean queue length per window up to `horizon`.
    pub fn series(&mut self, horizon: f64) -> Vec<f64> {
        self.integrate_to(horizon);
        let n = (horizon / self.resolution).floor() as usize;
        (0..n)
            .map(|w| self.area.get(w).copied().unwrap_or(0.0) / self.resolution)
            .collect()
    }
}

/// Response-time tally retaining samples for percentile queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResponseTally {
    stats: RunningStats,
    samples: Vec<f64>,
}

impl ResponseTally {
    /// Create an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one response time.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/stats/src/streaming.rs:604`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn record(&mut self, value: f64) {
        self.stats.push(value);
        self.samples.push(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean response time.
    ///
    /// # Errors
    /// Fails when no observation was recorded.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (1 reachable
    /// panic site, e.g. `crates/map/src/general.rs:105`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn mean(&self) -> Result<f64, SimError> {
        self.stats.mean().ok_or(SimError::NoObservations {
            what: "response times",
        })
    }

    /// Population variance of the recorded response times.
    ///
    /// The degenerate case is explicit: with fewer than two observations
    /// there is no dispersion information, and the old behaviour of the
    /// underlying accumulator — silently reporting `0.0` — made an
    /// under-sampled run look perfectly deterministic.
    ///
    /// # Errors
    /// Fails when fewer than two observations were recorded.
    pub fn variance(&self) -> Result<f64, SimError> {
        self.stats.variance().ok_or(SimError::NoObservations {
            what: "response-time variance (needs two observations)",
        })
    }

    /// Squared coefficient of variation of the recorded response times.
    ///
    /// # Errors
    /// Fails when fewer than two observations were recorded or the mean is
    /// zero (SCV undefined).
    pub fn scv(&self) -> Result<f64, SimError> {
        self.stats.scv().ok_or(SimError::NoObservations {
            what: "response-time scv (needs two observations and a non-zero mean)",
        })
    }

    /// Percentile of the recorded responses (e.g. `0.95`).
    ///
    /// # Errors
    /// Fails when empty or when `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Result<f64, SimError> {
        percentile(&self.samples, p).map_err(|e| SimError::InvalidParameter {
            name: "p",
            reason: e.to_string(),
        })
    }

    /// Access the raw samples (ordered by completion time).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Drop the first `warmup` and last `cooldown` entries of a series — the
/// paper trims 5 minutes on each side of its 3-hour runs.
///
/// Returns an empty slice when the trims overlap.
pub fn trim_series<T>(series: &[T], warmup: usize, cooldown: usize) -> &[T] {
    if warmup + cooldown >= series.len() {
        return &[];
    }
    &series[warmup..series.len() - cooldown]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_recorder_splits_across_windows() {
        let mut r = BusyRecorder::new(1.0);
        r.add_busy(0.5, 2.5); // half of w0, all of w1, half of w2
        let u = r.utilization(3.0);
        assert_eq!(u.len(), 3);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
        assert!((u[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_recorder_idle_windows_are_zero() {
        let mut r = BusyRecorder::new(2.0);
        r.add_busy(6.0, 7.0);
        let u = r.utilization(10.0);
        assert_eq!(u, vec![0.0, 0.0, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn busy_recorder_accumulates_fragments() {
        let mut r = BusyRecorder::new(1.0);
        r.add_busy(0.0, 0.25);
        r.add_busy(0.5, 0.75);
        let u = r.utilization(1.0);
        assert!((u[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn count_recorder_bins_events() {
        let mut r = CountRecorder::new(5.0);
        for &t in &[0.1, 4.9, 5.1, 12.0] {
            r.record(t);
        }
        assert_eq!(r.counts(15.0), vec![2, 1, 1]);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn count_recorder_horizon_pads_with_zeros() {
        let mut r = CountRecorder::new(1.0);
        r.record(0.5);
        assert_eq!(r.counts(4.0), vec![1, 0, 0, 0]);
    }

    #[test]
    fn queue_length_time_average() {
        let mut r = QueueLengthRecorder::new(1.0);
        r.update(0.0, 2.0); // level 0 before, 2 after t=0
        r.update(0.5, 4.0); // level 2 during [0, 0.5), 4 after
        let s = r.series(1.0);
        // Window 0: 0.5 * 2 + 0.5 * 4 = 3.0 average.
        assert!((s[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn queue_length_spans_windows() {
        let mut r = QueueLengthRecorder::new(1.0);
        r.update(0.0, 1.0);
        let s = r.series(3.0);
        assert_eq!(s.len(), 3);
        for v in s {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn response_tally_stats() {
        let mut t = ResponseTally::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 4);
        assert!((t.mean().unwrap() - 2.5).abs() < 1e-12);
        assert!(t.percentile(0.95).unwrap() > 3.0);
        // Var([1..4]) population convention = 1.25; SCV = 1.25 / 2.5^2.
        assert!((t.variance().unwrap() - 1.25).abs() < 1e-12);
        assert!((t.scv().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_errors() {
        let t = ResponseTally::new();
        assert!(t.mean().is_err());
        assert!(t.percentile(0.5).is_err());
        assert!(t.variance().is_err());
        assert!(t.scv().is_err());
    }

    #[test]
    fn single_observation_has_no_variance() {
        // The degenerate case must be an error, not a silent 0.0 that makes
        // a one-sample run look deterministic.
        let mut t = ResponseTally::new();
        t.record(3.5);
        assert!(t.mean().is_ok());
        assert!(t.variance().is_err());
        assert!(t.scv().is_err());
    }

    #[test]
    fn trim_series_drops_edges() {
        let s = [1, 2, 3, 4, 5];
        assert_eq!(trim_series(&s, 1, 2), &[2, 3]);
        assert_eq!(trim_series(&s, 3, 3), &[] as &[i32]);
        assert_eq!(trim_series(&s, 0, 0), &[1, 2, 3, 4, 5]);
    }
}
