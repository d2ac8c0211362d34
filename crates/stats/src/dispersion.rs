//! Index of dispersion estimation — the measurement heart of the paper.
//!
//! The index of dispersion for counts of a service process is defined two
//! equivalent ways in the paper:
//!
//! * **Eq. (1)** — on the service-time series itself:
//!   `I = SCV * (1 + 2 * sum_{k>=1} rho_k)`; impractical on noisy data
//!   because of the infinite sum ([`index_of_dispersion_acf`] implements the
//!   truncated version).
//! * **Eq. (2) / Figure 2** — on the counting process: `I = lim_{t->inf}
//!   Var(N_t) / E[N_t]` where `N_t` counts completions in `t` seconds of
//!   *busy* time. [`DispersionEstimator`] implements the paper's Figure 2
//!   pseudo-code verbatim, consuming per-window utilization samples and
//!   completion counts exactly as produced by `sar` + HP Diagnostics.
//!
//! Because the Figure 2 estimator concatenates busy periods, queueing and idle
//! time are masked out and the dispersion of *completions* approximates the
//! dispersion of the *service process* — the key trick that makes the paper's
//! methodology work from coarse, non-intrusive measurements.

use serde::{Deserialize, Serialize};

use crate::acf::acf_sum;
use crate::descriptive::{mean, scv, variance};
use crate::StatsError;

/// Minimum number of count windows required per aggregation level, as
/// prescribed by step (b) of the paper's Figure 2.
pub const MIN_WINDOWS: usize = 100;

/// Truncated Eq. (1) estimator: `I ≈ SCV * (1 + 2 * sum_{k=1}^{L} rho_k)`.
///
/// This is the *definitional* estimator. It requires the raw service-time
/// series, which production monitoring rarely provides, and is sensitive to
/// noise in the autocorrelation tail; the paper therefore estimates `I` with
/// the counting-process algorithm of Figure 2 instead (see
/// [`DispersionEstimator`]). It remains useful on synthetic traces and in
/// tests, where both estimators must agree.
///
/// # Errors
/// Propagates [`StatsError`] from the SCV and autocorrelation estimators
/// (empty trace, zero variance, trace shorter than `max_lag + 2`).
///
/// # Example
/// ```
/// // An i.i.d. trace has I equal to its SCV (autocorrelations vanish).
/// let mut state = 0x2545F4914F6CDD1D_u64;
/// let trace: Vec<f64> = (0..50_000)
///     .map(|_| {
///         state ^= state << 13;
///         state ^= state >> 7;
///         state ^= state << 17;
///         (state >> 11) as f64 / (1u64 << 53) as f64 + 0.5
///     })
///     .collect();
/// let i = burstcap_stats::dispersion::index_of_dispersion_acf(&trace, 50)?;
/// let scv = burstcap_stats::descriptive::scv(&trace)?;
/// assert!((i - scv).abs() / scv < 0.25);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
pub fn index_of_dispersion_acf(service_times: &[f64], max_lag: usize) -> Result<f64, StatsError> {
    let c2 = scv(service_times)?;
    let s = acf_sum(service_times, max_lag)?;
    Ok(c2 * (1.0 + 2.0 * s))
}

/// One point of the `Y(t) = Var(N_t)/E[N_t]` convergence curve produced by the
/// Figure 2 algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Aggregated busy-time window length `t` (seconds of busy time).
    pub t: f64,
    /// Variance-to-mean ratio of completion counts at this window length.
    pub y: f64,
    /// Number of (overlapping) windows that contributed to this point.
    pub windows: usize,
}

/// Result of the Figure 2 index-of-dispersion estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispersionEstimate {
    index: f64,
    converged: bool,
    curve: Vec<CurvePoint>,
}

impl DispersionEstimate {
    /// Assemble an estimate from its parts — the construction seam shared
    /// with the streaming estimator in [`crate::streaming`], which produces
    /// the same artifact from append-only updates.
    pub(crate) fn from_parts(index: f64, converged: bool, curve: Vec<CurvePoint>) -> Self {
        DispersionEstimate {
            index,
            converged,
            curve,
        }
    }

    /// The estimated index of dispersion `I` (the last computed `Y(t)`).
    pub fn index_of_dispersion(&self) -> f64 {
        self.index
    }

    /// Whether the stopping rule `|1 - Y(t)/Y(t - T)| <= tol` was met.
    ///
    /// When `false`, the estimator ran out of windows before the curve
    /// flattened; the returned value is the paper-prescribed best effort (the
    /// last `Y(t)`), and the caller should consider collecting a longer trace.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The full `Y(t)` convergence curve, one point per aggregation level.
    pub fn curve(&self) -> &[CurvePoint] {
        &self.curve
    }
}

/// The paper's Figure 2 algorithm: estimate `I` from per-window utilization
/// samples and completion counts.
///
/// Configure with the monitoring resolution `T` (seconds per window) and
/// optional knobs, then call [`estimate`](DispersionEstimator::estimate) with
/// the paired series `U_k` (utilization in `[0, 1]`) and `n_k` (completions).
///
/// # Example
/// ```
/// use burstcap_stats::dispersion::DispersionEstimator;
///
/// // A perfectly regular server: every window 50% busy, 30 completions.
/// // Completion counts are deterministic, so I converges towards 0.
/// let util = vec![0.5; 600];
/// let n = vec![30u64; 600];
/// let est = DispersionEstimator::new(60.0).estimate(&util, &n)?;
/// assert!(est.index_of_dispersion() < 0.1);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DispersionEstimator {
    resolution: f64,
    tolerance: f64,
    min_windows: usize,
    max_levels: usize,
    strict: bool,
}

impl DispersionEstimator {
    /// Create an estimator for monitoring windows of `resolution` seconds
    /// (the paper's `T`, e.g. 60 s).
    ///
    /// Defaults: `tolerance = 0.2` (the paper's example value), at least
    /// [`MIN_WINDOWS`] windows per level, at most 512 aggregation levels,
    /// non-strict mode (running out of windows yields a best-effort,
    /// non-converged estimate rather than an error).
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive; resolution is a
    /// deployment constant, so a bad value is a programming error.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "monitoring resolution must be positive");
        DispersionEstimator {
            resolution,
            tolerance: 0.2,
            min_windows: MIN_WINDOWS,
            max_levels: 512,
            strict: false,
        }
    }

    /// Set the convergence tolerance of the stopping rule (paper default 0.20).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Set the minimum number of windows per aggregation level (paper: 100).
    pub fn min_windows(mut self, min_windows: usize) -> Self {
        self.min_windows = min_windows;
        self
    }

    /// Cap the number of aggregation levels explored.
    pub fn max_levels(mut self, max_levels: usize) -> Self {
        self.max_levels = max_levels;
        self
    }

    /// In strict mode, running out of windows before convergence is an error
    /// (the paper's "stop and collect new measures"); otherwise the last
    /// `Y(t)` is returned with [`DispersionEstimate::converged`] `== false`.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Run the Figure 2 algorithm.
    ///
    /// `utilization[k]` is the fraction of window `k` the server was busy;
    /// `completions[k]` is the number of requests completed in window `k`.
    ///
    /// # Errors
    /// * [`StatsError::LengthMismatch`] if the series differ in length.
    /// * [`StatsError::InvalidParameter`] if a utilization is outside
    ///   `[0, 1]` or the tolerance is not positive.
    /// * [`StatsError::TraceTooShort`] if even the first aggregation level
    ///   has fewer than the required windows (or, in strict mode, if any
    ///   level does before convergence).
    /// * [`StatsError::Degenerate`] if no request ever completes.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated (6 reachable
    /// panic sites, e.g. `crates/stats/src/dispersion.rs:277`; `burstcap-lint report` lists them),
    /// never for inputs this API accepts.
    pub fn estimate(
        &self,
        utilization: &[f64],
        completions: &[u64],
    ) -> Result<DispersionEstimate, StatsError> {
        if utilization.len() != completions.len() {
            return Err(StatsError::LengthMismatch {
                left: utilization.len(),
                right: completions.len(),
            });
        }
        if self.tolerance <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be positive, got {}", self.tolerance),
            });
        }
        if let Some(bad) = utilization
            .iter()
            .find(|u| !(0.0..=1.0).contains(*u) || u.is_nan())
        {
            return Err(StatsError::InvalidParameter {
                name: "utilization",
                reason: format!("samples must lie in [0, 1], found {bad}"),
            });
        }
        if completions.iter().all(|&n| n == 0) {
            return Err(StatsError::Degenerate {
                reason: "no completions observed in any window".into(),
            });
        }

        // Step 1: busy time per window, B_k = U_k * T.
        let busy: Vec<f64> = utilization.iter().map(|u| u * self.resolution).collect();

        let mut curve: Vec<CurvePoint> = Vec::new();
        let mut prev_y: Option<f64> = None;

        // Steps 2-4: grow the aggregated busy-time window t = T, 2T, ... and
        // evaluate Y(t) = Var(N_t)/E[N_t] over all overlapping windows until
        // the stopping rule fires.
        for level in 1..=self.max_levels {
            let t = level as f64 * self.resolution;
            let counts = aggregate_counts(&busy, completions, t);
            if counts.len() < self.min_windows {
                // Step (bb): the trace is too short for this window size.
                if curve.is_empty() {
                    return Err(StatsError::TraceTooShort {
                        got: counts.len(),
                        needed: self.min_windows,
                    });
                }
                if self.strict {
                    return Err(StatsError::TraceTooShort {
                        got: counts.len(),
                        needed: self.min_windows,
                    });
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the curve was checked non-empty directly above"
                )]
                let last = *curve.last().expect("non-empty checked above");
                return Ok(DispersionEstimate {
                    index: last.y,
                    converged: false,
                    curve,
                });
            }

            #[expect(
                clippy::expect_used,
                reason = "window count >= min_windows >= 1 was enforced above"
            )]
            let e = mean(&counts).expect("window count >= min_windows >= 1");
            if e == 0.0 {
                return Err(StatsError::Degenerate {
                    reason: "mean completion count is zero in busy windows".into(),
                });
            }
            #[expect(
                clippy::expect_used,
                reason = "counts are non-empty per the same min_windows bound"
            )]
            let y = variance(&counts).expect("non-empty") / e;
            curve.push(CurvePoint {
                t,
                y,
                windows: counts.len(),
            });

            if let Some(py) = prev_y {
                // Relative change of Y(t); a flat-at-zero curve (deterministic
                // counts) is converged by definition.
                let rel = if py == 0.0 {
                    if y == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (1.0 - y / py).abs()
                };
                if rel <= self.tolerance {
                    return Ok(DispersionEstimate {
                        index: y,
                        converged: true,
                        curve,
                    });
                }
            }
            prev_y = Some(y);
        }

        #[expect(
            clippy::expect_used,
            reason = "max_levels >= 1 guarantees at least one curve point"
        )]
        let last = *curve.last().expect("max_levels >= 1");
        if self.strict {
            return Err(StatsError::NoConvergence {
                iterations: curve.len(),
            });
        }
        Ok(DispersionEstimate {
            index: last.y,
            converged: false,
            curve,
        })
    }
}

/// Step (a) of Figure 2: for every starting window `k`, concatenate
/// consecutive busy times until at least `t` seconds of busy time accumulate,
/// and record the total completion count. Windows that run off the end of the
/// trace before reaching `t` are discarded.
///
/// Runs in `O(n)` per aggregation level with a sliding window: the busy
/// accumulator is carried from start `k` to start `k + 1` by subtracting
/// `busy[k]` and extending the right edge (which only ever moves forward,
/// busy times being non-negative), and completion counts come from an exact
/// integer prefix sum. The naive rescan-from-every-start variant this
/// replaces — `O(n * w)` with `w` the window span, i.e. `O(n^2)` per level
/// on long traces where the spans grow with the level — is retained as
/// [`aggregate_counts_naive`] for equivalence testing and benchmarking.
///
/// Floating-point note: the accumulator is updated incrementally
/// (`acc - busy[k]`) rather than re-summed per start, so window boundaries
/// can in principle differ from the naive rescan by one ulp of rounding on
/// adversarial inputs; the equivalence tests pin exact agreement on
/// realistic (including long random) traces.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (2 reachable
/// panic sites, e.g. `crates/stats/src/dispersion.rs:383`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn aggregate_counts(busy: &[f64], completions: &[u64], t: f64) -> Vec<f64> {
    let k_max = busy.len();
    // Exact prefix sums of the integer completion counts: count of window
    // [k, j) is prefix[j] - prefix[k], with no float error.
    let mut prefix: Vec<u64> = Vec::with_capacity(k_max + 1);
    prefix.push(0);
    for &c in completions {
        #[expect(
            clippy::expect_used,
            reason = "prefix starts with a pushed zero and never shrinks"
        )]
        prefix.push(prefix.last().expect("non-empty") + c);
    }

    let mut out = Vec::with_capacity(k_max);
    let mut acc = 0.0_f64;
    let mut j = 0usize; // exclusive right edge of the current window
    for k in 0..k_max {
        // Extend the right edge until the window holds t busy-seconds. j
        // never moves left: shrinking the left edge only removes busy time.
        while j < k_max && acc < t {
            acc += busy[j];
            j += 1;
        }
        if acc < t {
            // Every later start would also run out of busy time.
            break;
        }
        out.push((prefix[j] - prefix[k]) as f64);
        acc -= busy[k];
    }
    out
}

/// The original `O(n * w)` reference implementation of
/// [`aggregate_counts`]: rescans forward from every starting window.
/// Retained for exact-equivalence tests and as the benchmark baseline.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (1 reachable
/// panic site, e.g. `crates/stats/src/streaming.rs:604`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
#[doc(hidden)]
pub fn aggregate_counts_naive(busy: &[f64], completions: &[u64], t: f64) -> Vec<f64> {
    let k_max = busy.len();
    let mut out = Vec::with_capacity(k_max);
    for k in 0..k_max {
        let mut acc = 0.0;
        let mut count: u64 = 0;
        let mut j = k;
        while j < k_max && acc < t {
            acc += busy[j];
            count += completions[j];
            j += 1;
        }
        if acc >= t {
            out.push(count as f64);
        } else {
            // Every later start would also run out of busy time.
            break;
        }
    }
    out
}

/// Estimate `I` directly from a raw service-time trace by synthesizing the
/// monitoring windows Figure 2 expects.
///
/// The trace is interpreted as the uninterrupted completion process of a
/// continuously busy server (utilization 1 in every window). Windows of
/// `window` seconds of busy time are cut along the cumulative service time,
/// and the per-window completion counts feed [`DispersionEstimator`]. Used to
/// characterize synthetic traces (the paper's Figure 1) and to cross-check the
/// Eq. (1) estimator.
///
/// A `window` of roughly 20-50 mean service times gives the estimator enough
/// completions per window, matching the paper's advice that "some tens of
/// requests" complete per monitoring window.
///
/// # Errors
/// Propagates estimator errors; additionally rejects non-positive `window`
/// or non-positive service times.
///
/// # Panics
///
/// Only if a justified internal invariant is violated (6 reachable
/// panic sites, e.g. `crates/stats/src/dispersion.rs:277`; `burstcap-lint report` lists them),
/// never for inputs this API accepts.
pub fn index_of_dispersion_counting(
    service_times: &[f64],
    window: f64,
    tolerance: f64,
) -> Result<DispersionEstimate, StatsError> {
    if window <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "window",
            reason: format!("must be positive, got {window}"),
        });
    }
    if service_times.iter().any(|&s| s < 0.0 || s.is_nan()) {
        return Err(StatsError::InvalidParameter {
            name: "service_times",
            reason: "service times must be non-negative".into(),
        });
    }

    // Cut the cumulative-busy-time axis into windows of `window` seconds and
    // count completions per window.
    let mut counts: Vec<u64> = Vec::new();
    let mut acc = 0.0;
    let mut current: u64 = 0;
    for &s in service_times {
        acc += s;
        current += 1;
        while acc >= window {
            counts.push(current);
            current = 0;
            acc -= window;
        }
    }
    if counts.is_empty() {
        return Err(StatsError::TraceTooShort {
            got: 0,
            needed: MIN_WINDOWS,
        });
    }
    let util = vec![1.0; counts.len()];
    DispersionEstimator::new(window)
        .tolerance(tolerance)
        .estimate(&util, &counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible test traces.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn exp(&mut self, rate: f64) -> f64 {
            -(1.0 - self.next_f64()).ln() / rate
        }
    }

    fn exponential_trace(n: usize, rate: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng(seed);
        (0..n).map(|_| rng.exp(rate)).collect()
    }

    #[test]
    fn poisson_like_process_has_i_near_one() {
        // Exponential service times => completion process within busy time is
        // Poisson => I = 1.
        let trace = exponential_trace(200_000, 1.0, 42);
        let est = index_of_dispersion_counting(&trace, 30.0, 0.1).unwrap();
        let i = est.index_of_dispersion();
        assert!((0.7..1.3).contains(&i), "I = {i}, expected ~1");
    }

    #[test]
    fn acf_estimator_matches_scv_for_iid() {
        let trace = exponential_trace(100_000, 2.0, 7);
        let i = index_of_dispersion_acf(&trace, 100).unwrap();
        assert!(
            (0.8..1.2).contains(&i),
            "I = {i}, expected ~1 for iid exponential"
        );
    }

    #[test]
    fn deterministic_counts_give_near_zero_dispersion() {
        let util = vec![1.0; 500];
        let n = vec![25u64; 500];
        let est = DispersionEstimator::new(5.0).estimate(&util, &n).unwrap();
        assert!(est.index_of_dispersion() < 1e-9);
        assert!(est.converged());
    }

    #[test]
    fn bursty_counts_give_large_dispersion() {
        // Alternating long regimes of high/low completion counts => large
        // variance of aggregated counts relative to mean.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for block in 0..40 {
            for _ in 0..25 {
                util.push(1.0);
                n.push(if block % 2 == 0 { 5u64 } else { 95u64 });
            }
        }
        let est = DispersionEstimator::new(1.0).estimate(&util, &n).unwrap();
        assert!(
            est.index_of_dispersion() > 10.0,
            "I = {}, expected >> 1 for regime-switching counts",
            est.index_of_dispersion()
        );
    }

    #[test]
    fn idle_windows_are_concatenated_away() {
        // Interleave idle windows (U=0, n=0) into a regular busy process; the
        // busy-period concatenation must make them irrelevant.
        let mut util = Vec::new();
        let mut n = Vec::new();
        for k in 0..900 {
            if k % 3 == 0 {
                util.push(0.0);
                n.push(0u64);
            } else {
                util.push(1.0);
                n.push(20u64);
            }
        }
        let est = DispersionEstimator::new(2.0).estimate(&util, &n).unwrap();
        assert!(
            est.index_of_dispersion() < 0.5,
            "idle windows must not create spurious dispersion, I = {}",
            est.index_of_dispersion()
        );
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let err = DispersionEstimator::new(1.0)
            .estimate(&[0.5, 0.5], &[1])
            .unwrap_err();
        assert!(matches!(
            err,
            StatsError::LengthMismatch { left: 2, right: 1 }
        ));
    }

    #[test]
    fn utilization_out_of_range_rejected() {
        let err = DispersionEstimator::new(1.0)
            .estimate(&[1.5; 200], &[1; 200])
            .unwrap_err();
        assert!(matches!(
            err,
            StatsError::InvalidParameter {
                name: "utilization",
                ..
            }
        ));
    }

    #[test]
    fn all_idle_trace_is_degenerate() {
        let err = DispersionEstimator::new(1.0)
            .estimate(&[0.0; 200], &[0; 200])
            .unwrap_err();
        assert!(matches!(err, StatsError::Degenerate { .. }));
    }

    #[test]
    fn short_trace_is_rejected() {
        let err = DispersionEstimator::new(1.0)
            .estimate(&[0.5; 10], &[5; 10])
            .unwrap_err();
        assert!(matches!(err, StatsError::TraceTooShort { .. }));
    }

    #[test]
    fn strict_mode_errors_when_not_converged() {
        // Wild nonstationary counts that never satisfy a 1e-6 tolerance.
        let util = vec![1.0; 300];
        let n: Vec<u64> = (0..300).map(|k| 1 + (k % 37) as u64 * 7).collect();
        let res = DispersionEstimator::new(1.0)
            .tolerance(1e-9)
            .strict(true)
            .estimate(&util, &n);
        assert!(res.is_err());
    }

    #[test]
    fn non_strict_mode_returns_best_effort() {
        let util = vec![1.0; 300];
        let n: Vec<u64> = (0..300).map(|k| 1 + (k % 37) as u64 * 7).collect();
        let est = DispersionEstimator::new(1.0)
            .tolerance(1e-9)
            .estimate(&util, &n)
            .unwrap();
        assert!(!est.converged());
        assert!(est.index_of_dispersion().is_finite());
        assert!(!est.curve().is_empty());
    }

    #[test]
    fn curve_reports_window_counts_monotonically_decreasing() {
        let trace = exponential_trace(50_000, 1.0, 99);
        let est = index_of_dispersion_counting(&trace, 25.0, 0.2).unwrap();
        let windows: Vec<usize> = est.curve().iter().map(|p| p.windows).collect();
        assert!(windows.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn aggregate_counts_matches_naive_exactly() {
        // The sliding-window rewrite must reproduce the naive rescan
        // bit-for-bit: long random busy/count series across many window
        // sizes, plus structured corner cases.
        let mut rng = Rng(0xFEED);
        let n = 30_000;
        let busy: Vec<f64> = (0..n).map(|_| rng.next_f64() * 5.0).collect();
        let counts: Vec<u64> = (0..n).map(|_| (rng.next_f64() * 40.0) as u64).collect();
        for level in [1usize, 2, 3, 7, 20, 100, 500] {
            let t = level as f64 * 2.5;
            let fast = aggregate_counts(&busy, &counts, t);
            let naive = aggregate_counts_naive(&busy, &counts, t);
            assert_eq!(fast, naive, "level {level}");
            assert!(!fast.is_empty(), "level {level} should produce windows");
        }
    }

    #[test]
    fn aggregate_counts_matches_naive_on_corner_cases() {
        // Zero busy times interleaved (idle windows), exact-threshold hits,
        // and a window larger than the whole trace.
        let busy = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 1.0, 1.0];
        let counts = vec![5u64, 0, 9, 0, 0, 12, 3, 4];
        for t in [0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 100.0] {
            assert_eq!(
                aggregate_counts(&busy, &counts, t),
                aggregate_counts_naive(&busy, &counts, t),
                "t = {t}"
            );
        }
        // All-idle trace: no window ever fills.
        assert!(aggregate_counts(&[0.0; 10], &[0; 10], 1.0).is_empty());
        assert!(aggregate_counts_naive(&[0.0; 10], &[0; 10], 1.0).is_empty());
        // Empty input.
        assert!(aggregate_counts(&[], &[], 1.0).is_empty());
    }

    #[test]
    fn aggregate_counts_windows_hold_enough_busy_time() {
        // Every emitted window [k, j) accumulates at least t busy-seconds
        // and drops the final starts that cannot.
        let busy = vec![0.5; 50]; // exactly representable: sums carry no error
        let counts: Vec<u64> = (0..50).collect();
        let t = 2.0; // four windows of 0.5 each
        let out = aggregate_counts(&busy, &counts, t);
        assert_eq!(out.len(), 47);
        // Window starting at k covers counts k..k+4.
        for (k, &c) in out.iter().enumerate() {
            let expect: u64 = (k as u64..k as u64 + 4).sum();
            assert_eq!(c, expect as f64, "window {k}");
        }
    }

    #[test]
    fn counting_helper_rejects_bad_window() {
        assert!(index_of_dispersion_counting(&[1.0, 2.0], 0.0, 0.2).is_err());
    }

    #[test]
    fn counting_helper_rejects_negative_service_times() {
        assert!(index_of_dispersion_counting(&[1.0, -2.0], 1.0, 0.2).is_err());
    }

    #[test]
    fn estimators_agree_on_iid_trace() {
        let trace = exponential_trace(150_000, 1.0, 1234);
        let via_acf = index_of_dispersion_acf(&trace, 50).unwrap();
        let via_counts = index_of_dispersion_counting(&trace, 30.0, 0.1)
            .unwrap()
            .index_of_dispersion();
        assert!(
            (via_acf - via_counts).abs() < 0.4,
            "estimators disagree: acf={via_acf}, counts={via_counts}"
        );
    }
}
