//! One-pass streaming counterparts of the batch estimators — the measurement
//! substrate of continuous capacity planning.
//!
//! Every estimator in this crate was written for a *batch* world: the whole
//! monitoring trace exists, then [`crate::regression::estimate_demand`], the
//! Figure 2 [`crate::dispersion::DispersionEstimator`], and the
//! [`crate::busy::ServicePercentileEstimator`] each make a pass over it. A
//! live planner instead watches windows arrive one at a time and wants the
//! current descriptors after every window, without re-scanning history.
//!
//! This module provides the streaming versions, each cross-validated against
//! its batch counterpart:
//!
//! * [`StreamingDemand`] — the utilization-law regressor as running
//!   normal-equation sums. The sums are **bit-identical** to the batch pass
//!   (same additions in the same order), so the demand slope matches exactly.
//! * [`StreamingDispersion`] — the Figure 2 index-of-dispersion algorithm
//!   with every aggregation level maintained incrementally: the sliding
//!   busy-window pointers and integer completion prefix sums of
//!   [`crate::dispersion::aggregate_counts`], lifted to append-only updates.
//!   Per-level aggregated counts are emitted in the same order with the same
//!   floating-point operations as the batch pass, so the per-level count
//!   statistics agree **exactly**; the final `Y(t)` values agree to within
//!   integer-vs-two-pass variance rounding (~1 ulp-scale).
//! * [`P2Quantile`] — the P² sketch of Jain & Chlamtac (1985): five markers,
//!   `O(1)` memory, bounded error against the exact order statistic.
//! * [`StreamingServicePercentile`] — the Section 4.1 p95 service-time
//!   estimator (`p95(B_k) / median(n_k)`) on two P² sketches, with exact
//!   running totals for the mean.
//!
//! Work per arriving window is `O(active levels)` amortized; memory is
//! `O(levels)` for the statistics plus the raw busy/count series retained for
//! the still-open aggregation windows (an aggregation level whose window has
//! not filled yet may still need every window since its left edge).

use crate::busy::BusyTimeCharacterization;
use crate::descriptive::percentile_of_sorted;
use crate::dispersion::{CurvePoint, DispersionEstimate, MIN_WINDOWS};
use crate::regression::DemandEstimate;
use crate::StatsError;

/// Incremental utilization-law regression: the running normal-equation sums
/// of `B_k ≈ S * n_k` (through-origin least squares).
///
/// Pushing the same windows the batch
/// [`crate::regression::estimate_demand`] consumes reproduces its sums
/// bit-for-bit: the accumulators perform the identical additions in the
/// identical order, so the estimated demand is exactly the batch slope.
///
/// # Example
/// ```
/// use burstcap_stats::streaming::StreamingDemand;
///
/// // 25 completions per second at 50% utilization -> demand = 0.02 s.
/// let mut reg = StreamingDemand::new(1.0);
/// for _ in 0..120 {
///     reg.push(0.5, 25)?;
/// }
/// let d = reg.estimate()?;
/// assert!((d.mean_service_time - 0.02).abs() < 1e-12);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingDemand {
    resolution: f64,
    windows: u64,
    sxx: f64,
    sxy: f64,
    sum_busy: f64,
    sum_busy_sq: f64,
}

impl StreamingDemand {
    /// Create a regressor for monitoring windows of `resolution` seconds.
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive; resolution is a
    /// deployment constant, so a bad value is a programming error.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "monitoring resolution must be positive");
        StreamingDemand {
            resolution,
            windows: 0,
            sxx: 0.0,
            sxy: 0.0,
            sum_busy: 0.0,
            sum_busy_sq: 0.0,
        }
    }

    /// Ingest one monitoring window: utilization `u` in `[0, 1]` and the
    /// completion count of the window.
    ///
    /// # Errors
    /// Rejects utilizations outside `[0, 1]` (including NaN); the window is
    /// not ingested.
    pub fn push(&mut self, utilization: f64, completions: u64) -> Result<(), StatsError> {
        check_utilization(utilization)?;
        let x = completions as f64;
        let b = utilization * self.resolution;
        self.windows += 1;
        self.sxx += x * x;
        self.sxy += x * b;
        self.sum_busy += b;
        self.sum_busy_sq += b * b;
        Ok(())
    }

    /// Number of windows ingested so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The raw normal-equation sums `(sum x^2, sum x*B)` — exposed so the
    /// streaming-vs-batch equivalence tests can assert exact agreement.
    pub fn normal_sums(&self) -> (f64, f64) {
        (self.sxx, self.sxy)
    }

    /// Current demand estimate from everything ingested so far.
    ///
    /// The slope is bit-identical to the batch regression on the same
    /// windows; the R² is computed from the running sums (algebraically the
    /// same quantity, up to rounding).
    ///
    /// # Errors
    /// Rejects an empty stream and an all-zero completion history (slope
    /// undefined), mirroring the batch estimator.
    pub fn estimate(&self) -> Result<DemandEstimate, StatsError> {
        if self.windows == 0 {
            return Err(StatsError::TraceTooShort { got: 0, needed: 1 });
        }
        if self.sxx == 0.0 {
            return Err(StatsError::Degenerate {
                reason: "all regressors are zero".into(),
            });
        }
        let slope = self.sxy / self.sxx;
        // SS_tot = sum B^2 - (sum B)^2 / n; SS_res expanded from the running
        // sums. A (near-)zero total sum of squares means constant busy time:
        // the batch path reports R^2 = 1 there as well.
        let n = self.windows as f64;
        let ss_tot = self.sum_busy_sq - self.sum_busy * self.sum_busy / n;
        let ss_res = self.sum_busy_sq - 2.0 * slope * self.sxy + slope * slope * self.sxx;
        let r_squared = if ss_tot <= 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        Ok(DemandEstimate {
            mean_service_time: slope,
            r_squared,
        })
    }
}

/// Exact integer statistics of the aggregated completion counts emitted at
/// one aggregation level of the streaming Figure 2 estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Number of aggregated windows emitted so far at this level.
    pub windows: u64,
    /// Sum of the emitted counts.
    pub sum: u64,
    /// Sum of the squared emitted counts.
    pub sum_sq: u128,
}

/// Sliding-window state of one aggregation level: the left/right pointers and
/// float busy accumulator of `aggregate_counts`, frozen between arrivals.
#[derive(Debug, Clone, PartialEq)]
struct LevelState {
    /// Aggregated busy-time target `t` of this level (seconds).
    t: f64,
    /// Left edge: the next start window to emit for.
    k: usize,
    /// Exclusive right edge of the current window.
    j: usize,
    /// Busy time accumulated over `[k, j)`.
    acc: f64,
    stats: LevelStats,
}

/// The Figure 2 index-of-dispersion estimator with append-only updates:
/// every aggregation level's overlapping busy-time windows are maintained
/// incrementally as monitoring windows arrive.
///
/// Emission logic per level is the sliding-window/prefix-sum algorithm of
/// [`crate::dispersion::aggregate_counts`], with identical floating-point
/// operations in identical order — the emitted counts match the batch pass
/// bit-for-bit (asserted exactly by the equivalence property suite). The
/// per-level statistics are exact integer sums, so
/// [`StreamingDispersion::estimate`] reproduces the batch `Y(t)` curve up to
/// one final rounding difference in the variance.
///
/// # Example
/// ```
/// use burstcap_stats::streaming::StreamingDispersion;
///
/// // A perfectly regular server: deterministic counts, I converges to 0.
/// let mut disp = StreamingDispersion::new(60.0);
/// for _ in 0..600 {
///     disp.push(0.5, 30)?;
/// }
/// let est = disp.estimate()?;
/// assert!(est.index_of_dispersion() < 0.1);
/// assert!(est.converged());
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingDispersion {
    resolution: f64,
    tolerance: f64,
    min_windows: usize,
    max_levels: usize,
    strict: bool,
    /// Number of pruned-away leading windows: `busy[i - base]` holds the
    /// busy time of absolute window `i`. Level pointers stay absolute.
    base: usize,
    busy: Vec<f64>,
    /// Integer prefix sums of completion counts, absolute values:
    /// `prefix[j - base] - prefix[k - base]` is the exact count of windows
    /// `[k, j)`.
    prefix: Vec<u64>,
    total_completions: u64,
    levels: Vec<LevelState>,
}

/// Prune the retained window buffer once this many leading windows are
/// behind every level's left pointer (amortizes the `drain`).
const PRUNE_CHUNK: usize = 1024;

impl StreamingDispersion {
    /// Create a streaming estimator for monitoring windows of `resolution`
    /// seconds. Defaults mirror
    /// [`crate::dispersion::DispersionEstimator::new`]: tolerance 0.2, at
    /// least [`MIN_WINDOWS`] windows per level, at most 512 levels,
    /// non-strict.
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "monitoring resolution must be positive");
        StreamingDispersion {
            resolution,
            tolerance: 0.2,
            min_windows: MIN_WINDOWS,
            max_levels: 512,
            strict: false,
            base: 0,
            busy: Vec::new(),
            prefix: vec![0],
            total_completions: 0,
            levels: Vec::new(),
        }
    }

    /// Set the convergence tolerance of the stopping rule (paper default
    /// 0.20).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Set the minimum number of windows per aggregation level (paper: 100).
    pub fn min_windows(mut self, min_windows: usize) -> Self {
        self.min_windows = min_windows;
        self
    }

    /// Cap the number of aggregation levels maintained.
    ///
    /// # Panics
    /// Panics if called after the first window was ingested (levels are
    /// materialized on first push) or with zero levels.
    pub fn max_levels(mut self, max_levels: usize) -> Self {
        assert!(max_levels > 0, "need at least one aggregation level");
        assert!(
            self.levels.is_empty(),
            "max_levels must be configured before ingesting windows"
        );
        self.max_levels = max_levels;
        self
    }

    /// In strict mode running out of windows before convergence is an error,
    /// as in the batch estimator.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Ingest one monitoring window.
    ///
    /// # Errors
    /// Rejects utilizations outside `[0, 1]` (including NaN); the window is
    /// not ingested.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn push(&mut self, utilization: f64, completions: u64) -> Result<(), StatsError> {
        check_utilization(utilization)?;
        if self.levels.is_empty() {
            self.levels = (1..=self.max_levels)
                .map(|l| LevelState {
                    t: l as f64 * self.resolution,
                    k: 0,
                    j: 0,
                    acc: 0.0,
                    stats: LevelStats {
                        windows: 0,
                        sum: 0,
                        sum_sq: 0,
                    },
                })
                .collect();
        }
        self.busy.push(utilization * self.resolution);
        #[expect(
            clippy::expect_used,
            reason = "prefix is seeded with a zero at construction"
        )]
        let last = *self.prefix.last().expect("prefix starts non-empty");
        self.prefix.push(last + completions);
        self.total_completions += completions;

        // Advance every level: same pointer moves, in the same order, as one
        // more iteration of the batch sliding window would make. Pointers
        // are absolute window indices; the retained buffers start at `base`.
        let n = self.base + self.busy.len();
        let base = self.base;
        for level in self.levels.iter_mut() {
            loop {
                while level.j < n && level.acc < level.t {
                    level.acc += self.busy[level.j - base];
                    level.j += 1;
                }
                if level.acc < level.t {
                    break;
                }
                let count = self.prefix[level.j - base] - self.prefix[level.k - base];
                level.stats.windows += 1;
                level.stats.sum += count;
                level.stats.sum_sq += u128::from(count) * u128::from(count);
                level.acc -= self.busy[level.k - base];
                level.k += 1;
            }
        }

        // Windows behind every level's left pointer can never be read again
        // (j only moves forward, k only moves forward): drop them in chunks
        // so memory stays proportional to the largest level's open span, not
        // to the stream length. Prefix values are absolute counts, so
        // differences are unaffected.
        #[expect(
            clippy::expect_used,
            reason = "levels materialize on the first push; this path is gated on pushes having happened"
        )]
        let min_k = self
            .levels
            .iter()
            .map(|l| l.k)
            .min()
            .expect("levels materialized on first push");
        if min_k - self.base >= PRUNE_CHUNK {
            let drop = min_k - self.base;
            self.busy.drain(..drop);
            self.prefix.drain(..drop);
            self.base = min_k;
        }
        Ok(())
    }

    /// Number of monitoring windows ingested so far.
    pub fn windows_ingested(&self) -> usize {
        self.base + self.busy.len()
    }

    /// Number of windows currently retained in the pruned buffer (bounded
    /// by the largest level's open span plus one prune chunk).
    pub fn windows_retained(&self) -> usize {
        self.busy.len()
    }

    /// Exact integer statistics of the aggregated counts at `level`
    /// (1-based, level `l` aggregates `l * resolution` busy-seconds) —
    /// exposed so the equivalence tests can assert exact agreement with
    /// [`crate::dispersion::aggregate_counts`].
    pub fn level_stats(&self, level: usize) -> Option<LevelStats> {
        if level == 0 {
            return None;
        }
        self.levels.get(level - 1).map(|l| l.stats)
    }

    /// Current index-of-dispersion estimate: replays the batch stopping rule
    /// over the incrementally maintained levels.
    ///
    /// # Errors
    /// Mirrors the batch estimator: invalid tolerance, no completions, first
    /// level short of `min_windows` (or any level, in strict mode), zero
    /// mean count, strict-mode non-convergence.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn estimate(&self) -> Result<DispersionEstimate, StatsError> {
        if self.tolerance <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be positive, got {}", self.tolerance),
            });
        }
        if self.total_completions == 0 {
            return Err(StatsError::Degenerate {
                reason: "no completions observed in any window".into(),
            });
        }

        let mut curve: Vec<CurvePoint> = Vec::new();
        let mut prev_y: Option<f64> = None;
        for level in &self.levels {
            let windows = level.stats.windows as usize;
            if windows < self.min_windows {
                if curve.is_empty() || self.strict {
                    return Err(StatsError::TraceTooShort {
                        got: windows,
                        needed: self.min_windows,
                    });
                }
                #[expect(
                    clippy::expect_used,
                    reason = "the curve was checked non-empty directly above"
                )]
                let last = *curve.last().expect("non-empty checked above");
                return Ok(DispersionEstimate::from_parts(last.y, false, curve));
            }
            let y = level_y(level.stats)?;
            curve.push(CurvePoint {
                t: level.t,
                y,
                windows,
            });
            if let Some(py) = prev_y {
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
                    return Ok(DispersionEstimate::from_parts(y, true, curve));
                }
            }
            prev_y = Some(y);
        }

        if self.strict {
            return Err(StatsError::NoConvergence {
                iterations: curve.len(),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "the first level always contributes a point before this path"
        )]
        let last = *curve.last().expect("max_levels >= 1, first level passed");
        Ok(DispersionEstimate::from_parts(last.y, false, curve))
    }
}

/// `Y(t) = Var(N_t) / E[N_t]` from the exact integer level sums: the
/// variance numerator `n * sum_sq - sum^2` is computed exactly in integers
/// (non-negative by Cauchy–Schwarz) and rounded once on conversion.
fn level_y(stats: LevelStats) -> Result<f64, StatsError> {
    let n = stats.windows;
    let e = stats.sum as f64 / n as f64;
    if e == 0.0 {
        return Err(StatsError::Degenerate {
            reason: "mean completion count is zero in busy windows".into(),
        });
    }
    let num = u128::from(n) * stats.sum_sq - u128::from(stats.sum) * u128::from(stats.sum);
    let var = num as f64 / (n as f64 * n as f64);
    Ok(var / e)
}

/// The P² (piecewise-parabolic) streaming quantile sketch of Jain &
/// Chlamtac (1985): five markers track the target quantile in `O(1)` memory
/// per observation, with bounded error against the exact order statistic.
///
/// Until five observations arrive the sketch answers exactly (from a sorted
/// buffer); from the sixth observation on, marker heights are adjusted with
/// the piecewise-parabolic prediction, falling back to linear interpolation
/// when the parabola would violate monotonicity.
///
/// # Example
/// ```
/// use burstcap_stats::streaming::P2Quantile;
///
/// let mut sketch = P2Quantile::new(0.5);
/// for k in 1..=1001_u64 {
///     // A deterministic shuffle of 1..=1001: true median 501.
///     sketch.push(((k * 577) % 1001 + 1) as f64);
/// }
/// let median = sketch.quantile().expect("non-empty");
/// assert!((median - 501.0).abs() / 501.0 < 0.05, "median = {median}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights, ascending.
    q: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    count: u64,
    /// Exact buffer for the first five observations.
    head: Vec<f64>,
}

impl P2Quantile {
    /// Create a sketch for the `p`-quantile.
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`; the tracked quantile is a configuration
    /// constant, so a bad value is a programming error.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p < 1.0,
            "tracked quantile must lie strictly in (0, 1), got {p}"
        );
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            head: Vec::with_capacity(5),
        }
    }

    /// The tracked quantile `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Ingest one observation. NaN observations are ignored (they carry no
    /// order information).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        if self.count <= 5 {
            self.head.push(x);
            if self.count == 5 {
                self.head.sort_by(f64::total_cmp);
                for (qi, &h) in self.q.iter_mut().zip(self.head.iter()) {
                    *qi = h;
                }
            }
            return;
        }

        // Locate the cell and update extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // q[k] <= x < q[k + 1].
            #[expect(
                clippy::expect_used,
                reason = "x < q[4] was established by the branch above, so some cell matches"
            )]
            (0..4)
                .find(|&i| x < self.q[i + 1])
                .expect("x < q[4] checked above")
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust the three interior markers if they drifted a full position
        // away from their desired position.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = if d >= 1.0 { 1.0 } else { -1.0 };
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
    }

    /// Piecewise-parabolic height prediction for marker `i` moved by `d`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (q, n) = (&self.q, &self.n);
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola is non-monotone.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate; `None` before the first observation. Exact
    /// for up to five observations (at exactly five the markers are freshly
    /// initialized and carry no interpolation yet, so the sorted buffer is
    /// still the right answer), sketched afterwards.
    pub fn quantile(&self) -> Option<f64> {
        match self.count {
            0 => None,
            1..=5 => {
                let mut sorted = self.head.clone();
                sorted.sort_by(f64::total_cmp);
                Some(percentile_of_sorted(&sorted, self.p))
            }
            _ => Some(self.q[2]),
        }
    }
}

/// Streaming version of the Section 4.1 tail estimator
/// ([`crate::busy::ServicePercentileEstimator`]): the p95 of busy times and
/// the median completion count are tracked by two [`P2Quantile`] sketches,
/// while the mean service time comes from exact running totals (bit-identical
/// to the batch pass over the same windows).
///
/// # Example
/// ```
/// use burstcap_stats::streaming::StreamingServicePercentile;
///
/// // Constant service times of 0.01 s: every fully busy 1-second window
/// // completes 100 requests, so p95(B)/median(n) = 1.0/100 = 0.01.
/// let mut tail = StreamingServicePercentile::new(1.0);
/// for _ in 0..200 {
///     tail.push(1.0, 100)?;
/// }
/// let c = tail.estimate()?;
/// assert!((c.p95_service_time - 0.01).abs() < 1e-9);
/// assert!((c.mean_service_time - 0.01).abs() < 1e-9);
/// # Ok::<(), burstcap_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingServicePercentile {
    resolution: f64,
    busy_tail: P2Quantile,
    count_median: P2Quantile,
    total_busy: f64,
    total_completions: u64,
    busy_windows: usize,
}

impl StreamingServicePercentile {
    /// Create an estimator for monitoring windows of `resolution` seconds,
    /// tracking the 95th percentile.
    ///
    /// # Panics
    /// Panics if `resolution` is not strictly positive.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0, "monitoring resolution must be positive");
        StreamingServicePercentile {
            resolution,
            busy_tail: P2Quantile::new(0.95),
            count_median: P2Quantile::new(0.5),
            total_busy: 0.0,
            total_completions: 0,
            busy_windows: 0,
        }
    }

    /// Change the tracked quantile (default 0.95).
    ///
    /// # Panics
    /// Panics unless `0 < q < 1`, or if called after windows were ingested
    /// (the sketch cannot be retargeted).
    pub fn quantile(mut self, q: f64) -> Self {
        assert!(
            self.busy_windows == 0,
            "quantile must be configured before ingesting windows"
        );
        self.busy_tail = P2Quantile::new(q);
        self
    }

    /// Ingest one monitoring window. Windows without completions carry no
    /// service-time information and are skipped, as in the batch estimator.
    ///
    /// # Errors
    /// Rejects utilizations outside `[0, 1]` (including NaN).
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn push(&mut self, utilization: f64, completions: u64) -> Result<(), StatsError> {
        check_utilization(utilization)?;
        if completions == 0 {
            return Ok(());
        }
        let b = utilization * self.resolution;
        self.busy_tail.push(b);
        self.count_median.push(completions as f64);
        self.total_busy += b;
        self.total_completions += completions;
        self.busy_windows += 1;
        Ok(())
    }

    /// Current busy-time characterization.
    ///
    /// # Errors
    /// Degenerate if no window with completions was ingested yet.
    ///
    /// # Panics
    ///
    /// Only if a justified internal invariant is violated, never for inputs
    /// this API accepts; `burstcap-lint report` lists the sites.
    pub fn estimate(&self) -> Result<BusyTimeCharacterization, StatsError> {
        if self.busy_windows == 0 || self.total_completions == 0 {
            return Err(StatsError::Degenerate {
                reason: "no window with completions".into(),
            });
        }
        #[expect(
            clippy::expect_used,
            reason = "gated on busy_windows > 0 directly above"
        )]
        let p95_busy = self.busy_tail.quantile().expect("busy_windows > 0");
        #[expect(
            clippy::expect_used,
            reason = "gated on busy_windows > 0 directly above"
        )]
        let med_n = self.count_median.quantile().expect("busy_windows > 0");
        Ok(BusyTimeCharacterization {
            mean_service_time: self.total_busy / self.total_completions as f64,
            p95_service_time: p95_busy / med_n,
            median_completions: med_n,
            busy_windows: self.busy_windows,
        })
    }
}

fn check_utilization(u: f64) -> Result<(), StatsError> {
    if !(0.0..=1.0).contains(&u) || u.is_nan() {
        return Err(StatsError::InvalidParameter {
            name: "utilization",
            reason: format!("samples must lie in [0, 1], found {u}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispersion::DispersionEstimator;
    use crate::regression::estimate_demand;

    /// Deterministic xorshift for reproducible test streams.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn demand_slope_matches_batch_exactly() {
        let mut rng = Rng(0xABCD);
        let mut util = Vec::new();
        let mut counts = Vec::new();
        let mut stream = StreamingDemand::new(5.0);
        for _ in 0..500 {
            let n = (rng.next_f64() * 80.0) as u64 + 5;
            let u = (n as f64 * 0.004 + rng.next_f64() * 0.02).min(1.0);
            util.push(u);
            counts.push(n);
            stream.push(u, n).unwrap();
        }
        let batch = estimate_demand(&util, &counts, 5.0).unwrap();
        let online = stream.estimate().unwrap();
        assert_eq!(
            batch.mean_service_time.to_bits(),
            online.mean_service_time.to_bits(),
            "slope must be bit-identical"
        );
        assert!((batch.r_squared - online.r_squared).abs() < 1e-9);
    }

    #[test]
    fn demand_rejects_empty_and_zero_regressors() {
        let reg = StreamingDemand::new(1.0);
        assert!(matches!(
            reg.estimate(),
            Err(StatsError::TraceTooShort { .. })
        ));
        let mut reg = StreamingDemand::new(1.0);
        reg.push(0.5, 0).unwrap();
        assert!(matches!(reg.estimate(), Err(StatsError::Degenerate { .. })));
        assert!(reg.push(1.5, 1).is_err());
    }

    #[test]
    fn dispersion_matches_batch_on_steady_stream() {
        let mut stream = StreamingDispersion::new(5.0);
        for _ in 0..500 {
            stream.push(1.0, 25).unwrap();
        }
        let online = stream.estimate().unwrap();
        let batch = DispersionEstimator::new(5.0)
            .estimate(&[1.0; 500], &[25; 500])
            .unwrap();
        assert_eq!(online.converged(), batch.converged());
        assert_eq!(online.curve().len(), batch.curve().len());
        assert!((online.index_of_dispersion() - batch.index_of_dispersion()).abs() < 1e-12);
    }

    #[test]
    fn dispersion_matches_batch_on_bursty_stream() {
        let mut util = Vec::new();
        let mut n = Vec::new();
        for block in 0..40 {
            for _ in 0..25 {
                util.push(1.0);
                n.push(if block % 2 == 0 { 5u64 } else { 95 });
            }
        }
        let mut stream = StreamingDispersion::new(1.0);
        for (&u, &c) in util.iter().zip(&n) {
            stream.push(u, c).unwrap();
        }
        let online = stream.estimate().unwrap();
        let batch = DispersionEstimator::new(1.0).estimate(&util, &n).unwrap();
        assert_eq!(online.converged(), batch.converged());
        let (a, b) = (online.index_of_dispersion(), batch.index_of_dispersion());
        assert!((a - b).abs() / b < 1e-9, "online {a} vs batch {b}");
        assert!(a > 10.0);
    }

    #[test]
    fn dispersion_estimate_is_callable_mid_stream() {
        let mut stream = StreamingDispersion::new(1.0);
        for k in 0..1000u64 {
            stream.push(1.0, 10 + k % 7).unwrap();
            if k == 10 {
                // Far too short for the first level: the batch error.
                assert!(matches!(
                    stream.estimate(),
                    Err(StatsError::TraceTooShort { .. })
                ));
            }
        }
        assert!(stream.estimate().unwrap().index_of_dispersion().is_finite());
        assert_eq!(stream.windows_ingested(), 1000);
        assert!(stream.level_stats(1).unwrap().windows > 0);
        assert!(stream.level_stats(0).is_none());
    }

    #[test]
    fn dispersion_degenerate_and_strict_errors() {
        let mut stream = StreamingDispersion::new(1.0);
        for _ in 0..200 {
            stream.push(0.5, 0).unwrap();
        }
        assert!(matches!(
            stream.estimate(),
            Err(StatsError::Degenerate { .. })
        ));

        let mut stream = StreamingDispersion::new(1.0).tolerance(1e-9).strict(true);
        for k in 0..300u64 {
            stream.push(1.0, 1 + (k % 37) * 7).unwrap();
        }
        assert!(stream.estimate().is_err());
        let relaxed = StreamingDispersion::new(1.0).tolerance(-1.0);
        assert!(relaxed.estimate().is_err());
    }

    #[test]
    fn p2_tracks_exponential_tail() {
        let mut rng = Rng(42);
        let mut sketch = P2Quantile::new(0.95);
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            let x = -(1.0 - rng.next_f64()).ln();
            sketch.push(x);
            exact.push(x);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth = percentile_of_sorted(&exact, 0.95);
        let est = sketch.quantile().unwrap();
        assert!(
            (est - truth).abs() / truth < 0.05,
            "p95 sketch {est} vs exact {truth}"
        );
        assert_eq!(sketch.count(), 20_000);
        assert!((sketch.p() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn p2_is_exact_for_tiny_streams() {
        let mut sketch = P2Quantile::new(0.5);
        assert!(sketch.quantile().is_none());
        for x in [3.0, 1.0, 2.0] {
            sketch.push(x);
        }
        assert!((sketch.quantile().unwrap() - 2.0).abs() < 1e-12);
        sketch.push(f64::NAN); // ignored
        assert_eq!(sketch.count(), 3);
    }

    #[test]
    fn p2_is_exact_at_exactly_five_observations() {
        // Regression: at count == 5 the markers are freshly initialized and
        // q[2] is the *median*; a p95 sketch must still answer from the
        // sorted buffer, not collapse to the median.
        let mut sketch = P2Quantile::new(0.95);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            sketch.push(x);
        }
        let exact = percentile_of_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95);
        assert!(
            (sketch.quantile().unwrap() - exact).abs() < 1e-12,
            "got {}, exact {exact}",
            sketch.quantile().unwrap()
        );
    }

    #[test]
    fn dispersion_pruning_preserves_batch_equivalence() {
        // A long high-utilization stream with few levels: every level's
        // left pointer races ahead, the prune fires repeatedly, and the
        // per-level statistics still match the batch pass over the full
        // (unpruned) series exactly.
        let mut rng = Rng(0xBEEF);
        let n = 30_000;
        let mut stream = StreamingDispersion::new(1.0).max_levels(8);
        let mut util = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            let u = 0.5 + rng.next_f64() * 0.5;
            let c = (rng.next_f64() * 30.0) as u64;
            stream.push(u, c).unwrap();
            util.push(u);
            counts.push(c);
        }
        assert_eq!(stream.windows_ingested(), n);
        // The largest level spans ~8 / 0.5 = 16 windows; retention is
        // bounded by span + prune chunk, far below the stream length.
        assert!(
            stream.windows_retained() < 2 * PRUNE_CHUNK,
            "retained {} of {n} windows",
            stream.windows_retained()
        );
        let busy: Vec<f64> = util.iter().map(|&u| u * 1.0).collect();
        for level in 1..=8usize {
            let batch = crate::dispersion::aggregate_counts(&busy, &counts, level as f64);
            let stats = stream.level_stats(level).unwrap();
            assert_eq!(stats.windows as usize, batch.len(), "level {level}");
            let sum: u64 = batch.iter().map(|&c| c as u64).sum();
            assert_eq!(stats.sum, sum, "level {level}");
        }
        let online = stream.estimate().unwrap();
        let batch = DispersionEstimator::new(1.0)
            .max_levels(8)
            .estimate(&util, &counts)
            .unwrap();
        assert!(
            (online.index_of_dispersion() - batch.index_of_dispersion()).abs()
                < 1e-9 * (1.0 + batch.index_of_dispersion()),
            "online {} vs batch {}",
            online.index_of_dispersion(),
            batch.index_of_dispersion()
        );
    }

    #[test]
    fn tail_estimator_matches_batch_on_constant_stream() {
        let mut stream = StreamingServicePercentile::new(1.0);
        for _ in 0..300 {
            stream.push(1.0, 50).unwrap();
        }
        let c = stream.estimate().unwrap();
        assert!((c.mean_service_time - 0.02).abs() < 1e-12);
        assert!((c.p95_service_time - 0.02).abs() < 1e-12);
        assert_eq!(c.busy_windows, 300);
    }

    #[test]
    fn tail_estimator_skips_idle_windows_and_rejects_all_idle() {
        let mut stream = StreamingServicePercentile::new(1.0);
        stream.push(0.0, 0).unwrap();
        assert!(matches!(
            stream.estimate(),
            Err(StatsError::Degenerate { .. })
        ));
        stream.push(1.0, 10).unwrap();
        stream.push(0.0, 0).unwrap();
        stream.push(1.0, 10).unwrap();
        let c = stream.estimate().unwrap();
        assert_eq!(c.busy_windows, 2);
        assert!((c.mean_service_time - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tail_estimator_quantile_is_configurable() {
        let mut stream = StreamingServicePercentile::new(1.0).quantile(0.5);
        for k in 1..=100u64 {
            stream.push(1.0, k).unwrap();
        }
        assert!(stream.estimate().unwrap().p95_service_time > 0.0);
    }
}
