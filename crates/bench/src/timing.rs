//! The workspace's single wall-clock seam.
//!
//! Wall-clock reads make runs non-reproducible, so the root `clippy.toml`
//! bans `Instant::now`/`SystemTime::now` everywhere (`disallowed_methods`)
//! — except at the one call below. Benchmark binaries that need to *measure*
//! solver or ingest latency (a legitimately non-deterministic quantity;
//! the measured numbers are reported, never fed back into any model) go
//! through [`Stopwatch`]. Keeping every read behind one seam means a
//! grep for `Stopwatch::start` enumerates every timing side channel in
//! the workspace.

use std::time::Instant;

/// A started wall-clock timer for benchmark measurement.
///
/// ```
/// let sw = burstcap_bench::timing::Stopwatch::start();
/// let _ms = sw.elapsed_ms();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "this module is the bench timing seam the wall-clock ban confines reads to"
        )]
        Stopwatch(Instant::now())
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Time a closure, returning its result and the elapsed milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ms();
        let b = sw.elapsed_ms();
        assert!(b >= a && a >= 0.0);
        assert!((sw.elapsed_secs() * 1e3) >= b);
    }

    #[test]
    fn time_ms_returns_closure_result() {
        let (out, ms) = time_ms(|| 41 + 1);
        assert_eq!(out, 42);
        assert!(ms >= 0.0);
    }
}
