//! A processor-sharing server with explicit per-job work.
//!
//! Both tiers of the TPC-W testbed run a processor-sharing discipline (the
//! paper's model of Figure 9 uses PS queues). [`PsServer`] tracks the
//! remaining work of every resident job; the server's unit capacity is shared
//! equally, so with `n` jobs resident each job progresses at rate `1/n`.
//! Owners drive it from their event loop: on every arrival or completion the
//! next-completion time changes, and the `generation` counter lets stale
//! calendar entries be recognized and dropped.

use serde::{Deserialize, Serialize};

/// A job resident in a [`PsServer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PsJob {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Remaining service requirement (seconds of dedicated service).
    pub remaining: f64,
}

/// Single processor-sharing server.
///
/// # Example
/// ```
/// use burstcap_sim::station::PsServer;
///
/// let mut s = PsServer::new();
/// s.arrive(0.0, 1, 2.0);
/// s.arrive(0.0, 2, 2.0);
/// // Two jobs of 2s sharing the CPU: both complete at t = 4.
/// assert_eq!(s.next_completion(0.0), Some(4.0));
/// let done = s.complete(4.0);
/// assert!(done.id == 1 || done.id == 2);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PsServer {
    jobs: Vec<PsJob>,
    last_update: f64,
    generation: u64,
}

impl PsServer {
    /// Create an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the server is idle.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Generation counter: bumped on every arrival and completion. Calendar
    /// entries carrying an older generation are stale and must be ignored.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Progress all resident jobs to time `now`.
    fn advance(&mut self, now: f64) {
        debug_assert!(now >= self.last_update - 1e-9, "time must advance");
        let n = self.jobs.len();
        if n > 0 {
            let each = (now - self.last_update) / n as f64;
            for j in self.jobs.iter_mut() {
                // burstcap-lint: allow(silent-clamp) — floors float underrun of remaining work; the PS share cannot logically exceed what is left
                j.remaining = (j.remaining - each).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Admit a job with `work` seconds of service requirement at time `now`.
    ///
    /// # Panics
    /// Panics on negative work (a sampling bug upstream).
    pub fn arrive(&mut self, now: f64, id: u64, work: f64) {
        assert!(work >= 0.0, "job work must be non-negative");
        self.advance(now);
        self.jobs.push(PsJob {
            id,
            remaining: work,
        });
        self.generation += 1;
    }

    /// Absolute time of the next completion if no further arrival occurs.
    pub fn next_completion(&self, now: f64) -> Option<f64> {
        if self.jobs.is_empty() {
            return None;
        }
        let n = self.jobs.len() as f64;
        let elapsed = now - self.last_update;
        let min_remaining = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        // Remaining work still to do at `now` given sharing since last_update.
        // burstcap-lint: allow(silent-clamp) — same underrun floor: the next completion cannot precede `now`
        let residual = (min_remaining - elapsed / n).max(0.0);
        Some(now + residual * n)
    }

    /// Complete the job with the least remaining work at time `now`,
    /// returning it.
    ///
    /// # Panics
    /// Panics if the server is empty — completing on an idle server means the
    /// owner's calendar is corrupt.
    pub fn complete(&mut self, now: f64) -> PsJob {
        self.advance(now);
        assert!(!self.jobs.is_empty(), "complete() on an idle PS server");
        #[expect(
            clippy::expect_used,
            reason = "caller holds the non-empty invariant; pop is only reached when jobs exist"
        )]
        let (idx, _) = self
            .jobs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))
            .expect("non-empty");
        self.generation += 1;
        self.jobs.swap_remove(idx)
    }

    /// Snapshot of resident jobs (order unspecified).
    pub fn jobs(&self) -> &[PsJob] {
        &self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut s = PsServer::new();
        s.arrive(0.0, 7, 3.0);
        assert_eq!(s.next_completion(0.0), Some(3.0));
        let j = s.complete(3.0);
        assert_eq!(j.id, 7);
        assert!(s.is_empty());
    }

    #[test]
    fn two_equal_jobs_share() {
        let mut s = PsServer::new();
        s.arrive(0.0, 1, 1.0);
        s.arrive(0.0, 2, 1.0);
        assert_eq!(s.next_completion(0.0), Some(2.0));
    }

    #[test]
    fn late_arrival_slows_first_job() {
        let mut s = PsServer::new();
        s.arrive(0.0, 1, 2.0);
        // At t=1 the first job has 1s left; a second job arrives.
        s.arrive(1.0, 2, 5.0);
        // First job now progresses at rate 1/2: completes at 1 + 2 = 3.
        assert_eq!(s.next_completion(1.0), Some(3.0));
        let j = s.complete(3.0);
        assert_eq!(j.id, 1);
        // Second job: served 1s of its 5 over [1,3]; alone now, 4s left.
        assert_eq!(s.next_completion(3.0), Some(7.0));
    }

    #[test]
    fn generation_bumps_on_changes() {
        let mut s = PsServer::new();
        let g0 = s.generation();
        s.arrive(0.0, 1, 1.0);
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.complete(1.0);
        assert!(s.generation() > g1);
    }

    #[test]
    fn next_completion_accounts_for_elapsed_time() {
        let mut s = PsServer::new();
        s.arrive(0.0, 1, 2.0);
        s.arrive(0.0, 2, 4.0);
        // Asked at t=1 without state change: job 1 has 2 - 1/2 = 1.5 left,
        // completing at 1 + 1.5 * 2 = 4.
        assert_eq!(s.next_completion(1.0), Some(4.0));
    }

    #[test]
    fn empty_server_has_no_completion() {
        let s = PsServer::new();
        assert_eq!(s.next_completion(5.0), None);
    }

    #[test]
    #[should_panic(expected = "idle PS server")]
    fn completing_idle_panics() {
        let mut s = PsServer::new();
        s.complete(1.0);
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut s = PsServer::new();
        s.arrive(2.0, 3, 0.0);
        assert_eq!(s.next_completion(2.0), Some(2.0));
        assert_eq!(s.complete(2.0).id, 3);
    }

    #[test]
    fn fairness_three_jobs() {
        // Three jobs of work 3 arriving together complete together at t=9.
        let mut s = PsServer::new();
        for id in 0..3 {
            s.arrive(0.0, id, 3.0);
        }
        assert_eq!(s.next_completion(0.0), Some(9.0));
        s.complete(9.0);
        // Remaining two jobs have zero work left.
        assert_eq!(s.next_completion(9.0), Some(9.0));
    }
}
