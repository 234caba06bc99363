//! Latency/throughput summaries produced by open-loop workload targets.
//!
//! The `csnake-workload` crate drives *open-loop* request streams (Poisson,
//! bursty, diurnal, or recorded-trace arrivals) through a simulated service
//! and measures per-request latency. Each run folds its measurements into
//! one [`WorkloadSummary`] — whole-run percentiles plus fixed-width
//! [`WorkloadWindow`]s over virtual time — which the target buffers and the
//! [`Driver`](crate::Driver) drains after each experiment batch via
//! [`TargetSystem::drain_workload_summaries`](crate::TargetSystem::drain_workload_summaries),
//! re-emitting them sorted (by `(test, seed)`, then by content) through
//! [`CampaignEvent::WorkloadSummary`](crate::CampaignEvent::WorkloadSummary).
//!
//! The windows are what makes an open-loop run diagnostic: under a
//! self-sustaining cascade the arrival rate does not yield (no closed-loop
//! back-pressure), so queueing delay compounds and the windowed p99 shows a
//! sharp *inflection* instead of a flat line —
//! [`WorkloadSummary::p99_inflection_milli`] locates it.

use csnake_inject::TestId;
use serde::Serialize;

/// One fixed-width virtual-time window of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct WorkloadWindow {
    /// Window start, in virtual milliseconds from run start.
    pub start_ms: u64,
    /// Requests that *completed* in this window.
    pub completed: u64,
    /// Median completion latency in the window, µs.
    pub p50_us: u64,
    /// 99th-percentile completion latency in the window, µs.
    pub p99_us: u64,
}

/// Whole-run latency summary of one open-loop workload run. Ordered by
/// `(test, seed)` first, then by content.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct WorkloadSummary {
    /// The workload (test case) that ran.
    pub test: TestId,
    /// The run's seed.
    pub seed: u64,
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests that completed service within the horizon.
    pub completed: u64,
    /// Requests shed by the service's bounded queue.
    pub dropped: u64,
    /// Whole-run median latency, µs.
    pub p50_us: u64,
    /// Whole-run 90th-percentile latency, µs.
    pub p90_us: u64,
    /// Whole-run 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Worst completion latency, µs.
    pub max_us: u64,
    /// Fixed-width windows in virtual-time order.
    pub windows: Vec<WorkloadWindow>,
}

impl WorkloadSummary {
    /// Virtual millisecond at which the windowed p99 *inflects*: the start
    /// of the first window whose p99 is at least [`INFLECTION_FACTOR`]×
    /// the quietest non-empty window's p99. `None` when the run stayed
    /// flat (no cascade took hold) or produced fewer than two non-empty
    /// windows.
    pub fn p99_inflection_milli(&self) -> Option<u64> {
        let live: Vec<&WorkloadWindow> = self.windows.iter().filter(|w| w.completed > 0).collect();
        if live.len() < 2 {
            return None;
        }
        let baseline = live.iter().map(|w| w.p99_us).min().expect("non-empty");
        let threshold = baseline.saturating_mul(INFLECTION_FACTOR).max(1);
        live.iter()
            .find(|w| w.p99_us >= threshold)
            .map(|w| w.start_ms)
    }
}

/// Multiplier over the quietest window's p99 that counts as an inflection.
pub const INFLECTION_FACTOR: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(p99s: &[(u64, u64)]) -> WorkloadSummary {
        WorkloadSummary {
            test: TestId(0),
            seed: 1,
            offered: 100,
            completed: p99s.iter().map(|&(c, _)| c).sum(),
            dropped: 0,
            p50_us: 10,
            p90_us: 20,
            p99_us: 40,
            max_us: 50,
            windows: p99s
                .iter()
                .enumerate()
                .map(|(i, &(completed, p99_us))| WorkloadWindow {
                    start_ms: i as u64 * 100,
                    completed,
                    p50_us: p99_us / 2,
                    p99_us,
                })
                .collect(),
        }
    }

    #[test]
    fn flat_run_has_no_inflection() {
        let s = summary(&[(10, 100), (10, 110), (10, 95), (10, 120)]);
        assert_eq!(s.p99_inflection_milli(), None);
    }

    #[test]
    fn cascade_inflects_at_the_first_blown_window() {
        let s = summary(&[(10, 100), (10, 110), (8, 900), (2, 5_000)]);
        assert_eq!(s.p99_inflection_milli(), Some(200));
    }

    #[test]
    fn empty_windows_are_ignored() {
        let s = summary(&[(10, 100), (0, 0), (10, 450)]);
        assert_eq!(s.p99_inflection_milli(), Some(200));
    }
}
