//! The target-system abstraction the detection pipeline drives.

use std::sync::Arc;

use csnake_inject::{InjectionPlan, Registry, RunTrace, TestId};
use serde::Serialize;

/// One integration-test workload shipped with a target system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TestCase {
    /// Dense id within the target.
    pub id: TestId,
    /// Test name (mirrors the Java test-method naming of the originals).
    pub name: &'static str,
    /// What the workload exercises / how it is configured.
    pub description: &'static str,
}

/// Ground-truth record of a seeded self-sustaining cascading failure.
///
/// `labels` is the set of fault-point labels that participate in the bug's
/// propagation cycle; a reported cycle matches when it touches all of them.
/// Ground truth is used only for evaluation (TP/FP accounting), never by the
/// detector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct KnownBug {
    /// Short stable id, e.g. `"hdfs2-ibr-throttle"`.
    pub id: &'static str,
    /// Upstream issue-tracker reference from the paper's Table 3.
    pub jira: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Fault-point labels that must all appear in a matching cycle.
    pub labels: Vec<&'static str>,
}

/// A system under test: registry + workloads + a way to run them.
///
/// Implementations live in `csnake-targets`. `run` must be deterministic
/// given `(test, plan, seed)` and safe to call from multiple threads.
pub trait TargetSystem: Send + Sync {
    /// System name (e.g. `"mini-hdfs2"`).
    fn name(&self) -> &'static str;

    /// The instrumentation inventory.
    fn registry(&self) -> Arc<Registry>;

    /// The shipped integration-test workloads.
    fn tests(&self) -> Vec<TestCase>;

    /// Executes one workload, optionally with a fault injected, and returns
    /// the recorded trace.
    fn run(&self, test: TestId, plan: Option<InjectionPlan>, seed: u64) -> RunTrace;

    /// Ground-truth seeded bugs (evaluation only).
    fn known_bugs(&self) -> Vec<KnownBug> {
        Vec::new()
    }

    /// Labels of loops whose mutual contention is *expected* behaviour
    /// (§8.4.2: e.g. HDFS client read/write contention). Cycles composed
    /// purely of such delays count as false positives.
    fn expected_contention_labels(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Takes (and clears) the latency summaries buffered by runs since the
    /// last drain. Only open-loop workload targets (`csnake-workload`)
    /// produce any; the default is empty, so ordinary targets pay nothing.
    ///
    /// The [`Driver`](crate::Driver) drains after each experiment batch and
    /// re-emits the summaries through
    /// [`CampaignEvent::WorkloadSummary`](crate::CampaignEvent::WorkloadSummary)
    /// sorted by `(test, seed)`, so the stream is deterministic regardless
    /// of worker-pool interleaving.
    fn drain_workload_summaries(&self) -> Vec<crate::workload::WorkloadSummary> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bug_is_plain_data() {
        let b = KnownBug {
            id: "x",
            jira: "ABC-1",
            summary: "s",
            labels: vec!["a", "b"],
        };
        let b2 = b.clone();
        assert_eq!(b, b2);
    }
}
