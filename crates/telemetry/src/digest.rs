//! End-of-campaign metrics digest, computed from the recorded journal.
//!
//! The digest replaces ad-hoc timers: per-stage and
//! per-phase wall times come from the recorder's span durations,
//! experiment latency percentiles from the inter-completion gaps of the
//! [`ExperimentCompleted`](csnake_core::CampaignEvent::ExperimentCompleted)
//! stream, and the counter block from a single pass over the records.
//! [`MetricsDigest::to_json`] renders the whole thing as one JSON object
//! for checking into benchmark files.

use csnake_core::CampaignEvent;

use crate::record::TelemetryRecord;

/// Latency percentiles over a set of microsecond samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Number of samples.
    pub count: usize,
    /// Median, microseconds.
    pub p50_micros: u64,
    /// 90th percentile, microseconds.
    pub p90_micros: u64,
    /// 99th percentile, microseconds.
    pub p99_micros: u64,
    /// Maximum, microseconds.
    pub max_micros: u64,
}

impl LatencyHistogram {
    /// Nearest-rank percentiles over `samples` (order irrelevant).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyHistogram::default();
        }
        samples.sort_unstable();
        let rank = |p: f64| -> u64 {
            let n = samples.len();
            let idx = ((p / 100.0) * n as f64).ceil() as usize;
            samples[idx.clamp(1, n) - 1]
        };
        LatencyHistogram {
            count: samples.len(),
            p50_micros: rank(50.0),
            p90_micros: rank(90.0),
            p99_micros: rank(99.0),
            max_micros: *samples.last().expect("non-empty"),
        }
    }
}

/// Raw inter-completion gaps (µs) of the `ExperimentCompleted` stream —
/// the samples behind [`MetricsDigest::experiment_latency`]. Exposed so
/// harnesses evaluating many campaigns can pool the samples across runs
/// into one [`LatencyHistogram`] instead of averaging percentiles.
pub fn experiment_latency_samples(records: &[TelemetryRecord]) -> Vec<u64> {
    let mut latencies = Vec::new();
    let mut last: Option<u64> = None;
    for r in records {
        if let CampaignEvent::ExperimentCompleted { .. } = &r.kind {
            if let Some(prev) = last {
                latencies.push(r.micros.saturating_sub(prev));
            }
            last = Some(r.micros);
        }
    }
    latencies
}

/// Adds a closed span's duration to its key's total; a key is listed where
/// its first span closed.
fn add_span<K: PartialEq>(totals: &mut Vec<(K, u64)>, key: K, dur: Option<u64>) {
    let Some(dur) = dur else { return };
    match totals.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 += dur,
        None => totals.push((key, dur)),
    }
}

/// The digest: wall times, latency percentiles, campaign counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDigest {
    /// Timestamp of the last record — total observed wall time, µs.
    pub wall_micros: u64,
    /// Total span duration per stage, `(stage name, µs)`, in first-open
    /// order. A stage entered more than once (resume) accumulates.
    pub stage_wall_micros: Vec<(String, u64)>,
    /// Total span duration per allocation phase, `(phase, µs)`.
    pub phase_wall_micros: Vec<(u8, u64)>,
    /// Gaps between consecutive experiment completions.
    pub experiment_latency: LatencyHistogram,
    /// Experiments completed.
    pub experiments: usize,
    /// Causal edges accepted.
    pub edges: usize,
    /// Cycles reported.
    pub cycles: usize,
    /// Final budget spent.
    pub budget_spent: usize,
    /// Final budget total.
    pub budget_total: usize,
    /// Retry rounds (coordinator-side deterministic stream).
    pub retries: usize,
    /// Cells abandoned as gaps.
    pub gaps: usize,
    /// Final trace-cache hits.
    pub cache_hits: usize,
    /// Final trace-cache misses.
    pub cache_misses: usize,
    /// Clustering runs observed.
    pub clustering_runs: usize,
    /// Peak clustering input vectors.
    pub clustering_peak_vectors: usize,
    /// Mid-phase checkpoints written.
    pub checkpoints: usize,
    /// Daemon workers that connected.
    pub workers_connected: usize,
    /// Daemon workers lost.
    pub workers_lost: usize,
    /// Worker events forwarded live.
    pub events_forwarded: usize,
    /// Whether the campaign degraded.
    pub degraded: bool,
    /// Workload summaries observed (one per open-loop experiment).
    pub workload_summaries: usize,
    /// Requests completed across all workload summaries.
    pub workload_completed: u64,
    /// Requests shed or timed out across all workload summaries.
    pub workload_dropped: u64,
    /// Worst whole-run p99 latency over the workload summaries, µs.
    pub workload_peak_p99_us: u64,
    /// Summaries whose windowed p99 inflected (cascade onset detected).
    pub workload_inflections: usize,
    /// Earliest inflection instant across the summaries, ms into a run.
    pub workload_first_inflection_ms: Option<u64>,
}

impl MetricsDigest {
    /// Computes the digest from `records`: one pass for the counters and
    /// wall times, one for the latency samples.
    pub fn from_records(records: &[TelemetryRecord]) -> Self {
        let mut d = MetricsDigest::default();
        for r in records {
            d.wall_micros = d.wall_micros.max(r.micros);
            match &r.kind {
                CampaignEvent::StageFinished(stage) => {
                    add_span(&mut d.stage_wall_micros, stage.to_string(), r.dur_micros)
                }
                CampaignEvent::PhaseFinished { phase, .. } => {
                    add_span(&mut d.phase_wall_micros, *phase, r.dur_micros)
                }
                CampaignEvent::ExperimentCompleted { .. } => d.experiments += 1,
                CampaignEvent::EdgeEmitted { .. } => d.edges += 1,
                CampaignEvent::CycleFound { .. } => d.cycles += 1,
                CampaignEvent::BudgetSpent { spent, total } => {
                    d.budget_spent = *spent;
                    d.budget_total = *total;
                }
                CampaignEvent::TraceCache { hits, misses } => {
                    d.cache_hits = *hits;
                    d.cache_misses = *misses;
                }
                CampaignEvent::Clustering(stats) => {
                    d.clustering_runs += 1;
                    d.clustering_peak_vectors = d.clustering_peak_vectors.max(stats.vectors);
                }
                CampaignEvent::BatchRetried { .. } => d.retries += 1,
                CampaignEvent::BatchFailed { .. } => d.gaps += 1,
                CampaignEvent::CheckpointWritten { .. } => d.checkpoints += 1,
                CampaignEvent::Degraded { .. } => d.degraded = true,
                CampaignEvent::WorkerConnected { .. } => d.workers_connected += 1,
                CampaignEvent::WorkerLost { .. } => d.workers_lost += 1,
                CampaignEvent::Forwarded { .. } => d.events_forwarded += 1,
                CampaignEvent::WorkloadSummary {
                    completed,
                    dropped,
                    p99_us,
                    inflection_ms,
                    ..
                } => {
                    d.workload_summaries += 1;
                    d.workload_completed += completed;
                    d.workload_dropped += dropped;
                    d.workload_peak_p99_us = d.workload_peak_p99_us.max(*p99_us);
                    if let Some(ms) = inflection_ms {
                        d.workload_inflections += 1;
                        d.workload_first_inflection_ms = Some(
                            d.workload_first_inflection_ms
                                .map_or(*ms, |cur| cur.min(*ms)),
                        );
                    }
                }
                _ => {}
            }
        }
        d.experiment_latency = LatencyHistogram::from_samples(experiment_latency_samples(records));
        d
    }

    /// Renders the digest as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stage_wall_micros
            .iter()
            .map(|(n, us)| format!("{{\"stage\":\"{n}\",\"wall_micros\":{us}}}"))
            .collect();
        let phases: Vec<String> = self
            .phase_wall_micros
            .iter()
            .map(|(p, us)| format!("{{\"phase\":{p},\"wall_micros\":{us}}}"))
            .collect();
        let l = &self.experiment_latency;
        format!(
            concat!(
                "{{\"wall_micros\":{},\"stages\":[{}],\"phases\":[{}],",
                "\"experiment_latency\":{{\"count\":{},\"p50_micros\":{},",
                "\"p90_micros\":{},\"p99_micros\":{},\"max_micros\":{}}},",
                "\"experiments\":{},\"edges\":{},\"cycles\":{},",
                "\"budget_spent\":{},\"budget_total\":{},\"retries\":{},",
                "\"gaps\":{},\"cache_hits\":{},\"cache_misses\":{},",
                "\"clustering_runs\":{},\"clustering_peak_vectors\":{},",
                "\"checkpoints\":{},\"workers_connected\":{},",
                "\"workers_lost\":{},\"events_forwarded\":{},\"degraded\":{},",
                "\"workload\":{{\"summaries\":{},\"completed\":{},",
                "\"dropped\":{},\"peak_p99_us\":{},\"inflections\":{},",
                "\"first_inflection_ms\":{}}}}}"
            ),
            self.wall_micros,
            stages.join(","),
            phases.join(","),
            l.count,
            l.p50_micros,
            l.p90_micros,
            l.p99_micros,
            l.max_micros,
            self.experiments,
            self.edges,
            self.cycles,
            self.budget_spent,
            self.budget_total,
            self.retries,
            self.gaps,
            self.cache_hits,
            self.cache_misses,
            self.clustering_runs,
            self.clustering_peak_vectors,
            self.checkpoints,
            self.workers_connected,
            self.workers_lost,
            self.events_forwarded,
            self.degraded,
            self.workload_summaries,
            self.workload_completed,
            self.workload_dropped,
            self.workload_peak_p99_us,
            self.workload_inflections,
            self.workload_first_inflection_ms
                .map_or("null".to_string(), |ms| ms.to_string()),
        )
    }

    /// Writes the digest JSON atomically (snapshot discipline).
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> csnake_core::error::Result<()> {
        csnake_core::write_file_bytes(path.as_ref(), self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::{EdgeKind, Stage};
    use csnake_inject::{FaultId, TestId};

    fn rec(seq: u64, micros: u64, dur: Option<u64>, kind: CampaignEvent) -> TelemetryRecord {
        TelemetryRecord {
            seq,
            micros,
            thread: "main".into(),
            dur_micros: dur,
            kind,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let h = LatencyHistogram::from_samples((1..=100).collect());
        assert_eq!(h.count, 100);
        assert_eq!(h.p50_micros, 50);
        assert_eq!(h.p90_micros, 90);
        assert_eq!(h.p99_micros, 99);
        assert_eq!(h.max_micros, 100);
        let one = LatencyHistogram::from_samples(vec![7]);
        assert_eq!((one.p50_micros, one.p99_micros, one.max_micros), (7, 7, 7));
        assert_eq!(LatencyHistogram::from_samples(vec![]).count, 0);
    }

    #[test]
    fn digest_aggregates_the_stream() {
        let records = vec![
            rec(0, 0, None, CampaignEvent::StageStarted(Stage::Allocated)),
            rec(
                1,
                10,
                None,
                CampaignEvent::PhaseStarted {
                    phase: 1,
                    planned: 3,
                },
            ),
            rec(
                2,
                20,
                None,
                CampaignEvent::ExperimentCompleted {
                    fault: FaultId(1),
                    test: TestId(0),
                    interference: 0,
                    edges: 2,
                },
            ),
            rec(
                3,
                50,
                None,
                CampaignEvent::ExperimentCompleted {
                    fault: FaultId(2),
                    test: TestId(0),
                    interference: 1,
                    edges: 0,
                },
            ),
            rec(
                4,
                55,
                None,
                CampaignEvent::EdgeEmitted {
                    cause: FaultId(1),
                    effect: FaultId(2),
                    kind: EdgeKind::EI,
                    test: TestId(0),
                    phase: 1,
                },
            ),
            rec(
                5,
                60,
                None,
                CampaignEvent::BudgetSpent { spent: 2, total: 8 },
            ),
            rec(
                6,
                70,
                Some(60),
                CampaignEvent::PhaseFinished {
                    phase: 1,
                    executed: 3,
                },
            ),
            rec(
                7,
                80,
                Some(80),
                CampaignEvent::StageFinished(Stage::Allocated),
            ),
        ];
        let d = MetricsDigest::from_records(&records);
        assert_eq!(d.wall_micros, 80);
        assert_eq!(d.workload_summaries, 0);
        assert_eq!(d.workload_first_inflection_ms, None);
        assert_eq!(d.stage_wall_micros, vec![("allocated".to_string(), 80)]);
        assert_eq!(d.phase_wall_micros, vec![(1, 60)]);
        assert_eq!(d.experiments, 2);
        assert_eq!(d.edges, 1);
        assert_eq!((d.budget_spent, d.budget_total), (2, 8));
        assert_eq!(d.experiment_latency.count, 1);
        assert_eq!(d.experiment_latency.p50_micros, 30);
        crate::json::validate(&d.to_json()).expect("digest JSON is valid");
    }

    #[test]
    fn digest_folds_workload_summaries() {
        let summary =
            |seed: u64, p99_us: u64, inflection_ms: Option<u64>| CampaignEvent::WorkloadSummary {
                test: TestId(0),
                seed,
                offered: 1_000,
                completed: 990,
                dropped: 10,
                p50_us: 250,
                p99_us,
                inflection_ms,
            };
        let records = vec![
            rec(0, 10, None, summary(1, 900, None)),
            rec(1, 20, None, summary(2, 52_000, Some(4_750))),
            rec(2, 30, None, summary(3, 48_000, Some(2_500))),
        ];
        let d = MetricsDigest::from_records(&records);
        assert_eq!(d.workload_summaries, 3);
        assert_eq!(d.workload_completed, 2_970);
        assert_eq!(d.workload_dropped, 30);
        assert_eq!(d.workload_peak_p99_us, 52_000);
        assert_eq!(d.workload_inflections, 2);
        assert_eq!(d.workload_first_inflection_ms, Some(2_500));
        let json = d.to_json();
        assert!(json.contains("\"first_inflection_ms\":2500"), "{json}");
        crate::json::validate(&json).expect("digest JSON is valid");
    }
}
