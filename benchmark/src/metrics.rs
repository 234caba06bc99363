//! The metric vocabulary: names, units, directions and regression bounds.
//!
//! These tables are the single source the runner, the `agree` tool and the
//! README cite; a unit test keeps `BENCHMARK.json` identical to them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric. `exact` marks counts that are deterministic for a
/// fixed seed: they must repeat exactly between runs, and a change meant
/// only to go faster must leave them unchanged.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_events_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

/// Reported by every run next to the table above but kept out of
/// `BENCHMARK.json`: its expected value is 0, which a relative bound cannot
/// express; the result line's `attempted` / `failed` carry it instead, and
/// any rise fails the run.
pub const OPS_FAILED_SHARE: &str = "ops_failed_share";

const fn time(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Lower,
        exact: false,
    }
}
const fn micros(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Lower,
        exact: false,
    }
}
const fn share(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Lower,
        exact: false,
    }
}
/// A deterministic count of work done.
const fn exact(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Lower,
        exact: true,
    }
}
/// A count that depends on scheduling (which worker, how many polls).
const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Lower,
        exact: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // sim
    exact("sim.events"),
    PerLayer {
        name: "sim.events_per_busy_s",
        unit: "1/s",
        better: Higher,
        exact: false,
    },
    time("sim.sched_drain_s"),
    // targets / scenario::interp / workload::system
    exact("target.runs"),
    time("target.run_busy_s"),
    micros("target.run_p50_us"),
    micros("target.run_p99_us"),
    exact("target.hooks"),
    // inject
    share("inject.trace_overhead_share"),
    time("inject.trace_index_build_s"),
    exact("inject.trace_index_builds"),
    // fca
    time("fca.profile_index_s"),
    time("fca.analyze_s"),
    exact("fca.analyses"),
    exact("fca.edges"),
    // driver / pool
    exact("driver.batches"),
    exact("driver.experiments"),
    time("driver.batch_wall_s"),
    share("driver.idle_share"),
    // alloc / cluster / analyzer / session
    time("session.build_s"),
    time("session.profile_s"),
    time("session.profile_self_s"),
    time("session.allocate_s"),
    time("alloc.plan_s"),
    exact("alloc.fault_clusters"),
    exact("alloc.peak_vectors"),
    // gen / scenario front end
    exact("scenario.specs"),
    exact("scenario.source_bytes"),
    time("scenario.generate_s"),
    time("scenario.print_s"),
    time("scenario.parse_s"),
    time("scenario.compile_s"),
    // workload
    time("workload.arrival_s"),
    // stitch / beam / report
    exact("stitch.edges"),
    time("stitch.index_build_s"),
    time("stitch.search_s"),
    exact("stitch.cycles"),
    time("stitch.cluster_cycles_s"),
    exact("stitch.clusters"),
    time("session.stitch_s"),
    time("session.report_s"),
    time("session.drop_s"),
    // snapshot
    exact("snapshot.bytes"),
    time("snapshot.encode_s"),
    time("snapshot.decode_s"),
    time("snapshot.resume_s"),
    exact("snapshot.checkpoint_writes"),
    share("snapshot.durable_overhead_share"),
    // daemon / wire
    exact("wire.frames"),
    exact("wire.bytes"),
    PerLayer {
        name: "wire.bytes_per_experiment",
        unit: "B",
        better: Lower,
        exact: false,
    },
    time("wire.seal_s"),
    time("wire.open_s"),
    exact("daemon.shards"),
    micros("daemon.shard_rtt_p50_us"),
    micros("daemon.shard_rtt_p99_us"),
    time("daemon.coord_recv_wait_s"),
    exact("daemon.events_forwarded"),
    share("daemon.fleet_over_single"),
    // telemetry
    count("telemetry.records"),
    count("telemetry.journal_bytes"),
    time("telemetry.encode_s"),
    time("telemetry.digest_s"),
    share("telemetry.overhead_share"),
    // the harness itself
    PerLayer {
        name: "trace.coverage",
        unit: "ratio",
        better: Higher,
        exact: false,
    },
    share("trace.overhead_share"),
    time("trace.check_s"),
];

/// Median of a sample set (mean of the two middle values when even).
/// Empty input is 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of a sample set; empty input is 0.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named values of one traced iteration or one run.
pub type Values = BTreeMap<&'static str, f64>;

/// Per-key median over several iterations' values; a key missing from an
/// iteration counts as absent, not as zero.
pub fn median_values(iterations: &[Values]) -> Values {
    let mut keys: Vec<&'static str> = iterations.iter().flat_map(|v| v.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let samples: Vec<f64> = iterations
                .iter()
                .filter_map(|v| v.get(k).copied())
                .collect();
            (k, median(&samples))
        })
        .collect()
}

/// The result line the driver reads: one JSON object, every digit kept.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[5, 1, 3], 50.0), 3);
        assert_eq!(percentile(&(1..=100).collect::<Vec<u64>>(), 99.0), 99);
    }

    #[test]
    fn median_values_ignore_absent_keys() {
        let a = Values::from([("x", 1.0), ("y", 10.0)]);
        let b = Values::from([("x", 3.0)]);
        let m = median_values(&[a, b]);
        assert_eq!(m["x"], 2.0);
        assert_eq!(m["y"], 10.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above without a JSON parser: every metric must appear as the
    /// exact object the contract asks for, and nothing else may.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = json.matches("\"better\":").count();
        assert_eq!(metric_entries, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workloads::NAMES {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
        assert_eq!(
            json.matches("\"why\":").count(),
            crate::workloads::NAMES.len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &[("wall_s", 1.25, "s"), ("bad", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(result_line(0, 2, &[])
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
    }
}
