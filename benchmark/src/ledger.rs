//! From one traced iteration's spans to its per-layer rows.
//!
//! Serial sections are reported against wall; thread-summed busy time can
//! exceed wall, so the one parallel section (target runs inside a driver
//! batch) is reported against `threads × wall`.

use crate::metrics::{percentile, ratio, secs, Values};
use crate::spans::{count, durations_ns, self_ns_of, top_level_ns, total_ns, total_ns_under, Span};

/// Span name → the per-layer metric that is the sum of its durations.
const STAGE_ROWS: &[(&str, &str)] = &[
    ("session.build", "session.build_s"),
    ("session.profile", "session.profile_s"),
    ("session.allocate", "session.allocate_s"),
    ("session.stitch", "session.stitch_s"),
    ("session.report", "session.report_s"),
    ("session.drop", "session.drop_s"),
    ("scenario.generate", "scenario.generate_s"),
    ("scenario.print", "scenario.print_s"),
    ("scenario.parse", "scenario.parse_s"),
    ("scenario.compile", "scenario.compile_s"),
    ("snapshot.resume", "snapshot.resume_s"),
    ("driver.batch", "driver.batch_wall_s"),
    ("target.run", "target.run_busy_s"),
    ("harness.check", "trace.check_s"),
];

/// One traced iteration's rows: what its spans can answer, on top of the
/// `counters` the workload supplied (events, hooks, replays). `wall_s` is
/// the iteration's on-the-clock wall; `threads` the compute threads a
/// driver batch fans out on.
pub fn rows(spans: &[Span], wall_s: f64, threads: usize, counters: Values) -> Values {
    let mut rows = counters;
    for (span, row) in STAGE_ROWS {
        if count(spans, span) > 0 {
            rows.insert(row, secs(total_ns(spans, span)));
        }
    }
    let runs = durations_ns(spans, "target.run");
    if !runs.is_empty() {
        let micros: Vec<u64> = runs.iter().map(|ns| ns / 1_000).collect();
        rows.insert("target.runs", runs.len() as f64);
        rows.insert("target.run_p50_us", percentile(&micros, 50.0) as f64);
        rows.insert("target.run_p99_us", percentile(&micros, 99.0) as f64);
        // Profile wall with no run active: static analysis, coverage and
        // profile indexing.
        rows.insert(
            "session.profile_self_s",
            secs(self_ns_of(spans, "session.profile")),
        );
    }
    let batches = count(spans, "driver.batch");
    if batches > 0 {
        rows.insert("driver.batches", batches as f64);
        // Allocate-stage wall outside any batch: 3PA planning, IDF
        // vectors, phase-one clustering, causal-database inserts.
        rows.insert("alloc.plan_s", secs(self_ns_of(spans, "session.allocate")));
        // Pool idle + trace indexing + FCA + retry backoff, as a share of
        // the thread-seconds the batches had.
        let busy = total_ns_under(spans, "target.run", "driver.batch") as f64;
        let capacity = threads as f64 * total_ns(spans, "driver.batch") as f64;
        rows.insert("driver.idle_share", 1.0 - ratio(busy, capacity));
    }
    rows.insert("trace.coverage", ratio(secs(top_level_ns(spans)), wall_s));
    if let (Some(events), Some(busy)) = (rows.get("sim.events"), rows.get("target.run_busy_s")) {
        rows.insert("sim.events_per_busy_s", ratio(*events, *busy));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            campaign: 0,
            thread: 0,
        }
    }

    #[test]
    fn rows_follow_the_span_tree() {
        let s = 1_000_000_000;
        let spans = [
            span("session.profile", 0, 2 * s, None),
            span("target.run", 0, s, Some(0)),
            span("session.allocate", 2 * s, 8 * s, None),
            span("driver.batch", 3 * s, 7 * s, Some(2)),
            // Two workers, 3 s busy each, inside a 4 s batch.
            span("target.run", 3 * s, 6 * s, Some(3)),
            span("target.run", 4 * s, 7 * s, Some(3)),
        ];
        let rows = rows(&spans, 10.0, 2, Values::from([("sim.events", 14.0)]));
        assert_eq!(rows["session.profile_s"], 2.0);
        assert_eq!(rows["session.profile_self_s"], 1.0);
        assert_eq!(rows["session.allocate_s"], 6.0);
        assert_eq!(rows["alloc.plan_s"], 2.0);
        assert_eq!(rows["driver.batch_wall_s"], 4.0);
        assert_eq!(rows["target.run_busy_s"], 7.0);
        assert_eq!(rows["driver.idle_share"], 1.0 - 6.0 / 8.0);
        assert_eq!(rows["trace.coverage"], 0.8);
        assert!(!rows.contains_key("session.stitch_s"));
        assert_eq!(rows["sim.events_per_busy_s"], 2.0);
    }
}
