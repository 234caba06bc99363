//! Chrome trace-event export: load a campaign's journal in
//! `chrome://tracing` or Perfetto.
//!
//! The export follows the Trace Event Format's JSON-object flavor:
//! a top-level `{"traceEvents": [...]}` whose entries are `"B"`/`"E"`
//! duration events for stage and phase spans, `"i"` instant events for
//! everything else, and `"M"` thread-name metadata so worker/pool threads
//! are labeled. Timestamps are the journal's microseconds; `pid` is
//! constant 1 (one campaign = one logical process) and `tid` is a dense
//! index over thread names in first-appearance order.

use std::collections::BTreeMap;
use std::path::Path;

use csnake_core::error::Result;

use csnake_core::CampaignEvent;

use crate::record::TelemetryRecord;

/// The trace name of a record's span, and whether the record opens it
/// (`true`) or closes it; `None` for an event that is not a span boundary.
fn span(kind: &CampaignEvent) -> Option<(String, bool)> {
    match kind {
        CampaignEvent::StageStarted(stage) => Some((format!("stage:{stage}"), true)),
        CampaignEvent::StageFinished(stage) => Some((format!("stage:{stage}"), false)),
        CampaignEvent::PhaseStarted { phase, .. } => Some((format!("phase:{phase}"), true)),
        CampaignEvent::PhaseFinished { phase, .. } => Some((format!("phase:{phase}"), false)),
        _ => None,
    }
}

/// Builds the Chrome trace JSON for a record stream.
pub fn chrome_trace_json(records: &[TelemetryRecord]) -> String {
    let mut tids: BTreeMap<&str, usize> = BTreeMap::new();
    let mut events: Vec<String> = Vec::new();

    for r in records {
        let next = tids.len() + 1;
        let tid = *tids.entry(r.thread.as_str()).or_insert(next);
        let common = format!("\"ts\":{},\"pid\":1,\"tid\":{tid}", r.micros);
        match span(&r.kind) {
            Some((name, opens)) => {
                let ph = if opens { "B" } else { "E" };
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"span\",\"ph\":\"{ph}\",{common}}}"
                ));
            }
            None => {
                // Instants carry their full record line as args, so the
                // trace viewer shows every field on click.
                let args = crate::record::json_escape(&format!("{:?}", r.kind));
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",{common},\"args\":{{\"detail\":\"{args}\"}}}}",
                    r.kind.name()
                ));
            }
        }
    }

    // Thread-name metadata, after the fact (order within the array is
    // irrelevant to viewers).
    for (name, tid) in &tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            crate::record::json_escape(name)
        ));
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Writes the Chrome trace atomically (snapshot discipline).
pub fn write_chrome_trace(path: impl AsRef<Path>, records: &[TelemetryRecord]) -> Result<()> {
    csnake_core::write_file_bytes(path.as_ref(), chrome_trace_json(records).as_bytes())
}

/// Checks span completeness: every `*_started` record has a matching
/// `*_finished` later in the stream (per span name, nesting allowed).
/// Returns the names of unmatched opens and orphan closes; empty means
/// every span pair is complete.
pub fn unbalanced_spans(records: &[TelemetryRecord]) -> Vec<String> {
    let mut open: BTreeMap<String, usize> = BTreeMap::new();
    let mut bad = Vec::new();
    for r in records {
        match span(&r.kind) {
            Some((name, true)) => *open.entry(name).or_insert(0) += 1,
            Some((name, false)) => match open.get_mut(&name) {
                Some(n) if *n > 0 => *n -= 1,
                _ => bad.push(format!("orphan close: {name}")),
            },
            None => {}
        }
    }
    for (name, n) in open {
        if n > 0 {
            bad.push(format!("unclosed span: {name}"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::Stage;
    use csnake_inject::{FaultId, TestId};

    fn rec(seq: u64, micros: u64, thread: &str, kind: CampaignEvent) -> TelemetryRecord {
        TelemetryRecord {
            seq,
            micros,
            thread: thread.into(),
            dur_micros: None,
            kind,
        }
    }

    fn spanned_stream() -> Vec<TelemetryRecord> {
        vec![
            rec(0, 0, "main", CampaignEvent::StageStarted(Stage::Allocated)),
            rec(
                1,
                5,
                "main",
                CampaignEvent::PhaseStarted {
                    phase: 1,
                    planned: 2,
                },
            ),
            rec(
                2,
                9,
                "pool-0",
                CampaignEvent::ExperimentCompleted {
                    fault: FaultId(3),
                    test: TestId(1),
                    interference: 0,
                    edges: 1,
                },
            ),
            rec(
                3,
                12,
                "main",
                CampaignEvent::PhaseFinished {
                    phase: 1,
                    executed: 2,
                },
            ),
            rec(
                4,
                20,
                "main",
                CampaignEvent::StageFinished(Stage::Allocated),
            ),
        ]
    }

    #[test]
    fn trace_is_valid_json_with_paired_spans() {
        let records = spanned_stream();
        let json = chrome_trace_json(&records);
        let v = crate::json::parse(&json).expect("valid trace JSON");
        let events = v
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .expect("traceEvents array");
        // 5 records + 2 thread_name metadata entries.
        assert_eq!(events.len(), 7);
        let mut b = 0;
        let mut e = 0;
        for ev in events {
            match ev.get("ph").and_then(crate::json::Value::as_str) {
                Some("B") => b += 1,
                Some("E") => e += 1,
                _ => {}
            }
        }
        assert_eq!((b, e), (2, 2));
        assert!(unbalanced_spans(&records).is_empty());
    }

    #[test]
    fn unbalanced_spans_are_reported() {
        let mut records = spanned_stream();
        records.pop(); // drop the stage close
        let bad = unbalanced_spans(&records);
        assert_eq!(bad, vec!["unclosed span: stage:allocated".to_string()]);
        let orphan = vec![rec(
            0,
            0,
            "main",
            CampaignEvent::PhaseFinished {
                phase: 2,
                executed: 0,
            },
        )];
        assert_eq!(
            unbalanced_spans(&orphan),
            vec!["orphan close: phase:2".to_string()]
        );
    }
}
