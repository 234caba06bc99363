//! Journal records: the flight recorder's unit of persistence.
//!
//! A [`TelemetryRecord`] is one observed campaign event plus wall-clock
//! attribution: a monotonic sequence number (assigned under the recorder's
//! lock, so record order is total), microseconds since the recorder
//! started, and the emitting thread's name. Span-closing records
//! (stage/phase finished) additionally carry the duration since their
//! matching open.
//!
//! Records persist in two forms, written side by side:
//!
//! * **JSONL** — one JSON object per line, greppable and loadable by any
//!   tooling; see [`TelemetryRecord::to_json_line`].
//! * **binary journal** — a sequence of self-delimiting frames in the
//!   snapshot container discipline (`CSNJ` magic, version, length,
//!   FNV-1a checksum, [`Persist`] payload). Truncation and garbling are
//!   rejected with the same typed errors as snapshots:
//!   [`CsnakeError::SnapshotTorn`] for an interrupted append,
//!   [`CsnakeError::SnapshotCorrupt`] for bad magic/checksum, and
//!   [`CsnakeError::SnapshotVersion`] for a format bump.
//!
//! The event a record wraps is a [`CampaignEvent`] — the same owned value
//! every observer receives, encoded by its own [`Persist`] impl — so the
//! journal stores *summaries* (ids and counts, not full outcomes): it is an
//! observability artifact, never an input to detection, and carries exactly
//! what an operator or a trace viewer needs and nothing the campaign would
//! have to replay.

use csnake_core::error::{CsnakeError, Result};
use csnake_core::{stage_name, CampaignEvent, Persist, Reader, Writer};

/// Leading magic of every binary journal frame.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CSNJ";

/// Binary journal format version written by this build. Version 2 stores
/// the clustering run's full size counters and one `Forwarded` record
/// shape for every relayed worker event; version 1 journals are rejected
/// with [`CsnakeError::SnapshotVersion`].
pub const JOURNAL_VERSION: u32 = 2;

/// Frame header length: magic + version + payload length + checksum.
const FRAME_HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// One journal record: an event plus its timing/attribution envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Monotonic sequence number, assigned under the recorder's lock.
    pub seq: u64,
    /// Microseconds since the recorder started.
    pub micros: u64,
    /// Name of the thread that emitted the event (`?` when unnamed).
    pub thread: String,
    /// Span duration in microseconds, on span-closing records
    /// (stage/phase finished) whose open was observed.
    pub dur_micros: Option<u64>,
    /// The event itself.
    pub kind: CampaignEvent,
}

impl Persist for TelemetryRecord {
    fn put(&self, w: &mut Writer) {
        self.seq.put(w);
        self.micros.put(w);
        self.thread.put(w);
        self.dur_micros.put(w);
        self.kind.put(w);
    }

    fn load(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TelemetryRecord {
            seq: u64::load(r)?,
            micros: u64::load(r)?,
            thread: String::load(r)?,
            dur_micros: Option::load(r)?,
            kind: CampaignEvent::load(r)?,
        })
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number: Rust's shortest round-trip decimal
/// for finite values (`1` for `1.0` — still a valid JSON number), `null`
/// otherwise. The campaign never produces non-finite scores, but a journal
/// must not emit invalid JSON either way.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Appends an event's own JSON keys (each with a leading comma). A
/// forwarded copy is its `worker` followed by the keys of what it carries.
fn push_event_fields(s: &mut String, event: &CampaignEvent) {
    match event {
        CampaignEvent::StageStarted(stage) | CampaignEvent::StageFinished(stage) => {
            s.push_str(&format!(",\"stage\":\"{}\"", stage_name(*stage)));
        }
        CampaignEvent::PhaseStarted { phase, planned } => {
            s.push_str(&format!(",\"phase\":{phase},\"planned\":{planned}"));
        }
        CampaignEvent::PhaseFinished { phase, executed } => {
            s.push_str(&format!(",\"phase\":{phase},\"executed\":{executed}"));
        }
        CampaignEvent::ExperimentCompleted {
            fault,
            test,
            interference,
            edges,
        } => {
            s.push_str(&format!(
                ",\"fault\":{},\"test\":{},\"interference\":{interference},\"edges\":{edges}",
                fault.0, test.0
            ));
        }
        CampaignEvent::EdgeEmitted {
            cause,
            effect,
            kind,
            test,
            phase,
        } => {
            s.push_str(&format!(
                ",\"cause\":{},\"effect\":{},\"kind\":{},\"test\":{},\"phase\":{phase}",
                cause.0, effect.0, *kind as u8, test.0
            ));
        }
        CampaignEvent::CycleFound { edges, score } => {
            s.push_str(&format!(
                ",\"edges\":{edges},\"score\":{}",
                json_f64(*score)
            ));
        }
        CampaignEvent::BudgetSpent { spent, total } => {
            s.push_str(&format!(",\"spent\":{spent},\"total\":{total}"));
        }
        CampaignEvent::TraceCache { hits, misses } => {
            s.push_str(&format!(",\"hits\":{hits},\"misses\":{misses}"));
        }
        // The four counters a reader of the line asks about; the binary
        // record carries all eight.
        CampaignEvent::Clustering(stats) => {
            s.push_str(&format!(
                ",\"vectors\":{},\"groups\":{},\"candidate_edges\":{},\"merges\":{}",
                stats.vectors, stats.groups, stats.candidate_edges, stats.merges
            ));
        }
        CampaignEvent::BatchRetried {
            batch,
            failed_jobs,
            attempt,
            backoff_ms,
        } => {
            s.push_str(&format!(
                ",\"batch\":{batch},\"failed_jobs\":{failed_jobs},\"attempt\":{attempt},\"backoff_ms\":{backoff_ms}"
            ));
        }
        CampaignEvent::BatchFailed {
            batch,
            fault,
            test,
            phase,
            reason,
        } => {
            s.push_str(&format!(
                ",\"batch\":{batch},\"fault\":{},\"test\":{},\"phase\":{phase},\"reason\":\"{}\"",
                fault.0,
                test.0,
                json_escape(reason)
            ));
        }
        CampaignEvent::CheckpointWritten {
            path,
            phase,
            executed_in_phase,
        } => {
            s.push_str(&format!(
                ",\"path\":\"{}\",\"phase\":{phase},\"executed_in_phase\":{executed_in_phase}",
                json_escape(path)
            ));
        }
        CampaignEvent::Degraded { missing } => {
            s.push_str(&format!(",\"missing\":{missing}"));
        }
        CampaignEvent::WorkerConnected { worker } => {
            s.push_str(&format!(",\"worker\":{worker}"));
        }
        CampaignEvent::WorkerLost { worker, reason } => {
            s.push_str(&format!(
                ",\"worker\":{worker},\"reason\":\"{}\"",
                json_escape(reason)
            ));
        }
        CampaignEvent::ShardAssigned {
            shard,
            worker,
            jobs,
        } => {
            s.push_str(&format!(
                ",\"shard\":{shard},\"worker\":{worker},\"jobs\":{jobs}"
            ));
        }
        CampaignEvent::ShardReassigned {
            shard,
            worker,
            attempt,
        } => {
            s.push_str(&format!(
                ",\"shard\":{shard},\"worker\":{worker},\"attempt\":{attempt}"
            ));
        }
        CampaignEvent::Forwarded { worker, event } => {
            s.push_str(&format!(",\"worker\":{worker}"));
            push_event_fields(s, event);
        }
        CampaignEvent::JournalFlushed { path, records } => {
            s.push_str(&format!(
                ",\"path\":\"{}\",\"records\":{records}",
                json_escape(path)
            ));
        }
        CampaignEvent::WorkloadSummary {
            test,
            seed,
            offered,
            completed,
            dropped,
            p50_us,
            p99_us,
            inflection_ms,
        } => {
            s.push_str(&format!(
                ",\"test\":{},\"seed\":{seed},\"offered\":{offered},\"completed\":{completed},\"dropped\":{dropped},\"p50_us\":{p50_us},\"p99_us\":{p99_us}",
                test.0
            ));
            match inflection_ms {
                Some(ms) => s.push_str(&format!(",\"inflection_ms\":{ms}")),
                None => s.push_str(",\"inflection_ms\":null"),
            }
        }
    }
}

impl TelemetryRecord {
    /// Serializes the record as one JSONL line (no trailing newline).
    ///
    /// Every line carries the envelope keys `seq`, `micros`, `thread` and
    /// `event`; `dur_micros` appears on span-closing records; remaining
    /// keys are the event's own fields.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"micros\":{},\"thread\":\"{}\",\"event\":\"{}\"",
            self.seq,
            self.micros,
            json_escape(&self.thread),
            self.kind.name()
        );
        if let Some(d) = self.dur_micros {
            s.push_str(&format!(",\"dur_micros\":{d}"));
        }
        push_event_fields(&mut s, &self.kind);
        s.push('}');
        s
    }

    /// Stable comparison key for the determinism tests: the event's full
    /// content with the timing/attribution envelope stripped. `None` for
    /// operational events (see [`CampaignEvent::is_deterministic`]).
    pub fn deterministic_key(&self) -> Option<String> {
        if !self.kind.is_deterministic() {
            return None;
        }
        // Debug output of the kind is stable and content-complete; floats
        // go through their bit pattern so -0.0 vs 0.0 can't alias.
        Some(match &self.kind {
            CampaignEvent::CycleFound { edges, score } => {
                format!(
                    "CycleFound{{edges:{edges},score_bits:{:#x}}}",
                    score.to_bits()
                )
            }
            other => format!("{other:?}"),
        })
    }
}

/// Seals one record into a self-delimiting binary journal frame.
pub fn seal_record(record: &TelemetryRecord) -> Vec<u8> {
    let mut w = Writer::with_version(JOURNAL_VERSION);
    record.put(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&csnake_core::fnv1a_bytes(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a binary journal: a concatenation of [`seal_record`] frames.
///
/// Rejections are typed like snapshots: a file ending inside a frame
/// header or payload is [`CsnakeError::SnapshotTorn`] (an interrupted
/// append — everything before the tear decoded fine, but the caller must
/// know the journal is incomplete); wrong magic or a checksum mismatch is
/// [`CsnakeError::SnapshotCorrupt`]; an unknown frame version is
/// [`CsnakeError::SnapshotVersion`].
pub fn decode_journal(bytes: &[u8]) -> Result<Vec<TelemetryRecord>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_LEN {
            return Err(CsnakeError::SnapshotTorn {
                expected: (pos + FRAME_HEADER_LEN) as u64,
                found: bytes.len() as u64,
            });
        }
        if rest[..4] != JOURNAL_MAGIC {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "bad journal frame magic at offset {pos}"
            )));
        }
        let version = u32::from_le_bytes(rest[4..8].try_into().expect("sized"));
        if version != JOURNAL_VERSION {
            return Err(CsnakeError::SnapshotVersion {
                found: version,
                supported: JOURNAL_VERSION,
            });
        }
        let len = u64::from_le_bytes(rest[8..16].try_into().expect("sized")) as usize;
        let check = u64::from_le_bytes(rest[16..24].try_into().expect("sized"));
        let body_start = pos + FRAME_HEADER_LEN;
        let body_end = body_start.checked_add(len).filter(|&e| e <= bytes.len());
        let Some(body_end) = body_end else {
            return Err(CsnakeError::SnapshotTorn {
                expected: (body_start + len) as u64,
                found: bytes.len() as u64,
            });
        };
        let payload = &bytes[body_start..body_end];
        if csnake_core::fnv1a_bytes(payload) != check {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "journal frame checksum mismatch at offset {pos}"
            )));
        }
        let mut r = Reader::with_version(payload, version);
        let record = TelemetryRecord::load(&mut r)?;
        if !r.finished() {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "trailing bytes inside journal frame at offset {pos}"
            )));
        }
        out.push(record);
        pos = body_end;
    }
    Ok(out)
}

/// Reads and decodes a binary journal file.
pub fn read_journal(path: &std::path::Path) -> Result<Vec<TelemetryRecord>> {
    let bytes = std::fs::read(path).map_err(|source| CsnakeError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    decode_journal(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few records to frame, tear and garble: a span close, strings that
    /// need escaping, a forwarded copy. (Every kind's exact round trip is
    /// `csnake_core::observer`'s test; every kind's bytes and JSON line are
    /// pinned in `tests/journal_golden.rs`.)
    fn sample_records() -> Vec<TelemetryRecord> {
        let failed = CampaignEvent::BatchFailed {
            batch: 3,
            fault: csnake_inject::FaultId(7),
            test: csnake_inject::TestId(2),
            phase: 1,
            reason: "chaos: \"boom\"\n".into(),
        };
        let kinds = [
            CampaignEvent::StageFinished(csnake_core::Stage::Profiled),
            failed.clone(),
            CampaignEvent::Forwarded {
                worker: 1,
                event: Box::new(failed),
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TelemetryRecord {
                seq: i as u64,
                micros: 10 + 100 * i as u64,
                thread: if i == 0 { "main" } else { "w-1" }.into(),
                dur_micros: (i == 0).then_some(390),
                kind,
            })
            .collect()
    }

    fn sealed(records: &[TelemetryRecord]) -> Vec<u8> {
        records.iter().flat_map(seal_record).collect()
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = sample_records();
        let back = decode_journal(&sealed(&records)).expect("decode");
        assert_eq!(back, records);
    }

    #[test]
    fn truncation_is_torn() {
        let records = sample_records();
        let bytes = sealed(&records);
        // Cut inside the last frame's payload.
        let torn = &bytes[..bytes.len() - 3];
        match decode_journal(torn) {
            Err(CsnakeError::SnapshotTorn { .. }) => {}
            other => panic!("expected SnapshotTorn, got {other:?}"),
        }
        // Cut inside a frame header.
        match decode_journal(&bytes[..bytes.len() - seal_record(records.last().unwrap()).len() + 5])
        {
            Err(CsnakeError::SnapshotTorn { .. }) => {}
            other => panic!("expected SnapshotTorn, got {other:?}"),
        }
    }

    #[test]
    fn garble_is_corrupt() {
        let mut bytes = seal_record(&sample_records()[0]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match decode_journal(&bytes) {
            Err(CsnakeError::SnapshotCorrupt(_)) => {}
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
        let mut bad_magic = seal_record(&sample_records()[0]);
        bad_magic[0] = b'X';
        match decode_journal(&bad_magic) {
            Err(CsnakeError::SnapshotCorrupt(_)) => {}
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn version_bump_is_typed() {
        // A journal from a newer build, and a version-1 journal from an
        // older one: both are refused by version, neither is half-read.
        for version in [JOURNAL_VERSION + 1, 1] {
            let mut bytes = seal_record(&sample_records()[0]);
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            match decode_journal(&bytes) {
                Err(CsnakeError::SnapshotVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, JOURNAL_VERSION);
                }
                other => panic!("expected SnapshotVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_lines_are_valid_and_escaped() {
        let records = sample_records();
        for r in &records {
            let line = r.to_json_line();
            crate::json::validate_record_line(&line).expect("schema-valid line");
            assert!(line.contains(&format!("\"event\":\"{}\"", r.kind.name())));
        }
        let escaped = records[1].to_json_line();
        assert!(escaped.contains("chaos: \\\"boom\\\"\\n"), "{escaped}");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(1.0), "1");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn deterministic_key_filters_operational_events() {
        let det = TelemetryRecord {
            seq: 9,
            micros: 1,
            thread: "t".into(),
            dur_micros: None,
            kind: CampaignEvent::BudgetSpent { spent: 1, total: 4 },
        };
        assert!(det.deterministic_key().is_some());
        let op = TelemetryRecord {
            seq: 10,
            micros: 2,
            thread: "t".into(),
            dur_micros: None,
            kind: CampaignEvent::WorkerLost {
                worker: 0,
                reason: "gone".into(),
            },
        };
        assert!(op.deterministic_key().is_none());
        // The key ignores the envelope: same event, different seq/time.
        let det2 = TelemetryRecord {
            seq: 99,
            micros: 12345,
            thread: "other".into(),
            ..det.clone()
        };
        assert_eq!(det.deterministic_key(), det2.deterministic_key());
    }
}
