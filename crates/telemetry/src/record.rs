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
//!   tooling; see [`TelemetryRecord::to_json_line`]. The event's keys and
//!   values come from [`CampaignEvent::for_each_field`], which the
//!   vocabulary's one table generates; this module adds only the JSON
//!   syntax.
//! * **binary journal** — a concatenation of [`csnake_core::frame`]
//!   containers under the `CSNJ` magic, one [`Persist`]-encoded record
//!   each; the layout and the typed errors truncation and garbling earn
//!   are drawn there.
//!
//! The event a record wraps is a [`CampaignEvent`] — the same owned value
//! every observer receives, encoded by its own [`Persist`] impl — so the
//! journal stores *summaries* (ids and counts, not full outcomes): it is an
//! observability artifact, never an input to detection, and carries exactly
//! what an operator or a trace viewer needs and nothing the campaign would
//! have to replay.

use std::fmt::Write as _;

use csnake_core::error::{CsnakeError, Result};
use csnake_core::frame::Format;
use csnake_core::{CampaignEvent, FieldValue, Persist, Reader, Writer};

/// Leading magic of every binary journal frame.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CSNJ";

/// Binary journal format version written by this build. Version 2 stores
/// the clustering run's full size counters and one `Forwarded` record
/// shape for every relayed worker event; version 1 journals are rejected
/// with [`CsnakeError::SnapshotVersion`].
pub const JOURNAL_VERSION: u32 = 2;

/// The journal's container format.
const JOURNAL: Format = Format {
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
};

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

csnake_core::persist_struct!(TelemetryRecord {
    seq,
    micros,
    thread,
    dur_micros,
    kind
});

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

/// Appends one event field as a JSON key and value, after a comma.
fn push_field(s: &mut String, key: &str, value: FieldValue<'_>) {
    // Writing into a `String` cannot fail.
    let _ = match value {
        FieldValue::Uint(n) => write!(s, ",\"{key}\":{n}"),
        FieldValue::Float(x) => write!(s, ",\"{key}\":{}", json_f64(x)),
        FieldValue::Str(text) => write!(s, ",\"{key}\":\"{}\"", json_escape(text)),
        FieldValue::Null => write!(s, ",\"{key}\":null"),
    };
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
        self.kind
            .for_each_field(&mut |key, value| push_field(&mut s, key, value));
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
    let mut w = Writer::new();
    record.put(&mut w);
    JOURNAL.seal(w.bytes())
}

/// Decodes a binary journal: a concatenation of [`seal_record`] frames.
///
/// Rejections are the container's ([`csnake_core::frame`]), placed in the
/// file: a journal ending inside a frame is [`CsnakeError::SnapshotTorn`]
/// with `expected` / `found` as file offsets (an interrupted append —
/// everything before the tear decoded fine, but the caller must know the
/// journal is incomplete), and a corrupt frame names the offset it starts
/// at.
pub fn decode_journal(bytes: &[u8]) -> Result<Vec<TelemetryRecord>> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let pos = (bytes.len() - rest.len()) as u64;
        let (payload, after) = JOURNAL.open(rest).map_err(|e| match e {
            CsnakeError::SnapshotTorn { expected, .. } => CsnakeError::SnapshotTorn {
                expected: pos.saturating_add(expected),
                found: bytes.len() as u64,
            },
            CsnakeError::SnapshotCorrupt(why) => {
                CsnakeError::SnapshotCorrupt(format!("journal frame at offset {pos}: {why}"))
            }
            other => other,
        })?;
        let mut r = Reader::new(payload);
        let record = TelemetryRecord::load(&mut r)?;
        if !r.finished() {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "trailing bytes inside journal frame at offset {pos}"
            )));
        }
        out.push(record);
        rest = after;
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

    /// A length nothing backs is a torn journal, not an overflow, and the
    /// sizes are file offsets whichever frame lies.
    #[test]
    fn a_hostile_length_is_torn_at_any_offset() {
        let records = sample_records();
        let first = seal_record(&records[0]).len();
        let bytes = sealed(&records[..2]);
        for at in [0, first] {
            for len in [u64::MAX, u64::MAX - 23, 1 << 63, bytes.len() as u64 + 1] {
                let mut hostile = bytes.clone();
                hostile[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
                match decode_journal(&hostile) {
                    Err(CsnakeError::SnapshotTorn { expected, found }) => {
                        assert_eq!(expected, (at as u64 + 24).saturating_add(len));
                        assert_eq!(found, bytes.len() as u64);
                    }
                    other => panic!("length {len} at {at}: expected SnapshotTorn, got {other:?}"),
                }
            }
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
