//! Hostile bytes against the campaign-event decoder.
//!
//! `CampaignEvent`'s codec is generated from the vocabulary's one table, so
//! these inputs reach every row and every field codec: arbitrary byte
//! strings, and every strict prefix and every single-byte change of each
//! event kind's encoding, fed to `CampaignEvent::load` and, inside a journal
//! frame, to `decode_journal`. Each must end in `Err` or in a value that
//! re-encodes to exactly the bytes it consumed; none may panic.

use csnake::core::frame::Format;
use csnake::core::{CampaignEvent, ClusterStats, EdgeKind, Persist, Reader, Stage, Writer};
use csnake::inject::{FaultId, TestId};
use csnake::telemetry::{decode_journal, TelemetryRecord, JOURNAL_MAGIC, JOURNAL_VERSION};
use proptest::prelude::*;

const JOURNAL: Format = Format {
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
};

/// One event of every kind, in persist-tag order (the events the journal
/// golden pins).
fn kinds() -> Vec<CampaignEvent> {
    let (fault, test) = (FaultId(7), TestId(2));
    let forwarded = |event| CampaignEvent::Forwarded {
        worker: 1,
        event: Box::new(event),
    };
    let experiment = CampaignEvent::ExperimentCompleted {
        fault,
        test,
        interference: 3,
        edges: 5,
    };
    let retried = CampaignEvent::BatchRetried {
        batch: 6,
        failed_jobs: 2,
        attempt: 1,
        backoff_ms: 10,
    };
    let failed = |reason: &str| CampaignEvent::BatchFailed {
        batch: 6,
        fault,
        test,
        phase: 3,
        reason: reason.into(),
    };
    let cache = CampaignEvent::TraceCache {
        hits: 40,
        misses: 9,
    };
    vec![
        CampaignEvent::StageStarted(Stage::Profiled),
        CampaignEvent::StageFinished(Stage::Stitched),
        CampaignEvent::PhaseStarted {
            phase: 1,
            planned: 12,
        },
        CampaignEvent::PhaseFinished {
            phase: 2,
            executed: 11,
        },
        experiment.clone(),
        CampaignEvent::EdgeEmitted {
            cause: fault,
            effect: FaultId(9),
            kind: EdgeKind::EI,
            test,
            phase: 1,
        },
        CampaignEvent::CycleFound {
            edges: 4,
            score: 0.25,
        },
        CampaignEvent::BudgetSpent {
            spent: 17,
            total: 64,
        },
        cache.clone(),
        CampaignEvent::Clustering(ClusterStats {
            vectors: 120,
            groups: 80,
            candidate_edges: 300,
            hot_dims: 2,
            hot_pairs: 14,
            merges: 21,
            matrix_bytes: 115_200,
            sparse_graph_bytes: 15_680,
        }),
        retried.clone(),
        failed("chaos: \"boom\"\n"),
        CampaignEvent::CheckpointWritten {
            path: "/tmp/c.csnake".into(),
            phase: 2,
            executed_in_phase: 8,
        },
        CampaignEvent::Degraded { missing: 3 },
        CampaignEvent::WorkerConnected { worker: 1 },
        CampaignEvent::WorkerLost {
            worker: 1,
            reason: "lease expired".into(),
        },
        CampaignEvent::ShardAssigned {
            shard: 14,
            worker: 0,
            jobs: 2,
        },
        CampaignEvent::ShardReassigned {
            shard: 14,
            worker: 1,
            attempt: 1,
        },
        forwarded(experiment),
        forwarded(retried),
        forwarded(failed("job panicked")),
        forwarded(cache),
        CampaignEvent::JournalFlushed {
            path: "/tmp/j.jsonl".into(),
            records: 99,
        },
        CampaignEvent::WorkloadSummary {
            test: TestId(1),
            seed: 42,
            offered: 6_000,
            completed: 5_900,
            dropped: 100,
            p50_us: 300,
            p99_us: 41_000,
            inflection_ms: Some(4_250),
        },
    ]
}

fn encode(value: &impl Persist) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// `CampaignEvent::load` on `bytes` fails, or yields an event whose encoding
/// is exactly the bytes it consumed.
fn event_decode_is_exact(bytes: &[u8]) -> Result<(), String> {
    let Ok(event) = CampaignEvent::load(&mut Reader::new(bytes)) else {
        return Ok(());
    };
    // The decoder reads front to back, so it consumed the re-encoding's
    // length exactly when the re-encoding is a prefix of the input that
    // decodes to its end.
    let again = encode(&event);
    let mut r = Reader::new(&bytes[..again.len().min(bytes.len())]);
    let consumed_exactly = bytes.starts_with(&again)
        && CampaignEvent::load(&mut r).is_ok_and(|back| back == event)
        && r.finished();
    if consumed_exactly {
        Ok(())
    } else {
        Err(format!(
            "{bytes:02x?} decoded to {event:?}, which encodes as {again:02x?}"
        ))
    }
}

/// `decode_journal` on `payload` sealed as one journal frame fails, or
/// yields records whose encoding is exactly that payload.
fn journal_decode_is_exact(payload: &[u8]) -> Result<(), String> {
    let Ok(records) = decode_journal(&JOURNAL.seal(payload)) else {
        return Ok(());
    };
    let again: Vec<u8> = records.iter().flat_map(encode).collect();
    if again == payload {
        Ok(())
    } else {
        Err(format!(
            "{payload:02x?} decoded to {records:?}, which encodes as {again:02x?}"
        ))
    }
}

/// Every strict prefix and every single-byte change of `bytes`.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let changes = (0..bytes.len()).flat_map(move |at| {
        (0..=u8::MAX)
            .filter(move |&b| b != bytes[at])
            .map(move |b| {
                let mut changed = bytes.to_vec();
                changed[at] = b;
                changed
            })
    });
    prefixes.chain(changes)
}

#[test]
fn every_prefix_and_byte_change_of_every_kind_decodes_exactly_or_fails() {
    let kinds = kinds();
    assert_eq!(kinds.len(), 24, "one event per kind");
    for (i, kind) in kinds.into_iter().enumerate() {
        let event = encode(&kind);
        for bytes in mutations(&event) {
            event_decode_is_exact(&bytes).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
        let record = TelemetryRecord {
            seq: i as u64,
            micros: 1_000 + 10 * i as u64,
            thread: "main".into(),
            dur_micros: Some(390),
            kind,
        };
        for payload in mutations(&encode(&record)) {
            journal_decode_is_exact(&payload)
                .unwrap_or_else(|e| panic!("{}: {e}", record.kind.name()));
        }
    }
}

/// A varint with a redundant continuation byte decodes to the value of the
/// shorter form, which encodes differently: the decoder must refuse it.
#[test]
fn an_overlong_varint_does_not_decode() {
    let degraded = [13u8, 0x80 | 3, 0x00];
    assert!(CampaignEvent::load(&mut Reader::new(&degraded)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_exactly_or_fail(
        tag in 0u8..25,
        rest in proptest::collection::vec(0u16..256, 0..96)
    ) {
        // The first byte is usually a live tag, so most cases reach a row.
        let bytes: Vec<u8> = std::iter::once(tag).chain(rest.iter().map(|&b| b as u8)).collect();
        prop_assert_eq!(event_decode_is_exact(&bytes), Ok(()));
        prop_assert_eq!(event_decode_is_exact(&bytes[1..]), Ok(()));
        prop_assert_eq!(journal_decode_is_exact(&bytes), Ok(()));
    }
}
