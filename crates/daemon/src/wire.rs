//! The coordinator/worker wire protocol.
//!
//! Every message is a [`Persist`]-encoded payload in one
//! [`csnake_core::frame`] container — the layout and the failure taxonomy
//! are drawn there — under its own magic, `CSNW`, so a snapshot can never
//! be mistaken for a frame (or vice versa). Stream adapters translate the
//! container's typed errors into `io::ErrorKind::InvalidData` at the socket
//! boundary.
//!
//! Message flow: the coordinator opens with [`WireMsg::Hello`] (target
//! name, registry fingerprint, full campaign config); the worker re-derives
//! the target locally, answers [`WireMsg::HelloAck`], then serves
//! [`WireMsg::Assign`] / [`WireMsg::Result`] pairs until
//! [`WireMsg::Shutdown`] or EOF. [`WireMsg::Heartbeat`] keeps the worker's
//! lease alive across long experiment batches; supervisor telemetry rides
//! inside `Result` as [`CampaignEvent`]s — the observer vocabulary itself,
//! through its own [`Persist`] impl — so the coordinator can replay it in
//! deterministic shard-merge order. [`WireMsg::Event`] additionally ships a
//! *live* copy of a completed shard's events ahead of its `Result` — the
//! coordinator hands them to its observer's `on_event` wrapped in
//! [`CampaignEvent::Forwarded`] for fleet telemetry, but never merges them
//! into campaign results, so losing or reordering Event frames is harmless.
//! A worker may originate only `ExperimentCompleted`, `BatchRetried`,
//! `BatchFailed` and `TraceCache`; the coordinator drops every other kind.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use csnake_core::error::{CsnakeError, Result};
use csnake_core::frame::{Format, HEADER_LEN};
use csnake_core::{CampaignEvent, DetectConfig, ExperimentOutcome, Persist, Reader, Writer};
use csnake_inject::{FaultId, RunTrace, TestId};

/// Frame magic: `CSNW` ("CSnake Wire"), deliberately one letter away from
/// the snapshot magic so hexdumps distinguish the two at a glance.
pub const WIRE_MAGIC: [u8; 4] = *b"CSNW";

/// Current protocol version. Bumped on any incompatible message change;
/// there is no cross-version negotiation — coordinator and workers are one
/// build, so a mismatch is a deployment error and fails the handshake.
/// Version 2 added the [`WireMsg::Event`] telemetry frame. Version 3 ships
/// the coordinator's profile traces inside [`WireMsg::Hello`] so workers
/// rebuild their driver from the artifact instead of re-profiling the
/// target from scratch. Version 4 carries `Result` / `Event` telemetry as
/// [`CampaignEvent`]s. Version 5 is the first whose `Hello` carries the
/// whole [`DetectConfig`]: up to version 4 the chaos section's `wire_drop`
/// and `wire_stall` were left off the wire.
pub const WIRE_VERSION: u32 = 5;

/// The wire's container format.
const WIRE: Format = Format {
    magic: WIRE_MAGIC,
    version: WIRE_VERSION,
};

/// Upper bound [`read_msg`] accepts for one frame's payload. Far above any
/// real message (the largest is a `Result` for one shard); its purpose is
/// to turn a garbled length field into a typed error instead of an
/// out-of-memory allocation.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// One planned experiment cell: `(fault, test, phase)`.
pub type Job = (FaultId, TestId, u8);

/// Every message of the coordinator/worker protocol.
// `Hello` dwarfs the other variants (it inlines the whole campaign
// config plus the profile artifact), but exactly one is built per
// connection and consumed immediately — boxing would only add
// indirection to the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WireMsg {
    /// Coordinator → worker: campaign preamble. The worker resolves
    /// `target` by name, rebuilds its driver from the shipped `profiles`
    /// artifact (or profiles locally when the artifact is empty —
    /// profiling is deterministic in the config's seeds either way), and
    /// must arrive at `registry_fp` — a mismatched fingerprint means
    /// coordinator and worker see different systems and the handshake
    /// fails.
    Hello {
        /// Target name as accepted by the generator-aware resolver
        /// (builtins, scenario corpus, `gen:<seed>`).
        target: String,
        /// Expected registry fingerprint of the resolved target.
        registry_fp: u64,
        /// Full campaign configuration; the worker only consults
        /// `cfg.driver`, but shipping the whole struct keeps the frame
        /// self-describing.
        cfg: DetectConfig,
        /// Identity assigned to this worker by the coordinator.
        worker: u32,
        /// Lease duration: the worker must be heard from (heartbeat or
        /// result) at least this often or its shards are reassigned.
        lease_ms: u64,
        /// The coordinator's profile traces, keyed by test. Non-empty on
        /// every coordinator Hello: shipping the artifact spares each
        /// worker the full profiling pass (the handshake's one slow step)
        /// and is result-identical because workers would have re-derived
        /// bit-equal traces from the same seeds.
        profiles: BTreeMap<TestId, Vec<RunTrace>>,
    },
    /// Worker → coordinator: handshake completion, fingerprint echoed.
    HelloAck {
        /// The worker's assigned identity.
        worker: u32,
        /// Fingerprint of the registry the worker actually built.
        registry_fp: u64,
    },
    /// Coordinator → worker: one shard of independent experiments.
    Assign {
        /// Global shard ordinal (unique across the whole campaign).
        shard: u32,
        /// The shard's cells, in plan order.
        jobs: Vec<Job>,
    },
    /// Worker → coordinator: a completed shard.
    Result {
        /// Ordinal of the shard these outcomes belong to.
        shard: u32,
        /// One outcome per assigned job, in job order (gap cells hold the
        /// usual empty placeholder).
        outcomes: Vec<ExperimentOutcome>,
        /// Cells abandoned by the worker's retry supervisor.
        gaps: Vec<Job>,
        /// Simulator runs this shard cost on the worker.
        runs: usize,
        /// Supervisor telemetry (`BatchRetried` / `BatchFailed`), replayed
        /// by the coordinator in merge order under batch ordinals it
        /// assigns itself — worker-local ones would interleave
        /// nondeterministically, so the ones in here are ignored.
        events: Vec<CampaignEvent>,
    },
    /// Worker → coordinator: lease keep-alive while computing.
    Heartbeat {
        /// The sending worker.
        worker: u32,
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
    /// Worker → coordinator: live telemetry. A copy of a completed shard's
    /// supervisor events plus per-experiment summaries, sent *before* the
    /// shard's `Result` so a fleet operator sees work as it lands. Any
    /// frame from a worker is also a life sign, so Event refreshes the
    /// sender's lease like a heartbeat. Purely operational: the
    /// coordinator re-emits these as [`CampaignEvent::Forwarded`] and never
    /// folds them into campaign results.
    Event {
        /// The sending worker.
        worker: u32,
        /// The events, in worker-side occurrence order.
        events: Vec<CampaignEvent>,
    },
}

csnake_core::persist_enum!(WireMsg, "wire-message" {
    0 => Hello { target, registry_fp, cfg, worker, lease_ms, profiles },
    1 => HelloAck { worker, registry_fp },
    2 => Assign { shard, jobs },
    3 => Result { shard, outcomes, gaps, runs, events },
    4 => Heartbeat { worker, seq },
    5 => Shutdown {},
    6 => Event { worker, events },
});

/// Encodes one message into a complete frame (header + payload).
pub fn seal_frame(msg: &WireMsg) -> Vec<u8> {
    let mut w = Writer::new();
    msg.put(&mut w);
    WIRE.seal(w.bytes())
}

/// Decodes one complete frame and nothing else: the container verifies
/// magic, version, length and checksum, and the message must consume the
/// payload exactly.
pub fn open_frame(bytes: &[u8]) -> Result<WireMsg> {
    let (payload, rest) = WIRE.open(bytes)?;
    let mut r = Reader::new(payload);
    let msg = WireMsg::load(&mut r)?;
    if !r.finished() || !rest.is_empty() {
        return Err(CsnakeError::SnapshotCorrupt(
            "trailing bytes after wire message".into(),
        ));
    }
    Ok(msg)
}

/// Writes one framed message to a byte stream and flushes it (frames are
/// request/response units; buffering across them would deadlock the
/// protocol).
pub fn write_msg<W: Write>(w: &mut W, msg: &WireMsg) -> io::Result<()> {
    w.write_all(&seal_frame(msg))?;
    w.flush()
}

/// Reads one framed message from a byte stream.
///
/// A clean EOF *between* frames is `Ok(None)` — the peer hung up, which is
/// a normal shutdown path. EOF *inside* a frame, or any decode failure, is
/// an `io::Error` (`UnexpectedEof` / `InvalidData` respectively).
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Option<WireMsg>> {
    let invalid = |e: CsnakeError| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire decode failed: {e}"),
        )
    };
    let mut frame = vec![0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut frame[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("wire frame header cut short at {got} bytes"),
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    // Magic and version are checked, and the length capped, before a byte
    // of payload is allocated or waited for.
    let (len, _) = WIRE.header(&frame).map_err(invalid)?;
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire frame claims {len} payload bytes (cap {MAX_FRAME_PAYLOAD})"),
        ));
    }
    frame.resize(HEADER_LEN + len as usize, 0);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    open_frame(&frame).map(Some).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::{fnv1a_bytes, CausalEdge, CompatState, EdgeKind};
    use proptest::collection;
    use proptest::prelude::*;

    fn edge(cause: u32, effect: u32, kind: EdgeKind, test: u32, phase: u8) -> CausalEdge {
        CausalEdge {
            cause: FaultId(cause),
            effect: FaultId(effect),
            kind,
            test: TestId(test),
            phase,
            cause_state: CompatState::Occurrences(Vec::new()),
            effect_state: CompatState::Occurrences(Vec::new()),
        }
    }

    fn outcome(
        fault: u32,
        test: u32,
        interference: &[u32],
        edges: Vec<CausalEdge>,
    ) -> ExperimentOutcome {
        ExperimentOutcome {
            fault: FaultId(fault),
            test: TestId(test),
            interference: interference.iter().map(|&f| FaultId(f)).collect(),
            edges,
        }
    }

    /// A small but non-trivial profile artifact for handshake frames.
    fn sample_profiles() -> BTreeMap<TestId, Vec<RunTrace>> {
        let mut trace = RunTrace::default();
        trace.coverage.insert(FaultId(1));
        trace.coverage.insert(FaultId(4));
        trace.loop_counts.insert(FaultId(1), 17);
        trace.hook_count = 99;
        trace.events = 1_234;
        let mut profiles = BTreeMap::new();
        profiles.insert(TestId(0), vec![trace.clone(), trace]);
        profiles.insert(TestId(2), vec![RunTrace::default()]);
        profiles
    }

    /// One non-trivial message per protocol variant.
    fn sample_messages() -> Vec<WireMsg> {
        let mut cfg = DetectConfig::default();
        cfg.driver.reps = 3;
        cfg.driver.base_seed = 0xDECAF;
        cfg.driver.chaos.wire_drop = 0.25;
        cfg.driver.chaos.wire_stall = 0.125;
        vec![
            WireMsg::Hello {
                target: "kafka-isr".into(),
                registry_fp: 0xFEED_BEEF_u64,
                cfg,
                worker: 3,
                lease_ms: 1_500,
                profiles: sample_profiles(),
            },
            WireMsg::HelloAck {
                worker: 3,
                registry_fp: 0xFEED_BEEF_u64,
            },
            WireMsg::Assign {
                shard: 17,
                jobs: vec![
                    (FaultId(1), TestId(2), 1),
                    (FaultId(9), TestId(0), 2),
                    (FaultId(4), TestId(7), 3),
                ],
            },
            WireMsg::Result {
                shard: 17,
                outcomes: vec![
                    outcome(1, 2, &[4, 6], vec![edge(1, 4, EdgeKind::ED, 2, 1)]),
                    outcome(9, 0, &[], Vec::new()),
                ],
                gaps: vec![(FaultId(4), TestId(7), 3)],
                runs: 42,
                events: vec![
                    CampaignEvent::BatchRetried {
                        batch: 0,
                        failed_jobs: 2,
                        attempt: 1,
                        backoff_ms: 10,
                    },
                    CampaignEvent::BatchFailed {
                        batch: 0,
                        fault: FaultId(4),
                        test: TestId(7),
                        phase: 3,
                        reason: "job panicked: chaos".into(),
                    },
                ],
            },
            WireMsg::Heartbeat { worker: 3, seq: 99 },
            WireMsg::Shutdown,
            WireMsg::Event {
                worker: 3,
                events: vec![
                    CampaignEvent::ExperimentCompleted {
                        fault: FaultId(1),
                        test: TestId(2),
                        interference: 2,
                        edges: 4,
                    },
                    CampaignEvent::TraceCache {
                        hits: 12,
                        misses: 30,
                    },
                    // Not a worker's to say, but it crosses the wire: what
                    // to drop is the coordinator's call, not the codec's.
                    CampaignEvent::WorkerLost {
                        worker: 3,
                        reason: "rogue".into(),
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_message_type_roundtrips_bit_exactly() {
        for msg in sample_messages() {
            let frame = seal_frame(&msg);
            let back = open_frame(&frame).expect("frame decodes");
            assert_eq!(
                seal_frame(&back),
                frame,
                "re-encoding {msg:?} must reproduce the frame"
            );
        }
    }

    /// `(variant, payload length, FNV-1a of the payload)` of every
    /// `sample_messages()` frame: what a worker of this build must be sent.
    /// A refactor of the codec may not move a row unless the bytes on the
    /// wire were meant to move.
    #[rustfmt::skip]
    const WIRE_GOLDEN: &[(&str, usize, u64)] = &[
        ("hello", 249, 0xd87ba380b2af4cd4),
        ("hello_ack", 13, 0x44246f7708ccaaf1),
        ("assign", 15, 0xb7d08d2b4d32b938),
        ("result", 77, 0x0f6336230449c058),
        ("heartbeat", 13, 0x4d9712545b5096d3),
        ("shutdown", 1, 0xaf72984c8601af60),
        ("event", 31, 0xb851f5bc79608d5f),
    ];

    #[test]
    fn every_message_type_keeps_its_bytes() {
        let names = [
            "hello",
            "hello_ack",
            "assign",
            "result",
            "heartbeat",
            "shutdown",
            "event",
        ];
        let got: Vec<(&str, usize, u64)> = names
            .into_iter()
            .zip(sample_messages())
            .map(|(name, msg)| {
                let frame = seal_frame(&msg);
                let payload = &frame[HEADER_LEN..];
                (name, payload.len(), fnv1a_bytes(payload))
            })
            .collect();
        let table: String = got
            .iter()
            .map(|(n, len, sum)| format!("        ({n:?}, {len}, {sum:#018x}),\n"))
            .collect();
        assert_eq!(
            got, WIRE_GOLDEN,
            "wire bytes moved; computed rows:\n{table}"
        );
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_error() {
        // Mirrors the snapshot torn-file sweep: a frame cut at ANY byte
        // boundary must fail loudly, and cuts the header/length declare
        // (as opposed to garbled content) must be the retryable Torn kind.
        for msg in sample_messages() {
            let frame = seal_frame(&msg);
            for cut in 0..frame.len() {
                match open_frame(&frame[..cut]) {
                    Err(CsnakeError::SnapshotTorn { expected, found }) => {
                        assert_eq!(found, cut as u64);
                        assert!(expected > found, "torn must promise more than present");
                    }
                    Err(other) => panic!("cut at {cut}: expected Torn, got {other:?}"),
                    Ok(m) => panic!("cut at {cut} still decoded {m:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The checksum covers the payload; the header fields are each
        // individually validated. Net effect: no single corrupted byte
        // anywhere in a frame can slip through.
        let frame = seal_frame(&sample_messages().remove(3));
        for i in 0..frame.len() {
            let mut garbled = frame.clone();
            garbled[i] ^= 0x20;
            assert!(
                open_frame(&garbled).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    /// The round-trip tests compare two encodings, so a field dropped by
    /// `put` is dropped on both sides and goes unseen; this one reads the
    /// fields back.
    #[test]
    fn hello_carries_the_whole_detect_config() {
        let hello = sample_messages().remove(0);
        let WireMsg::Hello { cfg: sent, .. } = &hello else {
            panic!("the first sample is the Hello");
        };
        assert_eq!(
            (sent.driver.chaos.wire_drop, sent.driver.chaos.wire_stall),
            (0.25, 0.125)
        );
        let Ok(WireMsg::Hello { cfg: got, .. }) = open_frame(&seal_frame(&hello)) else {
            panic!("a Hello decodes to a Hello");
        };
        assert_eq!(got.driver.chaos, sent.driver.chaos);
        assert_eq!(format!("{got:?}"), format!("{sent:?}"));
    }

    /// A length nothing backs is a torn frame to `open_frame` and over the
    /// cap to `read_msg`, which sizes no buffer by it.
    #[test]
    fn a_hostile_length_is_torn_or_over_the_cap() {
        let frame = seal_frame(&WireMsg::Shutdown);
        for len in [u64::MAX, u64::MAX - 23, 1 << 63, frame.len() as u64 + 1] {
            let mut hostile = frame.clone();
            hostile[8..16].copy_from_slice(&len.to_le_bytes());
            match open_frame(&hostile) {
                Err(CsnakeError::SnapshotTorn { expected, found }) => {
                    assert_eq!(expected, 24u64.saturating_add(len));
                    assert_eq!(found, frame.len() as u64);
                }
                other => panic!("length {len}: expected SnapshotTorn, got {other:?}"),
            }
            let err = read_msg(&mut io::Cursor::new(hostile)).expect_err("no such frame");
            if len > MAX_FRAME_PAYLOAD {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("cap"), "{err}");
            } else {
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            }
        }
    }

    /// A header that is not the wire's is refused on its own: no buffer is
    /// sized by its length field and no payload is waited for.
    #[test]
    fn read_msg_refuses_a_foreign_header_before_reading_a_payload() {
        let mut header = seal_frame(&WireMsg::Shutdown)[..HEADER_LEN].to_vec();
        header[0..4].copy_from_slice(&csnake_core::SNAPSHOT_MAGIC);
        header[8..16].copy_from_slice(&(1u64 << 20).to_le_bytes());
        let err = read_msg(&mut io::Cursor::new(header.clone())).expect_err("not a wire frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");

        header[0..4].copy_from_slice(&WIRE_MAGIC);
        header[4..8].copy_from_slice(&(WIRE_VERSION - 1).to_le_bytes());
        let err = read_msg(&mut io::Cursor::new(header)).expect_err("not this build's wire");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn garbled_checksum_is_corrupt_not_torn() {
        let mut frame = seal_frame(&WireMsg::Shutdown);
        frame[16] ^= 0xFF; // first checksum byte
        match open_frame(&frame) {
            Err(CsnakeError::SnapshotCorrupt(msg)) => {
                assert!(msg.contains("checksum"), "{msg}")
            }
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn version_bump_is_rejected_typed() {
        let mut frame = seal_frame(&WireMsg::Shutdown);
        frame[4..8].copy_from_slice(&(WIRE_VERSION + 1).to_le_bytes());
        match open_frame(&frame) {
            Err(CsnakeError::SnapshotVersion { found, supported }) => {
                assert_eq!(found, WIRE_VERSION + 1);
                assert_eq!(supported, WIRE_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_magic_is_not_wire_magic() {
        // A `.csnake` file fed to the wire decoder must fail on the magic,
        // not limp into payload parsing.
        let mut frame = seal_frame(&WireMsg::Shutdown);
        frame[0..4].copy_from_slice(&csnake_core::SNAPSHOT_MAGIC);
        match open_frame(&frame) {
            Err(CsnakeError::SnapshotCorrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn stream_reads_frames_back_to_back_and_reports_clean_eof() {
        let mut stream = Vec::new();
        let msgs = sample_messages();
        for m in &msgs {
            write_msg(&mut stream, m).expect("vec write");
        }
        let mut cursor = std::io::Cursor::new(stream.clone());
        for m in &msgs {
            let got = read_msg(&mut cursor).expect("read").expect("not eof");
            assert_eq!(seal_frame(&got), seal_frame(m));
        }
        assert!(read_msg(&mut cursor).expect("clean eof").is_none());

        // EOF *inside* a frame is an error, at every cut point.
        for cut in 1..stream.len() {
            let mut torn = std::io::Cursor::new(stream[..cut].to_vec());
            loop {
                match read_msg(&mut torn) {
                    Ok(Some(_)) => continue,
                    Ok(None) => {
                        // Only legal if the cut landed exactly on a frame
                        // boundary.
                        let consumed = torn.position() as usize;
                        assert_eq!(consumed, cut, "cut {cut} swallowed a partial frame");
                        break;
                    }
                    Err(e) => {
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                            ),
                            "cut {cut}: {e:?}"
                        );
                        break;
                    }
                }
            }
        }
    }

    // -- property coverage: randomized payloads for every message type ----

    fn arb_job() -> impl Strategy<Value = Job> {
        (0u32..500, 0u32..100, 0u8..4).prop_map(|(f, t, p)| (FaultId(f), TestId(t), p))
    }

    fn arb_edge() -> impl Strategy<Value = CausalEdge> {
        (0u32..500, 0u32..500, 0u8..6, 0u32..100, 0u8..4).prop_map(|(c, e, k, t, p)| {
            let kind = match k {
                0 => EdgeKind::ED,
                1 => EdgeKind::SD,
                2 => EdgeKind::EI,
                3 => EdgeKind::SI,
                4 => EdgeKind::Icfg,
                _ => EdgeKind::Cfg,
            };
            edge(c, e, kind, t, p)
        })
    }

    fn arb_outcome() -> impl Strategy<Value = ExperimentOutcome> {
        (
            0u32..500,
            0u32..100,
            collection::btree_set(0u32..500, 0..6),
            collection::vec(arb_edge(), 0..4),
        )
            .prop_map(|(f, t, interference, edges)| ExperimentOutcome {
                fault: FaultId(f),
                test: TestId(t),
                interference: interference.into_iter().map(FaultId).collect(),
                edges,
            })
    }

    fn arb_event() -> impl Strategy<Value = CampaignEvent> {
        (0u8..4, 0usize..50, 1u32..5, 0u64..5_000, arb_job()).prop_map(
            |(tag, failed_jobs, attempt, backoff_ms, (f, t, p))| match tag {
                0 => CampaignEvent::BatchRetried {
                    batch: attempt as usize,
                    failed_jobs,
                    attempt,
                    backoff_ms,
                },
                1 => CampaignEvent::BatchFailed {
                    batch: failed_jobs,
                    fault: f,
                    test: t,
                    phase: p,
                    reason: format!("job panicked after {backoff_ms}ms"),
                },
                2 => CampaignEvent::ExperimentCompleted {
                    fault: f,
                    test: t,
                    interference: attempt as usize,
                    edges: failed_jobs,
                },
                _ => CampaignEvent::TraceCache {
                    hits: failed_jobs,
                    misses: attempt as usize,
                },
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn random_payloads_roundtrip_for_every_message_type(
            jobs in collection::vec(arb_job(), 0..12),
            outcomes in collection::vec(arb_outcome(), 0..6),
            events in collection::vec(arb_event(), 0..4),
            shard in 0u32..10_000,
            worker in 0u32..64,
            seq in 0u64..1_000_000,
            runs in 0usize..100_000,
            lease_ms in 1u64..60_000,
        ) {
            let mut cfg = DetectConfig::default();
            cfg.driver.base_seed = seq;
            cfg.driver.chaos.wire_drop = 1.0 / (1 + worker) as f64;
            cfg.driver.chaos.wire_stall = 1.0 / (2 + shard) as f64;
            let gaps = jobs.clone();
            let events2 = events.clone();
            let msgs = [
                WireMsg::Hello {
                    target: format!("gen:{seq}"),
                    registry_fp: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    cfg,
                    worker,
                    lease_ms,
                    profiles: {
                        let mut trace = RunTrace {
                            hook_count: seq,
                            ..Default::default()
                        };
                        for (f, t, _) in &gaps {
                            trace.coverage.insert(*f);
                            trace.loop_counts.insert(*f, t.0 as u64);
                        }
                        let mut profiles = BTreeMap::new();
                        profiles.insert(TestId(worker), vec![trace]);
                        profiles
                    },
                },
                WireMsg::HelloAck { worker, registry_fp: seq },
                WireMsg::Assign { shard, jobs },
                WireMsg::Result { shard, outcomes, gaps, runs, events },
                WireMsg::Heartbeat { worker, seq },
                WireMsg::Shutdown,
                WireMsg::Event { worker, events: events2 },
            ];
            for msg in msgs {
                let frame = seal_frame(&msg);
                let back = open_frame(&frame).expect("random frame decodes");
                prop_assert_eq!(seal_frame(&back), frame);
            }
        }
    }
}
