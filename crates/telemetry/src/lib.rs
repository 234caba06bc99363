//! Campaign observability: the flight recorder and its exports.
//!
//! CSnake campaigns are long-running, distributed, chaos-exposed jobs;
//! this crate is how you *watch* one. It layers entirely on the
//! [`CampaignObserver`](csnake_core::CampaignObserver) event stream —
//! observers never perturb results, so a campaign with the recorder
//! attached produces a bit-identical report to one without.
//!
//! # Walkthrough
//!
//! **Record.** Attach a [`FlightRecorder`] (alone, or fanned out next to a
//! [`ProgressCollector`](csnake_core::ProgressCollector) via
//! [`FanoutObserver`](csnake_core::FanoutObserver)). Its `on_event` clones
//! each [`CampaignEvent`](csnake_core::CampaignEvent) into a
//! [`TelemetryRecord`] — the event itself, not a second summary of it —
//! under a monotonic sequence number, microsecond timestamp, emitting
//! thread, and span durations for stage/phase open/close pairs. The event's
//! own `Persist` impl is the record's payload, so a reloaded journal holds
//! exactly what observers saw. Records append to a JSONL journal (one
//! object per line, flushed per record — `tail -f` it mid-run) and a
//! binary journal of checksummed `Persist` frames that rejects truncation
//! and garbling with the same typed errors as snapshots
//! ([`read_journal`]).
//!
//! ```no_run
//! use std::sync::Arc;
//! use csnake_telemetry::FlightRecorder;
//!
//! let recorder = Arc::new(
//!     FlightRecorder::builder()
//!         .jsonl("campaign.jsonl")
//!         .binary("campaign.csnj")
//!         .build()?,
//! );
//! // SessionBuilder::new(..).observer(recorder.clone()) ... run ...
//! // or hand it events yourself:
//! use csnake_core::{CampaignEvent, CampaignObserver};
//! recorder.on_event(&CampaignEvent::BudgetSpent { spent: 1, total: 8 });
//! recorder.finish()?;
//! # Ok::<(), csnake_core::CsnakeError>(())
//! ```
//!
//! **Export.** After the campaign, [`write_chrome_trace`] turns the
//! records into a `chrome://tracing` / Perfetto-loadable trace (stage and
//! phase spans as `B`/`E` pairs, everything else as instants whose args
//! are the record's own JSON fields), and [`MetricsDigest::from_records`]
//! computes per-stage wall times, experiment-latency percentiles
//! (p50/p90/p99) and the campaign counter block — the
//! [`ProgressSnapshot`](csnake_core::ProgressSnapshot) that
//! [`ProgressSnapshot::fold`](csnake_core::ProgressSnapshot::fold), the one
//! fold the live collector also runs, reads off the records. `gen_eval` and
//! the campaign benchmark consume this instead of ad-hoc timers.
//!
//! **Watch a fleet.** With the daemon's worker event forwarding, the
//! coordinator's collector sees per-worker attribution as work happens;
//! [`render_fleet`] paints it (budget, ETA, per-worker shard/lease state,
//! loss reasons) and [`LiveProgress`] repaints on a polling thread —
//! `csnake-daemon run --progress` wires exactly that.
//!
//! **Validate.** The vendored `serde` is compile-only, so the [`json`]
//! module carries a minimal first-party JSON parser: the tests use it to
//! schema-check journal lines
//! ([`json::validate_record_line`]), load-check Chrome traces, and assert
//! span completeness ([`unbalanced_spans`]).

#![warn(missing_docs)]

pub mod digest;
pub mod json;
pub mod progress;
pub mod record;
pub mod recorder;
pub mod trace;

pub use digest::{experiment_latency_samples, LatencyHistogram, MetricsDigest};
pub use progress::{render_fleet, LiveProgress};
pub use record::{
    decode_journal, read_journal, seal_record, TelemetryRecord, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use recorder::{FlightRecorder, RecorderBuilder};
pub use trace::{chrome_trace_json, unbalanced_spans, write_chrome_trace};
