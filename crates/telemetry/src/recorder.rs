//! The flight recorder: a [`CampaignObserver`] that journals every event.
//!
//! [`FlightRecorder`] clones each [`CampaignEvent`] it is handed, assigns
//! it a monotonic sequence number and a microsecond timestamp, tracks
//! stage/phase spans (open at `*Started`, close at `*Finished`, duration on
//! the closing record), and appends the
//! resulting [`TelemetryRecord`]s to its journals: a JSONL file (one
//! object per line, flushed per record so a `tail -f` is always current)
//! and a binary journal of checksummed [`Persist`](csnake_core::Persist)
//! frames. Records are also kept in memory for end-of-run exports
//! ([`FlightRecorder::digest`], [`crate::trace::write_chrome_trace`]).
//!
//! Observers must never perturb campaign results, so the recorder's
//! observer methods cannot return errors. I/O failures are latched
//! instead: the first one is remembered, journaling stops, and
//! [`FlightRecorder::finish`] surfaces the error once the campaign is
//! done. In-memory recording continues regardless — a full disk costs the
//! journal, never the campaign.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use csnake_core::error::{CsnakeError, Result};
use csnake_core::{CampaignEvent, CampaignObserver};

use crate::digest::MetricsDigest;
use crate::record::{seal_record, TelemetryRecord};
use crate::trace::span;

/// One journal output stream.
struct JournalFile {
    path: PathBuf,
    file: BufWriter<File>,
    /// Records appended since the last durable flush.
    unflushed: usize,
}

impl JournalFile {
    /// Appends one record's bytes and flushes them to the file (not fsync):
    /// a live `tail -f` sees every event; durability comes from
    /// flush()/finish(). An error names this journal's path.
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file
            .write_all(bytes)
            .and_then(|()| self.file.flush())
            .map_err(|source| CsnakeError::Io {
                path: self.path.clone(),
                source,
            })?;
        self.unflushed += 1;
        Ok(())
    }
}

struct Inner {
    seq: u64,
    records: Vec<TelemetryRecord>,
    jsonl: Option<JournalFile>,
    binary: Option<JournalFile>,
    /// Open spans by trace name ([`span`]), with their opening timestamp.
    open_spans: BTreeMap<String, u64>,
    /// First journaling error, until a flush reports it. Setting it closes
    /// both journals, so file output stops for good.
    io_error: Option<CsnakeError>,
}

/// Configures and opens a [`FlightRecorder`].
#[derive(Default)]
pub struct RecorderBuilder {
    jsonl: Option<PathBuf>,
    binary: Option<PathBuf>,
    notify: Option<Arc<dyn CampaignObserver>>,
}

impl RecorderBuilder {
    /// Journal records as JSONL to `path` (truncating an existing file).
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl = Some(path.into());
        self
    }

    /// Journal records as binary frames to `path` (truncating an existing
    /// file).
    pub fn binary(mut self, path: impl Into<PathBuf>) -> Self {
        self.binary = Some(path.into());
        self
    }

    /// Deliver [`CampaignEvent::JournalFlushed`] notifications for this
    /// recorder's durable flushes to `observer` (typically the campaign's
    /// [`ProgressCollector`](csnake_core::ProgressCollector)).
    pub fn notify(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.notify = Some(observer);
        self
    }

    /// Opens the journal files and starts the clock.
    pub fn build(self) -> Result<FlightRecorder> {
        let open = |path: PathBuf| -> Result<JournalFile> {
            let file = File::create(&path).map_err(|source| CsnakeError::Io {
                path: path.clone(),
                source,
            })?;
            Ok(JournalFile {
                path,
                file: BufWriter::new(file),
                unflushed: 0,
            })
        };
        Ok(FlightRecorder {
            started: Instant::now(),
            notify: self.notify,
            inner: Mutex::new(Inner {
                seq: 0,
                records: Vec::new(),
                jsonl: self.jsonl.map(open).transpose()?,
                binary: self.binary.map(open).transpose()?,
                open_spans: BTreeMap::new(),
                io_error: None,
            }),
        })
    }
}

/// The flight recorder observer. See the [module docs](self).
pub struct FlightRecorder {
    started: Instant,
    notify: Option<Arc<dyn CampaignObserver>>,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// An in-memory recorder (no journal files); records are available via
    /// [`records`](Self::records) and the export helpers.
    pub fn new() -> Self {
        RecorderBuilder::default()
            .build()
            .expect("in-memory recorder cannot fail to open")
    }

    /// A builder for a recorder with journal files and notifications.
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder::default()
    }

    /// Microseconds since the recorder started.
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// A snapshot of every record observed so far.
    pub fn records(&self) -> Vec<TelemetryRecord> {
        self.inner
            .lock()
            .expect("recorder poisoned")
            .records
            .clone()
    }

    /// The metrics digest over everything recorded so far.
    pub fn digest(&self) -> MetricsDigest {
        MetricsDigest::from_records(&self.records())
    }

    /// Appends one event: assigns seq/timestamp/thread, resolves span
    /// durations, journals to the open files.
    fn record(&self, kind: CampaignEvent) {
        let micros = self.elapsed_micros();
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let inner = &mut *inner;

        // Span bookkeeping, paired by the Chrome trace's own rule: opens
        // remember their timestamp, closes turn it into a duration. An
        // unmatched close (possible only if recording started mid-campaign)
        // simply has no duration.
        let dur_micros = match span(&kind) {
            Some((name, true)) => {
                inner.open_spans.insert(name, micros);
                None
            }
            Some((name, false)) => inner
                .open_spans
                .remove(&name)
                .map(|t0| micros.saturating_sub(t0)),
            None => None,
        };

        let record = TelemetryRecord {
            seq: inner.seq,
            micros,
            thread,
            dur_micros,
            kind,
        };
        inner.seq += 1;

        let written = match inner.jsonl.as_mut() {
            Some(j) => j.append((record.to_json_line() + "\n").as_bytes()),
            None => Ok(()),
        }
        .and_then(|()| match inner.binary.as_mut() {
            Some(b) => b.append(&seal_record(&record)),
            None => Ok(()),
        });
        if let Err(e) = written {
            // Both journals close, so neither goes on past the failed record
            // and reporting the error cannot restart them.
            inner.jsonl = None;
            inner.binary = None;
            inner.io_error = Some(e);
        }

        inner.records.push(record);
    }

    /// Forces both journals to durable storage (`fsync`), emitting a
    /// [`CampaignEvent::JournalFlushed`] notification per journal that
    /// had unflushed records. Returns the first latched I/O error, if any.
    pub fn flush(&self) -> Result<()> {
        let mut flushed: Vec<(PathBuf, usize)> = Vec::new();
        {
            let mut inner = self.inner.lock().expect("recorder poisoned");
            if let Some(err) = inner.io_error.take() {
                return Err(err);
            }
            let total = inner.records.len();
            let inner = &mut *inner;
            for journal in [inner.jsonl.as_mut(), inner.binary.as_mut()]
                .into_iter()
                .flatten()
            {
                if journal.unflushed == 0 {
                    continue;
                }
                let sync = journal
                    .file
                    .flush()
                    .and_then(|()| journal.file.get_ref().sync_all());
                if let Err(source) = sync {
                    return Err(CsnakeError::Io {
                        path: journal.path.clone(),
                        source,
                    });
                }
                journal.unflushed = 0;
                flushed.push((journal.path.clone(), total));
            }
        }
        // Notify outside the lock: the sink may be a fanout that includes
        // other recorders.
        if let Some(notify) = &self.notify {
            for (path, records) in &flushed {
                notify.on_event(&CampaignEvent::JournalFlushed {
                    path: path.display().to_string(),
                    records: *records,
                });
            }
        }
        Ok(())
    }

    /// Finishes recording: durable-flushes the journals and surfaces any
    /// latched I/O error. Call after the campaign's report stage; the
    /// recorder stays usable (exports, late events) afterwards.
    pub fn finish(&self) -> Result<()> {
        self.flush()
    }

    /// Stage/phase spans currently open (for tests and liveness probes).
    pub fn open_span_count(&self) -> usize {
        self.inner
            .lock()
            .expect("recorder poisoned")
            .open_spans
            .len()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl CampaignObserver for FlightRecorder {
    fn on_event(&self, event: &CampaignEvent) {
        self.record(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::Stage;

    fn started(stage: Stage) -> CampaignEvent {
        CampaignEvent::StageStarted(stage)
    }

    fn finished(stage: Stage) -> CampaignEvent {
        CampaignEvent::StageFinished(stage)
    }

    const BUDGET: CampaignEvent = CampaignEvent::BudgetSpent { spent: 2, total: 8 };

    #[test]
    fn spans_pair_and_carry_durations() {
        let rec = FlightRecorder::new();
        rec.on_event(&started(Stage::Profiled));
        rec.on_event(&CampaignEvent::PhaseStarted {
            phase: 1,
            planned: 10,
        });
        rec.on_event(&CampaignEvent::PhaseFinished {
            phase: 1,
            executed: 10,
        });
        rec.on_event(&finished(Stage::Profiled));
        let records = rec.records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[3].seq, 3);
        assert!(records[2].dur_micros.is_some(), "phase close has duration");
        assert!(records[3].dur_micros.is_some(), "stage close has duration");
        assert_eq!(rec.open_span_count(), 0);
        // Timestamps are monotone with sequence numbers.
        for pair in records.windows(2) {
            assert!(pair[0].micros <= pair[1].micros);
        }
    }

    #[test]
    fn journals_reach_disk_and_roundtrip() {
        let dir = std::env::temp_dir().join(format!("csnake-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let jsonl = dir.join("journal.jsonl");
        let bin = dir.join("journal.csnj");
        let rec = FlightRecorder::builder()
            .jsonl(&jsonl)
            .binary(&bin)
            .build()
            .expect("open journals");
        rec.on_event(&started(Stage::Allocated));
        rec.on_event(&BUDGET);
        rec.on_event(&CampaignEvent::WorkerLost {
            worker: 1,
            reason: "lease expired".into(),
        });
        rec.on_event(&finished(Stage::Allocated));
        rec.finish().expect("flush");

        let text = std::fs::read_to_string(&jsonl).expect("read jsonl");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            crate::json::validate_record_line(line).expect("schema-valid line");
        }
        let records = crate::record::read_journal(&bin).expect("decode binary journal");
        assert_eq!(records, rec.records());

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A recorder journaling JSONL to a fresh file under `dir` and binary
    /// frames to `/dev/full`, where every write fails with `ENOSPC`.
    #[cfg(target_os = "linux")]
    fn beside_a_full_binary_journal(dir: &std::path::Path) -> FlightRecorder {
        std::fs::create_dir_all(dir).expect("tmp dir");
        FlightRecorder::builder()
            .jsonl(dir.join("j.jsonl"))
            .binary("/dev/full")
            .build()
            .expect("open")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_binary_write_names_the_binary_journal() {
        let dir =
            std::env::temp_dir().join(format!("csnake-telemetry-full-{}", std::process::id()));
        let rec = beside_a_full_binary_journal(&dir);
        rec.on_event(&BUDGET);
        match rec.finish() {
            Err(CsnakeError::Io { path, .. }) => assert_eq!(path, PathBuf::from("/dev/full")),
            other => panic!("expected an Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn journaling_stays_stopped_after_a_failed_write() {
        let dir =
            std::env::temp_dir().join(format!("csnake-telemetry-stop-{}", std::process::id()));
        let rec = beside_a_full_binary_journal(&dir);
        rec.on_event(&BUDGET); // the binary write fails here
        rec.on_event(&BUDGET);
        assert!(rec.flush().is_err(), "the latched error is reported");
        rec.on_event(&BUDGET);

        let text = std::fs::read_to_string(dir.join("j.jsonl")).expect("read jsonl");
        let seqs: Vec<f64> = text
            .lines()
            .map(|line| {
                let record = crate::json::validate_record_line(line).expect("schema-valid line");
                record.get("seq").and_then(|v| v.as_num()).expect("seq")
            })
            .collect();
        let contiguous: Vec<f64> = (0..seqs.len()).map(|i| i as f64).collect();
        assert_eq!(seqs, contiguous, "the JSONL journal skips records");
        assert_eq!(rec.records().len(), 3, "in-memory recording continues");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_notifies_the_collector() {
        let progress = Arc::new(csnake_core::ProgressCollector::new());
        let dir = std::env::temp_dir().join(format!("csnake-telemetry-n-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let rec = FlightRecorder::builder()
            .jsonl(dir.join("j.jsonl"))
            .notify(progress.clone())
            .build()
            .expect("open");
        rec.on_event(&BUDGET);
        rec.flush().expect("flush");
        assert_eq!(progress.snapshot().journal_flushes, 1);
        // Nothing new: no duplicate notification.
        rec.flush().expect("flush");
        assert_eq!(progress.snapshot().journal_flushes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
