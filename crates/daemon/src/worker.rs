//! The worker side of the daemon: a process (or thread) that owns a
//! locally re-derived copy of the target and serves experiment shards.
//!
//! A worker is stateless between shards. It receives the campaign
//! preamble once ([`WireMsg::Hello`]), resolves the target by name,
//! profiles it with the shipped config — profiling is deterministic in the
//! config's seeds, so every worker and the coordinator agree on coverage
//! and plans — and proves that agreement by echoing the registry
//! fingerprint. After the handshake it loops: run a shard's jobs on the
//! in-process driver (retry supervision included), ship the outcomes,
//! gaps, run count and buffered supervisor events back in one
//! [`WireMsg::Result`].
//!
//! A heartbeat thread keeps the coordinator's lease alive while a long
//! batch computes. Between beats it waits on a stop channel whose sender
//! the serving loop owns, so the moment the loop returns — `Shutdown`,
//! hangup or error — the wait ends and the worker exits: reaping a worker
//! costs a thread wake-up, not a sleep slice, whatever the lease. A worker
//! that dies (or stalls with heartbeats lost) simply stops answering, and
//! the coordinator reassigns its shard. The worker never checkpoints —
//! shards are small and idempotent, so the coordinator-side checkpoint
//! plus reassignment is the whole recovery story.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use csnake_core::alloc::ExperimentEngine;
use csnake_core::error::{CsnakeError, Result};
use csnake_core::{registry_fingerprint, CampaignEvent, CampaignObserver, Driver};

use crate::transport::Endpoint;
use crate::wire::WireMsg;

/// Fault-injection knobs for recovery tests; the default is a well-behaved
/// worker.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Die mid-assignment: after completing this many shards, the next
    /// [`WireMsg::Assign`] is accepted and silently dropped — the worker
    /// exits (or hangs, see `fail_hang_ms`) without ever answering, which
    /// is exactly what a crashed worker looks like to the coordinator.
    pub fail_after: Option<usize>,
    /// When dying, keep the connection open for this long before exiting.
    /// `0` drops the connection immediately (crash → EOF → instant
    /// reassignment); a positive value with `heartbeats: false` models a
    /// silent stall, which only the lease clock can catch.
    pub fail_hang_ms: u64,
    /// Send lease heartbeats (on by default; disabled to exercise lease
    /// expiry in tests).
    pub heartbeats: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            fail_after: None,
            fail_hang_ms: 0,
            heartbeats: true,
        }
    }
}

/// Maps a transport error into the workspace error type.
fn wire_io(source: io::Error) -> CsnakeError {
    CsnakeError::Io {
        path: PathBuf::from("<wire>"),
        source,
    }
}

/// Observer buffering the driver's supervisor events for the current
/// shard; drained into each [`WireMsg::Result`]. The batch ordinals in them
/// are this worker's own — the coordinator re-numbers events in shard merge
/// order so the replayed stream is deterministic.
#[derive(Default)]
struct EventBuffer {
    events: Mutex<Vec<CampaignEvent>>,
}

impl EventBuffer {
    fn drain(&self) -> Vec<CampaignEvent> {
        std::mem::take(&mut self.events.lock().expect("event buffer poisoned"))
    }

    /// A copy of the buffered events *without* draining them: the live
    /// [`WireMsg::Event`] frame ships a copy, the authoritative drain
    /// still happens into the shard's [`WireMsg::Result`].
    fn peek(&self) -> Vec<CampaignEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }
}

impl CampaignObserver for EventBuffer {
    fn on_event(&self, event: &CampaignEvent) {
        if let CampaignEvent::BatchRetried { .. } | CampaignEvent::BatchFailed { .. } = event {
            self.events
                .lock()
                .expect("event buffer poisoned")
                .push(event.clone());
        }
    }
}

/// Serves one coordinator connection to completion. Returns when the
/// coordinator shuts the worker down, hangs up, or an injected failure
/// (`opts.fail_after`) fires.
pub fn run_worker(endpoint: Endpoint, opts: WorkerOptions) -> Result<()> {
    let Endpoint { tx, mut rx } = endpoint;
    let (target_name, want_fp, cfg, worker_id, lease_ms, profiles) =
        match rx.recv().map_err(wire_io)? {
            Some(WireMsg::Hello {
                target,
                registry_fp,
                cfg,
                worker,
                lease_ms,
                profiles,
            }) => (target, registry_fp, cfg, worker, lease_ms, profiles),
            Some(other) => {
                return Err(CsnakeError::SnapshotCorrupt(format!(
                    "worker expected Hello, got {other:?}"
                )))
            }
            None => return Ok(()), // coordinator gone before the handshake
        };

    let system = crate::targets::resolve(&target_name)?;
    let fp = registry_fingerprint(&system.registry());
    if fp != want_fp {
        return Err(CsnakeError::RegistryMismatch {
            snapshot: want_fp,
            actual: fp,
        });
    }

    // The Hello ships the coordinator's profile traces, so the worker
    // rebuilds its driver from the artifact instead of paying the full
    // profiling pass. Re-profiling locally (empty artifact) produces
    // bit-identical traces because run seeds are pure functions of
    // (test, rep) — the artifact changes startup cost, never results.
    let mut driver = if profiles.is_empty() {
        Driver::new(system.as_ref(), cfg.driver.clone())
    } else {
        Driver::from_profiles(system.as_ref(), cfg.driver.clone(), profiles, 0)
    };
    let events = Arc::new(EventBuffer::default());
    driver.set_observer(events.clone());
    // Profile runs stay out of shard deltas: the coordinator accounts its
    // own profiling, and worker profiling is a re-derivation, not campaign
    // work.
    let mut runs_sent = driver.runs_executed;

    let tx = Arc::new(Mutex::new(tx));
    tx.lock()
        .expect("wire tx poisoned")
        .send(&WireMsg::HelloAck {
            worker: worker_id,
            registry_fp: fp,
        })
        .map_err(wire_io)?;

    // Never sent on: dropping `stop_tx` when the serving loop returns is
    // what ends the heartbeat thread's wait, at once.
    let (stop_tx, stop_rx) = channel::<()>();
    std::thread::scope(|scope| {
        if opts.heartbeats && lease_ms > 0 {
            let hb_tx = Arc::clone(&tx);
            scope.spawn(move || {
                let tick = Duration::from_millis((lease_ms / 3).max(1));
                let mut seq = 0u64;
                while stop_rx.recv_timeout(tick) == Err(RecvTimeoutError::Timeout) {
                    seq += 1;
                    let beat = WireMsg::Heartbeat {
                        worker: worker_id,
                        seq,
                    };
                    if hb_tx.lock().expect("wire tx poisoned").send(&beat).is_err() {
                        return;
                    }
                }
            });
        }

        let served = (|| -> Result<()> {
            let mut completed = 0usize;
            loop {
                match rx.recv().map_err(wire_io)? {
                    Some(WireMsg::Assign { shard, jobs }) => {
                        if opts.fail_after.is_some_and(|n| completed >= n) {
                            // Injected crash: the shard is ours on the
                            // coordinator's books, and we vanish.
                            std::thread::sleep(Duration::from_millis(opts.fail_hang_ms));
                            return Ok(());
                        }
                        let outcomes = driver.run_experiments(&jobs);
                        // Live telemetry rides ahead of the Result: a copy
                        // of the shard's supervisor events, one summary per
                        // completed experiment, and the cumulative cache
                        // counters. The coordinator forwards these with
                        // worker attribution and never merges them, so a
                        // send failure here is the reader's problem to
                        // notice — the authoritative Result follows on the
                        // same stream.
                        let mut live = events.peek();
                        live.extend(outcomes.iter().map(CampaignEvent::experiment_completed));
                        let (hits, misses) = driver.trace_cache_stats();
                        live.push(CampaignEvent::TraceCache { hits, misses });
                        tx.lock()
                            .expect("wire tx poisoned")
                            .send(&WireMsg::Event {
                                worker: worker_id,
                                events: live,
                            })
                            .map_err(wire_io)?;
                        let gaps = driver.take_gaps();
                        let runs = driver.runs_executed - runs_sent;
                        runs_sent = driver.runs_executed;
                        let reply = WireMsg::Result {
                            shard,
                            outcomes,
                            gaps,
                            runs,
                            events: events.drain(),
                        };
                        tx.lock()
                            .expect("wire tx poisoned")
                            .send(&reply)
                            .map_err(wire_io)?;
                        completed += 1;
                    }
                    Some(WireMsg::Shutdown) | None => return Ok(()),
                    Some(_) => {} // stray frames (e.g. echoed heartbeats) are ignored
                }
            }
        })();
        drop(stop_tx);
        served
    })
}
