//! The coordinator side of the daemon: an [`ExperimentEngine`] that owns
//! no simulator and instead shards every 3PA batch across a fleet of
//! workers.
//!
//! # Why this is safe
//!
//! 3PA plans each phase's full `(fault, test, phase)` batch before
//! executing any of it — picks never depend on intra-phase outcomes — and
//! worker experiment runs are deterministic in `(test, plan, seed)` with
//! seeds that are pure functions of the plan cell. So outcomes can be
//! computed anywhere, in any order, by any worker, as long as they are
//! *merged back in batch order*. That merge is the only ordering this
//! module enforces; everything else (which worker gets which shard, when
//! results arrive, who dies) is free to vary without perturbing results.
//!
//! # The cut
//!
//! A batch is cut into shards of [`DaemonConfig::shard_jobs`] jobs by
//! position, and by nothing else: not the worker count, not a measured
//! round trip, not who is idle. Shard ordinals key the chaos sites and
//! name checkpoint islands, so a cut that depended on the fleet would
//! make neither reproducible across fleets.
//!
//! # Leases and reassignment
//!
//! Every assignment carries a lease: a worker must be heard from
//! (heartbeat or result) within `lease_ms` or it is declared lost and its
//! shard re-queued. The coordinator has no clock tick: it blocks until a
//! worker speaks or the earliest live lease deadline passes, so an expiry
//! is noticed when it happens and a waiting coordinator does not wake in
//! between. A hangup (EOF on the connection) short-circuits the
//! lease. A shard that cannot be delivered after
//! [`DaemonConfig::max_assign_attempts`] tries degrades deterministically:
//! its cells become gap placeholders — exactly what the in-process retry
//! supervisor does for a job that exhausts its budget — so the campaign
//! completes with those cells enumerated in the report's missing set.
//!
//! # Wire chaos
//!
//! The self-chaos harness gates the coordinator's *send* path:
//! [`ChaosInjector::wire_drop_hook`] models a lost assignment frame
//! (burning one delivery attempt) and [`ChaosInjector::wire_stall_hook`]
//! models link latency. Both key on the global shard ordinal, which is
//! independent of the worker count — so a given chaos seed degrades the
//! same cells whether the fleet has one worker or eight.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csnake_core::alloc::{ExperimentEngine, ShardSpan};
use csnake_core::error::{CsnakeError, Result};
use csnake_core::{
    registry_fingerprint, CampaignEvent, CampaignObserver, ChaosInjector, DetectConfig, Driver,
    ExperimentOutcome, NoopObserver, TargetSystem,
};
use csnake_inject::{FaultId, TestId};

use crate::transport::{Endpoint, WireRx, WireTx};
use crate::wire::{Job, WireMsg};

/// Coordinator knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Jobs per shard. A batch is cut into `shard_jobs`-sized pieces by
    /// position alone — never by worker count, round-trip time or any
    /// other measurement — so shard ordinals (the chaos key-space) and
    /// checkpoint islands are the same for every fleet. A 3PA batch on
    /// the measured campaigns holds 3–12 jobs and framing costs tens of
    /// microseconds against a millisecond or more per job, so the default
    /// is the smallest cut two workers can share. The value never affects
    /// results, but keep it fixed when comparing chaos runs.
    pub shard_jobs: usize,
    /// Lease duration handed to workers; a busy worker silent for longer
    /// is declared lost and its shard reassigned.
    pub lease_ms: u64,
    /// Delivery attempts per shard before it degrades into gaps.
    pub max_assign_attempts: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shard_jobs: 2,
            lease_ms: 2_000,
            max_assign_attempts: 3,
        }
    }
}

/// What a reader thread reports about its worker.
///
/// One note exists per decoded frame, moved through a channel and
/// consumed immediately — the size skew of `Result` frames never
/// accumulates, so boxing would only add an allocation per frame.
#[allow(clippy::large_enum_variant)]
enum WorkerNote {
    /// A decoded frame.
    Msg(WireMsg),
    /// The connection is gone (EOF or transport error).
    Gone(String),
}

struct WorkerSlot {
    tx: Box<dyn WireTx>,
    alive: bool,
    /// Index (into the current batch's shard list) this worker is running.
    busy: Option<usize>,
    /// Lease expiry while busy.
    deadline: Instant,
}

struct Shard {
    ordinal: u32,
    range: Range<usize>,
    attempts: u32,
    done: bool,
}

/// Distributed [`ExperimentEngine`]: plans locally, executes remotely.
///
/// Built from a *profiled* local driver — the coordinator profiles the
/// target itself so the 3PA plan tables (injectable faults, reaching
/// tests, coverage sizes) are exactly the single-process ones — plus one
/// [`Endpoint`] per worker. Drive it through
/// [`Session::allocate_with_engine`].
///
/// [`Session::allocate_with_engine`]: csnake_core::Session::allocate_with_engine
pub struct DistributedEngine {
    faults: Vec<FaultId>,
    reaching: BTreeMap<FaultId, Vec<TestId>>,
    coverage: BTreeMap<TestId, usize>,
    workers: Vec<WorkerSlot>,
    notes: Receiver<(u32, WorkerNote)>,
    cfg: DaemonConfig,
    chaos: ChaosInjector,
    observer: Arc<dyn CampaignObserver>,
    gaps: Vec<Job>,
    runs: usize,
    /// Coordinator-side batch ordinal for replayed supervisor events.
    batch_counter: usize,
    /// Global shard ordinal: the chaos key and the `Assign` id.
    shard_counter: u32,
    /// Last cumulative `(hits, misses)` cache counters each worker
    /// reported in a live [`WireMsg::Event`] frame; the fleet-wide figure
    /// is their sum.
    worker_cache: BTreeMap<u32, (usize, usize)>,
    /// Times `run_batch` woke because a lease deadline passed rather than
    /// because a worker spoke.
    #[cfg(test)]
    timed_wakeups: usize,
}

/// The kinds a worker may originate. The coordinator is the router: a
/// frame can decode to any [`CampaignEvent`], and everything not listed
/// here — lifecycle, stage and phase events, a `Forwarded` a worker wrapped
/// itself — is dropped before it reaches an observer, so a misbehaving peer
/// cannot speak for the coordinator.
fn worker_may_originate(event: &CampaignEvent) -> bool {
    matches!(
        event,
        CampaignEvent::ExperimentCompleted { .. }
            | CampaignEvent::BatchRetried { .. }
            | CampaignEvent::BatchFailed { .. }
            | CampaignEvent::TraceCache { .. }
    )
}

fn reader_thread(mut rx: Box<dyn WireRx>, worker: u32, notes: Sender<(u32, WorkerNote)>) {
    loop {
        match rx.recv() {
            Ok(Some(msg)) => {
                if notes.send((worker, WorkerNote::Msg(msg))).is_err() {
                    return; // coordinator gone
                }
            }
            Ok(None) => {
                let _ = notes.send((worker, WorkerNote::Gone("connection closed".into())));
                return;
            }
            Err(e) => {
                let _ = notes.send((worker, WorkerNote::Gone(e.to_string())));
                return;
            }
        }
    }
}

impl DistributedEngine {
    /// Performs the campaign handshake with every endpoint and returns a
    /// ready engine.
    ///
    /// `target_name` must be the *resolution* name workers can look up
    /// (e.g. `gen:5`, not the generated system's descriptive name).
    /// `driver` is the coordinator's own profiled driver; only its plan
    /// tables are copied — the engine holds no borrow afterwards.
    ///
    /// Workers that fail the handshake (unresolvable target, fingerprint
    /// mismatch, dead connection) are dropped from the fleet with a
    /// [`CampaignEvent::WorkerLost`] at attach time; connecting
    /// succeeds as long as at least one worker survives.
    pub fn connect(
        target_name: &str,
        target: &dyn TargetSystem,
        cfg: &DetectConfig,
        driver: &Driver<'_>,
        endpoints: Vec<Endpoint>,
        dcfg: DaemonConfig,
    ) -> Result<DistributedEngine> {
        let faults = driver.faults();
        let mut reaching = BTreeMap::new();
        for &f in &faults {
            reaching.insert(f, driver.tests_reaching(f));
        }
        let mut coverage = BTreeMap::new();
        for tc in target.tests() {
            coverage.insert(tc.id, driver.coverage_size(tc.id));
        }
        let registry_fp = registry_fingerprint(&target.registry());
        // Ship the coordinator's profile traces with the handshake: the
        // workers would re-derive bit-identical traces from the config's
        // seeds, so sending the artifact only removes their slow start.
        let profiles = driver.profiles().clone();

        let (note_tx, notes) = channel();
        let mut workers = Vec::with_capacity(endpoints.len());
        let now = Instant::now();
        for (i, ep) in endpoints.into_iter().enumerate() {
            let Endpoint { mut tx, rx } = ep;
            let hello = WireMsg::Hello {
                target: target_name.to_string(),
                registry_fp,
                cfg: cfg.clone(),
                worker: i as u32,
                lease_ms: dcfg.lease_ms,
                profiles: profiles.clone(),
            };
            let alive = tx.send(&hello).is_ok();
            let sender = note_tx.clone();
            std::thread::spawn(move || reader_thread(rx, i as u32, sender));
            workers.push(WorkerSlot {
                tx,
                alive,
                busy: None,
                deadline: now,
            });
        }
        drop(note_tx);

        // Handshake barrier: wait until every worker acked or died. No
        // lease here — workers are profiling the target, which is the one
        // legitimately slow step.
        let mut awaiting: usize = workers.iter().filter(|w| w.alive).count();
        while awaiting > 0 {
            match notes.recv() {
                Ok((
                    w,
                    WorkerNote::Msg(WireMsg::HelloAck {
                        registry_fp: fp, ..
                    }),
                )) => {
                    awaiting -= 1;
                    if fp != registry_fp {
                        workers[w as usize].alive = false;
                    }
                }
                Ok((w, WorkerNote::Gone(_))) => {
                    if workers[w as usize].alive {
                        workers[w as usize].alive = false;
                        awaiting -= 1;
                    }
                }
                Ok(_) => {} // heartbeats etc. before the barrier clears
                Err(_) => break,
            }
        }
        if !workers.iter().any(|w| w.alive) {
            return Err(CsnakeError::InvalidTarget(
                "distributed campaign: no worker completed the handshake".into(),
            ));
        }

        Ok(DistributedEngine {
            faults,
            reaching,
            coverage,
            workers,
            notes,
            cfg: dcfg,
            chaos: ChaosInjector::new(cfg.driver.chaos.clone()),
            observer: Arc::new(NoopObserver),
            gaps: Vec::new(),
            runs: 0,
            batch_counter: 0,
            shard_counter: 0,
            worker_cache: BTreeMap::new(),
            #[cfg(test)]
            timed_wakeups: 0,
        })
    }

    /// Live workers remaining in the fleet.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Asks every live worker to exit. Also invoked on drop; explicit
    /// calls just make shutdown visible in the calling code.
    pub fn shutdown(&mut self) {
        for w in &mut self.workers {
            if w.alive {
                let _ = w.tx.send(&WireMsg::Shutdown);
                w.alive = false;
            }
        }
    }

    fn lose_worker(
        workers: &mut [WorkerSlot],
        observer: &dyn CampaignObserver,
        pending: &mut std::collections::VecDeque<usize>,
        w: usize,
        reason: &str,
    ) {
        if !workers[w].alive {
            return;
        }
        workers[w].alive = false;
        observer.on_event(&CampaignEvent::WorkerLost {
            worker: w as u32,
            reason: reason.to_string(),
        });
        if let Some(si) = workers[w].busy.take() {
            // Its shard goes back to the head of the queue: recovering
            // in-flight work beats starting new work.
            pending.push_front(si);
        }
    }

    /// A shard that exhausted its delivery attempts: every cell becomes a
    /// gap with the canonical empty placeholder, exactly like a job that
    /// exhausts the in-process retry budget.
    fn degraded_result(
        batch: &[Job],
        shard: &Shard,
        reason: &str,
    ) -> (ShardSpan, Vec<CampaignEvent>) {
        let jobs = &batch[shard.range.clone()];
        let span = ShardSpan {
            shard: shard.ordinal,
            start: shard.range.start,
            outcomes: jobs
                .iter()
                .map(|&(f, t, _)| ExperimentOutcome {
                    fault: f,
                    test: t,
                    interference: Default::default(),
                    edges: Vec::new(),
                })
                .collect(),
            gaps: jobs.to_vec(),
            runs: 0,
        };
        let events = jobs
            .iter()
            .map(|&(f, t, p)| CampaignEvent::BatchFailed {
                batch: 0, // numbered at merge time, like a worker's
                fault: f,
                test: t,
                phase: p,
                reason: reason.to_string(),
            })
            .collect();
        (span, events)
    }

    fn run_batch(
        &mut self,
        batch: &[Job],
        progress: &mut dyn FnMut(&[ShardSpan]),
    ) -> Vec<ExperimentOutcome> {
        if batch.is_empty() {
            return Vec::new();
        }
        let shard_jobs = self.cfg.shard_jobs.max(1);
        let mut shards: Vec<Shard> = Vec::new();
        let mut start = 0usize;
        while start < batch.len() {
            let end = (start + shard_jobs).min(batch.len());
            shards.push(Shard {
                ordinal: self.shard_counter,
                range: start..end,
                attempts: 0,
                done: false,
            });
            self.shard_counter += 1;
            start = end;
        }

        let mut pending: std::collections::VecDeque<usize> = (0..shards.len()).collect();
        // Finished shards in completion order — the slice `progress`
        // borrows as it stands — with each one's supervisor events beside
        // it, parked until the in-order merge.
        let mut spans: Vec<ShardSpan> = Vec::with_capacity(shards.len());
        let mut span_events: Vec<Vec<CampaignEvent>> = Vec::with_capacity(shards.len());
        let lease = Duration::from_millis(self.cfg.lease_ms);
        let abandoned =
            |attempts: u32| format!("shard abandoned after {attempts} delivery attempts");

        while spans.len() < shards.len() {
            // Lease expiries first: a silent worker must not hold its
            // shard hostage past the deadline.
            let now = Instant::now();
            for w in 0..self.workers.len() {
                if self.workers[w].alive
                    && self.workers[w].busy.is_some()
                    && now >= self.workers[w].deadline
                {
                    Self::lose_worker(
                        &mut self.workers,
                        self.observer.as_ref(),
                        &mut pending,
                        w,
                        "lease expired",
                    );
                }
            }

            // Dispatch pending shards onto idle live workers, burning
            // chaos-dropped deliveries as attempts.
            for w in 0..self.workers.len() {
                if !self.workers[w].alive || self.workers[w].busy.is_some() {
                    continue;
                }
                while let Some(si) = pending.pop_front() {
                    if shards[si].done {
                        // Re-queued off a lost worker whose `Result` then
                        // arrived after all: nothing left to lease.
                        continue;
                    }
                    let ordinal = shards[si].ordinal;
                    shards[si].attempts += 1;
                    let attempts = shards[si].attempts;
                    if attempts > 1 {
                        self.observer.on_event(&CampaignEvent::ShardReassigned {
                            shard: ordinal,
                            worker: w as u32,
                            attempt: attempts - 1,
                        });
                    }
                    // Chaos gates the send path: a stall is pure latency,
                    // a drop loses the frame in transit.
                    self.chaos.wire_stall_hook(ordinal as u64);
                    if self.chaos.wire_drop_hook(ordinal as u64) {
                        if attempts >= self.cfg.max_assign_attempts {
                            let (span, events) =
                                Self::degraded_result(batch, &shards[si], &abandoned(attempts));
                            shards[si].done = true;
                            spans.push(span);
                            span_events.push(events);
                            continue; // this worker is still idle; next shard
                        }
                        pending.push_back(si);
                        continue;
                    }
                    let msg = WireMsg::Assign {
                        shard: ordinal,
                        jobs: batch[shards[si].range.clone()].to_vec(),
                    };
                    match self.workers[w].tx.send(&msg) {
                        Ok(()) => {
                            self.workers[w].busy = Some(si);
                            self.workers[w].deadline = Instant::now() + lease;
                            self.observer.on_event(&CampaignEvent::ShardAssigned {
                                shard: ordinal,
                                worker: w as u32,
                                jobs: shards[si].range.len(),
                            });
                            break;
                        }
                        Err(e) => {
                            pending.push_front(si);
                            Self::lose_worker(
                                &mut self.workers,
                                self.observer.as_ref(),
                                &mut pending,
                                w,
                                &e.to_string(),
                            );
                            break;
                        }
                    }
                }
                if pending.is_empty() {
                    break;
                }
            }

            // A dead fleet cannot make progress: degrade what's left so
            // the campaign still completes (deterministically) instead of
            // hanging.
            if !self.workers.iter().any(|w| w.alive) {
                while let Some(si) = pending.pop_front() {
                    if !shards[si].done {
                        let (span, events) = Self::degraded_result(
                            batch,
                            &shards[si],
                            &format!("no live workers ({})", abandoned(shards[si].attempts)),
                        );
                        shards[si].done = true;
                        spans.push(span);
                        span_events.push(events);
                    }
                }
            }
            if spans.len() >= shards.len() {
                break;
            }

            // Sleep until a worker speaks or the earliest live lease runs
            // out, whichever is first. Every unfinished shard is queued or
            // held, and a queued shard means no live worker is idle, so a
            // live fleet here always has a busy worker to take the deadline
            // from.
            let now = Instant::now();
            let wake = self
                .workers
                .iter()
                .filter(|w| w.alive && w.busy.is_some())
                .map(|w| w.deadline)
                .min()
                .unwrap_or(now + lease);
            match self.notes.recv_timeout(wake.saturating_duration_since(now)) {
                Ok((
                    w,
                    WorkerNote::Msg(WireMsg::Result {
                        shard: ordinal,
                        outcomes,
                        gaps,
                        runs,
                        events,
                    }),
                )) => {
                    let w = w as usize;
                    if self.workers[w].alive {
                        self.workers[w].deadline = Instant::now() + lease;
                    }
                    let si = shards.iter().position(|s| s.ordinal == ordinal && !s.done);
                    if let Some(si) = si {
                        if outcomes.len() != shards[si].range.len() {
                            // Protocol violation: treat the worker as lost
                            // and let the shard be re-run.
                            Self::lose_worker(
                                &mut self.workers,
                                self.observer.as_ref(),
                                &mut pending,
                                w,
                                "result size mismatch",
                            );
                            continue;
                        }
                        shards[si].done = true;
                        spans.push(ShardSpan {
                            shard: ordinal,
                            start: shards[si].range.start,
                            outcomes,
                            gaps,
                            runs,
                        });
                        span_events.push(events);
                        // Whoever holds the shard (possibly a later
                        // assignee, if the original came back first) is
                        // free again.
                        for slot in &mut self.workers {
                            if slot.busy == Some(si) {
                                slot.busy = None;
                            }
                        }
                        // Report every completed island so the runner can
                        // checkpoint mid-batch; a complete batch it
                        // checkpoints itself the moment this call returns.
                        if spans.len() < shards.len() {
                            progress(&spans);
                        }
                    }
                }
                Ok((w, WorkerNote::Msg(WireMsg::Heartbeat { .. }))) => {
                    let w = w as usize;
                    if self.workers[w].alive && self.workers[w].busy.is_some() {
                        self.workers[w].deadline = Instant::now() + lease;
                    }
                }
                Ok((w, WorkerNote::Msg(WireMsg::Event { events, .. }))) => {
                    // Any frame from a worker is a life sign: an Event
                    // refreshes the lease exactly like a heartbeat.
                    let wi = w as usize;
                    if self.workers[wi].alive && self.workers[wi].busy.is_some() {
                        self.workers[wi].deadline = Instant::now() + lease;
                    }
                    for event in events.into_iter().filter(worker_may_originate) {
                        if let CampaignEvent::TraceCache { hits, misses } = event {
                            // Cumulative counters: last value wins.
                            self.worker_cache.insert(w, (hits, misses));
                        }
                        self.observer.on_event(&CampaignEvent::Forwarded {
                            worker: w,
                            event: Box::new(event),
                        });
                    }
                }
                Ok((_, WorkerNote::Msg(_))) => {} // stray frames ignored
                Ok((w, WorkerNote::Gone(reason))) => {
                    Self::lose_worker(
                        &mut self.workers,
                        self.observer.as_ref(),
                        &mut pending,
                        w as usize,
                        &reason,
                    );
                }
                Err(RecvTimeoutError::Timeout) => {
                    // A lease ran out; the next pass declares it.
                    #[cfg(test)]
                    {
                        self.timed_wakeups += 1;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every reader thread has exited and their Gone notes
                    // are drained: nothing will ever arrive again.
                    for w in 0..self.workers.len() {
                        Self::lose_worker(
                            &mut self.workers,
                            self.observer.as_ref(),
                            &mut pending,
                            w,
                            "reader channel closed",
                        );
                    }
                }
            }
        }

        // Deterministic merge: batch order = shard order, and the workers'
        // supervisor telemetry replays in the same order with
        // coordinator-assigned batch ordinals.
        let mut merged: Vec<_> = spans.into_iter().zip(span_events).collect();
        merged.sort_by_key(|(span, _)| span.start);
        let mut out = Vec::with_capacity(batch.len());
        for (span, events) in merged {
            let batch_id = self.batch_counter;
            self.batch_counter += 1;
            for mut event in events {
                match &mut event {
                    CampaignEvent::BatchRetried { batch, .. }
                    | CampaignEvent::BatchFailed { batch, .. } => {
                        *batch = batch_id;
                        self.observer.on_event(&event);
                    }
                    // A worker buffers only supervisor events into a
                    // Result. The other two kinds it may originate ride in
                    // Event frames and are already in the coordinator's own
                    // deterministic stream, so replaying them would
                    // double-count; anything else a nonconforming worker
                    // ships is not its to say. Drop both.
                    _ => {}
                }
            }
            self.gaps.extend(span.gaps);
            self.runs += span.runs;
            out.extend(span.outcomes);
        }
        out
    }
}

impl Drop for DistributedEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ExperimentEngine for DistributedEngine {
    fn faults(&self) -> Vec<FaultId> {
        self.faults.clone()
    }

    fn tests_reaching(&self, f: FaultId) -> Vec<TestId> {
        self.reaching.get(&f).cloned().unwrap_or_default()
    }

    fn coverage_size(&self, t: TestId) -> usize {
        self.coverage.get(&t).copied().unwrap_or(0)
    }

    fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
        self.run_experiments(&[(f, t, phase)])
            .pop()
            .expect("one outcome per experiment")
    }

    fn run_experiments(&mut self, batch: &[Job]) -> Vec<ExperimentOutcome> {
        self.run_batch(batch, &mut |_| {})
    }

    fn run_experiments_checkpointed(
        &mut self,
        batch: &[Job],
        progress: &mut dyn FnMut(&[ShardSpan]),
    ) -> Vec<ExperimentOutcome> {
        self.run_batch(batch, progress)
    }

    fn take_gaps(&mut self) -> Vec<Job> {
        std::mem::take(&mut self.gaps)
    }

    fn runs_executed(&self) -> usize {
        self.runs
    }

    fn trace_cache_stats(&self) -> (usize, usize) {
        // Fleet-wide figure: sum of the last cumulative counters each
        // worker reported. A worker that died mid-campaign still counts
        // what it had reported — the caches were real even if the worker
        // is gone.
        self.worker_cache
            .values()
            .fold((0, 0), |(h, m), &(wh, wm)| (h + wh, m + wm))
    }

    fn attach_observer(&mut self, observer: Arc<dyn CampaignObserver>) {
        self.observer = observer;
        for (i, w) in self.workers.iter().enumerate() {
            if w.alive {
                self.observer
                    .on_event(&CampaignEvent::WorkerConnected { worker: i as u32 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;

    /// A protocol-conforming worker that computes nothing: acks the Hello,
    /// holds every `Assign` for `hold`, then answers with placeholders.
    fn placeholder_worker(endpoint: Endpoint, hold: Duration) {
        let Endpoint { mut tx, mut rx } = endpoint;
        while let Ok(Some(msg)) = rx.recv() {
            let reply = match msg {
                WireMsg::Hello {
                    worker,
                    registry_fp,
                    ..
                } => WireMsg::HelloAck {
                    worker,
                    registry_fp,
                },
                WireMsg::Assign { shard, jobs } => {
                    std::thread::sleep(hold);
                    WireMsg::Result {
                        shard,
                        outcomes: jobs
                            .iter()
                            .map(|&(fault, test, _)| ExperimentOutcome {
                                fault,
                                test,
                                interference: Default::default(),
                                edges: Vec::new(),
                            })
                            .collect(),
                        gaps: Vec::new(),
                        runs: 0,
                        events: Vec::new(),
                    }
                }
                _ => return,
            };
            tx.send(&reply).expect("coordinator is listening");
        }
    }

    /// The wait is on the lease deadline, not on a tick: a worker that
    /// answers inside its lease, however late, is heard through its
    /// `Result` and nothing else wakes the loop.
    #[test]
    fn a_busy_worker_inside_its_lease_costs_no_timed_wakeup() {
        let target = crate::targets::resolve("toy").expect("target resolves");
        let mut cfg = DetectConfig::default();
        cfg.driver.reps = 3;
        cfg.driver.delay_values_ms = vec![800];
        let driver = Driver::new(target.as_ref(), cfg.driver.clone());
        let jobs: Vec<Job> = driver
            .faults()
            .into_iter()
            .filter_map(|f| driver.tests_reaching(f).first().map(|&t| (f, t, 1u8)))
            .take(2)
            .collect();
        assert_eq!(jobs.len(), 2, "toy target must have injectable cells");

        let (coord_side, worker_side) = channel_pair();
        let worker =
            std::thread::spawn(move || placeholder_worker(worker_side, Duration::from_millis(120)));
        let dcfg = DaemonConfig::default();
        assert_eq!(dcfg.lease_ms, 2_000);
        let mut engine = DistributedEngine::connect(
            "toy",
            target.as_ref(),
            &cfg,
            &driver,
            vec![coord_side],
            dcfg,
        )
        .expect("handshake");
        let outcomes = engine.run_experiments(&jobs);
        assert_eq!(outcomes.len(), jobs.len());
        assert_eq!(
            engine.timed_wakeups, 0,
            "the coordinator woke on a timer while its only worker was inside its lease"
        );
        drop(engine);
        worker.join().expect("placeholder worker");
    }
}
