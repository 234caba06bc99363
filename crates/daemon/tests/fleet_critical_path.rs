//! The fleet's critical path: what a campaign pays for coordination.
//!
//! Three properties, each of which once cost wall-clock without failing a
//! test: a worker is reaped the moment its serving loop returns (not at
//! the next slice of a sleeping heartbeat thread), a batch is cut into
//! shards by position alone (so every fleet size sees the same shards, and
//! two workers can share even a two-job batch), and a silent worker is
//! declared lost at its lease deadline (not at the next tick after it).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csnake_core::{CampaignEvent, CampaignObserver, DetectConfig, Session, ThreePhase};
use csnake_daemon::{
    drive_session, run_distributed, spawn_thread_workers, DaemonConfig, RunOptions, WorkerOptions,
};

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

#[test]
fn reaping_a_fleet_waits_on_no_heartbeat_tick() {
    const CAMPAIGNS: usize = 20;
    let target = csnake_daemon::targets::resolve("toy").expect("target resolves");
    let mut reaps = Vec::with_capacity(CAMPAIGNS);
    for _ in 0..CAMPAIGNS {
        let mut session = Session::builder(target.as_ref())
            .config(fast_config())
            .build()
            .expect("session builds");
        let (endpoints, handles) = spawn_thread_workers(2, &[]);
        drive_session(
            &mut session,
            "toy",
            endpoints,
            DaemonConfig {
                // A 20 s heartbeat tick: a reap that waits for any part of
                // it cannot hide.
                lease_ms: 60_000,
                ..DaemonConfig::default()
            },
            &ThreePhase::default(),
        )
        .expect("campaign completes");
        let returned = Instant::now();
        for h in handles {
            h.join()
                .expect("worker thread")
                .expect("worker served cleanly");
        }
        reaps.push(returned.elapsed());
    }
    reaps.sort();
    let (median, worst) = (reaps[CAMPAIGNS / 2], reaps[CAMPAIGNS - 1]);
    assert!(
        median < Duration::from_micros(2_500),
        "median reap of two idle workers took {median:?} (all: {reaps:?})"
    );
    assert!(
        worst < Duration::from_secs(1),
        "a reap waited on the heartbeat tick: {worst:?}"
    );
}

/// What the coordinator did, in the order it did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cut {
    /// A phase handed the engine a batch of this many jobs.
    Batch(usize),
    /// Shard `ordinal` of `jobs` jobs was leased to some worker.
    Shard { ordinal: u32, jobs: usize },
}

#[derive(Default)]
struct CutRecorder(Mutex<Vec<Cut>>);

impl CampaignObserver for CutRecorder {
    fn on_event(&self, event: &CampaignEvent) {
        let cut = match *event {
            CampaignEvent::PhaseStarted { planned, .. } => Cut::Batch(planned),
            CampaignEvent::ShardAssigned { shard, jobs, .. } => Cut::Shard {
                ordinal: shard,
                jobs,
            },
            _ => return,
        };
        self.0.lock().unwrap().push(cut);
    }
}

fn recorded_cut(target: &str, workers: usize) -> Vec<Cut> {
    let recorder = Arc::new(CutRecorder::default());
    let opts = RunOptions {
        observer: Some(recorder.clone()),
        ..RunOptions::default()
    };
    run_distributed(target, fast_config(), workers, opts).expect("campaign completes");
    let cut = recorder.0.lock().unwrap().clone();
    cut
}

#[test]
fn the_cut_is_a_function_of_the_batch_only() {
    for target in ["toy", "gen:5"] {
        // Without a checkpoint sink a phase's batch reaches the engine in
        // one call and a healthy fleet leases every shard once, in order —
        // so the whole recording, not just the shard set, must not depend
        // on who was there to serve it.
        let alone = recorded_cut(target, 1);
        for workers in [2, 4] {
            assert_eq!(
                recorded_cut(target, workers),
                alone,
                "{target}: a {workers}-worker fleet cut its batches differently from one worker"
            );
        }

        let mut shareable_batches = 0;
        let mut events = alone.iter().peekable();
        while let Some(&event) = events.next() {
            let Cut::Batch(planned) = event else {
                panic!("{target}: {event:?} was leased outside any batch");
            };
            let mut shards = Vec::new();
            while let Some(&&Cut::Shard { jobs, .. }) = events.peek() {
                shards.push(jobs);
                events.next();
            }
            assert_eq!(shards.iter().sum::<usize>(), planned);
            if planned >= 2 {
                shareable_batches += 1;
                assert!(
                    shards.len() >= 2,
                    "{target}: a batch of {planned} jobs went out as the single shard {shards:?}, \
                     leaving every other worker idle"
                );
            }
        }
        assert!(
            shareable_batches > 0,
            "{target}: no batch of two or more jobs"
        );
    }
}

#[derive(Default)]
struct LeaseClock {
    leased: Mutex<Option<Instant>>,
    lost_after: Mutex<Option<Duration>>,
}

impl CampaignObserver for LeaseClock {
    fn on_event(&self, event: &CampaignEvent) {
        match event {
            CampaignEvent::ShardAssigned { .. } => {
                *self.leased.lock().unwrap() = Some(Instant::now());
            }
            CampaignEvent::WorkerLost { reason, .. } => {
                assert_eq!(reason, "lease expired");
                let leased = self
                    .leased
                    .lock()
                    .unwrap()
                    .expect("lost while holding a lease");
                *self.lost_after.lock().unwrap() = Some(leased.elapsed());
            }
            _ => {}
        }
    }
}

#[test]
fn a_silent_worker_is_declared_lost_at_its_lease_deadline() {
    // Deliberately off any round polling period: a coordinator that looked
    // at its leases every 20 ms would notice this one at 120.
    const LEASE_MS: u64 = 105;
    // A stall on a shared machine can delay any one wake-up; the same
    // stall three times over is not a scheduling accident.
    let overshoot = (0..3)
        .map(|_| {
            let clock = Arc::new(LeaseClock::default());
            let opts = RunOptions {
                daemon: DaemonConfig {
                    lease_ms: LEASE_MS,
                    ..DaemonConfig::default()
                },
                observer: Some(clock.clone()),
                // The only worker accepts its first shard and goes silent
                // with the connection open: nothing but the lease can tell.
                worker_opts: vec![WorkerOptions {
                    fail_after: Some(0),
                    fail_hang_ms: 300,
                    heartbeats: false,
                }],
                ..RunOptions::default()
            };
            let run = run_distributed("toy", fast_config(), 1, opts)
                .expect("a dead fleet still completes");
            assert!(run.report.degraded());
            let lost_after = clock.lost_after.lock().unwrap().expect("worker was lost");
            lost_after.saturating_sub(Duration::from_millis(LEASE_MS))
        })
        .min()
        .expect("three trials");
    assert!(
        overshoot < Duration::from_millis(10),
        "lease expiry was noticed {overshoot:?} after the deadline"
    );
}
