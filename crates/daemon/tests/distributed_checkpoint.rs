//! Mid-phase checkpoints under distribution: a distributed campaign
//! streams the same `.csnake` checkpoints as the single-process
//! supervisor — including shard islands for out-of-order completions —
//! and a *different* session (with a different fleet) can resume from one
//! and land on the identical report.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use csnake_core::{
    CampaignEvent, CampaignObserver, DetectConfig, Session, Snapshot, Stage, ThreePhase,
};
use csnake_daemon::{run_distributed, DaemonConfig, RunOptions};

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csnake-daemon-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Steals a copy of the live checkpoint file the first time a phase-2
/// mid-phase state hits disk — a frozen "the coordinator died here"
/// artifact the resume half of the test can start from.
struct CheckpointThief {
    dst: PathBuf,
    grabbed: AtomicBool,
}

impl CampaignObserver for CheckpointThief {
    fn on_event(&self, event: &CampaignEvent) {
        if let CampaignEvent::CheckpointWritten {
            path,
            phase: 2,
            executed_in_phase: 1..,
        } = event
        {
            if !self.grabbed.swap(true, Ordering::Relaxed) {
                std::fs::copy(path, &self.dst).expect("steal checkpoint copy");
            }
        }
    }
}

#[test]
fn resuming_a_distributed_checkpoint_with_a_new_fleet_is_identical() {
    let dir = temp_dir("resume");
    let live = dir.join("campaign.csnake");
    let stolen = dir.join("stolen.csnake");
    let thief = Arc::new(CheckpointThief {
        dst: stolen.clone(),
        grabbed: AtomicBool::new(false),
    });

    // First life: 4 workers, tiny shards, checkpoint every 2 experiments.
    let opts = RunOptions {
        daemon: DaemonConfig {
            shard_jobs: 2,
            lease_ms: 1_000,
            ..DaemonConfig::default()
        },
        observer: Some(thief.clone()),
        checkpoint: Some((live.clone(), 2)),
        ..RunOptions::default()
    };
    let baseline = run_distributed("toy", fast_config(), 4, opts).expect("first life");
    let baseline_report = format!("{:?}", baseline.report);
    assert!(
        thief.grabbed.load(Ordering::Relaxed),
        "phase 2 must have produced at least one mid-phase checkpoint"
    );

    // The stolen artifact is a well-formed mid-phase snapshot.
    let snap = Snapshot::read_file(&stolen).expect("stolen checkpoint decodes");
    assert_eq!(snap.stage, Stage::Profiled);
    let mid = snap.mid_phase.as_ref().expect("mid-phase state present");
    assert_eq!(mid.phase, 2);

    // Second life: resume from the frozen artifact on a *new* fleet with
    // a different worker count and shard size — none of which may leak
    // into results.
    let target = csnake_daemon::targets::resolve("toy").expect("target resolves");
    let mut session = Session::builder(target.as_ref())
        .auto_checkpoint(dir.join("campaign-2.csnake"), 2)
        .resume(&stolen)
        .expect("resume from stolen checkpoint");
    let (endpoints, handles) = csnake_daemon::spawn_thread_workers(2, &[]);
    let (report, _) = csnake_daemon::drive_session(
        &mut session,
        "toy",
        endpoints,
        DaemonConfig {
            shard_jobs: 3,
            lease_ms: 1_000,
            ..DaemonConfig::default()
        },
        &ThreePhase::default(),
    )
    .expect("second life");
    for h in handles {
        let _ = h.join();
    }
    assert_eq!(format!("{report:?}"), baseline_report);

    std::fs::remove_dir_all(&dir).ok();
}
