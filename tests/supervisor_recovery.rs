//! Fault-tolerant campaign supervisor: kill-and-resume and self-chaos
//! integration tests.
//!
//! * **Kill-at-every-checkpoint matrix** — a campaign streaming mid-phase
//!   checkpoints is "killed" at every checkpoint it ever wrote; resuming
//!   each one must produce a `DetectionReport` Debug-identical to the
//!   uninterrupted run.
//! * **Transient chaos is invisible** — with the self-fault-injection
//!   harness making experiment jobs panic transiently, the supervisor's
//!   retries must reproduce the failure-free report bit-for-bit (same
//!   simulator-run accounting included).
//! * **Permanent chaos degrades gracefully** — cells that keep failing
//!   become enumerated gaps in a completed, annotated report instead of
//!   aborting the campaign.
//! * **Torn snapshots are rejected typed** — truncating a checkpoint at
//!   any byte yields `CsnakeError::SnapshotTorn`/`SnapshotCorrupt`, never
//!   a panic or a silently-wrong resume.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use csnake::core::{
    CampaignEvent, ChaosConfig, CsnakeError, DetectConfig, ProgressCollector, RandomAllocation,
    Session, ThreePhase,
};
use csnake::targets::ToySystem;

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csnake-supervisor-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Observer that archives every checkpoint file the instant it is written,
/// simulating a kill at that exact moment: the archived copy is what a
/// crashed process would find on disk.
struct CheckpointArchiver {
    dir: PathBuf,
    archived: Mutex<Vec<PathBuf>>,
}

impl csnake::core::CampaignObserver for CheckpointArchiver {
    fn on_event(&self, event: &CampaignEvent) {
        let CampaignEvent::CheckpointWritten {
            path,
            phase,
            executed_in_phase,
        } = event
        else {
            return;
        };
        let mut archived = self.archived.lock().unwrap();
        let dst = self.dir.join(format!(
            "ckpt-{:03}-p{phase}-e{executed_in_phase}.csnake",
            archived.len()
        ));
        std::fs::copy(path, &dst).expect("archive checkpoint");
        archived.push(dst);
    }
}

#[test]
fn resuming_from_every_checkpoint_reproduces_the_report() {
    let dir = temp_dir("matrix");
    let target = ToySystem::new();

    // Uninterrupted baseline.
    let mut baseline = Session::builder(&target)
        .config(fast_config())
        .build()
        .expect("drivable");
    let baseline_report = format!(
        "{:?}",
        baseline
            .run_to_report(&ThreePhase::default())
            .expect("baseline")
    );
    let baseline_runs = baseline.runs_executed();

    // Checkpointed run, archiving the file at every write.
    let archiver = Arc::new(CheckpointArchiver {
        dir: dir.clone(),
        archived: Mutex::new(Vec::new()),
    });
    let live = dir.join("live.csnake");
    let mut checkpointed = Session::builder(&target)
        .config(fast_config())
        .observer(archiver.clone())
        .auto_checkpoint(&live, 1)
        .build()
        .expect("drivable");
    let checkpointed_report = format!(
        "{:?}",
        checkpointed
            .run_to_report(&ThreePhase::default())
            .expect("checkpointed run")
    );
    assert_eq!(
        baseline_report, checkpointed_report,
        "checkpointing perturbed the campaign"
    );

    let archived = archiver.archived.lock().unwrap().clone();
    assert!(
        archived.len() >= 4,
        "cadence 1 should checkpoint every experiment, got {}",
        archived.len()
    );

    // Kill at every checkpoint: each archived file must resume into the
    // identical report, with identical run accounting.
    for ckpt in &archived {
        let mut resumed = Session::resume(&target, ckpt)
            .unwrap_or_else(|e| panic!("resume {}: {e}", ckpt.display()));
        let report = resumed
            .run_to_report(&ThreePhase::default())
            .unwrap_or_else(|e| panic!("resumed run {}: {e}", ckpt.display()));
        assert_eq!(
            baseline_report,
            format!("{report:?}"),
            "resume from {} diverged",
            ckpt.display()
        );
        assert_eq!(
            baseline_runs,
            resumed.runs_executed(),
            "resume from {} lost run accounting",
            ckpt.display()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mid_phase_checkpoint_resumes_only_under_its_own_strategy() {
    let dir = temp_dir("strategy");
    let target = ToySystem::new();
    let archiver = Arc::new(CheckpointArchiver {
        dir: dir.clone(),
        archived: Mutex::new(Vec::new()),
    });
    let mut checkpointed = Session::builder(&target)
        .config(fast_config())
        .observer(archiver.clone())
        .auto_checkpoint(dir.join("live.csnake"), 1)
        .build()
        .expect("drivable");
    let baseline = format!(
        "{:?}",
        checkpointed
            .run_to_report(&ThreePhase::default())
            .expect("checkpointed run")
    );
    // A checkpoint inside phase two, past its first experiment.
    let ckpt = archiver
        .archived
        .lock()
        .unwrap()
        .iter()
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.contains("-p2-") && !name.ends_with("-e0.csnake")
        })
        .cloned()
        .expect("a mid-phase-two checkpoint");

    let mut resumed = Session::resume(&target, &ckpt).expect("resume");
    let random = RandomAllocation::new(fast_config().alloc, 7);
    match resumed.run_to_report(&random) {
        Err(CsnakeError::StrategyMismatch { snapshot, actual }) => {
            assert_eq!(
                (snapshot.as_str(), actual.as_str()),
                ("three-phase", "random")
            );
        }
        other => panic!("expected StrategyMismatch, got {:?}", other.map(|_| ())),
    }
    // The refusal keeps the checkpoint: its own strategy still finishes it.
    let report = resumed
        .run_to_report(&ThreePhase::default())
        .expect("resume under the writing strategy");
    assert_eq!(baseline, format!("{report:?}"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_chaos_is_invisible_in_the_report() {
    let dir = temp_dir("transient");
    // The generated target also checkpoints after every experiment, and
    // half of those writes fail once before they land.
    for (name, snapshot_io, checkpoint) in [("toy", 0.0, false), ("gen:5", 0.5, true)] {
        let target = csnake_gen::by_name(name).expect("known target");
        let mut clean = Session::builder(target.as_ref())
            .config(fast_config())
            .build()
            .expect("drivable");
        let clean_report = format!(
            "{:?}",
            clean.run_to_report(&ThreePhase::default()).expect("clean")
        );
        let clean_runs = clean.runs_executed();

        // Every experiment cell has a 40% chance of an injected panic and a
        // 20% chance of an injected stall, each clearing after one retry.
        let mut cfg = fast_config();
        cfg.driver.chaos = ChaosConfig {
            seed: 7,
            experiment_panic: 0.4,
            experiment_stall: 0.2,
            snapshot_io,
            stall_ms: 1,
            transient_attempts: 1,
            ..ChaosConfig::default()
        };
        let progress = Arc::new(ProgressCollector::new());
        let mut builder = Session::builder(target.as_ref())
            .config(cfg)
            .observer(progress.clone());
        if checkpoint {
            builder = builder.auto_checkpoint(dir.join("live.csnake"), 1);
        }
        let mut chaotic = builder.build().expect("drivable");
        let chaotic_report = format!(
            "{:?}",
            chaotic
                .run_to_report(&ThreePhase::default())
                .expect("chaotic run completes")
        );

        assert_eq!(
            clean_report, chaotic_report,
            "{name}: transient failures must not leave a trace in the report"
        );
        assert_eq!(
            clean_runs,
            chaotic.runs_executed(),
            "{name}: failed attempts must contribute zero simulator runs"
        );
        let snap = progress.snapshot();
        assert!(
            snap.batch_retries > 0,
            "{name}: chaos at these rates must have caused at least one retry"
        );
        assert_eq!(
            snap.batch_failures, 0,
            "{name}: no cell may fail permanently"
        );
        assert!(!snap.degraded, "{name}");
        assert_eq!(snap.checkpoints_written > 0, checkpoint, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn permanent_chaos_degrades_gracefully() {
    let target = ToySystem::new();
    let mut cfg = fast_config();
    cfg.driver.chaos = ChaosConfig {
        seed: 11,
        experiment_panic: 0.3,
        permanent: true,
        ..ChaosConfig::default()
    };
    let progress = Arc::new(ProgressCollector::new());
    let mut session = Session::builder(&target)
        .config(cfg)
        .observer(progress.clone())
        .build()
        .expect("drivable");
    let report = session
        .run_to_report(&ThreePhase::default())
        .expect("permanently failing cells must not abort the campaign")
        .clone();

    assert!(report.degraded(), "report must be marked partial");
    assert!(!report.missing_cells.is_empty());
    let snap = progress.snapshot();
    assert!(snap.degraded, "observer must see the degraded event");
    assert_eq!(
        snap.batch_failures,
        report.missing_cells.len(),
        "every missing cell surfaces exactly one batch_failed event"
    );

    // Two runs under the same chaos seed fail the same cells: degraded
    // completion is deterministic too.
    let mut cfg2 = fast_config();
    cfg2.driver.chaos = ChaosConfig {
        seed: 11,
        experiment_panic: 0.3,
        permanent: true,
        ..ChaosConfig::default()
    };
    let mut again = Session::builder(&target)
        .config(cfg2)
        .build()
        .expect("drivable");
    let report2 = again
        .run_to_report(&ThreePhase::default())
        .expect("second run")
        .clone();
    assert_eq!(format!("{report:?}"), format!("{report2:?}"));
}

#[test]
fn torn_checkpoints_are_rejected_typed_at_every_cut() {
    let dir = temp_dir("torn");
    let target = ToySystem::new();
    let mut session = Session::builder(&target)
        .config(fast_config())
        .build()
        .expect("drivable");
    session.profile().expect("profile");
    let path = dir.join("boundary.csnake");
    session.checkpoint(&path).expect("checkpoint");
    let bytes = std::fs::read(&path).expect("read back");

    // A sweep of truncation points across the whole file, plus the exact
    // header boundary: all typed, none panic, none "resume" wrongly.
    let cuts: Vec<usize> = (0..bytes.len()).step_by(97).chain([10, 23, 24]).collect();
    for cut in cuts {
        let torn_path = dir.join("torn.csnake");
        std::fs::write(&torn_path, &bytes[..cut.min(bytes.len() - 1)]).expect("write torn");
        match Session::resume(&target, &torn_path) {
            Err(CsnakeError::SnapshotTorn { expected, found }) => {
                assert!(found < expected, "cut {cut}: torn must report a shortfall");
            }
            Err(CsnakeError::SnapshotCorrupt(_)) => {}
            other => panic!(
                "cut {cut}: expected SnapshotTorn/SnapshotCorrupt, got {:?}",
                other.map(|s| s.stage())
            ),
        }
    }

    // The untruncated file still resumes.
    let resumed = Session::resume(&target, &path).expect("intact file resumes");
    assert_eq!(resumed.stage(), csnake::core::Stage::Profiled);
    std::fs::remove_dir_all(&dir).ok();
}

/// Injected snapshot-IO failures in permanent mode skip every checkpoint;
/// the campaign itself must be unaffected.
#[test]
fn permanent_io_chaos_skips_checkpoints_but_not_the_campaign() {
    let dir = temp_dir("io-chaos");
    let target = ToySystem::new();

    let mut clean = Session::builder(&target)
        .config(fast_config())
        .build()
        .expect("drivable");
    let clean_report = format!(
        "{:?}",
        clean.run_to_report(&ThreePhase::default()).expect("clean")
    );

    let mut cfg = fast_config();
    cfg.driver.chaos = ChaosConfig {
        seed: 3,
        snapshot_io: 1.0,
        permanent: true,
        ..ChaosConfig::default()
    };
    let progress = Arc::new(ProgressCollector::new());
    let path = dir.join("never-written.csnake");
    let mut session = Session::builder(&target)
        .config(cfg)
        .observer(progress.clone())
        .auto_checkpoint(&path, 1)
        .build()
        .expect("drivable");
    let report = format!(
        "{:?}",
        session
            .run_to_report(&ThreePhase::default())
            .expect("campaign survives checkpoint IO failures")
    );

    assert_eq!(clean_report, report);
    assert_eq!(progress.snapshot().checkpoints_written, 0);
    assert!(!path.exists(), "every write was chaos-failed");
    std::fs::remove_dir_all(&dir).ok();
}
