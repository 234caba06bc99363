//! `fleet-gen`: the first 32 campaigns of `gen-corpus`, each through a
//! two-worker in-process daemon fleet under a flight recorder that journals
//! JSONL and binary frames to disk.
//!
//! Same campaigns, different path: the handshake, coordinator lease
//! polling, wire seal/open, worker wake-ups and journal encoding are most
//! of the wall here and invisible on `hdfs2-campaign`. Targets are resolved
//! by name, as the daemon's workers do (so `toy` is the hand-coded builtin
//! here).
//!
//! The timed iterations never fsync. With mid-phase checkpoints (one
//! write + fsync + rename per 4 experiments) and durable journal flushes on
//! the clock, this workload's wall followed the disk, not the code: on the
//! sizing box the same binary took 1.6 s or 5.1 s per iteration depending
//! on whether the host's disk was busy. The durable variant — checkpoints
//! every 4 experiments, `FlightRecorder::finish` — therefore runs once per
//! traced run, off the clock, and is reported as
//! `snapshot.checkpoint_writes` and `snapshot.durable_overhead_share`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use csnake_core::{DetectConfig, Session, TargetSystem, ThreePhase};
use csnake_daemon::wire::{open_frame, seal_frame, WireMsg};
use csnake_daemon::{drive_session, spawn_thread_workers, DaemonConfig};
use csnake_telemetry::{seal_record, FlightRecorder, MetricsDigest};

use super::{check, gen_corpus, Check, Iteration, Scale, Trace, Workload};
use crate::campaign::{self, Outcome};
use crate::metrics::{median, percentile, ratio, secs, Values};
use crate::replay::timed;
use crate::spans::{maybe_span, Tracer};
use crate::timed::{timed_endpoint, Dir, TimedTarget, WireLog};

/// Campaigns per iteration at full size.
const CAMPAIGNS: usize = 32;
/// Workers run with `driver.parallel = false`, so two workers are two
/// compute threads.
const WORKERS: usize = 2;
/// Mid-phase checkpoint cadence, in experiments.
const CHECKPOINT_CADENCE: usize = 4;

pub struct FleetGen {
    names: Vec<String>,
    /// The fleet's configuration (sequential workers).
    cfg: DetectConfig,
    /// The same campaigns' configuration single-process (`gen-corpus`'s).
    single_cfg: DetectConfig,
    /// Single-process outcome of every campaign, computed in set-up: the
    /// reports the fleet must reproduce, and the simulator-event count
    /// (workers resolve targets by name, so nothing can be wrapped there).
    reference: Vec<Outcome>,
    tmp: PathBuf,
    untraced_walls: Vec<f64>,
}

/// One finished fleet campaign and what its coordinator-side recorder saw.
struct Observed {
    outcome: Outcome,
    digest: MetricsDigest,
    recorder: Arc<FlightRecorder>,
}

impl FleetGen {
    pub fn setup(seed: u64, scale: Scale, tmp: &Path) -> Result<Self, String> {
        let campaigns = scale.pick(CAMPAIGNS, 8);
        let corpus = csnake_scenario::corpus_specs().map_err(|e| e.to_string())?;
        let mut names: Vec<String> = corpus.keys().take(campaigns).cloned().collect();
        let generated = campaigns - names.len();
        names.extend(gen_corpus::generated_seeds(seed, generated).map(|s| format!("gen:{s}")));

        let single_cfg = gen_corpus::config(seed);
        let mut cfg = single_cfg.clone();
        cfg.driver.parallel = false;

        let mut fleet = FleetGen {
            names,
            cfg,
            single_cfg,
            reference: Vec::new(),
            tmp: tmp.to_path_buf(),
            untraced_walls: Vec::new(),
        };
        fleet.reference = fleet.single_process(None)?.1;
        Ok(fleet)
    }

    /// The batch single-process, optionally journaling like the fleet
    /// does. Returns its wall and the per-campaign outcomes.
    fn single_process(&self, journal: Option<&Path>) -> Result<(f64, Vec<Outcome>), String> {
        let t0 = Instant::now();
        let mut outcomes = Vec::with_capacity(self.names.len());
        for name in &self.names {
            let target = csnake_gen::by_name(name).map_err(|e| e.to_string())?;
            outcomes.push(match journal {
                None => campaign::run(target.as_ref(), &self.single_cfg)?,
                Some(dir) => {
                    let recorder = self.recorder(dir)?;
                    let counted = TimedTarget::new(target.as_ref(), None);
                    let mut session = Session::builder(&counted)
                        .config(self.single_cfg.clone())
                        .observer(recorder.clone())
                        .build()
                        .map_err(|e| e.to_string())?;
                    session
                        .run_to_report(&ThreePhase::new(self.single_cfg.alloc.clone()))
                        .map_err(|e| e.to_string())?;
                    Outcome::of(&session, counted.take_counts())
                }
            });
        }
        Ok((t0.elapsed().as_secs_f64(), outcomes))
    }

    /// A recorder journaling JSONL and binary frames into `dir`.
    fn recorder(&self, dir: &Path) -> Result<Arc<FlightRecorder>, String> {
        FlightRecorder::builder()
            .jsonl(dir.join("journal.jsonl"))
            .binary(dir.join("journal.csnj"))
            .build()
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }

    /// One campaign on the fleet: resolve, spawn workers, profile on the
    /// coordinator, drive, reap. `durable` adds mid-phase checkpoints and
    /// fsyncs the journals.
    fn drive(
        &self,
        name: &str,
        tracer: Option<&Tracer>,
        log: Option<&Arc<WireLog>>,
        durable: bool,
    ) -> Result<Observed, String> {
        let err = |e: csnake_core::CsnakeError| format!("{name}: {e}");
        let target: Box<dyn TargetSystem> =
            maybe_span(tracer, "fleet.resolve", || csnake_gen::by_name(name)).map_err(err)?;
        let recorder = maybe_span(tracer, "telemetry.open", || self.recorder(&self.tmp))?;
        let (endpoints, workers) =
            maybe_span(tracer, "fleet.spawn", || spawn_thread_workers(WORKERS, &[]));
        let endpoints = match log {
            Some(log) => endpoints
                .into_iter()
                .map(|e| timed_endpoint(e, log))
                .collect(),
            None => endpoints,
        };
        let mut session = maybe_span(tracer, "session.build", || {
            let mut builder = Session::builder(target.as_ref())
                .config(self.cfg.clone())
                .observer(recorder.clone());
            if durable {
                builder =
                    builder.auto_checkpoint(self.tmp.join("fleet.csnake"), CHECKPOINT_CADENCE);
            }
            builder.build()
        })
        .map_err(err)?;
        maybe_span(tracer, "session.profile", || session.profile()).map_err(err)?;
        let driven = maybe_span(tracer, "fleet.drive", || {
            drive_session(
                &mut session,
                name,
                endpoints,
                DaemonConfig::default(),
                &ThreePhase::new(self.cfg.alloc.clone()),
            )
        });
        // Workers exit on Shutdown or hangup either way; reap them before
        // looking at the result so a failure cannot leak threads.
        let reaped: Vec<_> = maybe_span(tracer, "fleet.join", || {
            workers.into_iter().map(|w| w.join()).collect()
        });
        driven.map_err(err)?;
        for worker in reaped {
            worker
                .map_err(|_| format!("{name}: worker thread panicked"))?
                .map_err(err)?;
        }
        if durable {
            recorder.finish().map_err(err)?;
        }
        let digest = maybe_span(tracer, "telemetry.digest", || recorder.digest());
        let outcome = maybe_span(tracer, campaign::CHECK_SPAN, || {
            Outcome::of(&session, Default::default())
        });
        maybe_span(tracer, campaign::DROP_SPAN, || drop(session));
        Ok(Observed {
            outcome,
            digest,
            recorder,
        })
    }

    /// Replays one campaign's recorded frames through the codec and folds
    /// the round trips and waits into `layer`.
    fn wire_replay(log: &WireLog, layer: &mut Values, rtts_us: &mut Vec<u64>) {
        let mut add = |name: &'static str, v: f64| *layer.entry(name).or_default() += v;
        let mut assigned: BTreeMap<u32, Instant> = BTreeMap::new();
        for event in log.take() {
            if event.dir == Dir::Received {
                add(
                    "daemon.coord_recv_wait_s",
                    secs(event.blocked_ns) / WORKERS as f64,
                );
            }
            match &event.msg {
                // Lease keep-alives depend on scheduling, not on the
                // campaign; left out so the frame count repeats exactly.
                WireMsg::Heartbeat { .. } => continue,
                WireMsg::Assign { shard, .. } => {
                    assigned.insert(*shard, event.at);
                    add("daemon.shards", 1.0);
                }
                WireMsg::Result { shard, .. } => {
                    if let Some(sent) = assigned.remove(shard) {
                        rtts_us.push(event.at.saturating_duration_since(sent).as_micros() as u64);
                    }
                }
                _ => {}
            }
            let (seal_s, frame) = timed(|| seal_frame(&event.msg));
            let (open_s, opened) = timed(|| open_frame(&frame));
            black_box(opened.expect("a frame opens from its own bytes"));
            add("wire.frames", 1.0);
            add("wire.bytes", frame.len() as f64);
            add("wire.seal_s", seal_s);
            add("wire.open_s", open_s);
        }
    }

    /// Replays one campaign's journal records through both encoders and
    /// the digest.
    fn telemetry_replay(&self, recorder: &FlightRecorder, layer: &mut Values) {
        let records = recorder.records();
        let (encode_s, bytes) = timed(|| {
            records
                .iter()
                .map(|r| seal_record(r).len() + r.to_json_line().len())
                .sum::<usize>()
        });
        black_box(bytes);
        let (digest_s, digest) = timed(|| MetricsDigest::from_records(&records));
        black_box(digest);
        let journal_bytes: u64 = ["journal.jsonl", "journal.csnj"]
            .iter()
            .map(|f| std::fs::metadata(self.tmp.join(f)).map_or(0, |m| m.len()))
            .sum();
        let mut add = |name: &'static str, v: f64| *layer.entry(name).or_default() += v;
        add("telemetry.records", records.len() as f64);
        add("telemetry.journal_bytes", journal_bytes as f64);
        add("telemetry.encode_s", encode_s);
        add("telemetry.digest_s", digest_s);
    }

    /// Every campaign of the batch on the fleet, in order. `after` sees
    /// each campaign's recorder before the next campaign starts.
    fn batch(
        &self,
        tracer: Option<&Tracer>,
        log: Option<&Arc<WireLog>>,
        durable: bool,
        mut after: impl FnMut(&FlightRecorder),
    ) -> Result<Batch, String> {
        let mut batch = Batch::default();
        for (i, name) in self.names.iter().enumerate() {
            if let Some(tracer) = tracer {
                tracer.set_campaign(i as u32);
            }
            let seen = self.drive(name, tracer, log, durable)?;
            if seen.outcome.report_hash != self.reference[i].report_hash {
                batch.mismatched.push(name.clone());
            }
            batch.total.absorb(&seen.outcome);
            batch.workers_lost += seen.digest.workers_lost;
            batch.checkpoints += seen.digest.checkpoints;
            batch.forwarded += seen.digest.events_forwarded;
            for (stage, us) in &seen.digest.stage_wall_micros {
                *batch.stage_us.entry(stage.clone()).or_default() += us;
            }
            after(&seen.recorder);
        }
        Ok(batch)
    }

    /// Off-the-clock comparisons, once per traced run: the same campaigns
    /// single-process with and without the recorder (interleaved, two
    /// rounds), and the fleet once more with durability on.
    fn comparisons(&self, layer: &mut Values) -> Result<Vec<Check>, String> {
        let (mut plain, mut recorded) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            plain.push(self.single_process(None)?.0);
            recorded.push(self.single_process(Some(&self.tmp))?.0);
        }
        let plain = median(&plain);
        let fleet = median(&self.untraced_walls);
        layer.insert(
            "telemetry.overhead_share",
            ratio(median(&recorded), plain) - 1.0,
        );
        layer.insert("daemon.fleet_over_single", ratio(fleet, plain));

        let (durable_s, durable) = timed(|| self.batch(None, None, true, |_| {}));
        let durable = durable?;
        layer.insert("snapshot.checkpoint_writes", durable.checkpoints as f64);
        layer.insert(
            "snapshot.durable_overhead_share",
            ratio(durable_s, fleet) - 1.0,
        );
        let mut checks = durable.checks();
        checks.push(check(
            format!(
                "durable pass wrote mid-phase checkpoints ({})",
                durable.checkpoints
            ),
            durable.checkpoints > 0,
        ));
        Ok(checks)
    }
}

/// What one pass over the batch added up to.
#[derive(Default)]
struct Batch {
    total: Outcome,
    mismatched: Vec<String>,
    workers_lost: usize,
    checkpoints: usize,
    forwarded: usize,
    /// The flight recorder's stage spans, summed per stage name.
    stage_us: BTreeMap<String, u64>,
}

impl Batch {
    fn checks(&self) -> Vec<Check> {
        vec![
            check(
                format!(
                    "every fleet report Debug-identical to the single-process one (differ: {:?})",
                    self.mismatched
                ),
                self.mismatched.is_empty(),
            ),
            check(
                format!("workers_lost = 0 (got {})", self.workers_lost),
                self.workers_lost == 0,
            ),
        ]
    }
}

impl Workload for FleetGen {
    fn work_unit(&self) -> &'static str {
        "experiments"
    }

    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String> {
        let t0 = Instant::now();
        let tracer = trace.map(|t| t.tracer);
        let log = tracer.map(|_| Arc::new(WireLog::default()));
        let replay = trace.is_some_and(|t| t.replay);
        let mut layer = Values::new();
        let mut rtts_us = Vec::new();

        let batch = self.batch(tracer, log.as_ref(), false, |recorder| {
            if let (Some(tracer), Some(log)) = (tracer, &log) {
                tracer.off_clock(|| {
                    Self::wire_replay(log, &mut layer, &mut rtts_us);
                    if replay {
                        self.telemetry_replay(recorder, &mut layer);
                    }
                });
            }
        })?;
        let mut checks = batch.checks();

        if let Some(tracer) = tracer {
            // Inside `drive_session` the stage boundaries are the flight
            // recorder's, not the harness's.
            for (key, stage) in [
                ("session.allocate_s", "allocated"),
                ("session.stitch_s", "stitched"),
                ("session.report_s", "reported"),
            ] {
                let micros = batch.stage_us.get(stage).copied().unwrap_or(0);
                layer.insert(key, micros as f64 / 1e6);
            }
            layer.insert("daemon.shard_rtt_p50_us", percentile(&rtts_us, 50.0) as f64);
            layer.insert("daemon.shard_rtt_p99_us", percentile(&rtts_us, 99.0) as f64);
            layer.insert("daemon.events_forwarded", batch.forwarded as f64);
            layer.insert(
                "wire.bytes_per_experiment",
                ratio(
                    layer.get("wire.bytes").copied().unwrap_or(0.0),
                    batch.total.experiments as f64,
                ),
            );
            if replay {
                checks.extend(tracer.off_clock(|| self.comparisons(&mut layer))?);
            }
        } else {
            self.untraced_walls.push(t0.elapsed().as_secs_f64());
        }

        // Workers resolve their targets by name, so the fleet's runs cannot
        // be counted; the identical single-process campaigns' were.
        let mut total = batch.total;
        total.target.events = self.reference.iter().map(|o| o.target.events).sum();
        Ok(Iteration {
            work: total.experiments,
            checks,
            layer,
            ..Iteration::from_outcome(&total)
        })
    }

    fn setup_checks(&self) -> Vec<Check> {
        let undetected: u64 = self.reference.iter().map(|o| o.undetected).sum();
        vec![check(
            format!("single-process reference matches every bug ({undetected} undetected)"),
            undetected == 0,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp::TempDir;

    /// `TimedEndpoint` is pass-through: a fleet campaign seen through it
    /// reports exactly what an unwrapped fleet campaign and the
    /// single-process campaign report.
    #[test]
    fn wrapped_fleet_campaign_matches_unwrapped_and_single_process() {
        let tmp = TempDir::new("fleet-test").unwrap();
        let fleet = FleetGen::setup(11, Scale::Smoke, tmp.path()).unwrap();
        let name = &fleet.names[0];
        let plain = fleet.drive(name, None, None, false).unwrap();
        let tracer = Tracer::new();
        let log = Arc::new(WireLog::default());
        let wrapped = fleet.drive(name, Some(&tracer), Some(&log), true).unwrap();
        assert_eq!(plain.outcome, wrapped.outcome);
        assert_eq!(plain.outcome.report_hash, fleet.reference[0].report_hash);
        assert_eq!(wrapped.digest.workers_lost, 0);
        // Durability changes what is written, never what is reported.
        assert_eq!(plain.digest.checkpoints, 0);
        assert!(wrapped.digest.checkpoints > 0);

        let mut layer = Values::new();
        let mut rtts = Vec::new();
        FleetGen::wire_replay(&log, &mut layer, &mut rtts);
        assert_eq!(
            layer["daemon.shards"],
            rtts.len() as f64,
            "every Assign got its Result"
        );
        // Hello + HelloAck + Shutdown per worker, Assign + Event + Result per shard.
        assert_eq!(
            layer["wire.frames"],
            (3 * WORKERS) as f64 + 3.0 * layer["daemon.shards"]
        );
        assert!(layer["wire.bytes"] > 0.0);
    }
}
