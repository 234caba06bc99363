//! The `csnake-daemon` binary: distributed campaigns from the command
//! line.
//!
//! ```text
//! csnake-daemon run   --target <name> [-j N] [options]   one-shot local fleet
//! csnake-daemon serve --listen ADDR --target <name> -j N wait for TCP workers, then run
//! csnake-daemon work  --stdio | --connect HOST:PORT      serve shards to a coordinator
//! ```
//!
//! `run` spawns `N` copies of itself as `work --stdio` children and
//! coordinates them over pipes — the no-setup path. `serve`/`work` split
//! the same roles across machines over TCP. All three print the final
//! `DetectionReport` Debug form on stdout (`report: ...`), which is
//! byte-comparable with a single-process `Session::run_to_report` — the
//! property the daemon exists to preserve.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};

use csnake_core::{
    CampaignObserver, ChaosConfig, DetectConfig, FanoutObserver, ProgressCollector, ThreePhase,
};
use csnake_daemon::transport::Endpoint;
use csnake_daemon::{drive_session, run_worker, DaemonConfig, WorkerOptions};
use csnake_telemetry::{FlightRecorder, LiveProgress, MetricsDigest};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: csnake-daemon <command> [options]\n\
         \n\
         commands:\n\
         \x20 run    --target <name> [-j N] [--shard-jobs J] [--lease-ms MS]\n\
         \x20        [--checkpoint PATH --cadence K] [--fast] [--kill-worker W:K]\n\
         \x20        [--progress] [--journal BASE] [--chaos SPEC]\n\
         \x20        spawn N local worker processes and run one campaign\n\
         \x20 serve  --listen ADDR --target <name> -j N [--shard-jobs J] [--lease-ms MS] [--fast]\n\
         \x20        [--progress] [--journal BASE] [--chaos SPEC]\n\
         \x20        accept N TCP workers, then run one campaign\n\
         \x20 work   --stdio | --connect HOST:PORT [--fail-after K] [--no-heartbeat] [--fast]\n\
         \x20        serve experiment shards to a coordinator\n\
         \n\
         defaults: -j 2, --shard-jobs 2, --lease-ms 2000, --cadence 16\n\
         targets: builtins (toy, ...), scenario corpus names (kafka-isr, ...), gen:<seed>\n\
         chaos spec: seed=7,exp_panic=0.2,exp_stall=0.1,snap_io=0.25,wire_drop=0.2,attempts=2,..."
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("csnake-daemon: {msg}");
    std::process::exit(1);
}

/// The smoke-test configuration: enough repetitions to detect, small
/// enough to iterate (the one the daemon's tests use).
fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

struct Parsed {
    target: Option<String>,
    jobs: usize,
    daemon: DaemonConfig,
    fast: bool,
    checkpoint: Option<(String, usize)>,
    kill_worker: Option<(usize, usize)>,
    listen: Option<String>,
    connect: Option<String>,
    stdio: bool,
    fail_after: Option<usize>,
    heartbeats: bool,
    progress: bool,
    journal: Option<String>,
    chaos: ChaosConfig,
}

fn parse(args: &[String]) -> Parsed {
    let mut p = Parsed {
        target: None,
        jobs: 2,
        daemon: DaemonConfig::default(),
        fast: false,
        checkpoint: None,
        kill_worker: None,
        listen: None,
        connect: None,
        stdio: false,
        fail_after: None,
        heartbeats: true,
        progress: false,
        journal: None,
        chaos: ChaosConfig::default(),
    };
    let mut cadence = 16usize;
    let mut checkpoint_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--target" => p.target = Some(value("--target")),
            "-j" | "--workers" => {
                p.jobs = value("-j")
                    .parse()
                    .unwrap_or_else(|_| fail("-j needs a number"))
            }
            "--shard-jobs" => {
                p.daemon.shard_jobs = value("--shard-jobs")
                    .parse()
                    .unwrap_or_else(|_| fail("--shard-jobs needs a number"))
            }
            "--lease-ms" => {
                p.daemon.lease_ms = value("--lease-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--lease-ms needs a number"))
            }
            "--checkpoint" => checkpoint_path = Some(value("--checkpoint")),
            "--cadence" => {
                cadence = value("--cadence")
                    .parse()
                    .unwrap_or_else(|_| fail("--cadence needs a number"))
            }
            "--fast" => p.fast = true,
            "--kill-worker" => {
                let v = value("--kill-worker");
                let (w, k) = v
                    .split_once(':')
                    .unwrap_or_else(|| fail("--kill-worker wants W:K"));
                p.kill_worker = Some((
                    w.parse()
                        .unwrap_or_else(|_| fail("--kill-worker wants W:K")),
                    k.parse()
                        .unwrap_or_else(|_| fail("--kill-worker wants W:K")),
                ));
            }
            "--listen" => p.listen = Some(value("--listen")),
            "--connect" => p.connect = Some(value("--connect")),
            "--stdio" => p.stdio = true,
            "--fail-after" => {
                p.fail_after = Some(
                    value("--fail-after")
                        .parse()
                        .unwrap_or_else(|_| fail("--fail-after needs a number")),
                )
            }
            "--no-heartbeat" => p.heartbeats = false,
            "--progress" => p.progress = true,
            "--journal" => p.journal = Some(value("--journal")),
            "--chaos" => p.chaos = ChaosConfig::parse(&value("--chaos")),
            _ => usage(),
        }
    }
    p.checkpoint = checkpoint_path.map(|path| (path, cadence));
    p
}

fn campaign(target_name: &str, endpoints: Vec<Endpoint>, p: &Parsed) -> ! {
    let target =
        csnake_daemon::targets::resolve(target_name).unwrap_or_else(|e| fail(&e.to_string()));
    let mut cfg = if p.fast {
        fast_config()
    } else {
        DetectConfig::default()
    };
    cfg.driver.chaos = p.chaos.clone();
    let progress = Arc::new(ProgressCollector::new());
    // The recorder rides next to the collector in a fanout: observers
    // never perturb results, so the report stays byte-comparable with a
    // plain run.
    let recorder = p.journal.as_ref().map(|base| {
        Arc::new(
            FlightRecorder::builder()
                .jsonl(format!("{base}.jsonl"))
                .binary(format!("{base}.csnj"))
                .build()
                .unwrap_or_else(|e| fail(&format!("cannot open journal: {e}"))),
        )
    });
    let observer: Arc<dyn CampaignObserver> = match &recorder {
        Some(rec) => Arc::new(FanoutObserver::new(vec![
            progress.clone() as Arc<dyn CampaignObserver>,
            rec.clone(),
        ])),
        None => progress.clone(),
    };
    let live = p
        .progress
        .then(|| LiveProgress::start(progress.clone(), Duration::from_secs(1)));
    let mut builder = csnake_core::Session::builder(target.as_ref())
        .config(cfg)
        .observer(observer);
    if let Some((path, cadence)) = &p.checkpoint {
        builder = builder.auto_checkpoint(path, *cadence);
    }
    let mut session = builder.build().unwrap_or_else(|e| fail(&e.to_string()));
    let (report, outcome) = drive_session(
        &mut session,
        target_name,
        endpoints,
        p.daemon.clone(),
        &ThreePhase::default(),
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(live) = live {
        live.stop();
    }
    if let Some(rec) = &recorder {
        rec.finish()
            .unwrap_or_else(|e| fail(&format!("journal write failed: {e}")));
        let base = p.journal.as_deref().expect("recorder implies --journal");
        let records = rec.records();
        csnake_telemetry::write_chrome_trace(format!("{base}.trace.json"), &records)
            .unwrap_or_else(|e| fail(&format!("trace write failed: {e}")));
        MetricsDigest::from_records(&records)
            .write_json(format!("{base}.digest.json"))
            .unwrap_or_else(|e| fail(&format!("digest write failed: {e}")));
        eprintln!(
            "journal: {base}.jsonl {base}.csnj {base}.trace.json {base}.digest.json ({} records)",
            records.len()
        );
    }
    let snap = progress.snapshot();
    eprintln!(
        "workers: connected={} lost={} shards: assigned={} reassigned={} events_forwarded={}",
        snap.workers_connected,
        snap.workers_lost,
        snap.shards_assigned,
        snap.shards_reassigned,
        snap.events_forwarded,
    );
    if let Some(reason) = progress.last_loss_reason() {
        eprintln!("last worker loss: {reason}");
    }
    println!("report: {report:?}");
    println!("runs: {}", outcome.runs_executed);
    std::process::exit(0);
}

fn cmd_run(p: Parsed) -> ! {
    let Some(target_name) = p.target.clone() else {
        fail("run needs --target <name>");
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&e.to_string()));
    let mut children: Vec<Child> = Vec::new();
    let mut endpoints = Vec::new();
    for w in 0..p.jobs.max(1) {
        let mut cmd = Command::new(&exe);
        cmd.arg("work").arg("--stdio");
        if let Some((kw, k)) = p.kill_worker {
            if kw == w {
                cmd.arg("--fail-after").arg(k.to_string());
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| fail(&format!("cannot spawn worker: {e}")));
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        endpoints.push(Endpoint::from_stream(stdout, stdin));
        children.push(child);
    }
    // campaign() exits the process; children exit with it on Shutdown/EOF,
    // so nothing here needs to reap them — but reap the fast-failure path
    // where campaign would fail before the handshake completes.
    campaign(&target_name, endpoints, &p)
}

fn cmd_serve(p: Parsed) -> ! {
    let Some(addr) = p.listen.clone() else {
        fail("serve needs --listen ADDR");
    };
    let Some(target_name) = p.target.clone() else {
        fail("serve needs --target <name>");
    };
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    let mut endpoints = Vec::new();
    for _ in 0..p.jobs.max(1) {
        let (stream, peer) = listener
            .accept()
            .unwrap_or_else(|e| fail(&format!("accept: {e}")));
        eprintln!("worker connected from {peer}");
        let read = stream
            .try_clone()
            .unwrap_or_else(|e| fail(&format!("clone socket: {e}")));
        endpoints.push(Endpoint::from_stream(read, stream));
    }
    campaign(&target_name, endpoints, &p)
}

fn cmd_work(p: Parsed) -> ! {
    let opts = WorkerOptions {
        fail_after: p.fail_after,
        fail_hang_ms: 0,
        heartbeats: p.heartbeats,
    };
    let endpoint = if p.stdio {
        Endpoint::from_stream(std::io::stdin(), std::io::stdout())
    } else if let Some(addr) = &p.connect {
        let stream =
            TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
        let read = stream
            .try_clone()
            .unwrap_or_else(|e| fail(&format!("clone socket: {e}")));
        Endpoint::from_stream(read, stream)
    } else {
        fail("work needs --stdio or --connect HOST:PORT");
    };
    match run_worker(endpoint, opts) {
        Ok(()) => std::process::exit(0),
        Err(e) => fail(&format!("worker failed: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let parsed = parse(rest);
    match cmd.as_str() {
        "run" => cmd_run(parsed),
        "serve" => cmd_serve(parsed),
        "work" => cmd_work(parsed),
        _ => usage(),
    }
}
