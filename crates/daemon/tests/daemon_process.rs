//! The `csnake-daemon` binary end-to-end: real processes, real pipes,
//! real sockets.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use csnake_core::{DetectConfig, Session, ThreePhase};
use csnake_telemetry::{json, read_journal, unbalanced_spans, MetricsDigest};

const BIN: &str = env!("CARGO_BIN_EXE_csnake-daemon");

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

/// The `report: ...` line the binary prints, for byte comparison.
fn expected_report_line(target_name: &str) -> String {
    let target = csnake_daemon::targets::resolve(target_name).expect("target resolves");
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .build()
        .expect("session builds");
    format!(
        "report: {:?}",
        session
            .run_to_report(&ThreePhase::default())
            .expect("single-process campaign")
    )
}

fn report_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("report: "))
        .unwrap_or_else(|| panic!("no report line in output:\n{stdout}"))
}

#[test]
fn run_subcommand_matches_the_in_process_pipeline() {
    let expected = expected_report_line("toy");
    let out = Command::new(BIN)
        .args(["run", "--target", "toy", "-j", "2", "--fast"])
        .output()
        .expect("spawn csnake-daemon run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(report_line(&stdout), expected);
}

#[test]
fn run_survives_a_killed_worker_process() {
    let expected = expected_report_line("toy");
    let out = Command::new(BIN)
        .args([
            "run",
            "--target",
            "toy",
            "-j",
            "2",
            "--fast",
            "--kill-worker",
            "0:1",
        ])
        .output()
        .expect("spawn csnake-daemon run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed: {stdout}\n{stderr}");
    assert_eq!(report_line(&stdout), expected);
    assert!(
        stderr.contains("lost=1"),
        "the killed worker must be reported lost: {stderr}"
    );
}

/// `--journal BASE` writes the collector's journals, the digest and the
/// Chrome trace of one fleet run; the digest on disk is the one the binary
/// journal folds to, and recording leaves the report unchanged.
#[test]
fn run_with_a_journal_writes_a_consistent_digest_and_trace() {
    let expected = expected_report_line("toy");
    let dir = std::env::temp_dir().join(format!("csnake-daemon-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let base = dir.join("j");
    let base = base.to_str().expect("UTF-8 temp path");
    let out = Command::new(BIN)
        .args([
            "run",
            "--target",
            "toy",
            "-j",
            "2",
            "--fast",
            "--journal",
            base,
        ])
        .output()
        .expect("spawn csnake-daemon run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(report_line(&stdout), expected);

    let file = |ext: &str| std::path::PathBuf::from(format!("{base}.{ext}"));
    for ext in ["jsonl", "csnj", "trace.json", "digest.json"] {
        assert!(file(ext).is_file(), "--journal wrote no .{ext}");
    }
    let records = read_journal(&file("csnj")).expect("binary journal reads");
    let digest = std::fs::read_to_string(file("digest.json")).expect("digest reads");
    assert_eq!(digest, MetricsDigest::from_records(&records).to_json());
    let trace = std::fs::read_to_string(file("trace.json")).expect("trace reads");
    json::parse(&trace).expect("Chrome trace parses");
    assert_eq!(unbalanced_spans(&records), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_work_speak_tcp() {
    let expected = expected_report_line("toy");
    let mut server = Command::new(BIN)
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--target",
            "toy",
            "-j",
            "2",
            "--fast",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn csnake-daemon serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();

    let workers: Vec<_> = (0..2)
        .map(|_| {
            Command::new(BIN)
                .args(["work", "--connect", &addr])
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn csnake-daemon work")
        })
        .collect();

    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("read server output");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "serve failed: {rest}");
    assert_eq!(report_line(&rest), expected);
    for mut w in workers {
        let status = w.wait().expect("worker exits");
        assert!(status.success(), "worker exited nonzero");
    }
}
