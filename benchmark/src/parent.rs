//! `all` and `agree`: run every workload in its own child process, one at a
//! time, so `peak_rss_mb` and `cpu_s` are per-workload and one workload's
//! allocator state never leaks into the next.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::tmp::temp_path;
use crate::workloads::{expected_run_seconds, Scale, NAMES};

pub struct SetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What one child run printed.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// `metric` and `layer` lines: name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// `count` lines.
    pub counts: BTreeMap<String, u64>,
    pub failed_checks: Vec<String>,
    /// The child exited 0 and printed a result line.
    pub completed: bool,
}

/// Reads the line protocol of `run`.
pub fn parse_report(stdout: &str) -> ChildReport {
    let mut report = ChildReport::default();
    for line in stdout.lines() {
        let mut words = line.split_ascii_whitespace();
        match words.next() {
            Some("metric" | "layer") => {
                if let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                {
                    if let Ok(value) = value.parse() {
                        report
                            .metrics
                            .insert(name.to_string(), (value, unit.to_string()));
                    }
                }
            }
            Some("count") => {
                if let (Some(name), Some(Ok(value))) = (words.next(), words.next().map(str::parse))
                {
                    report.counts.insert(name.to_string(), value);
                }
            }
            Some("check") if words.next() == Some("FAIL") => {
                report.failed_checks.push(line.to_string());
            }
            _ => {}
        }
    }
    report.completed = stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\""));
    report
}

/// Runs one workload in a child process under a deadline of four times its
/// expected duration. A child that overruns is killed and reported as
/// failed operations instead of hanging the set.
fn run_child(workload: &str, args: &SetArgs, trace: bool) -> ChildReport {
    let expected = expected_run_seconds(workload, args.scale, args.seconds, trace);
    let deadline = Duration::from_secs_f64(4.0 * expected);
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => {
            return ChildReport {
                failed_checks: vec![format!("check FAIL could not start {workload}: {e}")],
                ..ChildReport::default()
            }
        }
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });

    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                // The killed child could not remove its temp directory.
                let _ = std::fs::remove_dir_all(temp_path(workload, child.id()));
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let mut report = parse_report(&text);
    match status {
        Some(status) if status.success() => {}
        Some(status) => {
            report.completed = false;
            report
                .failed_checks
                .push(format!("check FAIL {workload} exited with {status}"));
        }
        None => {
            report.completed = false;
            report.failed_checks.push(format!(
                "check FAIL {workload} exceeded its deadline of {:.0} s (4 x {expected:.0} s expected) and was killed",
                deadline.as_secs_f64()
            ));
        }
    }
    report
}

/// One full set: every workload untraced (end-to-end metrics) and traced
/// (per-layer metrics), keyed by workload.
fn run_set(args: &SetArgs) -> BTreeMap<&'static str, (ChildReport, ChildReport)> {
    NAMES
        .iter()
        .map(|&workload| {
            eprintln!("== {workload}: untraced");
            let end_to_end = run_child(workload, args, false);
            eprintln!("== {workload}: traced");
            let per_layer = run_child(workload, args, true);
            (workload, (end_to_end, per_layer))
        })
        .collect()
}

fn print_failures(workload: &str, report: &ChildReport) -> usize {
    for line in &report.failed_checks {
        println!("{workload}: {line}");
    }
    report.failed_checks.len() + usize::from(!report.completed)
}

/// `all`: prints every metric of every workload by name with its unit.
/// Returns the number of failures.
pub fn all(args: &SetArgs) -> usize {
    let set = run_set(args);
    let mut failures = 0;
    for (workload, (end_to_end, per_layer)) in &set {
        for m in END_TO_END {
            match end_to_end.metrics.get(m.name) {
                Some((value, unit)) => println!("{workload} {} {value} {unit}", m.name),
                None => println!("{workload} {} missing", m.name),
            }
        }
        if let Some((value, unit)) = end_to_end.metrics.get(crate::metrics::OPS_FAILED_SHARE) {
            println!(
                "{workload} {} {value} {unit}",
                crate::metrics::OPS_FAILED_SHARE
            );
        }
        for m in PER_LAYER {
            match per_layer.metrics.get(m.name) {
                Some((value, unit)) => println!("{workload} {} {value} {unit}", m.name),
                None => println!("{workload} {} missing", m.name),
            }
        }
        for (name, value) in &end_to_end.counts {
            println!("{workload} count.{name} {value} count");
        }
        failures += print_failures(workload, end_to_end) + print_failures(workload, per_layer);
    }
    println!("{}", if failures == 0 { "ALL PASS" } else { "FAILED" });
    failures
}

/// `agree`: runs the full set twice and compares. End-to-end metrics must
/// agree within their bound (relative to the first run, either direction);
/// every deterministic count must be exactly equal. Returns the number of
/// FAIL rows.
pub fn agree(args: &SetArgs) -> usize {
    let first = run_set(args);
    let second = run_set(args);
    let mut failures = 0;
    println!(
        "{:<16} {:<28} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for workload in NAMES {
        let (a, a_layers) = &first[workload];
        let (b, b_layers) = &second[workload];
        for m in END_TO_END {
            let (Some((x, _)), Some((y, _))) = (a.metrics.get(m.name), b.metrics.get(m.name))
            else {
                println!("{workload:<16} {:<28} missing  FAIL", m.name);
                failures += 1;
                continue;
            };
            let diff = if *x != 0.0 { (y - x) / x } else { 0.0 };
            let pass = diff.abs() <= m.bound;
            failures += usize::from(!pass);
            println!(
                "{workload:<16} {:<28} {x:>16.6} {y:>16.6} {:>+8.2}% {:>6.0}%  {}",
                m.name,
                100.0 * diff,
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let exact_rows = PER_LAYER.iter().filter(|m| m.exact).map(|m| {
            let value = |r: &ChildReport| r.metrics.get(m.name).map(|(v, _)| *v);
            (m.name.to_string(), value(a_layers), value(b_layers))
        });
        let count_rows = a.counts.keys().map(|name| {
            let value = |r: &ChildReport| r.counts.get(name).map(|v| *v as f64);
            (format!("count.{name}"), value(a), value(b))
        });
        for (name, x, y) in exact_rows.chain(count_rows).collect::<Vec<_>>() {
            let pass = x.is_some() && x == y;
            failures += usize::from(!pass);
            println!(
                "{workload:<16} {name:<28} {:>16} {:>16} {:>9} {:>7}  {}",
                x.map_or("missing".into(), |v| v.to_string()),
                y.map_or("missing".into(), |v| v.to_string()),
                "",
                "exact",
                if pass { "PASS" } else { "FAIL" }
            );
        }
        for report in [a, a_layers, b, b_layers] {
            failures += print_failures(workload, report);
        }
    }
    println!(
        "{}",
        if failures == 0 {
            "AGREE: PASS"
        } else {
            "AGREE: FAIL"
        }
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let report = parse_report(
            "workload x seed 0\n\
             metric wall_s 1.5 s\n\
             layer sim.events 42 count\n\
             count runs 7\n\
             check PASS fine\n\
             check FAIL broken thing\n\
             {\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}\n",
        );
        assert_eq!(report.metrics["wall_s"], (1.5, "s".to_string()));
        assert_eq!(report.metrics["sim.events"].0, 42.0);
        assert_eq!(report.counts["runs"], 7);
        assert_eq!(report.failed_checks, ["check FAIL broken thing"]);
        assert!(report.completed);
        assert!(!parse_report("metric wall_s 1 s\n").completed);
    }
}
