//! Runs one workload in this process: set-up, one warm-up iteration, timed
//! iterations for the requested seconds, output checks, metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::ledger;
use crate::metrics::{
    median, median_values, ratio, result_line, secs, Values, END_TO_END, OPS_FAILED_SHARE,
    PER_LAYER,
};
use crate::procfs;
use crate::spans::{chrome_trace_json, Tracer};
use crate::tmp::{out_dir, TempDir};
use crate::workloads::{self, check, Check, Iteration, Scale, Trace};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One untraced timed iteration, measured from outside.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor gave to someone else
    /// while this iteration ran.
    steal_share: f64,
}

/// Machine-wide steal share above which an iteration counts as disturbed.
/// On the sizing box (a shared 2-vCPU VM) `gen-corpus` iterations under
/// 2 % steal took 3.1 – 3.9 s, at 6 – 9 % 4.3 – 4.5 s, at 11 – 21 % 4.7 – 6.3 s.
const STEAL_LIMIT: f64 = 0.03;

/// The samples the timing medians are taken over: the undisturbed ones, or,
/// when fewer than two are, the calmer half of a run that was disturbed
/// throughout. Where the kernel reports no steal (bare metal) that is every
/// sample.
fn calm(samples: &[Sample]) -> Vec<&Sample> {
    let mut by_steal: Vec<&Sample> = samples.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let undisturbed = by_steal
        .iter()
        .take_while(|s| s.steal_share <= STEAL_LIMIT)
        .count();
    by_steal.truncate(if undisturbed >= 2 {
        undisturbed
    } else {
        samples.len().div_ceil(2)
    });
    by_steal
}

/// Median of one field over a set of samples.
fn median_of(samples: &[&Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(|s| field(s)).collect::<Vec<_>>())
}

/// The seed-0 fingerprint of a workload at full size.
fn expected_counts(workload: &str) -> Option<BTreeMap<String, u64>> {
    let text = match workload {
        "hdfs2-campaign" => include_str!("../expected/hdfs2-campaign.json"),
        "openloop-1m" => include_str!("../expected/openloop-1m.json"),
        "gen-corpus" => include_str!("../expected/gen-corpus.json"),
        "fleet-gen" => include_str!("../expected/fleet-gen.json"),
        "stitch-hdfs3" => include_str!("../expected/stitch-hdfs3.json"),
        _ => return None,
    };
    Some(parse_flat_json(text))
}

/// Parses a flat `{"key": 123, ...}` object of unsigned integers — the
/// only JSON the benchmark reads.
pub fn parse_flat_json(text: &str) -> BTreeMap<String, u64> {
    text.trim()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .filter_map(|pair| {
            let (key, value) = pair.split_once(':')?;
            Some((
                key.trim().trim_matches('"').to_string(),
                value.trim().parse().ok()?,
            ))
        })
        .collect()
}

/// Runs the workload and prints every metric by name with its unit, the
/// checks, and the result line. Returns the failed-operation count.
pub fn run(args: &RunArgs, started: Instant) -> Result<u64, String> {
    let tmp = TempDir::new(&args.workload).map_err(|e| format!("temp dir: {e}"))?;
    let mut workload = workloads::setup(&args.workload, args.seed, args.scale, tmp.path())?;
    let mut checks = workload.setup_checks();
    // The warm-up pays allocator growth and page-cache misses, so they land
    // in `setup_s` and not in the first timed iteration.
    let mut iterations: Vec<Iteration> = vec![workload.iterate(None)?];
    let setup_s = started.elapsed().as_secs_f64();

    let tracer = args.trace.then(Tracer::new);
    // Per-layer rows carry no bound, so a traced run settles for fewer
    // (untraced, traced) pairs than an untraced run takes samples.
    let min_iterations = args.scale.pick(if args.trace { 2 } else { 3 }, 1);
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut traced_rows: Vec<Values> = Vec::new();
    let mut peak_resets = true;
    let measuring = Instant::now();
    loop {
        peak_resets &= procfs::reset_peak_rss();
        let cpu0 = procfs::cpu_seconds().unwrap_or(0.0);
        let (steal0, ticks0) = procfs::steal_ticks().unwrap_or((0, 0));
        let t0 = Instant::now();
        let iteration = workload.iterate(None)?;
        let (steal1, ticks1) = procfs::steal_ticks().unwrap_or((0, 0));
        samples.push(Sample {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: procfs::cpu_seconds().unwrap_or(0.0) - cpu0,
            peak_rss_mb: procfs::peak_rss_mb().unwrap_or(0.0),
            steal_share: ratio((steal1 - steal0) as f64, (ticks1 - ticks0) as f64),
        });
        iterations.push(iteration);

        if let Some(tracer) = &tracer {
            let replay = traced_rows.is_empty();
            let (cursor, paused0, t0) = (tracer.cursor(), tracer.paused_ns(), Instant::now());
            let mut iteration = workload.iterate(Some(Trace { tracer, replay }))?;
            let wall_s = t0.elapsed().as_secs_f64() - secs(tracer.paused_ns() - paused0);
            let rows = ledger::rows(
                &tracer.since(cursor),
                wall_s,
                csnake_core::pool::hardware_threads(),
                std::mem::take(&mut iteration.layer),
            );
            traced_walls.push(wall_s);
            traced_rows.push(rows);
            iterations.push(iteration);
        }
        if samples.len() >= min_iterations && measuring.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Output checks. An operation is one experiment cell or one check.
    iterations
        .iter_mut()
        .for_each(|i| checks.append(&mut i.checks));
    let first = &iterations[0];
    checks.push(check(
        format!(
            "{} per iteration identical in every iteration ({})",
            workload.work_unit(),
            first.work
        ),
        iterations.iter().all(|i| i.work == first.work) && first.work > 0,
    ));
    checks.push(check(
        format!(
            "report Debug text identical in every iteration ({:016x})",
            first.fingerprint
        ),
        iterations
            .iter()
            .all(|i| i.fingerprint == first.fingerprint),
    ));
    checks.push(check(
        "outcome counts identical in every iteration".to_string(),
        iterations.iter().all(|i| i.counts == first.counts),
    ));
    if (args.seed == 0 || !workload.seeded()) && args.scale == Scale::Full {
        let expected = expected_counts(&args.workload).unwrap_or_default();
        checks.push(check(
            format!("fingerprint is committed ({} counts)", expected.len()),
            !expected.is_empty(),
        ));
        for (name, want) in &expected {
            let got = first.counts.get(name.as_str()).copied();
            checks.push(check(
                format!("fingerprint: {name} = {want} (got {got:?})"),
                got == Some(*want),
            ));
        }
    }
    // Replay rows exist in one iteration only; their median is that value.
    let mut layer = median_values(&traced_rows);
    let calm = calm(&samples);
    let wall_s = median_of(&calm, |s| s.wall_s);
    if let Some(tracer) = &tracer {
        layer.insert(
            "trace.overhead_share",
            ratio(median(&traced_walls), wall_s) - 1.0,
        );
        let coverage = layer.get("trace.coverage").copied().unwrap_or(0.0);
        checks.push(check(
            format!("trace.coverage >= 0.95 (got {coverage:.4})"),
            coverage >= 0.95,
        ));
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, chrome_trace_json(&tracer.all()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {} spans -> {}", tracer.cursor(), path.display());
    }
    let cells: u64 = iterations.iter().map(|i| i.cells).sum();
    let missing: u64 = iterations.iter().map(|i| i.missing_cells).sum();
    let attempted = cells + checks.len() as u64;
    let failed = missing + checks.iter().filter(|c| !c.ok).count() as u64;

    // End-to-end metrics, from the untraced iterations.
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let sim_events_per_s = match workload.setup_simulation() {
        Some((events, seconds)) => ratio(events as f64, seconds),
        None => ratio(first.counts["sim_events"] as f64, wall_s),
    };
    let end_to_end = Values::from([
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("work_per_s", ratio(first.work as f64, wall_s)),
        ("sim_events_per_s", sim_events_per_s),
        ("cpu_s", median_of(&calm, |s| s.cpu_s)),
        ("peak_rss_mb", median_of(&calm, |s| s.peak_rss_mb)),
    ]);

    println!(
        "workload {} seed {} scale {:?} trace {} nproc {} hardware_threads {}",
        args.workload,
        args.seed,
        args.scale,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        csnake_core::pool::hardware_threads(),
    );
    println!(
        "iterations {} timed + 1 warm-up: too few samples for a tail percentile; wall_s min {:.4} max {:.4}; work unit: {}; peak reset per iteration: {}",
        samples.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        workload.work_unit(),
        peak_resets,
    );
    println!(
        "samples wall_s {}",
        walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "samples steal_share {} (medians over the {} calmest; an iteration above {STEAL_LIMIT} is disturbed)",
        samples
            .iter()
            .map(|s| format!("{:.3}", s.steal_share))
            .collect::<Vec<_>>()
            .join(" "),
        calm.len(),
    );
    for m in END_TO_END {
        println!(
            "metric {} {} {} ({} is better)",
            m.name,
            end_to_end[m.name],
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "metric {OPS_FAILED_SHARE} {} ratio",
        ratio(failed as f64, attempted as f64)
    );
    if args.trace {
        for m in PER_LAYER {
            let value = layer.get(m.name).copied().unwrap_or(0.0);
            println!(
                "layer {} {} {} ({} is better)",
                m.name,
                value,
                m.unit,
                m.better.as_str()
            );
        }
    }
    for (name, value) in &first.counts {
        println!("count {name} {value}");
    }
    for Check { what, ok } in &checks {
        println!("check {} {what}", if *ok { "PASS" } else { "FAIL" });
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, layer.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, end_to_end[m.name], m.unit))
            .collect()
    };
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall_s: f64, steal_share: f64) -> Sample {
        Sample {
            wall_s,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            steal_share,
        }
    }

    #[test]
    fn timing_medians_skip_disturbed_iterations() {
        // Two disturbed iterations among five: the three others decide.
        let mixed = [
            sample(1.0, 0.0),
            sample(1.6, 0.2),
            sample(1.1, 0.01),
            sample(1.5, 0.08),
            sample(1.2, 0.03),
        ];
        assert_eq!(median_of(&calm(&mixed), |s| s.wall_s), 1.1);
        // Disturbed throughout: the calmer half (rounded up).
        let noisy = [sample(2.0, 0.3), sample(1.5, 0.1), sample(1.7, 0.2)];
        let kept = calm(&noisy);
        assert_eq!(kept.len(), 2);
        assert_eq!(median_of(&kept, |s| s.wall_s), 1.6);
        // No steal reported: every sample counts.
        let quiet = [sample(3.0, 0.0), sample(1.0, 0.0), sample(2.0, 0.0)];
        assert_eq!(median_of(&calm(&quiet), |s| s.wall_s), 2.0);
    }

    #[test]
    fn flat_json_reads_counts_and_skips_junk() {
        let parsed = parse_flat_json("{\n  \"experiments\": 264,\n \"runs\":1329, \"bad\": x\n}\n");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["experiments"], 264);
        assert_eq!(parsed["runs"], 1329);
        assert!(parse_flat_json("{}").is_empty());
    }

    #[test]
    fn every_workload_has_a_committed_fingerprint() {
        for name in workloads::NAMES {
            let counts = expected_counts(name).expect("fingerprint file is compiled in");
            assert!(counts.contains_key("experiments"), "{name}");
        }
    }
}
