//! The campaign benchmark: five real-campaign workloads, end-to-end metrics
//! and an outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! campaign-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
//! campaign-benchmark all   --seed <u64> [--seconds <s>] [--smoke]
//! campaign-benchmark agree --seed <u64> [--seconds <s>] [--smoke]
//! ```

mod campaign;
mod ledger;
mod metrics;
mod parent;
mod procfs;
mod replay;
mod run;
mod spans;
mod timed;
mod tmp;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use parent::SetArgs;
use run::RunArgs;
use workloads::Scale;

/// How long one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage:
  campaign-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
  campaign-benchmark all   --seed <u64> [--seconds <s>] [--smoke]
  campaign-benchmark agree --seed <u64> [--seconds <s>] [--smoke]";

#[derive(Debug, Default, PartialEq)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a 64-bit seed")?;
                flags.seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?} is not a decimal 64-bit seed"))?;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                let seconds: f64 = text
                    .parse()
                    .map_err(|_| format!("--seconds {text:?} is not a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {text} is outside 0..=600"));
                }
                flags.seconds = Some(seconds);
            }
            // Bare `--trace` switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                flags.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("run" | "all" | "agree")) => (mode, &args[1..]),
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let flags = match parse_flags(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if flags.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let seconds = flags.seconds.unwrap_or(scale.pick(DEFAULT_SECONDS, 0.5));

    let failures = match mode {
        "run" => {
            let Some(workload) = flags.workload else {
                eprintln!("run needs --workload\n{USAGE}");
                return ExitCode::from(2);
            };
            let args = RunArgs {
                workload,
                seed: flags.seed,
                seconds,
                trace: flags.trace,
                scale,
            };
            match run::run(&args, started) {
                Ok(failed) => failed as usize,
                Err(e) => {
                    eprintln!("{}: {e}", args.workload);
                    return ExitCode::FAILURE;
                }
            }
        }
        set => {
            let args = SetArgs {
                seed: flags.seed,
                seconds,
                scale,
            };
            if set == "all" {
                parent::all(&args)
            } else {
                parent::agree(&args)
            }
        }
    };
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_forms_parse_alike() {
        let driver = flags(&[
            "--workload",
            "gen-corpus",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(driver.workload.as_deref(), Some("gen-corpus"));
        assert_eq!(
            (driver.seed, driver.seconds, driver.trace),
            (7, Some(12.0), false)
        );
        assert!(flags(&["--trace", "1"]).unwrap().trace);
        assert!(flags(&["--trace"]).unwrap().trace);
        let mixed = flags(&["--trace", "--seed", "18446744073709551615"]).unwrap();
        assert!(mixed.trace);
        assert_eq!(mixed.seed, u64::MAX);
    }

    #[test]
    fn bad_flags_are_errors_not_defaults() {
        assert!(flags(&["--seed", "-1"]).is_err());
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["--seconds", "nan"]).is_err());
        assert!(flags(&["--seconds", "1e9"]).is_err());
        assert!(flags(&["--frobnicate"]).is_err());
    }
}
