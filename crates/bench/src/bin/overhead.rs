//! Regenerates the §8.5 measurement: runtime overhead of CSnake's
//! instrumentation (branch tracing + call-stack recording) on profile runs.
//!
//! The paper reports an average of 185% (range 63–376%) on JVM targets;
//! this reproduction's hooks are cheap Rust calls over a simulator, so the
//! absolute percentages are lower — the preserved *shape* is a consistent,
//! measurable slowdown on every system, dominated by trace recording.
//! `ns/hook` is the traced − untraced difference per hook fired, so the
//! monitoring cost reads per hook, whatever a system's run length.

use std::time::Instant;

use csnake_core::TargetSystem;
use csnake_inject::{RunTrace, TestId};
use csnake_targets::all_paper_targets;

/// Median wall time of `n` tracing-on or tracing-off profile runs.
fn measure(target: &dyn TargetSystem, tracing: bool, n: usize) -> (f64, u64) {
    csnake_inject::tracing_switch::set(tracing);
    let mut times = Vec::new();
    let mut hooks = 0;
    for rep in 0..n {
        let t0 = Instant::now();
        let trace: RunTrace = target.run(TestId(0), None, rep as u64);
        times.push(t0.elapsed().as_secs_f64());
        hooks = trace.hook_count;
    }
    csnake_inject::tracing_switch::set(true);
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], hooks)
}

fn main() {
    println!("§8.5: instrumentation overhead on profile runs (workload t0)");
    println!("| System | traced (ms) | untraced (ms) | overhead | hooks/run | ns/hook |");
    println!("|---|---|---|---|---|---|");
    let n = 9;
    let mut ratios = Vec::new();
    for target in all_paper_targets() {
        let (on, hooks) = measure(target.as_ref(), true, n);
        let (off, _) = measure(target.as_ref(), false, n);
        let overhead = (on / off - 1.0) * 100.0;
        ratios.push(overhead);
        println!(
            "| {} | {:.3} | {:.3} | {:+.1}% | {} | {:.2} |",
            target.name(),
            on * 1e3,
            off * 1e3,
            overhead,
            hooks,
            (on - off) * 1e9 / hooks as f64,
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!();
    println!(
        "Average overhead: {avg:+.1}% (paper: +185% on JVM bytecode instrumentation; \
         lower absolute numbers are expected from inlined Rust hooks)"
    );
}
