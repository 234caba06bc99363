//! `/proc/self` readers: CPU time, peak resident set, and the peak reset.
//!
//! Parsing is split from reading so the parsers are unit-testable on fixed
//! text; a reader that cannot open or parse its file returns `None` and the
//! harness reports the metric as unavailable rather than inventing a value.

use std::fs;

/// Kernel clock ticks per second as exposed to user space (`USER_HZ`),
/// which Linux fixes at 100 on every architecture this repo builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields
    // 14 and 15, i.e. offsets 11 and 12 from here.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   123 kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// `(steal, total)` clock ticks of the machine's aggregate `cpu` line in
/// `/proc/stat`: time the hypervisor ran someone else while a vCPU of this
/// guest was runnable, and all accounted time (user … steal).
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let mut fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace();
    let mut ticks = [0u64; 8];
    for slot in &mut ticks {
        *slot = fields.next()?.parse().ok()?;
    }
    Some((ticks[7], ticks.iter().sum()))
}

/// Machine-wide `(steal, total)` ticks so far.
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_stat_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// User + system CPU seconds consumed by this process (all threads) so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) since process start or the last
/// [`reset_peak_rss`]. The kernel reports KiB; the `MB` of `peak_rss_mb`
/// is MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Resets the peak-RSS watermark to the current resident set (writing `5`
/// to `clear_refs`), so each timed iteration reports its own peak. Returns
/// `false` where the kernel refuses; the peak is then process-lifetime.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(333));
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_matches_whole_keys_only() {
        let status = "Name:\tx\nVmHWMx:\t   7 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(100));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn steal_parser_reads_the_aggregate_line_only() {
        let stat = "cpu  100 1 50 800 9 0 5 35 0 0\ncpu0 50 0 25 400 4 0 2 20 0 0\n";
        assert_eq!(parse_stat_steal(stat), Some((35, 1000)));
        assert_eq!(parse_stat_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert!(steal_ticks().is_some_and(|(steal, total)| steal <= total));
    }

    #[test]
    fn live_readers_report_this_process() {
        let before = cpu_seconds().expect("/proc/self/stat is readable");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds().expect("readable") >= before);
        assert!(peak_rss_mb().expect("/proc/self/status has VmHWM") > 0.0);
    }

    #[test]
    fn peak_reset_forgets_a_released_allocation() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb().expect("VmHWM");
        drop(big);
        if reset_peak_rss() {
            let after = peak_rss_mb().expect("VmHWM");
            assert!(after < with_big, "{after} !< {with_big}");
        }
    }
}
