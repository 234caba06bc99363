//! Live operator view: render a running campaign's fleet state.
//!
//! [`render_fleet`] is a pure function from a
//! [`csnake_core::ProgressCollector`] poll to a text
//! block — per-worker shard/lease status, budget, edges/cycles and an ETA
//! extrapolated from budget burn rate. [`LiveProgress`] wraps it in a
//! polling thread that repaints to stderr, for `csnake-daemon run
//! --progress` and the env-gated bench bins. Rendering only ever *reads*
//! collector state, so the view can never perturb campaign results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csnake_core::{ProgressCollector, ProgressSnapshot, WorkerProgress};

/// Formats a duration as `MmSSs` / `H:MM:SS`-style compact text.
fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs();
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}.{}s", s, d.subsec_millis() / 100)
    }
}

/// Estimated time to budget exhaustion from the burn rate so far.
fn eta(snapshot: &ProgressSnapshot, elapsed: Duration) -> Option<Duration> {
    if snapshot.budget_spent == 0 || snapshot.budget_total <= snapshot.budget_spent {
        return None;
    }
    let remaining = (snapshot.budget_total - snapshot.budget_spent) as f64;
    let rate = snapshot.budget_spent as f64 / elapsed.as_secs_f64().max(1e-6);
    Some(Duration::from_secs_f64(remaining / rate))
}

/// Renders one fleet-state frame as a multi-line text block.
pub fn render_fleet(
    snapshot: &ProgressSnapshot,
    workers: &[(u32, WorkerProgress)],
    last_loss: Option<&str>,
    elapsed: Duration,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "[{}] budget {}/{}  experiments {}  edges {}  cycles {}  retries {}",
        fmt_secs(elapsed),
        snapshot.budget_spent,
        snapshot.budget_total,
        snapshot.experiments,
        snapshot.edges,
        snapshot.cycles,
        snapshot.retries,
    ));
    if let Some(eta) = eta(snapshot, elapsed) {
        out.push_str(&format!("  eta {}", fmt_secs(eta)));
    }
    if snapshot.degraded {
        out.push_str("  DEGRADED");
    }
    out.push('\n');
    if snapshot.workers_connected > 0 || !workers.is_empty() {
        out.push_str(&format!(
            "fleet: {} connected, {} lost, {} shards ({} reassigned), {} events forwarded\n",
            snapshot.workers_connected,
            snapshot.workers_lost,
            snapshot.shards_assigned,
            snapshot.shards_reassigned,
            snapshot.events_forwarded,
        ));
        for (id, w) in workers {
            let c = &w.counters;
            let state = if w.connected {
                match w.current_shard {
                    Some(shard) => format!("shard {shard}"),
                    None => "idle".to_string(),
                }
            } else {
                format!("LOST ({})", w.lost_reason.as_deref().unwrap_or("unknown"))
            };
            out.push_str(&format!(
                "  w{id}: {state}  leases {}  experiments {}  edges {}  retries {}  cache {}/{}\n",
                w.leases, c.experiments, w.edges, c.retries, c.cache_hits, c.cache_misses,
            ));
        }
    }
    if let Some(reason) = last_loss {
        out.push_str(&format!("last loss: {reason}\n"));
    }
    out
}

/// A polling progress renderer on a background thread.
///
/// Repaints to stderr every `every` tick until [`stop`](Self::stop) (or
/// drop). The thread only reads the collector, so attaching it is always
/// safe.
pub struct LiveProgress {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LiveProgress {
    /// Starts rendering `collector` to stderr every `every`.
    pub fn start(collector: Arc<ProgressCollector>, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("csnake-progress".into())
            .spawn(move || {
                let started = Instant::now();
                while !thread_stop.load(Ordering::Relaxed) {
                    // Sleep in short slices so stop() returns promptly.
                    let mut left = every;
                    while !left.is_zero() && !thread_stop.load(Ordering::Relaxed) {
                        let step = left.min(Duration::from_millis(25));
                        std::thread::sleep(step);
                        left = left.saturating_sub(step);
                    }
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let frame = render_fleet(
                        &collector.snapshot(),
                        &collector.worker_progress(),
                        collector.last_loss_reason().as_deref(),
                        started.elapsed(),
                    );
                    eprint!("{frame}");
                }
            })
            .expect("spawn progress thread");
        LiveProgress {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the renderer and joins its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

impl Drop for LiveProgress {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::{CampaignEvent, CampaignObserver};

    #[test]
    fn renders_budget_fleet_and_loss() {
        let c = ProgressCollector::new();
        for event in [
            CampaignEvent::BudgetSpent {
                spent: 25,
                total: 100,
            },
            CampaignEvent::WorkerConnected { worker: 0 },
            CampaignEvent::WorkerConnected { worker: 1 },
            CampaignEvent::ShardAssigned {
                shard: 0,
                worker: 0,
                jobs: 8,
            },
            CampaignEvent::WorkerLost {
                worker: 1,
                reason: "lease expired after 200ms".into(),
            },
        ] {
            c.on_event(&event);
        }
        let text = render_fleet(
            &c.snapshot(),
            &c.worker_progress(),
            c.last_loss_reason().as_deref(),
            Duration::from_secs(10),
        );
        assert!(text.contains("budget 25/100"), "{text}");
        assert!(text.contains("eta 30.0s"), "{text}");
        assert!(text.contains("w0: shard 0"), "{text}");
        assert!(text.contains("LOST (lease expired after 200ms)"), "{text}");
        assert!(
            text.contains("last loss: lease expired after 200ms"),
            "{text}"
        );
    }

    #[test]
    fn eta_needs_progress_and_headroom() {
        let mut s = ProgressSnapshot::default();
        assert!(eta(&s, Duration::from_secs(1)).is_none());
        s.budget_spent = 10;
        s.budget_total = 10;
        assert!(eta(&s, Duration::from_secs(1)).is_none());
        s.budget_total = 20;
        let e = eta(&s, Duration::from_secs(10)).expect("eta");
        assert_eq!(e.as_secs(), 10);
    }

    #[test]
    fn live_progress_stops_cleanly() {
        let c = Arc::new(ProgressCollector::new());
        let live = LiveProgress::start(Arc::clone(&c), Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(30));
        live.stop();
    }
}
