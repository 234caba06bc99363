//! Self-fault-injection for the campaign runner itself.
//!
//! CSnake injects faults into *target systems*; this module turns the same
//! discipline on the campaign supervisor. A [`ChaosInjector`] can make
//! experiment jobs panic, stall past a deadline, or fail snapshot IO at
//! chosen sites, so the retry/checkpoint/degradation machinery is exercised
//! by tests and CI instead of waiting for a real crash at hour five of a
//! campaign.
//!
//! Determinism is the whole design:
//!
//! * whether a site fires is a pure function of `(seed, site, key)` — a
//!   stable FNV-style hash mapped to a unit float and compared against the
//!   configured rate. The key is the experiment's `(fault, test)` identity
//!   (or a checkpoint ordinal), **not** call order, so parallel workers
//!   cannot race the decision;
//! * transient failures clear after [`ChaosConfig::transient_attempts`]
//!   hits of the same site: the per-key attempt counter makes "fails twice
//!   then succeeds" reproducible, which is what lets the recovery tests
//!   assert byte-identical reports after retries;
//! * a "stall" sleeps [`ChaosConfig::stall_ms`] and then panics with a
//!   deadline message — simulating a watchdog kill without putting any
//!   wall-clock measurement into campaign results.
//!
//! Configuration is [`DriverConfig::chaos`](crate::driver::DriverConfig);
//! nothing here reads the environment. `csnake-daemon --chaos <spec>` fills
//! that field from the operator's spec through [`ChaosConfig::parse`].

use std::collections::HashMap;
use std::sync::Mutex;

use csnake_inject::{FaultId, TestId};
use serde::{Deserialize, Serialize};

/// Which supervisor site a chaos decision applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosSite {
    /// An experiment job panics at dispatch.
    ExperimentPanic,
    /// An experiment job stalls past its deadline (then dies).
    ExperimentStall,
    /// A snapshot write fails with an IO error.
    SnapshotIo,
    /// A wire frame (daemon shard assignment) is lost in flight.
    WireDrop,
    /// A wire frame is stalled in flight (delivery delayed by `stall_ms`).
    WireStall,
}

impl ChaosSite {
    fn tag(self) -> u64 {
        match self {
            ChaosSite::ExperimentPanic => 1,
            ChaosSite::ExperimentStall => 2,
            ChaosSite::SnapshotIo => 3,
            ChaosSite::WireDrop => 4,
            ChaosSite::WireStall => 5,
        }
    }
}

/// Knobs of the self-fault-injection harness. All rates default to zero —
/// chaos is opt-in and a default config is exactly a no-op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed of the decision hash; different seeds select different victim
    /// sites at the same rates.
    pub seed: u64,
    /// Probability that a given `(fault, test)` experiment panics.
    pub experiment_panic: f64,
    /// Probability that a given `(fault, test)` experiment stalls past its
    /// deadline.
    pub experiment_stall: f64,
    /// Probability that a given snapshot write fails with an IO error.
    pub snapshot_io: f64,
    /// Probability that a given wire frame (a daemon shard assignment,
    /// keyed by its shard ordinal) is dropped in flight. The coordinator
    /// re-sends dropped frames; transient drops are invisible in results,
    /// permanent drops exhaust the reassignment budget and the shard's
    /// cells degrade into gaps.
    pub wire_drop: f64,
    /// Probability that a given wire frame is stalled `stall_ms` before
    /// delivery. Pacing only — a stalled frame still arrives, so results
    /// are never affected (the lease machinery just sees a slow worker).
    pub wire_stall: f64,
    /// How many times a selected site fails before it starts succeeding.
    /// Keep this at or below the supervisor's retry budget and every
    /// failure is transient; see `permanent` for the other regime.
    pub transient_attempts: u32,
    /// When set, selected sites fail on every attempt — retries cannot
    /// save them, and the campaign must degrade gracefully instead.
    pub permanent: bool,
    /// How long a "stall" sleeps before dying, in milliseconds. Pacing
    /// only: the value never reaches campaign results.
    pub stall_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            experiment_panic: 0.0,
            experiment_stall: 0.0,
            snapshot_io: 0.0,
            wire_drop: 0.0,
            wire_stall: 0.0,
            transient_attempts: 1,
            permanent: false,
            stall_ms: 25,
        }
    }
}

impl ChaosConfig {
    /// True when no site can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.experiment_panic <= 0.0
            && self.experiment_stall <= 0.0
            && self.snapshot_io <= 0.0
            && self.wire_drop <= 0.0
            && self.wire_stall <= 0.0
    }

    /// Parses an operator's chaos spec, a comma-separated `key=value`
    /// list:
    ///
    /// ```text
    /// seed=7,exp_panic=0.2,exp_stall=0.1,snap_io=0.25,wire_drop=0.2,wire_stall=0.1,attempts=2,permanent=1,stall_ms=50
    /// ```
    ///
    /// Unknown keys and unparsable values are ignored (chaos must never
    /// turn a typo into a campaign-fatal error).
    pub fn parse(raw: &str) -> ChaosConfig {
        let mut cfg = ChaosConfig::default();
        for part in raw.split(',') {
            let Some((k, v)) = part.split_once('=') else {
                continue;
            };
            let (k, v) = (k.trim(), v.trim());
            match k {
                "seed" => {
                    if let Ok(x) = v.parse() {
                        cfg.seed = x;
                    }
                }
                "exp_panic" => {
                    if let Ok(x) = v.parse() {
                        cfg.experiment_panic = x;
                    }
                }
                "exp_stall" => {
                    if let Ok(x) = v.parse() {
                        cfg.experiment_stall = x;
                    }
                }
                "snap_io" => {
                    if let Ok(x) = v.parse() {
                        cfg.snapshot_io = x;
                    }
                }
                "wire_drop" => {
                    if let Ok(x) = v.parse() {
                        cfg.wire_drop = x;
                    }
                }
                "wire_stall" => {
                    if let Ok(x) = v.parse() {
                        cfg.wire_stall = x;
                    }
                }
                "attempts" => {
                    if let Ok(x) = v.parse() {
                        cfg.transient_attempts = x;
                    }
                }
                "permanent" => cfg.permanent = v == "1" || v.eq_ignore_ascii_case("true"),
                "stall_ms" => {
                    if let Ok(x) = v.parse() {
                        cfg.stall_ms = x;
                    }
                }
                _ => {}
            }
        }
        cfg
    }
}

/// FNV-1a over the decision identity, widened to a unit float the same way
/// the vendored `rand` maps `u64 → f64`.
fn unit_roll(seed: u64, site: u64, key: u64) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [seed, site, key] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    // One xoshiro-style finalize round so low-entropy keys still spread.
    h ^= h >> 31;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 29;
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The runtime half: answers "does this site fail *this time*?" with the
/// per-key attempt bookkeeping that makes transient failures clear.
#[derive(Debug)]
pub struct ChaosInjector {
    cfg: ChaosConfig,
    /// Attempts seen so far per `(site, key)` — interior-mutable because
    /// experiment hooks run on `&self` from worker threads.
    attempts: Mutex<HashMap<(u64, u64), u32>>,
}

impl ChaosInjector {
    /// Builds an injector; a disabled config yields a guaranteed no-op.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosInjector {
            cfg,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// A permanently-disabled injector.
    pub fn disabled() -> Self {
        Self::new(ChaosConfig::default())
    }

    /// Whether any site can fire at all.
    pub fn enabled(&self) -> bool {
        !self.cfg.is_disabled()
    }

    /// The configuration this injector runs.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Core decision: is `(site, key)` selected, and has it exhausted its
    /// transient allowance? Increments the per-key attempt counter on
    /// selected sites.
    fn should_fail(&self, site: ChaosSite, key: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if unit_roll(self.cfg.seed, site.tag(), key) >= rate {
            return false;
        }
        if self.cfg.permanent {
            return true;
        }
        let mut attempts = self.attempts.lock().expect("chaos attempt map");
        let n = attempts.entry((site.tag(), key)).or_insert(0);
        *n += 1;
        *n <= self.cfg.transient_attempts
    }

    /// Experiment-site hook: call at the top of a `(fault, test)`
    /// experiment job, **before** any simulator work, so a killed attempt
    /// contributes zero runs and retried campaigns keep exact accounting.
    ///
    /// # Panics
    ///
    /// Panics (by design) when the experiment is selected for a panic or a
    /// stall; the stall sleeps `stall_ms` first to exercise the deadline
    /// path.
    pub fn experiment_hook(&self, f: FaultId, t: TestId) {
        if !self.enabled() {
            return;
        }
        let key = ((f.0 as u64) << 32) | t.0 as u64;
        if self.should_fail(ChaosSite::ExperimentPanic, key, self.cfg.experiment_panic) {
            panic!(
                "chaos: injected panic in experiment (fault {}, test {})",
                f.0, t.0
            );
        }
        if self.should_fail(ChaosSite::ExperimentStall, key, self.cfg.experiment_stall) {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.stall_ms));
            panic!(
                "chaos: experiment (fault {}, test {}) stalled past its deadline",
                f.0, t.0
            );
        }
    }

    /// Snapshot-IO-site hook: call before writing checkpoint `ordinal`.
    /// Returns an injected IO error when selected.
    pub fn snapshot_io_hook(&self, ordinal: u64) -> std::io::Result<()> {
        if self.enabled() && self.should_fail(ChaosSite::SnapshotIo, ordinal, self.cfg.snapshot_io)
        {
            return Err(std::io::Error::other(format!(
                "chaos: injected IO failure on snapshot write {ordinal}"
            )));
        }
        Ok(())
    }

    /// Wire-drop-site hook: call before sending the frame for shard
    /// `shard`. `true` means the frame is lost in flight — the sender must
    /// treat the delivery as failed (and may retry; the per-key attempt
    /// counter makes transient losses clear on re-send). Keyed on the
    /// shard ordinal, not call order, so re-sends of the same shard make
    /// progress deterministically.
    pub fn wire_drop_hook(&self, shard: u64) -> bool {
        self.enabled() && self.should_fail(ChaosSite::WireDrop, shard, self.cfg.wire_drop)
    }

    /// Wire-stall-site hook: call before sending the frame for shard
    /// `shard`. When selected, sleeps `stall_ms` (simulating a frame stuck
    /// in a queue) and returns `true`; the frame is then delivered
    /// normally, so the stall paces wall-clock only and never perturbs
    /// results.
    pub fn wire_stall_hook(&self, shard: u64) -> bool {
        if self.enabled() && self.should_fail(ChaosSite::WireStall, shard, self.cfg.wire_stall) {
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.stall_ms));
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_a_noop() {
        let inj = ChaosInjector::disabled();
        assert!(!inj.enabled());
        for i in 0..64 {
            inj.experiment_hook(FaultId(i), TestId(i));
            assert!(inj.snapshot_io_hook(i as u64).is_ok());
        }
    }

    #[test]
    fn decisions_are_deterministic_in_identity_not_order() {
        let cfg = ChaosConfig {
            seed: 7,
            snapshot_io: 0.5,
            permanent: true,
            ..Default::default()
        };
        let a = ChaosInjector::new(cfg.clone());
        let b = ChaosInjector::new(cfg);
        let fwd: Vec<bool> = (0..64).map(|i| a.snapshot_io_hook(i).is_err()).collect();
        let rev: Vec<bool> = (0..64)
            .rev()
            .map(|i| b.snapshot_io_hook(i).is_err())
            .collect();
        let rev: Vec<bool> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev);
        assert!(fwd.iter().any(|&x| x), "rate 0.5 must select something");
        assert!(!fwd.iter().all(|&x| x), "rate 0.5 must spare something");
    }

    #[test]
    fn transient_failures_clear_after_the_allowance() {
        let cfg = ChaosConfig {
            seed: 3,
            snapshot_io: 1.0,
            transient_attempts: 2,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        assert!(inj.snapshot_io_hook(9).is_err(), "attempt 1 fails");
        assert!(inj.snapshot_io_hook(9).is_err(), "attempt 2 fails");
        assert!(inj.snapshot_io_hook(9).is_ok(), "attempt 3 clears");
        assert!(inj.snapshot_io_hook(9).is_ok(), "and stays clear");
    }

    #[test]
    fn permanent_failures_never_clear() {
        let cfg = ChaosConfig {
            seed: 3,
            snapshot_io: 1.0,
            permanent: true,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        for _ in 0..8 {
            assert!(inj.snapshot_io_hook(9).is_err());
        }
    }

    #[test]
    fn experiment_hook_panics_with_site_identity() {
        let cfg = ChaosConfig {
            seed: 1,
            experiment_panic: 1.0,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.experiment_hook(FaultId(4), TestId(2))
        }));
        std::panic::set_hook(prev);
        let payload = r.expect_err("rate 1.0 must fire");
        let msg = crate::pool::panic_message(payload.as_ref());
        assert!(msg.contains("chaos"), "{msg:?}");
        assert!(msg.contains("fault 4") && msg.contains("test 2"), "{msg:?}");
    }

    #[test]
    fn env_syntax_parses_and_ignores_junk() {
        let cfg =
            ChaosConfig::parse("seed=7, exp_panic=0.25,exp_stall=0.5,snap_io=0.125,wire_drop=0.375,wire_stall=0.0625,attempts=3,permanent=true,stall_ms=5,wat=1,junk");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.experiment_panic, 0.25);
        assert_eq!(cfg.experiment_stall, 0.5);
        assert_eq!(cfg.snapshot_io, 0.125);
        assert_eq!(cfg.wire_drop, 0.375);
        assert_eq!(cfg.wire_stall, 0.0625);
        assert_eq!(cfg.transient_attempts, 3);
        assert!(cfg.permanent);
        assert_eq!(cfg.stall_ms, 5);
        assert!(ChaosConfig::parse("").is_disabled());
        assert!(!ChaosConfig::parse("wire_drop=0.5").is_disabled());
        assert!(!ChaosConfig::parse("wire_stall=0.5").is_disabled());
    }

    #[test]
    fn transient_wire_drops_clear_on_resend() {
        let cfg = ChaosConfig {
            seed: 5,
            wire_drop: 1.0,
            transient_attempts: 2,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        assert!(inj.wire_drop_hook(3), "send 1 dropped");
        assert!(inj.wire_drop_hook(3), "send 2 dropped");
        assert!(!inj.wire_drop_hook(3), "send 3 delivered");
        assert!(!inj.wire_drop_hook(3), "and stays delivered");
    }

    #[test]
    fn permanent_wire_drops_never_clear_and_key_on_shard_identity() {
        let cfg = ChaosConfig {
            seed: 5,
            wire_drop: 0.5,
            permanent: true,
            ..Default::default()
        };
        let a = ChaosInjector::new(cfg.clone());
        let b = ChaosInjector::new(cfg);
        let fwd: Vec<bool> = (0..64).map(|s| a.wire_drop_hook(s)).collect();
        let mut rev: Vec<bool> = (0..64).rev().map(|s| b.wire_drop_hook(s)).collect();
        rev.reverse();
        assert_eq!(fwd, rev, "decisions must key on shard id, not call order");
        assert!(fwd.iter().any(|&x| x) && !fwd.iter().all(|&x| x));
        for _ in 0..4 {
            assert_eq!(
                fwd,
                (0..64).map(|s| a.wire_drop_hook(s)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn wire_stall_fires_but_delivers() {
        let cfg = ChaosConfig {
            seed: 1,
            wire_stall: 1.0,
            stall_ms: 1,
            transient_attempts: 1,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        assert!(inj.wire_stall_hook(0), "first delivery stalls");
        assert!(!inj.wire_stall_hook(0), "transient stall clears");
        assert!(!ChaosInjector::disabled().wire_stall_hook(0));
    }

    #[test]
    fn rates_select_roughly_the_configured_fraction() {
        let cfg = ChaosConfig {
            seed: 11,
            snapshot_io: 0.25,
            permanent: true,
            ..Default::default()
        };
        let inj = ChaosInjector::new(cfg);
        let hits = (0..4000)
            .filter(|&i| inj.snapshot_io_hook(i).is_err())
            .count();
        assert!(
            (700..=1300).contains(&hits),
            "hits={hits} of 4000 at rate 0.25"
        );
    }
}
