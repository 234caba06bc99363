//! Scope-borrowed worker pool shared by the stitch search and the
//! experiment driver.
//!
//! Every caller fans identical-shaped jobs out to a fixed set of worker
//! threads, in one of two shapes:
//!
//! * **ordered maps** ([`ScopedPool::map`], [`run_ordered`]) return results
//!   **in job order**, so parallel runs are bit-identical to sequential
//!   ones, and re-raise the first job panic;
//! * **streams** ([`ScopedPool::for_each_caught`], [`run_each_caught`])
//!   hand each result to the caller as it completes, a panic as an `Err`.
//!   The driver runs a batch's simulator runs this way, so it can analyse
//!   a finished run set and drop its traces while later runs still go.
//!
//! The pool is deliberately minimal:
//!
//! * workers are spawned inside a caller-provided [`std::thread::scope`],
//!   so jobs may borrow stack data (the stitch search's shared index, the
//!   driver's target) without `Arc`-wrapping it;
//! * jobs are tagged with their index on dispatch, so completion order
//!   never leaks into results — maps reassemble by tag, streams pass the
//!   tag on;
//! * dropping the pool closes the job channel and joins the workers to
//!   their threads' end, so each has handed its malloc arena back before
//!   the next pool spawns (the scope's own join does not wait for that).
//!
//! [`run_ordered`] and [`run_each_caught`] are the one-shot conveniences
//! for callers that do not need to reuse the pool across rounds; the
//! stitch search keeps a [`ScopedPool`] alive across beam levels to
//! amortise thread spawning.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

/// A persistent pool of scoped worker threads mapping jobs `J` to results
/// `R` through a shared worker function.
pub struct ScopedPool<'scope, J, R> {
    job_tx: Sender<(usize, J)>,
    workers: Vec<ScopedJoinHandle<'scope, ()>>,
    result_rx: Receiver<(usize, std::thread::Result<R>)>,
    /// Shared with workers: when set, a job panic is delivered as an `Err`
    /// result instead of poisoning the pool (see
    /// [`ScopedPool::for_each_caught`]).
    isolate: Arc<AtomicBool>,
    poisoned: Arc<AtomicBool>,
    /// Monotonic per-pool batch counter; each `map`/`for_each_caught` call
    /// is one batch, and the id is carried in re-raised panic messages so a
    /// failure deep in a campaign names the round it happened in.
    batch: usize,
}

impl<'scope, J: Send + 'scope, R: Send + 'scope> ScopedPool<'scope, J, R> {
    /// Spawns `threads` workers on the scope, each running `work` on every
    /// job it receives. `work` is borrowed for the whole scope, so it may
    /// itself borrow anything that outlives the scope.
    pub fn spawn<'env, W>(
        scope: &'scope Scope<'scope, 'env>,
        work: &'scope W,
        threads: usize,
    ) -> ScopedPool<'scope, J, R>
    where
        W: Fn(J) -> R + Sync,
    {
        let threads = threads.max(1);
        let (job_tx, job_rx) = channel::<(usize, J)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = channel();
        let poisoned = Arc::new(AtomicBool::new(false));
        let isolate = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let job_rx = Arc::clone(&job_rx);
            let result_tx = result_tx.clone();
            let poisoned = Arc::clone(&poisoned);
            let isolate = Arc::clone(&isolate);
            workers.push(scope.spawn(move || loop {
                // The guard drops as soon as `recv` returns, so other
                // workers can pick up the next job immediately.
                let job = { job_rx.lock().expect("job queue").recv() };
                let Ok((idx, job)) = job else { break };
                // Once poisoned, drain remaining queued jobs without
                // executing them — fail-fast means not running a
                // campaign's worth of doomed work first. The dispatcher
                // never deadlocks on a skipped job's missing result
                // because the panicking worker's Err send below is
                // unconditional and the channel unbounded: the Err always
                // reaches the dispatcher, which re-raises on receiving it
                // and stops waiting for further results.
                if poisoned.load(Ordering::Relaxed) {
                    continue;
                }
                // A panicking job must not starve `map`'s result loop (the
                // dispatcher would deadlock inside the scope, which cannot
                // join the panicked worker until the dispatcher returns).
                // Ship the payload instead; `map` re-raises it.
                let out = catch_unwind(AssertUnwindSafe(|| work(job)));
                // In isolation mode a panic is one job's result, not the
                // round's fate: keep executing the rest of the batch.
                if out.is_err() && !isolate.load(Ordering::Relaxed) {
                    poisoned.store(true, Ordering::Relaxed);
                }
                if result_tx.send((idx, out)).is_err() {
                    break;
                }
            }));
        }
        ScopedPool {
            job_tx,
            workers,
            result_rx,
            isolate,
            poisoned,
            batch: 0,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Dispatches all jobs across the pool and returns results in job
    /// order, regardless of completion order.
    ///
    /// Takes `&mut self`: job tags and the result channel are per-pool,
    /// so two concurrent `map` calls on one pool would cross-deliver
    /// results — the exclusive borrow rules that out at compile time.
    ///
    /// # Panics
    ///
    /// Re-raises the first job panic it receives, preserving the
    /// fail-fast behaviour of running the jobs inline. The re-raised
    /// payload is a `String` naming the failing job index and the pool's
    /// batch id, with the original panic message appended — so a failure
    /// ten batches into a campaign says *which* job of *which* round died.
    /// (Workers drain — but no longer execute — jobs queued after a
    /// panic, so the scope joins promptly. A pool whose `map` panicked
    /// should not be reused; start a fresh scope instead.)
    pub fn map(&mut self, jobs: impl IntoIterator<Item = J>) -> Vec<R> {
        let batch = self.begin_batch(false);
        let mut sent = 0usize;
        for j in jobs {
            self.job_tx.send((sent, j)).expect("worker pool alive");
            sent += 1;
        }
        let mut slots: Vec<Option<R>> = (0..sent).map(|_| None).collect();
        for _ in 0..sent {
            let (idx, r) = self.result_rx.recv().expect("worker result");
            match r {
                Ok(v) => slots[idx] = Some(v),
                Err(payload) => resume_unwind(Box::new(format!(
                    "pool job {idx} of {sent} (batch {batch}) panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("all jobs returned"))
            .collect()
    }

    /// Dispatches all jobs across the pool and hands each result to
    /// `on_result`, with its job index, as soon as it arrives — completion
    /// order, not job order; workers take jobs in job order. Per-job
    /// isolation: a panicking job arrives as an `Err` carrying its payload
    /// while every other job still runs. Nothing is poisoned, so the pool
    /// stays usable for further rounds — what a retrying supervisor needs
    /// to quarantine and re-run just the failed work.
    pub fn for_each_caught(
        &mut self,
        jobs: impl IntoIterator<Item = J>,
        mut on_result: impl FnMut(usize, std::thread::Result<R>),
    ) {
        self.begin_batch(true);
        let mut sent = 0usize;
        for j in jobs {
            self.job_tx.send((sent, j)).expect("worker pool alive");
            sent += 1;
        }
        for _ in 0..sent {
            let (idx, r) = self.result_rx.recv().expect("worker result");
            on_result(idx, r);
        }
        self.isolate.store(false, Ordering::Relaxed);
    }

    /// Starts a new dispatch round: bumps the batch id, clears any stale
    /// poison from a previous round and sets the isolation mode workers
    /// consult for this round's jobs. Safe because `map`/`for_each_caught`
    /// take `&mut self` and fully drain their results before returning.
    fn begin_batch(&mut self, isolate: bool) -> usize {
        self.poisoned.store(false, Ordering::Relaxed);
        self.isolate.store(isolate, Ordering::Relaxed);
        let batch = self.batch;
        self.batch += 1;
        batch
    }
}

impl<J, R> Drop for ScopedPool<'_, J, R> {
    fn drop(&mut self) {
        self.job_tx = channel().0; // drops the real sender: workers exit
        for worker in self.workers.drain(..) {
            let _ = worker.join(); // job panics are caught: never `Err`
        }
    }
}

/// Best-effort extraction of a panic payload's human-readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The machine's hardware parallelism (1 when unknown), read once per
/// process and cached: `available_parallelism` re-reads the cgroup quota
/// and the affinity mask on every call, and every pool call, driver batch,
/// and stitch build and search asks.
pub fn hardware_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Splits `0..n` into at most `parts` contiguous, non-empty, near-equal
/// ranges — the standard chunking for ordered parallel fan-out (stitch
/// index build, pair-verdict sharding). Covers `0..n` exactly, in order.
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let size = n.div_ceil(parts);
    (0..parts)
        .map(|p| (p * size).min(n)..((p + 1) * size).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// One-shot ordered parallel map: runs `work` over `jobs` on up to
/// `threads` workers (capped at the hardware parallelism and the job
/// count) and returns results in job order. Falls back to a plain
/// sequential map when one worker would do, keeping results identical
/// either way.
pub fn run_ordered<J, R, W>(jobs: Vec<J>, threads: usize, work: W) -> Vec<R>
where
    J: Send,
    R: Send,
    W: Fn(J) -> R + Sync,
{
    let threads = threads
        .max(1)
        .min(jobs.len().max(1))
        .min(hardware_threads());
    if threads <= 1 || jobs.len() <= 1 {
        // Sequential fallback keeps the pooled path's panic provenance so a
        // one-core machine reports failures the same way a many-core one
        // does.
        let n = jobs.len();
        return jobs
            .into_iter()
            .enumerate()
            .map(
                |(idx, j)| match catch_unwind(AssertUnwindSafe(|| work(j))) {
                    Ok(v) => v,
                    Err(payload) => resume_unwind(Box::new(format!(
                        "pool job {idx} of {n} (batch 0) panicked: {}",
                        panic_message(payload.as_ref())
                    ))),
                },
            )
            .collect();
    }
    std::thread::scope(|scope| {
        let mut pool = ScopedPool::spawn(scope, &work, threads);
        pool.map(jobs)
        // Dropping the pool closes the job channel and joins the workers.
    })
}

/// One-shot streaming fan-out with per-job isolation: runs `work` over
/// `jobs` on up to `threads` workers (capped like [`run_ordered`]) and
/// hands every result to `on_result` as it arrives, a panic as an `Err`.
/// The sequential fallback catches panics the same way and delivers in job
/// order, so callers see identical shapes at any thread count.
pub fn run_each_caught<J, R, W>(
    jobs: Vec<J>,
    threads: usize,
    work: W,
    mut on_result: impl FnMut(usize, std::thread::Result<R>),
) where
    J: Send,
    R: Send,
    W: Fn(J) -> R + Sync,
{
    let threads = threads
        .max(1)
        .min(jobs.len().max(1))
        .min(hardware_threads());
    if threads <= 1 || jobs.len() <= 1 {
        for (idx, j) in jobs.into_iter().enumerate() {
            on_result(idx, catch_unwind(AssertUnwindSafe(|| work(j))));
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut pool = ScopedPool::spawn(scope, &work, threads);
        pool.for_each_caught(jobs, on_result);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_job_order() {
        let work = |x: usize| {
            // Invert completion order: later jobs finish first.
            std::thread::sleep(std::time::Duration::from_millis((20 - x as u64) % 20));
            x * 10
        };
        std::thread::scope(|scope| {
            let mut pool = ScopedPool::spawn(scope, &work, 4);
            let out = pool.map(0..16);
            assert_eq!(out, (0..16).map(|x| x * 10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn pool_is_reusable_across_rounds() {
        let work = |x: u64| x + 1;
        std::thread::scope(|scope| {
            let mut pool = ScopedPool::spawn(scope, &work, 3);
            for round in 0..5u64 {
                let out = pool.map(round * 10..round * 10 + 7);
                assert_eq!(
                    out,
                    (round * 10..round * 10 + 7)
                        .map(|x| x + 1)
                        .collect::<Vec<_>>()
                );
            }
        });
    }

    #[test]
    fn dropping_the_pool_waits_for_worker_threads_to_end() {
        // A thread-local destructor runs during thread exit, after the
        // worker closure has returned: it has run only if the drop waited
        // for the threads themselves, not just for their closures.
        use std::sync::atomic::AtomicUsize;
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static ENDED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ENDED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: OnExit = {
            STARTED.fetch_add(1, Ordering::SeqCst);
            OnExit
        });
        let work = |x: usize| EXIT.with(|_| x);
        std::thread::scope(|scope| {
            let mut pool = ScopedPool::spawn(scope, &work, 3);
            assert_eq!(pool.map(0..6), (0..6).collect::<Vec<_>>());
            drop(pool);
            assert!(STARTED.load(Ordering::SeqCst) >= 1);
            assert_eq!(ENDED.load(Ordering::SeqCst), STARTED.load(Ordering::SeqCst));
        });
    }

    #[test]
    fn jobs_may_borrow_stack_data() {
        let data: Vec<u64> = (0..100).collect();
        let work = |i: usize| data[i] * 2;
        let out = run_ordered((0..100).collect(), 8, work);
        assert_eq!(out, data.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_ordered_matches_sequential() {
        let work = |x: u32| x.wrapping_mul(0x9E37_79B9);
        let seq: Vec<u32> = (0..257).map(work).collect();
        let par = run_ordered((0..257).collect(), 6, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn job_panic_propagates_instead_of_deadlocking() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let result = std::panic::catch_unwind(|| {
            run_ordered((0..64usize).collect(), 4, |x| {
                if x == 17 {
                    panic!("job 17 exploded");
                }
                x
            })
        });
        std::panic::set_hook(prev);
        let payload = result.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("exploded"), "unexpected payload: {msg:?}");
        // Provenance: the re-raise names the failing job and the batch.
        assert!(msg.contains("pool job 17"), "missing job index: {msg:?}");
        assert!(msg.contains("batch 0"), "missing batch id: {msg:?}");
    }

    #[test]
    fn map_panic_provenance_tracks_batch_counter() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let work = |x: usize| {
            if x == 5 {
                panic!("boom");
            }
            x
        };
        let msg = std::thread::scope(|scope| {
            let mut pool = ScopedPool::spawn(scope, &work, 2);
            assert_eq!(pool.map(0..4), vec![0, 1, 2, 3]); // batch 0
            assert_eq!(pool.map(0..4), vec![0, 1, 2, 3]); // batch 1
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| pool.map(0..8)))
                .expect_err("job 5 panics");
            panic_message(payload.as_ref())
        });
        std::panic::set_hook(prev);
        assert!(msg.contains("pool job 5 of 8"), "{msg:?}");
        assert!(msg.contains("batch 2"), "{msg:?}");
        assert!(msg.contains("boom"), "{msg:?}");
    }

    #[test]
    fn map_caught_isolates_panics_and_keeps_pool_usable() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let work = |x: usize| {
            if x % 3 == 1 {
                panic!("job {x} down");
            }
            x * 2
        };
        std::thread::scope(|scope| {
            let mut pool = ScopedPool::spawn(scope, &work, 4);
            let mut out: Vec<Option<std::thread::Result<usize>>> = (0..9).map(|_| None).collect();
            pool.for_each_caught(0..9, |i, r| {
                assert!(out[i].replace(r).is_none(), "job {i} delivered twice");
            });
            for (i, r) in out.into_iter().enumerate() {
                let r = r.expect("every job delivered");
                if i % 3 == 1 {
                    let msg = panic_message(r.expect_err("isolated panic").as_ref());
                    assert!(msg.contains(&format!("job {i} down")), "{msg:?}");
                } else {
                    assert_eq!(r.expect("survivor"), i * 2);
                }
            }
            // The pool is not poisoned: a follow-up round still executes
            // every job (this is the quarantine-and-retry contract).
            let mut retry = vec![None; 3];
            pool.for_each_caught(vec![0usize, 3, 6], |i, r| retry[i] = Some(r.unwrap()));
            assert_eq!(retry, vec![Some(0), Some(6), Some(12)]);
            // And fail-fast mode still works on the same pool afterwards.
            assert_eq!(pool.map(vec![0usize, 3]), vec![0, 6]);
        });
        std::panic::set_hook(prev);
    }

    #[test]
    fn run_ordered_caught_matches_at_any_thread_count() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let work = |x: u32| {
            if x % 7 == 2 {
                panic!("job {x} down");
            }
            x + 100
        };
        let expected: Vec<Result<u32, String>> = (0..64)
            .map(|x| match x % 7 {
                2 => Err(format!("job {x} down")),
                _ => Ok(x + 100),
            })
            .collect();
        for threads in [1usize, 4] {
            let mut out: Vec<Option<Result<u32, String>>> = vec![None; 64];
            run_each_caught((0..64).collect(), threads, work, |i, r| {
                let r = r.map_err(|payload| panic_message(payload.as_ref()));
                assert!(out[i].replace(r).is_none(), "job {i} delivered twice");
            });
            let out: Vec<_> = out
                .into_iter()
                .map(|r| r.expect("every job delivered"))
                .collect();
            assert_eq!(out, expected, "threads={threads}");
        }
        std::panic::set_hook(prev);
    }

    #[test]
    fn chunk_ranges_cover_exactly_in_order() {
        for n in [0usize, 1, 2, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, parts);
                assert!(ranges.len() <= parts.max(1));
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "contiguous in order");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        let out: Vec<u32> = run_ordered(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
        assert_eq!(run_ordered(vec![7u32], 4, |x| x + 1), vec![8]);
    }
}
