//! Hierarchical timing wheel: the event queue behind the fast scheduler.
//!
//! The binary-heap queue pays `O(log n)` with poor locality per operation;
//! with a million timers pending at once those log-factors and cache
//! misses dominate a drain (`BENCH_workload.json`, `scheduler_*` rows).
//! No shipped target holds that many any more: an open-loop arrival
//! stream sits in the executor's sorted-stream lane
//! (`Sim::schedule_stream`) as one pending head, so a workload run keeps a
//! handful of timers here and the two backends run it at about the same
//! speed (`experiment_heap_over_wheel`). What the wheel still buys is the
//! bulk `schedule_at` case — a caller that does push its whole schedule up
//! front. It replaces the log-factors with `O(1)` slot pushes and a bitmap
//! scan per pop, while producing **bit-identical pop order**: events leave in
//! exactly the heap's `(time, sequence)` order, proven by the equivalence
//! suite in `sim.rs`, the scheduler proptests, and the corpus
//! campaign-report comparison in the scenario crate's
//! `scheduler_reports.rs`.
//!
//! # Structure
//!
//! Eleven levels of 64 slots cover the full `u64` microsecond range
//! (6 bits per level, `6 × 11 ≥ 64`). An event at absolute time `t` lives
//! at the level of the highest bit in which `t` differs from the wheel's
//! internal cursor `cur`; level-1 slots therefore hold events less than
//! 64² µs ahead, level-2 slots events less than 64³ µs ahead, and so on.
//! Each level keeps a 64-bit occupancy bitmap so finding the next
//! non-empty slot is a `trailing_zeros`, not a scan.
//!
//! There is no distributed level 0. The bottom of the wheel is the
//! **front batch**: a sorted run of the nearest events, covering the
//! window `(cur, front_hi)`. When the front drains, the earliest occupied
//! slot either *cascades* (its events re-insert relative to the advanced
//! cursor, landing strictly lower) or — once it is a level-1 slot or small
//! enough — is drained wholesale, sorted once by `(time, seq)`, and served
//! directly from the batch. Sorting a contiguous run replaces two or three
//! per-event distribution rounds through the lowest levels, which is where
//! a bulk-scheduled workload spends most of its scheduler time. New pushes
//! that land inside the active front window merge by binary-search insert
//! (appends at the tail for the common same-time, rising-sequence case).
//!
//! # Ordering invariants
//!
//! * The cursor never passes the earliest pending wheel event; wheel
//!   residents always have `time > cur`, and `front_hi` never falls below
//!   the end of the cursor's 64 µs window, so every event beyond the front
//!   window genuinely differs from `cur` at bit 6 or above.
//! * `schedule_at` times at or before the cursor (late events, or events
//!   between the executor's clock and the eagerly-advanced cursor) go to a
//!   small *overdue* heap; pops compare the overdue minimum against the
//!   front minimum by `(time, seq)`, so late scheduling keeps the exact
//!   heap semantics.
//! * The front batch is totally ordered by `(time, seq)`; upper-level
//!   events all start at or after `front_hi`, hence after every front
//!   event — the front head is always the wheel minimum.

use std::collections::{BinaryHeap, VecDeque};

use crate::sim::Scheduled;
use crate::time::VirtualTime;

/// Bits per wheel level (64 slots).
const BITS: u32 = 6;
/// Levels needed to cover the full `u64` microsecond range.
const LEVELS: usize = 11;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Slots at level ≥ 2 up to this size are sorted and served directly
/// instead of cascading. Large enough to catch typical bulk-arrival slot
/// populations, small enough that a mid-window binary-search insert (a
/// `memmove` of half the batch) stays cheap.
const BATCH_THRESHOLD: usize = 512;

/// One upper wheel level (1..): occupancy bitmap plus 64 append-only
/// slots, drained wholesale when the cursor reaches them.
struct Level<E> {
    occupied: u64,
    slots: Vec<Vec<Scheduled<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// Hierarchical timing wheel with exact `(time, seq)` pop order.
pub(crate) struct TimerWheel<E> {
    /// Wheel time in microseconds. Advances eagerly to the window start of
    /// the earliest pending event during cascades; never decreases and
    /// never passes a pending wheel event.
    cur: u64,
    /// Sorted run of the nearest events: the half-open window
    /// `(cur, front_hi)`, ordered by `(time, seq)`.
    front: VecDeque<Scheduled<E>>,
    /// Exclusive upper bound of the front window. Invariant:
    /// `front_hi ≥ (cur & !63) + 64`.
    front_hi: u64,
    /// Levels 1..LEVELS, index `k` holding level `k + 1`.
    upper: Vec<Level<E>>,
    /// Events scheduled at or before `cur` (late `schedule_at`, or pushes
    /// landing behind the eagerly-advanced cursor).
    overdue: BinaryHeap<Scheduled<E>>,
    len: usize,
    /// Reusable drain buffer: an upper slot's vector is pointer-swapped
    /// through here, so slot backing allocations circulate instead of
    /// being freed and re-grown on every visit — pure malloc churn at
    /// million-timer scale otherwise.
    scratch: Vec<Scheduled<E>>,
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cur: 0,
            front: VecDeque::new(),
            front_hi: SLOTS as u64,
            upper: (1..LEVELS).map(|_| Level::new()).collect(),
            overdue: BinaryHeap::new(),
            len: 0,
            scratch: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Merges `sch` into the sorted front batch. Sequence numbers issued
    /// later are always larger, so the insertion point is purely
    /// time-determined: after every event at `≤ sch.time` already present.
    fn front_insert(&mut self, sch: Scheduled<E>) {
        let t = sch.time;
        if self.front.back().is_none_or(|b| b.time <= t) {
            self.front.push_back(sch);
            return;
        }
        let pos = self.front.partition_point(|s| s.time <= t);
        self.front.insert(pos, sch);
    }

    pub(crate) fn push(&mut self, sch: Scheduled<E>) {
        self.len += 1;
        let t = sch.time.as_micros();
        if t <= self.cur {
            self.overdue.push(sch);
            return;
        }
        if t < self.front_hi {
            self.front_insert(sch);
            return;
        }
        // front_hi covers the cursor's full 64 µs window, so t differs
        // from cur at bit ≥ 6: level is always ≥ 1.
        let diff = t ^ self.cur;
        let level = ((63 - diff.leading_zeros()) / BITS) as usize;
        debug_assert!(level >= 1, "sub-window event escaped the front batch");
        let slot = ((t >> (BITS as u64 * level as u64)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.upper[level - 1];
        lv.occupied |= 1 << slot;
        lv.slots[slot].push(sch);
    }

    /// Ensures the wheel minimum (if any) sits at the head of the front
    /// batch, cascading or batch-sorting upper slots as needed.
    fn settle_front(&mut self) {
        while self.front.is_empty() {
            let Some(level) = (1..LEVELS).find(|&k| self.upper[k - 1].occupied != 0) else {
                return;
            };
            let idx_from = ((self.cur >> (BITS as u64 * level as u64)) & (SLOTS as u64 - 1)) as u32;
            let occ = self.upper[level - 1].occupied;
            let mask = occ & (!0u64 << idx_from);
            debug_assert!(mask != 0, "wheel entries behind the cursor index");
            let bits = if mask != 0 { mask } else { occ };
            let slot = bits.trailing_zeros() as usize;
            // Advance the cursor to the slot's window start.
            let shift = BITS * level as u32;
            let upper_bits = if shift + BITS >= 64 {
                0
            } else {
                self.cur & !((1u64 << (shift + BITS)) - 1)
            };
            let slot_start = upper_bits | ((slot as u64) << shift);
            self.cur = self.cur.max(slot_start);
            // Swap the slot's vector out through the scratch buffer: the
            // slot inherits scratch's (empty, warm) allocation.
            let mut scratch = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut scratch, &mut self.upper[level - 1].slots[slot]);
            self.upper[level - 1].occupied &= !(1u64 << slot);
            if level == 1 || scratch.len() <= BATCH_THRESHOLD {
                // Serve the whole slot as the front batch: one sort
                // replaces the remaining per-event distribution rounds.
                scratch.sort_unstable_by_key(|s| (s.time, s.seq));
                self.front.extend(scratch.drain(..));
                self.front_hi = slot_start + (1u64 << shift);
            } else {
                // Too big to sort in one go: re-insert relative to the new
                // cursor; each event lands strictly below this level. The
                // front takes the cursor's 64 µs window so level-0-sized
                // remainders have somewhere to go.
                self.front_hi = (self.cur & !(SLOTS as u64 - 1)) + SLOTS as u64;
                for sch in scratch.drain(..) {
                    self.len -= 1;
                    self.push(sch);
                }
            }
            self.scratch = scratch;
        }
    }

    /// `(time, seq)` of the minimum pending event, without removing it.
    pub(crate) fn peek_key(&mut self) -> Option<(VirtualTime, u64)> {
        self.settle_front();
        let wheel = self.front.front().map(|s| (s.time, s.seq));
        let overdue = self.overdue.peek().map(|s| (s.time, s.seq));
        match (wheel, overdue) {
            (None, None) => None,
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (Some(w), Some(o)) => Some(if o < w { o } else { w }),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        self.settle_front();
        let wheel_key = self.front.front().map(|s| (s.time, s.seq));
        let overdue_key = self.overdue.peek().map(|s| (s.time, s.seq));
        let from_overdue = match (wheel_key, overdue_key) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(w), Some(o)) => o < w,
        };
        self.len -= 1;
        if from_overdue {
            self.overdue.pop()
        } else {
            self.front.pop_front()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sch(time: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            time: VirtualTime::from_micros(time),
            seq,
            ev: seq,
        }
    }

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(s) = w.pop() {
            out.push((s.time.as_micros(), s.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        for (i, t) in [500u64, 3, 70_000, 3, 1 << 40, 64, 65]
            .into_iter()
            .enumerate()
        {
            w.push(sch(t, i as u64));
        }
        assert_eq!(
            drain(&mut w),
            vec![
                (3, 1),
                (3, 3),
                (64, 5),
                (65, 6),
                (500, 0),
                (70_000, 2),
                (1 << 40, 4)
            ]
        );
    }

    #[test]
    fn late_pushes_behind_the_cursor_still_order_exactly() {
        let mut w = TimerWheel::new();
        w.push(sch(10_000, 0));
        // Popping advances the cursor past 0; a later push at an earlier
        // time must still come out by (time, seq).
        assert_eq!(w.pop().map(|s| s.seq), Some(0));
        w.push(sch(5, 1));
        w.push(sch(10_000, 2));
        w.push(sch(5, 3));
        assert_eq!(drain(&mut w), vec![(5, 1), (5, 3), (10_000, 2)]);
    }

    #[test]
    fn mid_window_inserts_merge_into_the_front_batch() {
        let mut w = TimerWheel::new();
        // Build a served front window, then land new events inside it,
        // before and after the batch head.
        for i in 0..10u64 {
            w.push(sch(100_000 + i * 7, i));
        }
        assert_eq!(w.pop().map(|s| s.seq), Some(0));
        w.push(sch(100_003, 10)); // before the current front head
        w.push(sch(100_050, 11)); // past the current front tail
        w.push(sch(100_007, 12)); // ties an existing time, later seq
        let rest = drain(&mut w);
        let mut expect: Vec<(u64, u64)> = (1..10).map(|i| (100_000 + i * 7, i)).collect();
        expect.extend([(100_003, 10), (100_050, 11), (100_007, 12)]);
        expect.sort_unstable();
        assert_eq!(rest, expect);
    }

    #[test]
    fn len_tracks_cascades_and_overdue() {
        let mut w = TimerWheel::new();
        for i in 0..100u64 {
            w.push(sch(i * 1000, i));
        }
        assert_eq!(w.len(), 100);
        for expect in (0..100).rev() {
            w.pop();
            assert_eq!(w.len(), expect);
        }
        assert!(w.pop().is_none());
    }

    #[test]
    fn big_slots_cascade_and_small_slots_batch_identically() {
        // 2·BATCH_THRESHOLD events inside one level-3 slot forces the
        // cascade path; the level-2 remainders then batch-sort.
        let mut w = TimerWheel::new();
        let base = 1u64 << 18;
        let n = 2 * BATCH_THRESHOLD as u64;
        for i in 0..n {
            w.push(sch(base + (i * 131) % 200_000, i));
        }
        let mut expect: Vec<(u64, u64)> = (0..n).map(|i| (base + (i * 131) % 200_000, i)).collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        for (i, t) in [9u64, 1, 1, 1 << 30, 0].into_iter().enumerate() {
            w.push(sch(t, i as u64));
        }
        while let Some(key) = w.peek_key() {
            let popped = w.pop().expect("peeked");
            assert_eq!((popped.time, popped.seq), key);
        }
    }
}
