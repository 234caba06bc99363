//! The runtime injection and monitoring agent.
//!
//! One [`Agent`] drives one run of one workload. Target-system code calls the
//! agent's hooks inline (the reproduction's equivalent of Byteman-instrumented
//! bytecode). The agent is used through an `Rc` so that RAII guards —
//! [`FrameGuard`] for call-stack tracking and [`LoopGuard`] for loop
//! iteration tracking — can own a handle and unwind correctly when an
//! injected exception propagates out through `?`.
//!
//! # Recording layout
//!
//! A run fires millions of hooks, so a hook touches only flat state:
//!
//! * **Tables sized by the registry** at [`Agent::new`], indexed by `FaultId`
//!   (coverage, loop counts, occurrences, per-loop entry stacks and iteration
//!   signatures, each point's kind and negation polarity) or by caller `FnId`
//!   (distinct callees). Sets are `Seen` lists that remember their last
//!   value: the steady-state hook is one compare, and they grow with distinct
//!   values, never with run length.
//! * **Two branch arenas with windows**, one for call frames and one for
//!   loop iterations. A frame or loop activation owns its arena from its
//!   `start` offset to the end; exit truncates back to `start`, an iteration
//!   boundary empties the loop's window, and the iteration signature is
//!   rolled as branches arrive.
//! * **[`RunTrace`] is assembled in [`Agent::finish`]**, the only place its
//!   ordered sets and maps are built.
//!
//! Preserved byte for byte:
//!
//! * a branch lands in the top frame's window and the *innermost* loop's
//!   window only; a parent's window is what it was once the child pops;
//! * a loop entered but never iterated still gets a `loop_states` entry, and
//!   branches seen before the first `iter()` belong to the first iteration;
//! * an iteration with no branches hashes to the FNV offset basis;
//! * with tracing off, `coverage`, `loop_counts` and `hook_count` are still
//!   recorded; `occurrences`, `call_edges` and `loop_states` are not;
//! * every signature is [`crate::trace::fnv1a`] over the same words.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use csnake_sim::sim::Clock;
use csnake_sim::VirtualTime;

use crate::fault::{Fault, InjectAction, InjectionPlan};
use crate::registry::{BranchId, FaultId, FaultKind, FnId, Registry};
use crate::trace::{fnv1a_word, CallStack2, LoopState, Occurrence, RunTrace, FNV_OFFSET};

/// Sorted distinct values with a memo of the last one offered: the repeat
/// that dominates a steady-state run costs one compare.
#[derive(Clone, Default)]
struct Seen<T> {
    last: Option<T>,
    items: Vec<T>,
}

impl<T: Ord + Copy> Seen<T> {
    fn insert(&mut self, x: T) {
        if self.last == Some(x) {
            return;
        }
        self.last = Some(x);
        if let Err(at) = self.items.binary_search(&x) {
            self.items.insert(at, x);
        }
    }
}

struct LoopActivation {
    id: FaultId,
    /// Start of this activation's window in `Inner::loop_arena`: the branch
    /// events of the current iteration.
    start: usize,
    /// `fnv1a` state over the current iteration's branch words.
    sig: u64,
    /// Whether `iter()` has been called at least once in this activation.
    started: bool,
    /// Call-stack depth at entry; used to decide whether a fault site is
    /// *syntactically* enclosed by this loop (same function).
    depth: usize,
}

struct Inner {
    plan: Option<InjectionPlan>,
    /// One-shot throw/negate still pending.
    armed: bool,
    tracing: bool,
    /// Call frames: function and start of its window in `frame_arena`.
    stack: Vec<(FnId, usize)>,
    frame_arena: Vec<(BranchId, bool)>,
    loop_stack: Vec<LoopActivation>,
    loop_arena: Vec<(BranchId, bool)>,
    // Per fault point, indexed by `FaultId`.
    kinds: Vec<FaultKind>,
    error_when: Vec<Option<bool>>,
    covered: Vec<bool>,
    loop_counts: Vec<u64>,
    occurrences: Vec<Vec<Occurrence>>,
    entry_stacks: Vec<Seen<CallStack2>>,
    iter_sigs: Vec<Seen<u64>>,
    /// Distinct callees per caller, indexed by `FnId`.
    callees: Vec<Seen<FnId>>,
    /// Fields no hook walks: `injected`, `hook_count`, `flags`.
    trace: RunTrace,
}

/// Runtime injection + monitoring agent for a single run.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use std::sync::Arc;
/// use csnake_inject::{Agent, ExceptionCategory, InjectionPlan, RegistryBuilder};
///
/// let mut b = RegistryBuilder::new("demo");
/// let f = b.func("Server.handle");
/// let tp = b.throw_point(f, 3, "IOException", ExceptionCategory::SystemSpecific, "ioe");
/// let reg = Arc::new(b.build());
///
/// let agent = Rc::new(Agent::new(reg, Some(InjectionPlan::throw(tp))));
/// let _frame = agent.frame(f);
/// let fault = agent.throw_guard(tp).expect("armed plan fires");
/// assert!(fault.injected);
/// assert!(agent.throw_guard(tp).is_none(), "one-shot");
/// ```
pub struct Agent {
    registry: Arc<Registry>,
    inner: RefCell<Inner>,
}

impl Agent {
    /// Creates an agent, optionally with an injection plan.
    pub fn new(registry: Arc<Registry>, plan: Option<InjectionPlan>) -> Self {
        let points = registry.points();
        let n = points.len();
        let inner = Inner {
            plan,
            armed: plan.is_some(),
            tracing: true,
            stack: Vec::with_capacity(16),
            frame_arena: Vec::with_capacity(64),
            loop_stack: Vec::with_capacity(8),
            loop_arena: Vec::with_capacity(64),
            kinds: points.iter().map(|p| p.kind).collect(),
            error_when: points
                .iter()
                .map(|p| p.negation.map(|m| m.error_when))
                .collect(),
            covered: vec![false; n],
            loop_counts: vec![0; n],
            occurrences: vec![Vec::new(); n],
            entry_stacks: vec![Seen::default(); n],
            iter_sigs: vec![Seen::default(); n],
            callees: vec![Seen::default(); registry.fn_count()],
            trace: RunTrace::default(),
        };
        Agent {
            registry,
            inner: RefCell::new(inner),
        }
    }

    /// The registry this agent instruments.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Enables/disables monitoring (used by the §8.5 overhead benchmark;
    /// injection still works either way).
    pub fn set_tracing(&self, on: bool) {
        self.inner.borrow_mut().tracing = on;
    }

    /// Closest two call-stack levels above the current (top) frame.
    fn stack2(inner: &Inner) -> CallStack2 {
        let s = &inner.stack;
        let above = |k: usize| s.len().checked_sub(k).map(|i| s[i].0);
        [above(2), above(3)]
    }

    /// Local-compatibility state at a fault site: the branch trace of the
    /// enclosing loop iteration (if the innermost active loop lives in the
    /// current function) or of the enclosing function, plus the 2-level
    /// call stack (§6.2).
    fn occurrence_state(inner: &Inner) -> Occurrence {
        let local = match (inner.loop_stack.last(), inner.stack.last()) {
            (Some(l), _) if l.depth == inner.stack.len() => &inner.loop_arena[l.start..],
            (_, Some(&(_, start))) => &inner.frame_arena[start..],
            _ => &[],
        };
        Occurrence::new(Self::stack2(inner), local.to_vec())
    }

    /// Pushes a call frame; returns a guard that pops it on drop.
    ///
    /// Also records a dynamic call-graph edge (§B.1).
    pub fn frame(self: &Rc<Self>, f: FnId) -> FrameGuard {
        {
            let inner = &mut *self.inner.borrow_mut();
            inner.trace.hook_count += 1;
            if inner.tracing {
                if let Some(&(caller, _)) = inner.stack.last() {
                    inner.callees[caller.0 as usize].insert(f);
                }
            }
            inner.stack.push((f, inner.frame_arena.len()));
        }
        FrameGuard {
            agent: Rc::clone(self),
        }
    }

    /// Records a branch evaluation; returns `outcome` so it can be used
    /// inline: `if agent.branch(B1, x > 0) { ... }`.
    pub fn branch(&self, b: BranchId, outcome: bool) -> bool {
        let inner = &mut *self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        if inner.tracing {
            if !inner.stack.is_empty() {
                inner.frame_arena.push((b, outcome));
            }
            if let Some(l) = inner.loop_stack.last_mut() {
                inner.loop_arena.push((b, outcome));
                l.sig = fnv1a_word(l.sig, ((b.0 as u64) << 1) | (outcome as u64));
            }
        }
        outcome
    }

    /// Counts the hook and marks `p` reached.
    fn reach(inner: &mut Inner, p: FaultId) {
        inner.trace.hook_count += 1;
        inner.covered[p.0 as usize] = true;
    }

    /// `true` (and disarms) if the one-shot plan is `action` at `p`.
    fn fires(inner: &mut Inner, p: FaultId, action: InjectAction) -> bool {
        let fire = inner.armed && inner.plan == Some(InjectionPlan { target: p, action });
        inner.armed &= !fire;
        fire
    }

    /// Records an error occurrence at `p`; the injected one is also kept as
    /// the run's [`RunTrace::injected`].
    fn record_occurrence(inner: &mut Inner, p: FaultId, injected: bool) {
        if !inner.tracing && !injected {
            return;
        }
        let occ = Self::occurrence_state(inner);
        if injected {
            inner.trace.injected = Some((p, occ.clone()));
        }
        if inner.tracing {
            inner.occurrences[p.0 as usize].push(occ);
        }
    }

    fn exception_class(&self, p: FaultId, default: &'static str) -> &'static str {
        let meta = self.registry.point(p).exception.as_ref();
        meta.map_or(default, |e| e.class)
    }

    /// Hook at an exception guard (if-statement or library call site).
    ///
    /// Returns `Some(fault)` when the injection plan targets this point and
    /// is still armed — the caller must propagate the fault exactly as it
    /// would its natural exception.
    pub fn throw_guard(&self, p: FaultId) -> Option<Fault> {
        let inner = &mut *self.inner.borrow_mut();
        Self::reach(inner, p);
        if !Self::fires(inner, p, InjectAction::Throw) {
            return None;
        }
        Self::record_occurrence(inner, p, true);
        Some(Fault {
            point: p,
            exception: self.exception_class(p, "InjectedException"),
            injected: true,
        })
    }

    /// Hook on the natural throw path: the guard condition was true and the
    /// system is about to raise its own exception.
    pub fn throw_fired(&self, p: FaultId) -> Fault {
        let inner = &mut *self.inner.borrow_mut();
        Self::reach(inner, p);
        Self::record_occurrence(inner, p, false);
        Fault {
            point: p,
            exception: self.exception_class(p, "Exception"),
            injected: false,
        }
    }

    /// Hook wrapping the return value of a boolean error detector.
    ///
    /// Returns the (possibly negated) value the caller must use. An error
    /// occurrence is recorded when the produced value signals "error" per the
    /// point's [`crate::registry::NegationMeta::error_when`] polarity, or
    /// when the negation injection fired.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a negation point.
    pub fn negation_point(&self, p: FaultId, value: bool) -> bool {
        let inner = &mut *self.inner.borrow_mut();
        let error_when = inner.error_when[p.0 as usize]
            .expect("negation_point called on non-negation fault point");
        Self::reach(inner, p);
        let fire = Self::fires(inner, p, InjectAction::Negate);
        let out = value != fire;
        if fire || out == error_when {
            Self::record_occurrence(inner, p, fire);
        }
        out
    }

    /// Enters a loop; returns a guard whose [`LoopGuard::iter`] must be
    /// called at the head of every iteration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a loop point.
    pub fn loop_enter(self: &Rc<Self>, p: FaultId) -> LoopGuard {
        {
            let inner = &mut *self.inner.borrow_mut();
            assert_eq!(
                inner.kinds[p.0 as usize],
                FaultKind::LoopPoint,
                "loop_enter called on non-loop fault point"
            );
            Self::reach(inner, p);
            if inner.tracing {
                let stack = Self::stack2(inner);
                inner.entry_stacks[p.0 as usize].insert(stack);
            }
            inner.loop_stack.push(LoopActivation {
                id: p,
                start: inner.loop_arena.len(),
                sig: FNV_OFFSET,
                started: false,
                depth: inner.stack.len(),
            });
        }
        LoopGuard {
            agent: Rc::clone(self),
            id: p,
        }
    }

    /// Closes the innermost loop's current iteration, if one is open: its
    /// rolled signature joins the loop's set and its window is emptied.
    fn finalize_iteration(inner: &mut Inner) {
        let Some(l) = inner.loop_stack.last_mut() else {
            return;
        };
        if !l.started {
            return;
        }
        let sig = std::mem::replace(&mut l.sig, FNV_OFFSET);
        inner.loop_arena.truncate(l.start);
        if inner.tracing {
            inner.iter_sigs[l.id.0 as usize].insert(sig);
        }
    }

    fn loop_iter(&self, id: FaultId, clock: &mut dyn Clock) {
        let inner = &mut *self.inner.borrow_mut();
        inner.trace.hook_count += 1;
        debug_assert_eq!(
            inner.loop_stack.last().map(|l| l.id),
            Some(id),
            "LoopGuard::iter called out of LIFO order"
        );
        Self::finalize_iteration(inner);
        if let Some(l) = inner.loop_stack.last_mut() {
            l.started = true;
        }
        inner.loop_counts[id.0 as usize] += 1;
        if let Some(InjectionPlan {
            target,
            action: InjectAction::Delay(d),
        }) = inner.plan
        {
            if target == id {
                clock.advance(d);
                if inner.trace.injected.is_none() {
                    let occ = Occurrence::new(Self::stack2(inner), Vec::new());
                    inner.trace.injected = Some((id, occ));
                }
            }
        }
    }

    fn loop_exit(&self, id: FaultId) {
        let inner = &mut *self.inner.borrow_mut();
        Self::finalize_iteration(inner);
        let popped = inner.loop_stack.pop();
        if let Some(l) = &popped {
            inner.loop_arena.truncate(l.start);
        }
        debug_assert_eq!(
            popped.map(|l| l.id),
            Some(id),
            "LoopGuard dropped out of LIFO order"
        );
    }

    fn frame_exit(&self) {
        let inner = &mut *self.inner.borrow_mut();
        if let Some((_, start)) = inner.stack.pop() {
            inner.frame_arena.truncate(start);
        }
    }

    /// Raises a system-level failure flag (oracle for the black-box fuzzer).
    pub fn mark_flag(&self, flag: &str) {
        let flags = &mut self.inner.borrow_mut().trace.flags;
        if !flags.contains(flag) {
            flags.insert(flag.to_string());
        }
    }

    /// `true` if the plan's one-shot action already fired (or a delay plan
    /// applied at least once).
    pub fn injection_fired(&self) -> bool {
        self.inner.borrow().trace.injected.is_some()
    }

    /// Finalizes the run and assembles the trace from the tables (each
    /// ordered set and map is bulk-built from an already-sorted sequence).
    pub fn finish(&self, end_time: VirtualTime, events: u64) -> RunTrace {
        let inner = &mut *self.inner.borrow_mut();
        let mut t = std::mem::take(&mut inner.trace);
        (t.end_time, t.events) = (end_time, events);
        let points = || (0..).map(FaultId);
        let flagged = points().zip(&inner.covered).filter(|(_, &c)| c);
        t.coverage = flagged.map(|(p, _)| p).collect();
        let counts = points().zip(inner.loop_counts.iter().copied());
        t.loop_counts = counts.filter(|&(_, n)| n > 0).collect();
        let occurred = points().zip(inner.occurrences.iter_mut().map(std::mem::take));
        t.occurrences = occurred.filter(|(_, o)| !o.is_empty()).collect();
        let loops = points().zip(inner.entry_stacks.iter().zip(&inner.iter_sigs));
        t.loop_states = loops
            .filter(|(_, (stacks, sigs))| !stacks.items.is_empty() || !sigs.items.is_empty())
            .map(|(p, (stacks, sigs))| {
                let entry_stacks = stacks.items.iter().copied().collect();
                let iter_sigs = sigs.items.iter().copied().collect();
                let state = LoopState {
                    entry_stacks,
                    iter_sigs,
                };
                (p, state)
            })
            .collect();
        let callers = (0..).map(FnId).zip(&inner.callees);
        t.call_edges = callers
            .flat_map(|(caller, callees)| callees.items.iter().map(move |&f| (caller, f)))
            .collect();
        t
    }
}

/// RAII call-frame guard; pops the agent's shadow stack on drop.
pub struct FrameGuard {
    agent: Rc<Agent>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.agent.frame_exit();
    }
}

/// RAII loop guard; finalizes iteration signatures and pops the loop stack
/// on drop.
pub struct LoopGuard {
    agent: Rc<Agent>,
    id: FaultId,
}

impl LoopGuard {
    /// Marks the head of one loop iteration; applies delay injection.
    pub fn iter(&self, clock: &mut dyn Clock) {
        self.agent.loop_iter(self.id, clock);
    }
}

impl Drop for LoopGuard {
    fn drop(&mut self) {
        self.agent.loop_exit(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BoolSource, ExceptionCategory, RegistryBuilder};

    struct TestClock(VirtualTime);
    impl Clock for TestClock {
        fn now(&self) -> VirtualTime {
            self.0
        }
        fn advance(&mut self, d: VirtualTime) {
            self.0 += d;
        }
    }

    struct Fixture {
        agent: Rc<Agent>,
        f_outer: FnId,
        f_inner: FnId,
        tp: FaultId,
        np: FaultId,
        lp: FaultId,
        br: BranchId,
    }

    fn fixture(plan: Option<InjectionPlan>) -> Fixture {
        let mut b = RegistryBuilder::new("t");
        let f_outer = b.func("Outer.run");
        let f_inner = b.func("Inner.step");
        let tp = b.throw_point(
            f_inner,
            5,
            "IOException",
            ExceptionCategory::SystemSpecific,
            "tp",
        );
        let np = b.negation_point(f_inner, 9, true, BoolSource::ErrorDetector, "np");
        let lp = b.workload_loop(f_outer, 2, false, "lp");
        let br = b.branch(f_inner, 4);
        let reg = Arc::new(b.build());
        Fixture {
            agent: Rc::new(Agent::new(reg, plan)),
            f_outer,
            f_inner,
            tp,
            np,
            lp,
            br,
        }
    }

    #[test]
    fn throw_guard_fires_once_then_stays_quiet() {
        let fx = fixture(Some(InjectionPlan::throw(fx_tp())));
        fn fx_tp() -> FaultId {
            FaultId(0)
        }
        let _f = fx.agent.frame(fx.f_inner);
        let fault = fx.agent.throw_guard(fx.tp).expect("fires");
        assert!(fault.injected);
        assert_eq!(fault.exception, "IOException");
        assert!(fx.agent.throw_guard(fx.tp).is_none());
        assert!(fx.agent.injection_fired());
    }

    #[test]
    fn throw_guard_ignores_other_points() {
        let fx = fixture(Some(InjectionPlan::throw(FaultId(1))));
        let _f = fx.agent.frame(fx.f_inner);
        assert!(fx.agent.throw_guard(fx.tp).is_none());
        assert!(!fx.agent.injection_fired());
    }

    #[test]
    fn natural_throw_recorded_with_stack() {
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let _i = fx.agent.frame(fx.f_inner);
        let fault = fx.agent.throw_fired(fx.tp);
        assert!(!fault.injected);
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        let occ = &t.occurrences[&fx.tp][0];
        assert_eq!(occ.stack, [Some(fx.f_outer), None]);
    }

    #[test]
    fn negation_flips_once_and_records_error_occurrence() {
        let fx = fixture(Some(InjectionPlan::negate(FaultId(1))));
        let _f = fx.agent.frame(fx.f_inner);
        // error_when = true; healthy value = false. Injection flips to true.
        assert!(fx.agent.negation_point(fx.np, false));
        // One-shot: second call passes through.
        assert!(!fx.agent.negation_point(fx.np, false));
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.occurrences[&fx.np].len(), 1);
        assert_eq!(t.injected.as_ref().unwrap().0, fx.np);
    }

    #[test]
    fn natural_detector_error_recorded_without_plan() {
        let fx = fixture(None);
        let _f = fx.agent.frame(fx.f_inner);
        assert!(fx.agent.negation_point(fx.np, true)); // true == error_when
        assert!(!fx.agent.negation_point(fx.np, false)); // healthy: no record
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.occurrences[&fx.np].len(), 1);
        assert!(t.injected.is_none());
    }

    #[test]
    fn loop_counts_and_iteration_sigs() {
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let mut clock = TestClock(VirtualTime::ZERO);
        {
            let lg = fx.agent.loop_enter(fx.lp);
            for i in 0..5 {
                lg.iter(&mut clock);
                // Branch outcome varies per iteration → ≥2 distinct sigs.
                let _f = fx.agent.frame(fx.f_inner);
                fx.agent.branch(fx.br, i % 2 == 0);
            }
        }
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.loop_count(fx.lp), 5);
        let st = &t.loop_states[&fx.lp];
        assert_eq!(st.iter_sigs.len(), 2);
        assert!(st.entry_stacks.contains(&[None, None]));
        assert_eq!(clock.now(), VirtualTime::ZERO, "no delay without plan");
    }

    #[test]
    fn delay_plan_advances_clock_every_iteration() {
        let fx = fixture(Some(InjectionPlan::delay(
            FaultId(2),
            VirtualTime::from_millis(100),
        )));
        let _o = fx.agent.frame(fx.f_outer);
        let mut clock = TestClock(VirtualTime::ZERO);
        {
            let lg = fx.agent.loop_enter(fx.lp);
            for _ in 0..7 {
                lg.iter(&mut clock);
            }
        }
        assert_eq!(clock.now(), VirtualTime::from_millis(700));
        assert!(fx.agent.injection_fired());
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.injected.as_ref().unwrap().0, fx.lp);
    }

    #[test]
    fn branch_trace_feeds_occurrence_state_in_loop() {
        // A fault inside a loop in the same function uses the current
        // iteration's branch buffer, not the whole frame history.
        let fx = fixture(None);
        let _o = fx.agent.frame(fx.f_outer);
        let br_outer = BranchId(0);
        let lg = fx.agent.loop_enter(fx.lp);
        lg.iter(&mut TestClock(VirtualTime::ZERO));
        fx.agent.branch(br_outer, true);
        lg.iter(&mut TestClock(VirtualTime::ZERO));
        fx.agent.branch(br_outer, false);
        // Fault in iteration 2: local trace must be just [(br, false)].
        let fault_occ = {
            // tp lives in f_inner, but for this test record at loop level via
            // a throw point declared in f_outer.
            let inner = Agent::occurrence_state(&fx.agent.inner.borrow());
            inner
        };
        assert_eq!(fault_occ.local_trace, vec![(br_outer, false)]);
        drop(lg);
    }

    #[test]
    fn call_edges_form_dynamic_call_graph() {
        let fx = fixture(None);
        {
            let _o = fx.agent.frame(fx.f_outer);
            let _i = fx.agent.frame(fx.f_inner);
        }
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(t.call_edges.contains(&(fx.f_outer, fx.f_inner)));
        assert_eq!(t.call_edges.len(), 1);
    }

    #[test]
    fn coverage_tracks_reached_points_only() {
        let fx = fixture(None);
        let _f = fx.agent.frame(fx.f_inner);
        let _ = fx.agent.throw_guard(fx.tp);
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(t.coverage.contains(&fx.tp));
        assert!(!t.coverage.contains(&fx.np));
        assert!(!t.occurred(fx.tp), "guard reach is not an occurrence");
    }

    #[test]
    fn tracing_off_still_injects_but_skips_recording() {
        let fx = fixture(Some(InjectionPlan::throw(FaultId(0))));
        fx.agent.set_tracing(false);
        let _f = fx.agent.frame(fx.f_inner);
        fx.agent.branch(fx.br, true);
        assert!(fx.agent.throw_guard(fx.tp).is_some());
        let t = fx.agent.finish(VirtualTime::ZERO, 0);
        assert!(!t.occurrences.contains_key(&fx.tp));
        assert!(t.call_edges.is_empty());
        assert!(t.hook_count > 0);
    }

    #[test]
    fn nested_loops_track_independently() {
        let fx = fixture(None);
        let mut b = RegistryBuilder::new("t2");
        let f = b.func("X.f");
        let outer_lp = b.workload_loop(f, 1, false, "outer");
        let inner_lp = b.workload_loop(f, 2, false, "inner");
        let reg = Arc::new(b.build());
        let agent = Rc::new(Agent::new(reg, None));
        let mut clock = TestClock(VirtualTime::ZERO);
        let _frame = agent.frame(f);
        {
            let lo = agent.loop_enter(outer_lp);
            for _ in 0..3 {
                lo.iter(&mut clock);
                let li = agent.loop_enter(inner_lp);
                for _ in 0..4 {
                    li.iter(&mut clock);
                }
            }
        }
        let t = agent.finish(VirtualTime::ZERO, 0);
        assert_eq!(t.loop_count(outer_lp), 3);
        assert_eq!(t.loop_count(inner_lp), 12);
        drop(fx);
    }
}
