//! The agent against a naive model that shares no code with it.
//!
//! Random well-nested hook scripts — frames, nested and sibling loops,
//! branches inside and outside loops and frames, natural throws, detector
//! errors, every plan kind, early unwinds via dropped guards, monitoring on
//! and off — run through [`Agent`] and through [`Model`], which keeps a
//! `Vec` of branches per frame and per loop and inserts straight into the
//! trace's ordered sets. Every hook's return value and the final
//! [`RunTrace`] must agree.

use std::rc::Rc;
use std::sync::Arc;

use csnake::inject::{
    fnv1a, Agent, BoolSource, BranchId, CallStack2, ExceptionCategory, FaultId, FnId, FrameGuard,
    InjectAction, InjectionPlan, LoopGuard, Occurrence, RegistryBuilder, RunTrace,
};
use csnake::sim::{Sim, VirtualTime};
use proptest::prelude::*;

struct ModelLoop {
    id: FaultId,
    branches: Vec<(BranchId, bool)>,
    started: bool,
    depth: usize,
}

#[derive(Default)]
struct Model {
    plan: Option<InjectionPlan>,
    armed: bool,
    tracing: bool,
    frames: Vec<(FnId, Vec<(BranchId, bool)>)>,
    loops: Vec<ModelLoop>,
    t: RunTrace,
}

impl Model {
    fn callers(&self) -> CallStack2 {
        let above = |k: usize| self.frames.len().checked_sub(k).map(|i| self.frames[i].0);
        [above(2), above(3)]
    }

    fn hook(&mut self, p: FaultId) {
        self.t.hook_count += 1;
        self.t.coverage.insert(p);
    }

    fn fires(&mut self, p: FaultId, action: InjectAction) -> bool {
        let fire = self.armed && self.plan == Some(InjectionPlan { target: p, action });
        self.armed &= !fire;
        fire
    }

    fn error(&mut self, p: FaultId, injected: bool) {
        let local = match self.loops.last() {
            Some(l) if l.depth == self.frames.len() => l.branches.clone(),
            _ => self.frames.last().map(|f| f.1.clone()).unwrap_or_default(),
        };
        let occ = Occurrence::new(self.callers(), local);
        if self.tracing {
            self.t.occurrences.entry(p).or_default().push(occ.clone());
        }
        if injected {
            self.t.injected = Some((p, occ));
        }
    }

    fn frame(&mut self, f: FnId) {
        self.t.hook_count += 1;
        if let (true, Some(caller)) = (self.tracing, self.frames.last()) {
            self.t.call_edges.insert((caller.0, f));
        }
        self.frames.push((f, Vec::new()));
    }

    fn branch(&mut self, b: BranchId, outcome: bool) {
        self.t.hook_count += 1;
        if self.tracing {
            if let Some(f) = self.frames.last_mut() {
                f.1.push((b, outcome));
            }
            if let Some(l) = self.loops.last_mut() {
                l.branches.push((b, outcome));
            }
        }
    }

    fn throw_guard(&mut self, p: FaultId) -> bool {
        self.hook(p);
        let fire = self.fires(p, InjectAction::Throw);
        if fire {
            self.error(p, true);
        }
        fire
    }

    fn negation(&mut self, p: FaultId, value: bool, error_when: bool) -> bool {
        self.hook(p);
        let fire = self.fires(p, InjectAction::Negate);
        if fire || (value == error_when) {
            self.error(p, fire);
        }
        value != fire
    }

    fn loop_enter(&mut self, p: FaultId) {
        self.hook(p);
        if self.tracing {
            let callers = self.callers();
            let state = self.t.loop_states.entry(p).or_default();
            state.entry_stacks.insert(callers);
        }
        self.loops.push(ModelLoop {
            id: p,
            branches: Vec::new(),
            started: false,
            depth: self.frames.len(),
        });
    }

    fn close_iteration(&mut self) {
        let Some(l) = self.loops.last_mut().filter(|l| l.started) else {
            return;
        };
        let words = l
            .branches
            .drain(..)
            .map(|(b, o)| (u64::from(b.0) << 1) | u64::from(o));
        let sig = fnv1a(words);
        if self.tracing {
            self.t
                .loop_states
                .entry(l.id)
                .or_default()
                .iter_sigs
                .insert(sig);
        }
    }

    /// Returns the delay the iteration head must apply.
    fn iter(&mut self) -> VirtualTime {
        self.t.hook_count += 1;
        self.close_iteration();
        let l = self.loops.last_mut().expect("iter inside a loop");
        l.started = true;
        let id = l.id;
        *self.t.loop_counts.entry(id).or_insert(0) += 1;
        match self.plan {
            Some(InjectionPlan {
                target,
                action: InjectAction::Delay(d),
            }) if target == id => {
                let occ = Occurrence::new(self.callers(), Vec::new());
                self.t.injected.get_or_insert((id, occ));
                d
            }
            _ => VirtualTime::ZERO,
        }
    }

    fn loop_exit(&mut self) {
        self.close_iteration();
        self.loops.pop();
    }
}

enum Scope {
    /// Held for its `Drop`.
    Frame(#[allow(dead_code)] FrameGuard),
    Loop(LoopGuard),
}

/// Runs one script through both and compares as it goes.
fn check(script: &[(u8, u8)], plan_kind: u8, tracing: bool) {
    let mut b = RegistryBuilder::new("oracle");
    let fns = [b.func("A.a"), b.func("B.b"), b.func("C.c")];
    let sys = ExceptionCategory::SystemSpecific;
    let throws = [
        b.throw_point(fns[0], 1, "IOException", sys, "t0"),
        b.lib_call(fns[1], 2, "TimeoutException", "t1"),
    ];
    let negations = [
        (
            b.negation_point(fns[1], 3, true, BoolSource::ErrorDetector, "n0"),
            true,
        ),
        (
            b.negation_point(fns[2], 4, false, BoolSource::ErrorDetector, "n1"),
            false,
        ),
    ];
    let loops = [
        b.workload_loop(fns[0], 5, false, "l0"),
        b.workload_loop(fns[1], 6, false, "l1"),
        b.workload_loop(fns[2], 7, true, "l2"),
    ];
    let branches = [
        b.branch(fns[0], 8),
        b.branch(fns[1], 9),
        b.branch(fns[2], 10),
    ];
    let plan = match plan_kind {
        0 => None,
        1 => Some(InjectionPlan::throw(throws[1])),
        2 => Some(InjectionPlan::negate(negations[0].0)),
        _ => Some(InjectionPlan::delay(
            loops[1],
            VirtualTime::from_millis(100),
        )),
    };

    let agent = Rc::new(Agent::new(Arc::new(b.build()), plan));
    agent.set_tracing(tracing);
    let mut model = Model {
        plan,
        armed: plan.is_some(),
        tracing,
        ..Model::default()
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut clock = Sim::<()>::new(0);
    let mut expected_clock = VirtualTime::ZERO;

    let pop = |scopes: &mut Vec<Scope>, model: &mut Model| match scopes.pop() {
        Some(Scope::Frame(_)) => drop(model.frames.pop()),
        Some(Scope::Loop(_)) => model.loop_exit(),
        None => {}
    };
    for &(op, arg) in script {
        let pick = arg as usize;
        match op {
            0 | 1 => {
                let f = fns[pick % fns.len()];
                scopes.push(Scope::Frame(agent.frame(f)));
                model.frame(f);
            }
            2 | 3 => {
                let p = loops[pick % loops.len()];
                scopes.push(Scope::Loop(agent.loop_enter(p)));
                model.loop_enter(p);
            }
            4..=6 => {
                // The innermost open loop, whatever frames sit above it.
                let innermost = scopes.iter().rev().find_map(|s| match s {
                    Scope::Loop(g) => Some(g),
                    Scope::Frame(_) => None,
                });
                if let Some(g) = innermost {
                    g.iter(&mut clock);
                    expected_clock += model.iter();
                    assert_eq!(clock.now(), expected_clock, "delay applied");
                }
            }
            7..=9 => {
                let (br, outcome) = (branches[pick % branches.len()], pick >= 128);
                assert_eq!(agent.branch(br, outcome), outcome);
                model.branch(br, outcome);
            }
            10 => {
                let p = throws[pick % throws.len()];
                let fault = agent.throw_guard(p);
                assert_eq!(fault.is_some(), model.throw_guard(p), "throw_guard fired");
            }
            11 => {
                let p = throws[pick % throws.len()];
                assert!(!agent.throw_fired(p).injected);
                model.hook(p);
                model.error(p, false);
            }
            12 => {
                let ((p, error_when), value) = (negations[pick % negations.len()], pick >= 128);
                let out = agent.negation_point(p, value);
                assert_eq!(out, model.negation(p, value, error_when), "detector value");
            }
            13 | 14 => pop(&mut scopes, &mut model),
            // An exception unwinding several scopes at once.
            _ => (0..=pick % 4).for_each(|_| pop(&mut scopes, &mut model)),
        }
        assert_eq!(agent.injection_fired(), model.t.injected.is_some());
    }
    while !scopes.is_empty() {
        pop(&mut scopes, &mut model);
    }

    let got = agent.finish(VirtualTime::from_millis(5), 42);
    model.t.end_time = VirtualTime::from_millis(5);
    model.t.events = 42;
    assert_eq!(format!("{got:#?}"), format!("{:#?}", model.t));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agent_matches_the_naive_model(
        script in proptest::collection::vec((0u8..16, 0u8..255), 0..160),
        plan_kind in 0u8..4,
        tracing in 0u8..4
    ) {
        // Monitoring is on in three cases out of four.
        check(&script, plan_kind, tracing != 0);
    }
}
