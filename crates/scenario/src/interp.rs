//! The scenario interpreter: one deterministic discrete-event `World`.
//!
//! Each compiled handler is one event type; the run state is the set of
//! declared queues (items carry their open-loop submit time and a retry
//! counter) plus per-queue submission counters. Statements call the
//! injection agent's hooks exactly like hand-coded targets do — frames
//! and loops through RAII guards, faults propagating through `Result` to
//! the nearest `try` — so a faithful port of a hand-coded target records
//! byte-identical traces.

use std::collections::VecDeque;
use std::rc::Rc;

use csnake_inject::{Agent, Fault, InjectionPlan, TestId};
use csnake_sim::{Clock, Sim, VirtualTime, World};
use csnake_targets::common::run_world;

use crate::compile::{CExpr, CSetup, CStmt, CWorkload, Compiled, Value};

/// One in-flight work item.
#[derive(Debug, Clone, Copy)]
struct Item {
    /// Open-loop intended submission time (the latency clock).
    submitted: VirtualTime,
    /// Retry generation (0 for fresh items).
    retries: i64,
}

/// Executes one workload of a compiled scenario.
pub(crate) fn run(
    c: &Compiled,
    test: TestId,
    plan: Option<InjectionPlan>,
    seed: u64,
) -> csnake_inject::RunTrace {
    let wl = c
        .workloads
        .get(test.0 as usize)
        .unwrap_or_else(|| panic!("scenario {} has no workload {test}", c.name));
    run_world(&c.registry, plan, seed, wl.horizon, |agent, sim| {
        for s in &wl.setup {
            match *s {
                CSetup::Spawn {
                    event,
                    count,
                    every,
                } => {
                    for i in 0..count {
                        sim.schedule_at(every * i, event);
                    }
                }
                CSetup::Sched { event, after } => {
                    sim.schedule(after, event);
                }
                CSetup::Arrive {
                    event,
                    ref arrival,
                    count,
                } => {
                    // Seed-derived stream: the run's RNG forks a labelled
                    // child per stanza, so arrivals are a pure function of
                    // (run seed, stanza order).
                    let rng = sim.rng().derive("scenario-arrive");
                    sim.schedule_stream(arrival.stream(rng, count as usize), count, move |_| event);
                }
            }
        }
        ScnWorld {
            c,
            wl,
            agent,
            queues: vec![VecDeque::new(); c.queue_count],
            submitted: vec![0; c.queue_count],
        }
    })
}

/// Evaluates a constant expression (workload scope: vars and literals
/// only — no queues, no clock). Used by the compiler for horizons and
/// setup schedules.
pub(crate) fn eval_const(e: &CExpr, vars: &[Value]) -> Value {
    match e {
        CExpr::Int(n) => Value::Int(*n),
        CExpr::Dur(d) => Value::Dur(*d),
        CExpr::Bool(b) => Value::Bool(*b),
        CExpr::Var(id) => vars[*id],
        CExpr::Not(inner) => match eval_const(inner, vars) {
            Value::Bool(b) => Value::Bool(!b),
            _ => unreachable!("type-checked"),
        },
        CExpr::Bin(op, lhs, rhs) => bin_op(*op, eval_const(lhs, vars), eval_const(rhs, vars)),
        _ => unreachable!("workload-scope expressions cannot touch run state"),
    }
}

fn bin_op(op: crate::ast::BinOp, l: Value, r: Value) -> Value {
    use crate::ast::BinOp::*;
    use Value::*;
    match (op, l, r) {
        (And, Bool(a), Bool(b)) => Bool(a && b),
        (Or, Bool(a), Bool(b)) => Bool(a || b),
        (Lt, Int(a), Int(b)) => Bool(a < b),
        (Le, Int(a), Int(b)) => Bool(a <= b),
        (Gt, Int(a), Int(b)) => Bool(a > b),
        (Ge, Int(a), Int(b)) => Bool(a >= b),
        (Eq, Int(a), Int(b)) => Bool(a == b),
        (Ne, Int(a), Int(b)) => Bool(a != b),
        (Lt, Dur(a), Dur(b)) => Bool(a < b),
        (Le, Dur(a), Dur(b)) => Bool(a <= b),
        (Gt, Dur(a), Dur(b)) => Bool(a > b),
        (Ge, Dur(a), Dur(b)) => Bool(a >= b),
        (Eq, Dur(a), Dur(b)) => Bool(a == b),
        (Ne, Dur(a), Dur(b)) => Bool(a != b),
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(b)),
        (Add, Dur(a), Dur(b)) => Dur(a.saturating_add(b)),
        (Sub, Dur(a), Dur(b)) => Dur(a.saturating_sub(b)),
        (Mul, Dur(a), Int(b)) | (Mul, Int(b), Dur(a)) => Dur(a * b.max(0) as u64),
        _ => unreachable!("type-checked operand mix"),
    }
}

struct ScnWorld<'a> {
    c: &'a Compiled,
    wl: &'a CWorkload,
    agent: Rc<Agent>,
    queues: Vec<VecDeque<Item>>,
    submitted: Vec<u64>,
}

impl World for ScnWorld<'_> {
    type Event = usize;

    fn handle(&mut self, sim: &mut Sim<usize>, ev: usize) {
        let handler = &self.c.handlers[ev];
        let _f = self.agent.frame(handler.func);
        // A fault that escapes every `try` terminates the handler, like an
        // exception unwinding out of a Java service loop's dispatch.
        let _ = self.exec_block(&handler.body, sim, None);
    }
}

impl ScnWorld<'_> {
    fn eval(&self, e: &CExpr, sim: &Sim<usize>, item: Option<&Item>) -> Value {
        match e {
            CExpr::Int(n) => Value::Int(*n),
            CExpr::Dur(d) => Value::Dur(*d),
            CExpr::Bool(b) => Value::Bool(*b),
            CExpr::Var(id) => self.wl.vars[*id],
            CExpr::Len(q) => Value::Int(self.queues[*q].len() as i64),
            CExpr::Empty(q) => Value::Bool(self.queues[*q].is_empty()),
            CExpr::Submitted(q) => Value::Int(self.submitted[*q] as i64),
            CExpr::Age => {
                let item = item.expect("age(item) validated to run inside a drain loop");
                Value::Dur(sim.now().saturating_sub(item.submitted))
            }
            CExpr::Retries => {
                let item = item.expect("retries(item) validated to run inside a drain loop");
                Value::Int(item.retries)
            }
            CExpr::Now => Value::Dur(sim.now()),
            CExpr::Not(inner) => match self.eval(inner, sim, item) {
                Value::Bool(b) => Value::Bool(!b),
                _ => unreachable!("type-checked"),
            },
            CExpr::Bin(op, lhs, rhs) => {
                bin_op(*op, self.eval(lhs, sim, item), self.eval(rhs, sim, item))
            }
        }
    }

    fn eval_bool(&self, e: &CExpr, sim: &Sim<usize>, item: Option<&Item>) -> bool {
        match self.eval(e, sim, item) {
            Value::Bool(b) => b,
            _ => unreachable!("type-checked bool"),
        }
    }

    fn eval_dur(&self, e: &CExpr, sim: &Sim<usize>, item: Option<&Item>) -> VirtualTime {
        match self.eval(e, sim, item) {
            Value::Dur(d) => d,
            _ => unreachable!("type-checked dur"),
        }
    }

    fn eval_int(&self, e: &CExpr, sim: &Sim<usize>, item: Option<&Item>) -> i64 {
        match self.eval(e, sim, item) {
            Value::Int(n) => n,
            _ => unreachable!("type-checked int"),
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[CStmt],
        sim: &mut Sim<usize>,
        item: Option<&Item>,
    ) -> Result<(), Fault> {
        for s in stmts {
            self.exec(s, sim, item)?;
        }
        Ok(())
    }

    fn exec(&mut self, s: &CStmt, sim: &mut Sim<usize>, item: Option<&Item>) -> Result<(), Fault> {
        match s {
            CStmt::Advance(e) => {
                let d = self.eval_dur(e, sim, item);
                sim.advance(d);
            }
            CStmt::Frame(f, body) => {
                let _g = self.agent.frame(*f);
                self.exec_block(body, sim, item)?;
            }
            CStmt::Branch(b, cond) => {
                let v = self.eval_bool(cond, sim, item);
                self.agent.branch(*b, v);
            }
            CStmt::Guard(p) => {
                if let Some(fault) = self.agent.throw_guard(*p) {
                    return Err(fault);
                }
            }
            CStmt::ThrowIf(p, cond) => {
                if self.eval_bool(cond, sim, item) {
                    return Err(self.agent.throw_fired(*p));
                }
            }
            CStmt::Check {
                point,
                error_when,
                value,
                onerr,
            } => {
                let v = self.eval_bool(value, sim, item);
                let out = self.agent.negation_point(*point, v);
                if out == *error_when {
                    self.exec_block(onerr, sim, item)?;
                }
            }
            CStmt::Flag(name) => self.agent.mark_flag(name),
            CStmt::ConstLoop { point, bound, body } => {
                let guard = self.agent.loop_enter(*point);
                for _ in 0..*bound {
                    guard.iter(sim);
                    self.exec_block(body, sim, item)?;
                }
            }
            CStmt::DrainLoop { point, queue, body } => {
                let batch: Vec<Item> = self.queues[*queue].drain(..).collect();
                let guard = self.agent.loop_enter(*point);
                for it in batch {
                    guard.iter(sim);
                    self.exec_block(body, sim, Some(&it))?;
                }
            }
            CStmt::Submit { queue, every } => {
                let every = self.eval_dur(every, sim, item);
                let intended = every * self.submitted[*queue];
                self.queues[*queue].push_back(Item {
                    submitted: intended,
                    retries: 0,
                });
                self.submitted[*queue] += 1;
            }
            CStmt::Push(q) => {
                let now = sim.now();
                self.queues[*q].push_back(Item {
                    submitted: now,
                    retries: 0,
                });
            }
            CStmt::Requeue(q) => {
                let it = item.expect("requeue validated to run inside a drain loop");
                let now = sim.now();
                self.queues[*q].push_back(Item {
                    submitted: now,
                    retries: it.retries.saturating_add(1),
                });
            }
            CStmt::Repeat(count, body) => {
                let n = self.eval_int(count, sim, item).max(0);
                for _ in 0..n {
                    self.exec_block(body, sim, item)?;
                }
            }
            CStmt::If(cond, then, els) => {
                if self.eval_bool(cond, sim, item) {
                    self.exec_block(then, sim, item)?;
                } else {
                    self.exec_block(els, sim, item)?;
                }
            }
            CStmt::Try(body, onerr) => {
                if self.exec_block(body, sim, item).is_err() {
                    self.exec_block(onerr, sim, item)?;
                }
            }
            CStmt::Sched { event, after } => {
                let d = self.eval_dur(after, sim, item);
                sim.schedule(d, *event);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, parse_str};
    use csnake_core::TargetSystem;

    /// A miniature retry amplifier exercising most statement forms.
    const SRC: &str = r#"
        scenario mini
        component S { queue q }
        fn f = "S.tick"
        fn g = "S.process"
        loop work at f:1 io
        constloop warm at f:2 bound 2
        throw ioe at g:3 class "IOException" category system
        negation healthy at f:4 error_when false source detector
        branchpoint nonempty at f:5
        handler Submit fn f { submit q every 10ms }
        handler Tick fn f {
          constloop warm { advance 1us }
          branch nonempty not empty(q)
          loop work drain q {
            try {
              frame g {
                advance 1ms
                guard ioe
                throwif ioe age(item) > 5s
              }
            } onerr {
              if retries(item) < $max { repeat $fanout { requeue q } }
            }
          }
          check healthy ok len(q) < 100 onerr { flag "unhealthy" }
          if (submitted(q) < $jobs) or (not empty(q)) {
            sched Tick after 50ms
          }
        }
        workload volume "many jobs" {
          let jobs = 40
          let fanout = 0
          let max = 0
          horizon 60s
          spawn Submit count $jobs every 10ms
          sched Tick after 50ms
        }
        workload retry "few jobs with fanout" {
          let jobs = 5
          let fanout = 3
          let max = 1
          horizon 60s
          spawn Submit count $jobs every 50ms
          sched Tick after 50ms
        }
        bug mini-storm jira "M-1" summary "retry storm" labels [work, ioe]
    "#;

    fn system() -> crate::ScenarioSystem {
        compile(&parse_str(SRC).unwrap()).unwrap()
    }

    #[test]
    fn profile_run_is_deterministic_and_covers_points() {
        let sys = system();
        let a = sys.run(TestId(0), None, 7);
        let b = sys.run(TestId(0), None, 7);
        assert_eq!(a.loop_counts, b.loop_counts);
        assert_eq!(a.events, b.events);
        let work = sys.point_by_label("work").unwrap();
        assert_eq!(a.loop_count(work), 40, "all jobs processed exactly once");
        let ioe = sys.point_by_label("ioe").unwrap();
        assert!(a.coverage.contains(&ioe));
        assert!(!a.occurred(ioe), "no natural timeouts in profile");
    }

    #[test]
    fn delay_injection_causes_timeouts_in_volume_workload() {
        let sys = system();
        let work = sys.point_by_label("work").unwrap();
        let ioe = sys.point_by_label("ioe").unwrap();
        let plan = InjectionPlan::delay(work, VirtualTime::from_millis(800));
        let t = sys.run(TestId(0), Some(plan), 3);
        assert!(t.injected.is_some());
        assert!(t.occurred(ioe), "delay must age items past the deadline");
    }

    #[test]
    fn throw_injection_amplifies_loop_in_retry_workload_only() {
        let sys = system();
        let work = sys.point_by_label("work").unwrap();
        let ioe = sys.point_by_label("ioe").unwrap();

        let base = sys.run(TestId(1), None, 3).loop_count(work);
        let inj = sys
            .run(TestId(1), Some(InjectionPlan::throw(ioe)), 3)
            .loop_count(work);
        assert!(inj >= base + 3, "fanout must amplify: {inj} vs {base}");

        let base0 = sys.run(TestId(0), None, 3).loop_count(work);
        let inj0 = sys
            .run(TestId(0), Some(InjectionPlan::throw(ioe)), 3)
            .loop_count(work);
        assert_eq!(inj0, base0, "no fanout in the volume workload");
    }

    #[test]
    fn negation_injection_flags_and_records() {
        let sys = system();
        let healthy = sys.point_by_label("healthy").unwrap();
        let t = sys.run(TestId(1), Some(InjectionPlan::negate(healthy)), 3);
        assert!(t.occurred(healthy));
        assert!(t.flags.contains("unhealthy"));
        let p = sys.run(TestId(1), None, 3);
        assert!(!p.occurred(healthy), "quiet without injection");
    }

    #[test]
    fn const_loop_counts_are_a_bound_multiple() {
        let sys = system();
        let warm = sys.point_by_label("warm").unwrap();
        let t = sys.run(TestId(1), None, 3);
        let c = t.loop_count(warm);
        assert!(c > 0 && c.is_multiple_of(2), "{c}");
    }

    /// Open-loop `arrive` stanzas: each workload offers a fixed request
    /// count from a seed-derived process; every request is handled within
    /// the horizon and reruns are bit-identical.
    const ARRIVE_SRC: &str = r#"
        scenario arrivals
        component S { queue q }
        fn f = "S.req"
        loop work at f:1 io
        handler Req fn f {
          submit q every 1ms
          loop work drain q { advance 100us }
        }
        workload open_poisson "poisson stream" {
          let rate = 500
          let n = 400
          horizon 30s
          arrive Req poisson rate $rate count $n
        }
        workload open_bursty "bursty stream" {
          let rate = 800
          let n = 200
          horizon 30s
          arrive Req bursty rate $rate on 100ms off 400ms count $n
        }
        workload open_diurnal "diurnal stream" {
          let rate = 900
          let n = 300
          horizon 60s
          arrive Req diurnal low 50 high $rate period 10s count $n
        }
    "#;

    #[test]
    fn arrive_stanzas_offer_exact_deterministic_streams() {
        let sys = compile(&parse_str(ARRIVE_SRC).unwrap()).unwrap();
        let work = sys.point_by_label("work").unwrap();
        for (test, offered) in [(TestId(0), 400), (TestId(1), 200), (TestId(2), 300)] {
            let a = sys.run(test, None, 11);
            let b = sys.run(test, None, 11);
            assert_eq!(a.loop_counts, b.loop_counts, "{test} rerun identical");
            assert_eq!(a.events, b.events, "{test} rerun identical");
            assert_eq!(
                a.loop_count(work),
                offered,
                "{test}: every offered request handled exactly once"
            );
        }
    }

    /// Rates clamp at zero, so this compiles; its arrivals park at the end
    /// of time instead of hanging the sampler (or, lazily, the run).
    #[test]
    fn zero_rate_diurnal_stanza_runs_to_its_horizon() {
        let src = ARRIVE_SRC.replace("diurnal low 50 high $rate", "diurnal low 0 high 0");
        let sys = compile(&parse_str(&src).unwrap()).unwrap();
        let t = sys.run(TestId(2), None, 11);
        assert_eq!(t.events, 0);
    }
}
