//! The steady-state hook path performs no heap allocation.
//!
//! A campaign fires ~10^8 hooks; one allocation per frame or per loop
//! activation is what the agent's flat tables and arenas exist to avoid.
//! This binary installs a counting allocator (one test, so nothing else
//! runs on its thread) and asserts the count stays at zero once a warm-up
//! pass has grown the arenas and seen every value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use csnake::inject::{Agent, BoolSource, ExceptionCategory, RegistryBuilder};
use csnake::sim::{Sim, VirtualTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor, so touching it neither allocates nor unwinds.
// `realloc` keeps its default (alloc + copy + dealloc), so it is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_hooks_do_not_allocate() {
    let mut b = RegistryBuilder::new("alloc");
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
    let inner_lp = b.workload_loop(f_inner, 7, false, "inner_lp");
    let br = b.branch(f_inner, 4);
    let agent = Rc::new(Agent::new(Arc::new(b.build()), None));
    let mut clock = Sim::<()>::new(0);

    // One pass: a frame, a loop whose iterations call into a second frame
    // with branches, a quiet guard, a healthy detector and a nested loop.
    let mut pass = || {
        let _outer = agent.frame(f_outer);
        agent.branch(br, true);
        let lg = agent.loop_enter(lp);
        for i in 0..6 {
            lg.iter(&mut clock);
            let _inner = agent.frame(f_inner);
            agent.branch(br, i % 2 == 0);
            assert!(agent.throw_guard(tp).is_none());
            assert!(!agent.negation_point(np, false));
            let nested = agent.loop_enter(inner_lp);
            for _ in 0..3 {
                nested.iter(&mut clock);
                agent.branch(br, false);
            }
        }
    };

    pass();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..50 {
        pass();
    }
    let allocated = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "steady-state hooks allocated");

    // The counter does count: assembling the trace builds ordered sets.
    let trace = agent.finish(VirtualTime::ZERO, 0);
    assert!(ALLOCS.with(Cell::get) > before);
    assert_eq!(trace.loop_count(lp), 6 * 51);
    assert_eq!(trace.loop_states[&lp].iter_sigs.len(), 2);
}
