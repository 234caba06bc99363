//! The harness's own span recorder.
//!
//! Spans are recorded from the benchmark's files around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span carries a name, start, end, the span that was open when it began
//! (its parent) and the campaign it belongs to. Spans stay in memory and
//! are written out as a Chrome trace when the run ends.
//!
//! Campaigns run one at a time, so "the span that caused this one" is
//! simply the innermost span open on the driving thread; target runs that
//! execute on pool threads attach to it through [`Tracer::leaf`].

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// No parent / no open span.
const NONE: u32 = u32::MAX;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(NONE) };
}

/// Small dense id of the calling thread, for the trace's `tid` column.
fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == NONE {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub campaign: u32,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Innermost open span on the driving thread. Pool threads read it to
    /// find their parent, so it is not a mere statistic: SeqCst.
    current: AtomicU32,
    campaign: AtomicU32,
    /// Set while the harness does off-the-clock work (replays, the traced
    /// engine's own profiling); target wrappers record nothing meanwhile.
    paused: AtomicBool,
    paused_ns: Mutex<u64>,
}

/// Closes its span on drop and re-opens the parent.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize].end_ns = end;
        }
        self.tracer.current.store(self.parent, Ordering::SeqCst);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(NONE),
            campaign: AtomicU32::new(0),
            paused: AtomicBool::new(false),
            paused_ns: Mutex::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Tags subsequent spans with a campaign id.
    pub fn set_campaign(&self, id: u32) {
        self.campaign.store(id, Ordering::SeqCst);
    }

    /// Opens a span on the driving thread; it closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.current.load(Ordering::SeqCst);
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: (parent != NONE).then_some(parent),
            campaign: self.campaign.load(Ordering::SeqCst),
            thread: thread_id(),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u32;
        spans.push(span);
        drop(spans);
        self.current.store(id, Ordering::SeqCst);
        SpanGuard {
            tracer: self,
            id,
            parent,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Records a finished interval measured on any thread as a child of the
    /// driving thread's innermost open span. Dropped while paused.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        if self.paused() {
            return;
        }
        let parent = self.current.load(Ordering::SeqCst);
        let span = Span {
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent: (parent != NONE).then_some(parent),
            campaign: self.campaign.load(Ordering::SeqCst),
            thread: thread_id(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Runs harness work that is not part of the campaign: the time is
    /// accumulated so the caller can take it off the iteration's wall.
    pub fn off_clock<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        self.paused.store(true, Ordering::SeqCst);
        let out = f();
        self.paused.store(false, Ordering::SeqCst);
        *self.paused_ns.lock().expect("pause clock poisoned") += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Total off-the-clock nanoseconds so far.
    pub fn paused_ns(&self) -> u64 {
        *self.paused_ns.lock().expect("pause clock poisoned")
    }

    /// Number of spans recorded so far: a cursor for [`Tracer::since`].
    pub fn cursor(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// A copy of the spans recorded from cursor `from` on, with parent ids
    /// rebased so they index into the returned slice.
    pub fn since(&self, from: usize) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans[from..]
            .iter()
            .map(|s| Span {
                parent: s
                    .parent
                    .and_then(|p| (p as usize).checked_sub(from).map(|p| p as u32)),
                ..*s
            })
            .collect()
    }

    /// Every span recorded so far.
    pub fn all(&self) -> Vec<Span> {
        self.since(0)
    }
}

/// Runs `f` inside a span when a tracer is present, bare otherwise.
pub fn maybe_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

/// Total length of the union of `intervals` after clipping each to
/// `[lo, hi]`: overlapping (parallel) intervals count once and nothing
/// outside the window counts at all.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    for iv in &mut intervals {
        iv.0 = iv.0.clamp(lo, hi);
        iv.1 = iv.1.clamp(lo, hi);
    }
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of span `idx`: its duration minus the part of that interval
/// its direct children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let children = spans
        .iter()
        .filter(|s| s.parent == Some(idx as u32))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    me.dur_ns() - covered_ns(children, me.start_ns, me.end_ns)
}

/// Sum of the self times of every span called `name`.
pub fn self_ns_of(spans: &[Span], name: &str) -> u64 {
    (0..spans.len())
        .filter(|&i| spans[i].name == name)
        .map(|i| self_ns(spans, i))
        .sum()
}

/// Sum of the durations of every span called `name` (thread-summed for
/// spans that ran in parallel).
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    durations_ns(spans, name).iter().sum()
}

pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Durations of spans called `name` whose parent is called `parent`.
pub fn total_ns_under(spans: &[Span], name: &str, parent: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| s.parent.is_some_and(|p| spans[p as usize].name == parent))
        .map(Span::dur_ns)
        .sum()
}

/// Nanoseconds covered by spans that have no parent.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    let tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered_ns(tops, 0, u64::MAX)
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete (`X`)
/// event per span, microsecond timestamps, the campaign id and parent span
/// in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, i64::from);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"campaign\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent,
            s.campaign,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            campaign: 0,
            thread: 0,
        }
    }

    #[test]
    fn serial_children_are_subtracted_once() {
        let spans = [
            span("stage", 0, 100, None),
            span("batch", 10, 40, Some(0)),
            span("batch", 50, 70, Some(0)),
            // A grandchild must not be subtracted from the grandparent again.
            span("run", 12, 30, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 18);
        assert_eq!(self_ns(&spans, 3), 18);
        assert_eq!(self_ns_of(&spans, "batch"), 12 + 20);
    }

    #[test]
    fn parallel_children_count_once_and_are_clipped_to_the_parent() {
        let spans = [
            span("batch", 100, 200, None),
            // Two workers overlapping on [120, 150].
            span("run", 110, 150, Some(0)),
            span("run", 120, 180, Some(0)),
            // Started before and ended after the parent: only [100, 200]
            // may count, and it overlaps the others.
            span("run", 50, 105, Some(0)),
            span("run", 190, 400, Some(0)),
            // Entirely outside: contributes nothing.
            span("run", 300, 350, Some(0)),
        ];
        // Union inside [100, 200]: [100,105] ∪ [110,180] ∪ [190,200] = 85.
        assert_eq!(self_ns(&spans, 0), 100 - 85);
        // Thread-summed busy time is a different quantity and may exceed
        // the parent's wall.
        assert_eq!(total_ns(&spans, "run"), 40 + 60 + 55 + 210 + 50);
    }

    #[test]
    fn self_time_never_underflows_on_full_coverage() {
        let spans = [
            span("p", 10, 20, None),
            span("c", 0, 30, Some(0)),
            span("c", 5, 25, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }

    #[test]
    fn tracer_nests_guards_and_attaches_leaves_to_the_open_span() {
        let t = Tracer::new();
        t.set_campaign(7);
        {
            let _stage = t.enter("stage");
            {
                let _batch = t.enter("batch");
                let a = Instant::now();
                t.leaf("run", a, Instant::now());
            }
            t.off_clock(|| t.leaf("run", Instant::now(), Instant::now()));
        }
        let spans = t.all();
        assert_eq!(spans.len(), 3, "the paused leaf is dropped");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.campaign == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(total_ns_under(&spans, "run", "batch"), spans[2].dur_ns());
        assert_eq!(total_ns_under(&spans, "run", "stage"), 0);
        assert_eq!(top_level_ns(&spans), spans[0].dur_ns());

        // A later window rebases parents onto its own indices.
        let from = t.cursor();
        t.span("next", || t.span("inner", || ()));
        let window = t.since(from);
        assert_eq!(window[1].parent, Some(0));
    }

    #[test]
    fn chrome_trace_is_one_complete_event_per_span() {
        let json = chrome_trace_json(&[
            span("a", 1_000, 3_500, None),
            span("b", 2_000, 3_000, Some(0)),
        ]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
