//! In-memory spans recorded from the benchmark's own code around calls
//! into the simulator's public functions, plus a transparent policy
//! wrapper that puts `on_quantum` in a child span of its quantum.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vulcan::prelude::*;
use vulcan::runtime::state::SystemState;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name (`quantum`, `policy`, `parse_checkpoint`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Length.
    pub len: Duration,
}

/// A span recorder for one repetition. Spans nest by call order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        })
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                parent: open.last().copied(),
                start: self.origin.elapsed(),
                len: Duration::ZERO,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.origin.elapsed();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].len = end - spans[idx].start;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Time `f` with the host clock; with a tracer, also record it as a span.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (out, start.elapsed())
}

/// A [`TieringPolicy`] that forwards every call to `inner` and records
/// each `on_quantum` as a `policy` span. It changes no decision: names,
/// state snapshots and restores pass straight through.
pub struct TimedPolicy {
    inner: Box<dyn TieringPolicy>,
    tracer: Rc<Tracer>,
}

impl TimedPolicy {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn TieringPolicy>, tracer: Rc<Tracer>) -> TimedPolicy {
        TimedPolicy { inner, tracer }
    }
}

impl TieringPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, state: &mut SystemState) {
        self.inner.on_start(state);
    }

    fn on_quantum(&mut self, state: &mut SystemState) {
        let inner = &mut self.inner;
        self.tracer.span("policy", || inner.on_quantum(state));
    }

    fn snapshot_state(&self) -> Result<vulcan_json::Value, String> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, v: &vulcan_json::Value) -> Result<(), String> {
        self.inner.restore_state(v)
    }
}

/// Self time of every span: its length minus the time its direct
/// children cover. Children never overlap (one thread, nested calls).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(|s| s.len).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.len);
        }
    }
    own
}
