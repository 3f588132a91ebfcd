//! Deterministic per-request trace spans.
//!
//! A [`Trace`] owns a flat slab of span records; [`Span`] handles are cheap
//! clones pointing into it. Spans read their timestamps from the clock the
//! trace was created with — in experiments that is the simulator's
//! `ManualClock`, so start/end stamps are sim-time and a same-seed rerun
//! reproduces the tree exactly.
//!
//! # Propagation rules
//!
//! The simulator is single-threaded, so context flows through an ambient,
//! thread-local *current-span stack* rather than through function
//! signatures:
//!
//! 1. A component that does work on behalf of the current request calls
//!    [`child`] (or [`current`]) — both return a no-op [`MaybeSpan`] when no
//!    trace is active, so instrumentation costs nothing on untraced paths.
//! 2. In `async fn` code (on `crdb_sim::task`: the proxy, the warm pool,
//!    the SQL node, its transactions, the KV client and node), a span
//!    covers a future through [`within`], which enters it for each poll:
//!    it is the current span of everything the future does, across its
//!    `.await`s, and of nothing another task does while it waits. A task
//!    spawned to carry on the current request runs [`in_current_span`].
//!    Never hold a [`ScopeGuard`] across an `.await` (clippy refuses one).
//!    Code that runs after an `.await` outside any `within` names its
//!    parent explicitly.
//! 3. A client enters its request's span around the call that starts the
//!    work (`let _g = span.enter();`). Guards are strictly LIFO; hold them
//!    in a local and let scope end pop them.
//! 4. End spans explicitly ([`MaybeSpan::end`]) when the logical operation
//!    completes, which is usually after an `.await` or inside a later
//!    callback than the one that created them. Ending twice is a no-op (the
//!    first end wins).
//!
//! Work whose duration is *modeled* as a single scheduled delay (e.g. the
//! warm-pool start sequence, which samples each phase and sleeps the sum)
//! can record the interior decomposition with [`MaybeSpan::child_at`] /
//! [`MaybeSpan::end_at`], using the same sampled boundaries the model slept
//! on. The resulting tree still sums to the measured end-to-end latency.

use std::cell::RefCell;
use std::future::Future;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use crdb_util::{Clock, SimTime};

use crate::json_escape;

#[derive(Debug)]
struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start: SimTime,
    end: Option<SimTime>,
    tags: Vec<(String, String)>,
}

struct TraceInner {
    clock: Arc<dyn Clock>,
    spans: RefCell<Vec<SpanRecord>>,
}

/// A single trace: one root span plus every descendant recorded under it.
pub struct Trace {
    inner: Rc<TraceInner>,
}

impl Trace {
    /// Starts a new trace whose root span begins now (per `clock`). Returns
    /// the trace handle and the root span.
    pub fn start(name: &str, clock: Arc<dyn Clock>) -> (Trace, Span) {
        let now = clock.now();
        let inner = Rc::new(TraceInner {
            clock,
            spans: RefCell::new(vec![SpanRecord {
                name: name.to_string(),
                parent: None,
                start: now,
                end: None,
                tags: Vec::new(),
            }]),
        });
        let root = Span { inner: inner.clone(), idx: 0 };
        (Trace { inner }, root)
    }

    /// The root span.
    pub fn root(&self) -> Span {
        Span { inner: self.inner.clone(), idx: 0 }
    }

    /// A read-only snapshot of every span, in creation order.
    pub fn spans(&self) -> Vec<SpanView> {
        self.inner
            .spans
            .borrow()
            .iter()
            .map(|r| SpanView {
                name: r.name.clone(),
                parent: r.parent,
                start: r.start,
                end: r.end,
                tags: r.tags.clone(),
            })
            .collect()
    }

    /// The first span (in creation order) with the given name, if any.
    pub fn find(&self, name: &str) -> Option<SpanView> {
        self.spans().into_iter().find(|s| s.name == name)
    }

    /// `parent/child/grandchild` slash-paths for every span, in creation
    /// order. Convenient for golden tests over the tree *shape*.
    pub fn paths(&self) -> Vec<String> {
        let spans = self.inner.spans.borrow();
        let mut paths: Vec<String> = Vec::with_capacity(spans.len());
        for r in spans.iter() {
            let p = match r.parent.and_then(|p| paths.get(p)) {
                None => r.name.clone(),
                Some(parent) => format!("{parent}/{}", r.name),
            };
            paths.push(p);
        }
        paths
    }

    /// Serializes the span tree as deterministic JSON: children nested under
    /// parents in creation order, tags sorted by key, times in nanoseconds
    /// of sim-time (`end_ns` is `null` for spans still open).
    pub fn to_json(&self) -> String {
        let spans = self.inner.spans.borrow();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, r) in spans.iter().enumerate() {
            if let Some(siblings) = r.parent.and_then(|p| children.get_mut(p)) {
                siblings.push(i);
            }
        }
        let mut out = String::new();
        write_span_json(&spans, &children, 0, &mut out);
        out
    }
}

fn write_span_json(spans: &[SpanRecord], children: &[Vec<usize>], idx: usize, out: &mut String) {
    let Some(r) = spans.get(idx) else { return };
    out.push_str("{\"name\":\"");
    json_escape(&r.name, out);
    out.push_str(&format!("\",\"start_ns\":{}", r.start.as_nanos()));
    match r.end {
        Some(e) => out.push_str(&format!(",\"end_ns\":{}", e.as_nanos())),
        None => out.push_str(",\"end_ns\":null"),
    }
    if !r.tags.is_empty() {
        let mut tags = r.tags.clone();
        // Sorted, last-write-wins: retagging a key replaces the old value.
        tags.sort_by(|a, b| a.0.cmp(&b.0));
        tags.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                std::mem::swap(&mut earlier.1, &mut later.1);
                true
            } else {
                false
            }
        });
        out.push_str(",\"tags\":{");
        for (i, (k, v)) in tags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, out);
            out.push_str("\":\"");
            json_escape(v, out);
            out.push('"');
        }
        out.push('}');
    }
    let kids = children.get(idx).map(Vec::as_slice).unwrap_or_default();
    if !kids.is_empty() {
        out.push_str(",\"children\":[");
        for (i, &c) in kids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_span_json(spans, children, c, out);
        }
        out.push(']');
    }
    out.push('}');
}

/// A read-only copy of one span's record.
#[derive(Debug, Clone)]
pub struct SpanView {
    /// Span name, e.g. `"pool.acquire"`.
    pub name: String,
    /// Index of the parent span in creation order, `None` for the root.
    pub parent: Option<usize>,
    /// Sim-time the span began.
    pub start: SimTime,
    /// Sim-time the span ended, or `None` if still open.
    pub end: Option<SimTime>,
    /// Free-form key/value tags in insertion order.
    pub tags: Vec<(String, String)>,
}

impl SpanView {
    /// `end - start`, or `Duration::ZERO` while the span is open.
    pub fn duration(&self) -> Duration {
        match self.end {
            Some(e) => e.duration_since(self.start),
            None => Duration::ZERO,
        }
    }

    /// The value of tag `key`, if present (last write wins).
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A live handle to one span within a [`Trace`]. Cheap to clone; clones
/// refer to the same record.
#[derive(Clone)]
#[must_use = "a span nobody ends leaves a hole in its request's trace: end it or hand it on"]
pub struct Span {
    inner: Rc<TraceInner>,
    idx: usize,
}

impl Span {
    fn now(&self) -> SimTime {
        self.inner.clock.now()
    }

    /// Opens a child span starting now.
    pub fn child(&self, name: &str) -> Span {
        self.child_at(name, self.now())
    }

    /// Opens a child span with an explicit start time (for decomposing
    /// modeled delays; see module docs).
    pub fn child_at(&self, name: &str, start: SimTime) -> Span {
        let mut spans = self.inner.spans.borrow_mut();
        let idx = spans.len();
        spans.push(SpanRecord {
            name: name.to_string(),
            parent: Some(self.idx),
            start,
            end: None,
            tags: Vec::new(),
        });
        Span { inner: self.inner.clone(), idx }
    }

    /// Attaches (or replaces) a key/value tag.
    pub fn tag(&self, key: &str, value: impl std::fmt::Display) {
        let mut spans = self.inner.spans.borrow_mut();
        if let Some(r) = spans.get_mut(self.idx) {
            r.tags.push((key.to_string(), value.to_string()));
        }
    }

    /// Ends the span now. Idempotent: the first end wins.
    pub fn end(&self) {
        let t = self.now();
        self.end_at(t);
    }

    /// Ends the span at an explicit time. Idempotent: the first end wins.
    pub fn end_at(&self, t: SimTime) {
        let mut spans = self.inner.spans.borrow_mut();
        if let Some(r) = spans.get_mut(self.idx) {
            r.end.get_or_insert(t);
        }
    }

    /// Pushes this span onto the ambient current-span stack. The returned
    /// guard pops it on drop; guards must be dropped in LIFO order.
    pub fn enter(&self) -> ScopeGuard {
        push(Some(self.clone()))
    }
}

// Each item leaks a span on purpose, under an expectation the workspace
// lints deny leaving unfulfilled. The first fails the build if `Span`
// loses its attribute; the second pins that a bound span nobody reads is
// flagged too.
#[expect(unused_must_use, reason = "proves a span opened and dropped fails the build")]
fn _span_dropped(parent: &Span) {
    parent.child("dropped");
}

#[expect(unused_variables, reason = "proves a span bound and never used fails the build")]
fn _span_unused(parent: &Span) {
    let span = parent.child("unused");
}

/// The current-span stack. Entering an inert handle pushes an inert
/// entry: under it nothing is traced, whatever was entered before it.
/// Inert entries below the first live one are only counted, so an
/// untraced run never allocates the stack.
struct Stack {
    inert_below: usize,
    entries: Vec<Option<Span>>,
}

thread_local! {
    static CURRENT: RefCell<Stack> =
        const { RefCell::new(Stack { inert_below: 0, entries: Vec::new() }) };
}

fn push(span: Option<Span>) -> ScopeGuard {
    CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        match span {
            None if stack.entries.is_empty() => stack.inert_below += 1,
            span => stack.entries.push(span),
        }
    });
    ScopeGuard { _not_send: std::marker::PhantomData }
}

/// Pops the ambient stack on drop. See [`Span::enter`]. Held across an
/// `.await` it would make this span the parent of whatever other tasks
/// run meanwhile: `clippy.toml` lists it under
/// `await-holding-invalid-types`, and [`within`] is the way to carry a
/// span across one.
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if stack.entries.pop().is_none() {
                stack.inert_below = stack.inert_below.saturating_sub(1);
            }
        });
    }
}

/// Runs `future` with `span` entered for each of its polls: the span is
/// the ambient parent of whatever the future does, across its `.await`s
/// (a task-local current span), and of nothing another task does while
/// it waits. The caller pins the future (`within(&span, pin!(f)).await`),
/// so it is stored once, in the caller's own state: pinned here, it would
/// take its size twice there.
pub async fn within<F: Future>(span: &MaybeSpan, mut future: Pin<&mut F>) -> F::Output {
    std::future::poll_fn(|cx| {
        let _g = span.enter();
        future.as_mut().poll(cx)
    })
    .await
}

/// Runs `future` within the span current where this is called: for a
/// task that carries its spawner's request on past an `.await`.
pub fn in_current_span<F: Future>(future: F) -> impl Future<Output = F::Output> {
    let span = current();
    async move { within(&span, pin!(future)).await }
}

#[expect(
    clippy::await_holding_invalid_type,
    reason = "proves a scope guard held across an .await is flagged"
)]
async fn _scope_held(span: &Span) {
    let _g = span.enter();
    std::future::ready(()).await;
}

/// The ambient current span, or an inert handle if no trace is active.
pub fn current() -> MaybeSpan {
    MaybeSpan(CURRENT.with(|c| c.borrow().entries.last().cloned().flatten()))
}

/// Opens a child of the ambient current span, or returns an inert handle if
/// no trace is active.
pub fn child(name: &str) -> MaybeSpan {
    current().child(name)
}

/// A span handle that may be inert. Every operation is a no-op when no
/// trace was active at capture time, so instrumented code paths need no
/// `if tracing` branches.
#[derive(Clone, Default)]
#[must_use = "a span nobody ends leaves a hole in its request's trace: end it or hand it on"]
pub struct MaybeSpan(Option<Span>);

impl MaybeSpan {
    /// An inert handle.
    pub fn none() -> Self {
        MaybeSpan(None)
    }

    /// Whether this handle refers to a live span.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a child span starting now (inert if this handle is inert).
    pub fn child(&self, name: &str) -> MaybeSpan {
        MaybeSpan(self.0.as_ref().map(|s| s.child(name)))
    }

    /// Opens a child span with an explicit start time.
    pub fn child_at(&self, name: &str, start: SimTime) -> MaybeSpan {
        MaybeSpan(self.0.as_ref().map(|s| s.child_at(name, start)))
    }

    /// Attaches a tag.
    pub fn tag(&self, key: &str, value: impl std::fmt::Display) {
        if let Some(s) = &self.0 {
            s.tag(key, value);
        }
    }

    /// Ends the span now (first end wins).
    pub fn end(&self) {
        if let Some(s) = &self.0 {
            s.end();
        }
    }

    /// Ends the span at an explicit time (first end wins).
    pub fn end_at(&self, t: SimTime) {
        if let Some(s) = &self.0 {
            s.end_at(t);
        }
    }

    /// Re-installs this span as the ambient current span for the guard's
    /// lifetime. An inert handle installs an inert entry: work done
    /// under it is untraced, not attributed to a span entered before it.
    pub fn enter(&self) -> ScopeGuard {
        push(self.0.clone())
    }
}

// The same two leaks for `MaybeSpan`, as `trace::child` and
// `trace::current` hand it out.
#[expect(unused_must_use, reason = "proves a span opened and dropped fails the build")]
fn _maybe_span_dropped() {
    child("dropped");
}

#[expect(unused_variables, reason = "proves a span bound and never used fails the build")]
fn _maybe_span_unused() {
    let span = current().child("unused");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdb_util::clock::ManualClock;
    use crdb_util::time::dur;

    #[test]
    fn span_tree_records_times_and_tags() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        clock.advance(dur::ms(1));
        let a = root.child("a");
        a.tag("tenant", 7);
        clock.advance(dur::ms(2));
        let b = a.child("b");
        clock.advance(dur::ms(3));
        b.end();
        a.end();
        clock.advance(dur::ms(4));
        root.end();

        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "req");
        assert_eq!(spans[1].tag("tenant"), Some("7"));
        assert_eq!(spans[1].duration(), dur::ms(5));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(trace.paths(), vec!["req", "req/a", "req/a/b"]);
        assert_eq!(spans[0].duration(), dur::ms(10));
    }

    #[test]
    fn ambient_stack_propagates_and_unwinds() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        assert!(!current().is_active());
        {
            let _g = root.enter();
            let c = child("inner");
            assert!(c.is_active());
            // Capture-and-reenter, as a scheduled callback would.
            let captured = current();
            {
                let _g2 = captured.enter();
                let d = child("deeper");
                assert!(d.is_active());
                d.end();
            }
            c.end();
        }
        assert!(!current().is_active());
        assert!(!child("orphan").is_active());
        assert_eq!(trace.paths(), vec!["req", "req/inner", "req/deeper"]);
    }

    #[test]
    fn within_enters_its_span_for_each_poll_and_only_then() {
        use std::task::{Context, Poll, Waker};
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        let mut polls = 0;
        let steps = std::future::poll_fn(|_| {
            child("step").end();
            polls += 1;
            if polls < 2 {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        });
        let inner = MaybeSpan(Some(root.child("inner")));
        let steps = std::pin::pin!(steps);
        let mut future = std::pin::pin!(within(&inner, steps));
        let cx = &mut Context::from_waker(Waker::noop());
        assert!(future.as_mut().poll(cx).is_pending());
        assert!(!current().is_active(), "nothing stays entered while the future waits");
        assert!(future.as_mut().poll(cx).is_ready());
        assert_eq!(trace.paths(), ["req", "req/inner", "req/inner/step", "req/inner/step"]);
        // An inert span's guard pops only what it pushed.
        let _outer = root.enter();
        drop(MaybeSpan::none().enter());
        assert!(current().is_active());
    }

    #[test]
    fn an_inert_span_hides_the_span_entered_before_it() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        let _outer = root.enter();
        {
            // Another task, untraced, polled inline during this request.
            let _inert = MaybeSpan::none().enter();
            assert!(!current().is_active());
            let orphan = child("sql.cpu");
            assert!(!orphan.is_active());
            orphan.end();
        }
        assert!(current().is_active());
        assert_eq!(trace.paths(), ["req"]);
    }

    #[test]
    fn end_is_idempotent_first_wins() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        clock.advance(dur::ms(5));
        root.end();
        clock.advance(dur::ms(5));
        root.end();
        assert_eq!(trace.spans()[0].duration(), dur::ms(5));
    }

    #[test]
    fn json_is_deterministic_and_nested() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("req", clock.clone());
        let a = root.child("a");
        a.tag("z", "2");
        a.tag("k", "v\"q");
        clock.advance(dur::ms(1));
        a.end();
        root.end();
        let j = trace.to_json();
        let expected = concat!(
            r#"{"name":"req","start_ns":0,"end_ns":1000000,"#,
            r#""children":[{"name":"a","start_ns":0,"end_ns":1000000,"#,
            r#""tags":{"k":"v\"q","z":"2"}}]}"#,
        );
        assert_eq!(j, expected);
        // Same construction under a fresh clock -> same bytes.
        let clock2 = ManualClock::new();
        let (trace2, root2) = Trace::start("req", clock2.clone());
        let a2 = root2.child("a");
        a2.tag("z", "2");
        a2.tag("k", "v\"q");
        clock2.advance(dur::ms(1));
        a2.end();
        root2.end();
        assert_eq!(trace2.to_json(), j);
    }

    #[test]
    fn synthetic_decomposition_sums_to_parent() {
        let clock = ManualClock::new();
        let (trace, root) = Trace::start("cold", clock.clone());
        let t0 = clock.now();
        let p1 = root.child_at("phase1", t0);
        p1.end_at(t0 + dur::ms(3));
        let p2 = root.child_at("phase2", t0 + dur::ms(3));
        p2.end_at(t0 + dur::ms(10));
        clock.advance(dur::ms(10));
        root.end();
        let spans = trace.spans();
        let total: Duration = spans[1..].iter().map(|s| s.duration()).sum();
        assert_eq!(total, spans[0].duration());
    }
}
