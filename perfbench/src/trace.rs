//! Spans recorded from the benchmark's own code around each call into
//! a layer of the simulator.
//!
//! A span has a name (`<layer>.<call>`), a start and end on the host
//! clock, its parent span, the id of the simulated run it belongs to,
//! and the allocations made inside it. Spans stay in memory until the
//! run ends. Calls that happen per operation inside the engine (op
//! generation, fault decisions) are timed by delegating wrappers and
//! folded into one aggregate child span per simulated run, so memory
//! stays bounded; an aggregate carries how many calls it covers.
//!
//! Tracing is off unless [`enable`] was called: then [`span`] is a
//! plain call and no wrapper is installed.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use genima_nic::{Fate, FaultInjector, NicId, PacketCtx};
use genima_proto::{Op, OpSource};
use genima_sim::{Dur, Time};

use crate::alloc;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `proto.run`.
    pub name: &'static str,
    /// Start, in ns since tracing was enabled.
    pub start_ns: u64,
    /// End, in ns since tracing was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Simulated run the span belongs to (0 outside any run).
    pub run: u32,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
    /// Calls covered: 1 for a real span, the call count for an
    /// aggregate.
    pub calls: u64,
    /// Calls that produced something (aggregates only; 0 otherwise).
    pub items: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            stack: Vec::new(),
            run: 0,
        })
    });
}

/// Whether spans are being recorded.
pub fn on() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Stops recording and returns every span.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Marks the start of a new simulated run; later spans carry its id.
pub fn next_run() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.run += 1;
        }
    });
}

/// Runs `f` inside a span named `name` (a plain call when tracing is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = open(name) else {
        return f();
    };
    let out = f();
    close(idx);
    out
}

fn open(name: &'static str) -> Option<usize> {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let t = guard.as_mut()?;
        let idx = t.spans.len();
        let parent = t.stack.last().copied();
        let run = t.run;
        t.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            run,
            allocs: 0,
            calls: 1,
            items: 0,
        });
        t.stack.push(idx);
        let s = &mut t.spans[idx];
        s.allocs = alloc::count();
        s.start_ns = t.epoch.elapsed().as_nanos() as u64;
        Some(idx)
    })
}

fn close(idx: usize) {
    let now = alloc::count();
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let end = t.epoch.elapsed().as_nanos() as u64;
        t.stack.pop();
        let s = &mut t.spans[idx];
        s.end_ns = end;
        s.allocs = now - s.allocs;
    });
}

/// Time, calls, items and allocations accumulated by a delegating
/// wrapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Host time inside the wrapped calls.
    pub ns: u64,
    /// Wrapped calls made.
    pub calls: u64,
    /// Calls that produced something (an op; a packet fate).
    pub items: u64,
    /// Allocations made inside the wrapped calls.
    pub allocs: u64,
}

/// Shared accumulator a wrapper writes and its owner reads.
pub type AggHandle = Rc<Cell<Agg>>;

/// Folds `agg` into the current span as an aggregate child span.
pub fn aggregate(name: &'static str, agg: Agg) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else { return };
        let parent = t.stack.last().copied();
        let start = parent.map_or(0, |p| t.spans[p].start_ns);
        let run = t.run;
        t.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + agg.ns,
            parent,
            run,
            allocs: agg.allocs,
            calls: agg.calls,
            items: agg.items,
        });
    });
}

fn timed<R>(agg: &AggHandle, produced: impl FnOnce(&R) -> bool, f: impl FnOnce() -> R) -> R {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let mut a = agg.get();
    a.ns += ns;
    a.calls += 1;
    a.items += u64::from(produced(&out));
    a.allocs += alloc::count() - a0;
    agg.set(a);
    out
}

/// An [`OpSource`] that times every call into the source it wraps and
/// otherwise only delegates.
pub struct TimedSource {
    inner: Box<dyn OpSource>,
    agg: AggHandle,
}

impl TimedSource {
    /// Wraps `inner`, accumulating into `agg`.
    pub fn new(inner: Box<dyn OpSource>, agg: AggHandle) -> TimedSource {
        TimedSource { inner, agg }
    }
}

impl OpSource for TimedSource {
    fn next_op(&mut self) -> Option<Op> {
        let inner = &mut self.inner;
        timed(&self.agg, Option::is_some, || inner.next_op())
    }

    fn program(&self) -> Option<&[Op]> {
        self.inner.program()
    }
}

/// A [`FaultInjector`] that times every decision of the injector it
/// wraps and otherwise only delegates.
#[derive(Debug)]
pub struct TimedInjector {
    inner: Box<dyn FaultInjector>,
    agg: AggHandle,
}

impl TimedInjector {
    /// Wraps `inner`, accumulating into `agg`.
    pub fn new(inner: Box<dyn FaultInjector>, agg: AggHandle) -> TimedInjector {
        TimedInjector { inner, agg }
    }
}

impl FaultInjector for TimedInjector {
    fn fate(&mut self, ctx: PacketCtx) -> Fate {
        let inner = &mut self.inner;
        timed(&self.agg, |_| true, || inner.fate(ctx))
    }

    fn recv_stall(&mut self, nic: NicId, now: Time) -> Dur {
        let inner = &mut self.inner;
        timed(&self.agg, |_| false, || inner.recv_stall(nic, now))
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Sum of self times (duration minus direct children), ns.
    pub self_ns: u64,
    /// Allocations minus those of direct children.
    pub self_allocs: u64,
    /// Calls that produced something.
    pub items: u64,
}

/// Totals for every span name. Children of one span never overlap (the
/// benchmark is single-threaded), so a span's self time is its duration
/// minus the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
            child_allocs[p] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        t.items += s.items;
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"run\":{},\"allocs\":{},\"calls\":{},\"items\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.run,
            s.allocs,
            s.calls,
            s.items,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push(']');
    out
}
