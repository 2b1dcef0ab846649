//! Allocation gate for the timeline path: exporting, validating and
//! counting a trace allocates a fixed number of times, however many
//! records it holds (the text buffer, and the scanner's key and string
//! buffers growing to the longest key or name).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use genima_obs::{
    count_named, flow_lock_id, op_fetch_id, timeline_json, validate_trace, Flow, FlowDir, SpanKind,
    SpanRecord, Track,
};
use genima_sim::{Dur, Time};

/// Counts the allocations and reallocations of the calling thread only,
/// so the test harness's own threads do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // Allocations during thread teardown, after the counter is gone,
    // are not the test thread's work.
    let _after_teardown = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`
// without a destructor, so updating it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `n` records on four nodes cycling through every kind and both
/// tracks, two in three attributed to an op, one in five a flow end.
fn spans(n: u64) -> Vec<SpanRecord> {
    (0..n)
        .map(|i| {
            let kind = SpanKind::ALL[(i % SpanKind::ALL.len() as u64) as usize];
            SpanRecord {
                kind,
                node: (i % 4) as usize,
                track: if i % 2 == 0 {
                    Track::Host
                } else {
                    Track::Firmware
                },
                start: Time::from_ns(i * 1_337),
                dur: if kind.is_instant() {
                    Dur::ZERO
                } else {
                    Dur::from_ns(500 + i % 9_000)
                },
                arg: i % 64,
                op: if i % 3 == 0 { 0 } else { op_fetch_id(i) },
                flow: (i % 5 == 0).then(|| Flow {
                    id: flow_lock_id(i, i),
                    dir: if i % 10 == 0 {
                        FlowDir::Start
                    } else {
                        FlowDir::Finish
                    },
                }),
            }
        })
        .collect()
}

/// Allocations made by export + validation + one name count.
fn allocations(spans: &[SpanRecord]) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let text = timeline_json(spans);
    let stats = validate_trace(&text).expect("exported trace validates");
    let fetches = count_named(&text, "page_fetch");
    let after = ALLOCS.with(Cell::get);
    assert_eq!(stats.complete + stats.instants, spans.len());
    assert_eq!(
        stats.flows,
        spans.iter().filter(|s| s.flow.is_some()).count()
    );
    let expected = spans
        .iter()
        .filter(|s| s.kind == SpanKind::PageFetch)
        .count();
    assert_eq!(fetches, expected);
    after - before
}

#[test]
fn timeline_allocations_do_not_grow_with_the_trace() {
    let small = allocations(&spans(1_000));
    let large = allocations(&spans(100_000));
    assert_eq!(
        small, large,
        "1k records: {small} allocations, 100k: {large}"
    );
    assert!(large <= 16, "{large} allocations for 100k records");
}
