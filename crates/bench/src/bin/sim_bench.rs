//! `sim_bench` — engine hot-path throughput: the timing-wheel
//! [`EventQueue`] versus the pre-pass `BinaryHeap` oracle, plus
//! whole-system events/sec and steady-state allocation rates.
//!
//! ```text
//! sim_bench [--seed N] [--iters N] [--json PATH]
//! ```
//!
//! With `--json PATH` the sweep is additionally written as a report
//! (`BENCH_engine.json` in CI).
//!
//! Two measurement families:
//!
//! * **Calibration** (`hold-*` rows) — the classic hold model: a queue
//!   holds N pending events; every step pops the head and schedules a
//!   replacement at `now + U(1µs, 1ms)`. Offsets spread events across
//!   the wheel's whole epoch, so the wheel pays its full slot-scan and
//!   lazy-sort cost while the heap pays its O(log N) sift at depth N.
//!   Both queues see the identical deterministic offset stream.
//! * **System** (`sys-*` rows) — full protocol runs (Ocean and FFT on
//!   the Base and GeNIMA columns) timed end to end, reporting simulated
//!   events per wall-clock second and heap allocations per event via a
//!   counting global allocator.
//!
//! The gates (`gates::table`) fail the run (the CI `engine-smoke`
//! gate) if the wheel is not at least 3× the heap on the largest hold
//! population, or if the wheel's
//! steady-state allocation rate exceeds 0.1 allocations per event —
//! the arena-style slot storage must recycle its capacity, not
//! reallocate per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use genima::{run_app_on, Column, TextTable, Topology};
use genima_apps::{App, Fft, OceanRowwise};
use genima_bench::report::{Cli, Report};
use genima_obs::Json;
use genima_sim::{EventQueue, HeapQueue, SplitMix64, Time};

/// Counts every allocation (and reallocation) so steady-state
/// allocations-per-event can be gated. Frees are not interesting here.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Hold-model offset: uniform in [1µs, 1ms). The lower bound keeps the
/// replacement out of the slot currently draining (the wheel's slot
/// sort then amortises over a whole slot, as in a real run); the upper
/// bound spans the wheel's full epoch so far-tier traffic is exercised.
fn offset(rng: &mut SplitMix64) -> u64 {
    1_000 + rng.next_u64() % 999_000
}

/// Pre-fills a queue with `n` pending events from `rng`.
fn fill(push: &mut impl FnMut(Time, u64), rng: &mut SplitMix64, n: usize) {
    for i in 0..n as u64 {
        push(Time::from_ns(offset(rng)), i);
    }
}

/// The two queue implementations under one hold-model interface.
trait Hold {
    fn hold_pop(&mut self) -> Time;
    fn hold_push(&mut self, t: Time, e: u64);
}

impl Hold for HeapQueue<u64> {
    fn hold_pop(&mut self) -> Time {
        self.pop().expect("hold model never drains").0
    }
    fn hold_push(&mut self, t: Time, e: u64) {
        self.push(t, e);
    }
}

impl Hold for EventQueue<u64> {
    fn hold_pop(&mut self) -> Time {
        self.pop().expect("hold model never drains").0
    }
    fn hold_push(&mut self, t: Time, e: u64) {
        self.push(t, e);
    }
}

/// Runs `steps` hold-model transitions, returning ns per event. The
/// replacement offset is derived from the popped instant, so both
/// implementations (which pop identical instants) schedule the
/// identical event stream.
fn hold_ns(steps: usize, q: &mut dyn Hold) -> f64 {
    let start = Instant::now();
    for i in 0..steps as u64 {
        let now = std::hint::black_box(q.hold_pop());
        let off = now.as_ns() % 999_000 + 1_000;
        q.hold_push(Time::from_ns(now.as_ns() + off), i);
    }
    start.elapsed().as_nanos() as f64 / steps as f64
}

struct HoldResult {
    heap_ns: f64,
    wheel_ns: f64,
    wheel_allocs_per_event: f64,
}

/// The hold model at population `n`: identical initial fill and
/// identical pop-driven offset stream on both queues, so both do the
/// same scheduling work. The wheel's allocation rate is measured over
/// the timed (post-warmup) window only: slot capacities established
/// during the fill must be recycled, not regrown.
fn run_hold(seed: u64, n: usize, steps: usize) -> HoldResult {
    let mut rng = SplitMix64::new(seed);
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    fill(&mut |t, e| heap.push(t, e), &mut rng, n);
    // Warmup pass over roughly one epoch, then time.
    let warm = n.min(steps);
    hold_ns(warm, &mut heap);
    let heap_ns = hold_ns(steps, &mut heap);

    let mut rng = SplitMix64::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    fill(&mut |t, e| wheel.push(t, e), &mut rng, n);
    hold_ns(warm, &mut wheel);
    let before = allocs();
    let wheel_ns = hold_ns(steps, &mut wheel);
    let wheel_allocs_per_event = (allocs() - before) as f64 / steps as f64;

    HoldResult {
        heap_ns,
        wheel_ns,
        wheel_allocs_per_event,
    }
}

struct SysResult {
    events: u64,
    events_per_sec: f64,
    allocs_per_event: f64,
}

/// Times one full protocol run and reports engine throughput.
fn run_system(app: &dyn App, column: Column) -> SysResult {
    let topo = Topology::new(4, 2);
    let before = allocs();
    let start = Instant::now();
    let out = run_app_on(app, topo, column);
    let wall = start.elapsed().as_nanos() as f64;
    let events = out.report.events;
    SysResult {
        events,
        events_per_sec: events as f64 / (wall / 1e9),
        allocs_per_event: (allocs() - before) as f64 / events.max(1) as f64,
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("sim_bench", &["seed", "iters"], None);
    let iters = cli.num("iters", 200_000) as usize;
    let mut report = Report::new("engine", cli.seed());
    report.meta.set("iters", Json::u64(iters as u64));
    println!(
        "engine hot path: {iters} hold steps per population, seed {:#x}",
        report.seed
    );

    let mut table = TextTable::new(vec![
        "hold",
        "heap(ns/ev)",
        "wheel(ns/ev)",
        "speedup",
        "allocs/ev",
    ]);
    for pow in [10u32, 14, 17] {
        let n = 1usize << pow;
        let r = run_hold(report.seed ^ pow as u64, n, iters);
        let speedup = r.heap_ns / r.wheel_ns;
        table.row(vec![
            format!("2^{pow}"),
            format!("{:.1}", r.heap_ns),
            format!("{:.1}", r.wheel_ns),
            format!("{speedup:.2}"),
            format!("{:.4}", r.wheel_allocs_per_event),
        ]);
        let mut row = Json::obj();
        row.set("kind", Json::str("hold"));
        row.set("name", Json::str(format!("hold-2^{pow}")));
        row.set("pending", Json::u64(n as u64));
        row.set("heap_ns_per_event", Json::num(r.heap_ns));
        row.set("wheel_ns_per_event", Json::num(r.wheel_ns));
        row.set("speedup", Json::num(speedup));
        row.set(
            "wheel_allocs_per_event",
            Json::num(r.wheel_allocs_per_event),
        );
        report.rows.push(row);
    }
    println!("{table}");

    let apps: Vec<(&str, Box<dyn App>)> = vec![
        ("ocean", Box::new(OceanRowwise::with_grid(256, 8))),
        ("fft", Box::new(Fft::with_points(1 << 16))),
    ];
    let mut stable = TextTable::new(vec!["system", "events", "events/sec", "allocs/ev"]);
    for (name, app) in &apps {
        for column in [Column::all()[0], Column::all()[4]] {
            let r = run_system(app.as_ref(), column);
            let label = format!("{name}/{}", column.name());
            stable.row(vec![
                label.clone(),
                r.events.to_string(),
                format!("{:.0}", r.events_per_sec),
                format!("{:.1}", r.allocs_per_event),
            ]);
            let mut row = Json::obj();
            row.set("kind", Json::str("system"));
            row.set("name", Json::str(label.clone()));
            row.set("events", Json::u64(r.events));
            row.set("events_per_sec", Json::num(r.events_per_sec));
            row.set("allocs_per_event", Json::num(r.allocs_per_event));
            report.rows.push(row);
        }
    }
    println!("{stable}");
    report.finish(cli.json.as_deref(), 0)
}
