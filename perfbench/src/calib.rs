//! Host times at a reference speed.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as other tenants load the caches and memory: a
//! pure ALU loop drifts by a few percent, code that touches memory by
//! 20–40%, and a run's speed state lasts long enough that medians over
//! the passes of one run cannot average it away. So every host time of
//! a `--trace 0` run is measured against a fixed reference computation,
//! the probe, run next to it: a time `t` with probe times `a` before and
//! `b` after it counts as `t * PROBE_NOMINAL_S / ((a + b) / 2)`, which
//! reads as seconds on a host where the probe takes its nominal time.
//!
//! A pass is cut into segments by [`lap`], called by the workloads
//! between simulated runs, so each segment is scaled by probes taken
//! within a few hundred milliseconds of it. The probe is the
//! benchmark's own code and does not call the simulator, so a change to
//! the program moves the scaled times as it moves the raw ones.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time on the reference host (the 2-core x86-64 machine
/// the benchmark was tuned on, at its median speed).
pub const PROBE_NOMINAL_S: f64 = 0.014;

/// Timer events the probe keeps pending.
const PROBE_TIMERS: u64 = 8_192;

/// Timer events the probe fires.
const PROBE_STEPS: usize = 60_000;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The probe's working set, allocated once so that probing leaves the
/// heap the workloads allocate from, and so their peak memory, as it
/// found it.
struct ProbeState {
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    counters: HashMap<u64, u64>,
}

impl ProbeState {
    fn new() -> ProbeState {
        ProbeState {
            timers: BinaryHeap::with_capacity(PROBE_TIMERS as usize + 1),
            table: vec![0; 1 << 19],
            counters: HashMap::with_capacity(1 << 14),
        }
    }

    /// The reference computation: a small discrete-event loop shaped
    /// like the simulator's hot path. A binary heap of pending timers, a
    /// 4 MiB table cleared and then updated at random, a hash map of
    /// counters and an occasional short-lived allocation.
    fn run(&mut self, steps: usize) -> u64 {
        let ProbeState {
            timers,
            table,
            counters,
        } = self;
        timers.clear();
        table.fill(0);
        counters.clear();
        let mask = table.len() - 1;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for id in 0..PROBE_TIMERS {
            timers.push(Reverse((xorshift(&mut rng) & 0xffff, id)));
        }
        let mut acc = 0u64;
        for _ in 0..steps {
            let Reverse((t, id)) = timers.pop().expect("timers stay pending");
            let r = xorshift(&mut rng);
            let slot = r as usize & mask;
            table[slot] = table[slot].wrapping_add(t ^ id);
            *counters.entry(r & 0x3fff).or_default() += 1;
            if r & 63 == 0 {
                let v: Vec<u64> = Vec::with_capacity(16 + (r >> 58) as usize);
                acc += black_box(v).capacity() as u64;
            }
            timers.push(Reverse((t + 1 + ((r >> 48) & 0x3ff), id)));
            acc = acc.wrapping_add(table[(r >> 20) as usize & mask]);
        }
        acc
    }
}

thread_local! {
    static PROBE: RefCell<ProbeState> = RefCell::new(ProbeState::new());
}

/// Allocates the probe's working set. Called at start-up, before any
/// workload allocates.
pub fn init() {
    PROBE.with(|_| ());
}

/// Runs the probe once and returns its host seconds.
pub fn probe() -> f64 {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let t0 = Instant::now();
        black_box(p.run(black_box(PROBE_STEPS)));
        t0.elapsed().as_secs_f64()
    })
}

/// `seconds` measured between probes `before` and `after`, at the
/// reference speed.
fn scale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * PROBE_NOMINAL_S / ((before + after) / 2.0)
}

/// A host time as measured and at the reference speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Host seconds, probes excluded.
    pub raw_s: f64,
    /// Seconds at the reference speed.
    pub scaled_s: f64,
    /// Probes run.
    pub probes: u32,
    /// Host seconds the probes took.
    pub probe_s: f64,
}

struct Meter {
    /// Start of the open segment.
    mark: Instant,
    /// The probe just before the open segment.
    before: f64,
    timed: Timed,
}

thread_local! {
    static METER: RefCell<Option<Meter>> = const { RefCell::new(None) };
}

/// Starts metering a pass: probes, then opens the first segment.
pub fn start() {
    let before = probe();
    let timed = Timed {
        probes: 1,
        probe_s: before,
        ..Timed::default()
    };
    METER.with(|m| {
        *m.borrow_mut() = Some(Meter {
            mark: Instant::now(),
            before,
            timed,
        })
    });
}

/// Closes the open segment, probes, and opens the next one. Does
/// nothing unless a pass is being metered (the traced run never is).
pub fn lap() {
    METER.with(|m| {
        if let Some(m) = m.borrow_mut().as_mut() {
            let seg = m.mark.elapsed().as_secs_f64();
            let after = probe();
            m.timed.raw_s += seg;
            m.timed.scaled_s += scale(seg, m.before, after);
            m.timed.probes += 1;
            m.timed.probe_s += after;
            m.before = after;
            m.mark = Instant::now();
        }
    });
}

/// Closes the last segment and stops metering.
pub fn stop() -> Timed {
    lap();
    METER.with(|m| m.borrow_mut().take().map(|m| m.timed).unwrap_or_default())
}

/// Runs `sample`, which returns the host seconds of the part of it to
/// time, at least `min` times and until `round` seconds have passed,
/// between two probes, and returns each sample at the reference speed.
pub fn sampled(min: usize, round: Duration, mut sample: impl FnMut() -> f64) -> Vec<Timed> {
    let before = probe();
    let t0 = Instant::now();
    let mut raw = Vec::new();
    while raw.len() < min || t0.elapsed() < round {
        raw.push(sample());
    }
    let after = probe();
    raw.into_iter()
        .enumerate()
        .map(|(i, raw_s)| Timed {
            raw_s,
            scaled_s: scale(raw_s, before, after),
            // The two probes are charged to the first sample.
            probes: if i == 0 { 2 } else { 0 },
            probe_s: if i == 0 { before + after } else { 0.0 },
        })
        .collect()
}
