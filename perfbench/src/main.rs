//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`paper-suite`, `serve-churn`, `mc-explore`,
//! `explain`; see README.md) single-threaded from the repository root
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` whole passes of the workload are repeated for about
//! `S` seconds, the set-up calls are timed on their own after each pass,
//! and the end-to-end metrics are medians over them, with host times at
//! the reference speed of `calib`. With
//! `--trace 1` a warm-up pass and an untraced pass are followed by one
//! traced pass: the traced pass must simulate exactly what the
//! untraced ones did, and
//! the per-layer metrics come from its spans and from the counts the
//! program reports. The spans are written to
//! `perfbench/out/<workload>.spans.json`.
//!
//! Exit status: 0 when every correctness check passed, 1 when one
//! failed (the result line then says `"correct": false`), 2 on a usage
//! or set-up error (no result line).

mod acc;
mod alloc;
mod calib;
mod cell;
mod metrics;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use acc::median;
use metrics::{Values, END_TO_END, LAYERS, RESULTS};
use workloads::{Pass, Workload};

/// Set-up samples taken after each pass: at least this many…
const SETUP_PER_PASS: usize = 3;

/// …and as many more as fit in this long.
const SETUP_ROUND: Duration = Duration::from_millis(250);

/// Per-layer host times: the self time of every span of a name (for an
/// aggregate span, its whole duration). Time in `bench.pass` that no
/// layer span covers is the benchmark's own.
const SPAN_SECONDS: &[(&str, &str)] = &[
    ("apps.next_op_s", "apps.next_op"),
    ("serve.next_op_s", "serve.next_op"),
    ("proto.new_s", "proto.new"),
    ("proto.run_s", "proto.run"),
    ("fault.decide_s", "fault.decide"),
    ("hwdsm.run_s", "hwdsm.run"),
    ("mc.explore_s", "mc.explore"),
    ("obs.timeline_s", "obs.timeline"),
    ("prof.profile_s", "prof.profile"),
    ("check.audit_s", "check.audit"),
    ("bench.uncovered_s", "bench.pass"),
];

/// Where the traced run writes its spans, relative to the repository
/// root.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    let mut args = Args {
        workload: String::new(),
        seed: 1999,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(usage)?;
        let bad = || format!("bad value {value:?} for {flag}\n{usage}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(usage.to_string()),
        }
    }
    Ok(args)
}

/// Why a run did not produce a clean result.
enum Failure {
    /// A correctness check failed.
    Check(String),
    /// Bad arguments or missing files.
    Setup(String),
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Check(e)) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", metrics::result_line(false, 1, 1, &[], &Values::new()));
            ExitCode::from(1)
        }
        Err(Failure::Setup(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), Failure> {
    alloc::fix_malloc_thresholds();
    calib::init();
    let args = parse_args().map_err(Failure::Setup)?;
    metrics::check_declared("BENCHMARK.json").map_err(Failure::Setup)?;
    let wl = workloads::by_name(&args.workload, args.seed).ok_or_else(|| {
        Failure::Setup(format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        ))
    })?;
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced(&args, wl.as_ref())
    } else {
        timed(&args, wl.as_ref())
    }
}

/// Runs one pass and returns it with its host wall time.
fn timed_pass(wl: &dyn Workload) -> Result<(Pass, f64), Failure> {
    let t0 = Instant::now();
    let pass = trace::span("bench.pass", || wl.pass()).map_err(Failure::Check)?;
    Ok((pass, t0.elapsed().as_secs_f64()))
}

/// Simulated results must repeat exactly from pass to pass.
fn same_simulation(a: &Pass, b: &Pass, what: &str) -> Result<(), Failure> {
    if a.fingerprint == b.fingerprint && a.counts == b.counts {
        Ok(())
    } else {
        Err(Failure::Check(format!(
            "{what} simulated different results"
        )))
    }
}

fn timed(args: &Args, wl: &dyn Workload) -> Result<(), Failure> {
    let start = Instant::now();
    let mut passes: Vec<(Pass, calib::Timed)> = Vec::new();
    let mut setups: Vec<calib::Timed> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let t0 = Instant::now();
        calib::start();
        let pass = timed_pass(wl);
        let timed = calib::stop();
        let (pass, _) = pass?;
        if let Some((first, _)) = passes.first() {
            same_simulation(first, &pass, "a repeated pass")?;
        }
        passes.push((pass, timed));
        // Peak memory is read after the first pass: how far later passes
        // and set-up samples grow the heap by fragmenting it varies from
        // run to run.
        if passes.len() == 1 {
            peak_rss_mb = alloc::peak_rss_mb().unwrap_or(0.0);
        }
        // Set-up is sampled after every pass: warm, like the set-up
        // inside a pass, and spread over the whole run.
        setups.extend(calib::sampled(SETUP_PER_PASS, SETUP_ROUND, || {
            wl.setup_only()
        }));
        // Stop when another round of the same length would overrun.
        if start.elapsed() + t0.elapsed() > Duration::from_secs_f64(args.seconds) {
            break;
        }
    }
    wl.check_once().map_err(Failure::Check)?;

    let walls: Vec<f64> = passes.iter().map(|(_, t)| t.scaled_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|(p, t)| p.events as f64 / t.scaled_s)
        .collect();
    let setup: Vec<f64> = setups.iter().map(|t| t.scaled_s).collect();
    let mut e2e = Values::new();
    e2e.insert("wall_s".into(), median(&walls));
    e2e.insert("events_per_s".into(), median(&rates));
    e2e.insert("setup_s".into(), median(&setup));
    e2e.insert("peak_rss_mb".into(), peak_rss_mb);

    let first = &passes[0].0;
    let mut results = first.counts.clone();
    results.insert(
        "ops_failed_frac".into(),
        first.failed as f64 / first.attempted as f64,
    );
    for key in first.host.keys() {
        let v: Vec<f64> = passes.iter().map(|(p, _)| p.host[key]).collect();
        results.insert(key.clone(), median(&v));
    }
    let raw = |v: &[calib::Timed]| -> Vec<f64> { v.iter().map(|t| t.raw_s).collect() };
    let pass_t: Vec<calib::Timed> = passes.iter().map(|(_, t)| *t).collect();
    let (probes, probe_s) = passes
        .iter()
        .map(|(_, t)| t)
        .chain(&setups)
        .fold((0, 0.0), |(n, s), t| (n + t.probes, s + t.probe_s));
    let spread = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), x| (l.min(*x), h.max(*x)));
        format!("median {:.5} (min {lo:.5}, max {hi:.5})", median(v))
    };
    println!(
        "{} passes in {:.2} s; pass walls {walls:.3?} s at reference speed, {:.3?} s raw; \
         {} set-up samples, {} s at reference speed, {} s raw; \
         {probes} probes, mean {:.2} ms (nominal {:.2} ms)",
        passes.len(),
        start.elapsed().as_secs_f64(),
        raw(&pass_t),
        setups.len(),
        spread(&setup),
        spread(&raw(&setups)),
        probe_s / f64::from(probes) * 1e3,
        calib::PROBE_NOMINAL_S * 1e3,
    );
    for note in &first.notes {
        println!("  note: {note}");
    }
    for (name, _) in END_TO_END {
        print_metric(name, e2e[*name]);
    }
    for (name, _) in RESULTS {
        if let Some(v) = results.get(*name) {
            print_metric(name, *v);
        }
    }
    // Every pass repeats the same operations with the same outcomes, so
    // they are counted once: the counts depend on the seed alone, not on
    // how many passes the host was fast enough to fit in.
    println!(
        "{}",
        metrics::result_line(true, first.attempted, first.failed, &[END_TO_END], &e2e)
    );
    Ok(())
}

fn print_metric(name: &str, v: f64) {
    println!("  {name} = {v} {}", metrics::unit_of(name));
}

fn traced(args: &Args, wl: &dyn Workload) -> Result<(), Failure> {
    // The first pass warms the process up, so that the untraced and the
    // traced pass compare like with like.
    let (plain, _) = timed_pass(wl)?;
    let (again, plain_wall) = timed_pass(wl)?;
    same_simulation(&plain, &again, "a repeated pass")?;
    trace::enable();
    let traced = timed_pass(wl);
    let spans = trace::take();
    let (pass, traced_wall) = traced?;
    same_simulation(&plain, &pass, "the traced pass")?;

    let mut out = pass.counts.clone();
    out.insert(
        "ops_failed_frac".into(),
        pass.failed as f64 / pass.attempted as f64,
    );
    // Host-time results come from the untraced pass.
    out.extend(plain.host.clone());
    let totals = trace::totals(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (metric, span) in SPAN_SECONDS {
        out.insert(metric.to_string(), get(span).self_ns as f64 / 1e9);
    }
    let per = |v: u64, n: Option<&f64>| match n {
        Some(&n) if n > 0.0 => v as f64 / n,
        _ => 0.0,
    };
    let (run, explore) = (get("proto.run"), get("mc.explore"));
    let per_event = per(run.self_ns, out.get("sim.events"));
    let allocs_per_event = per(run.self_allocs, out.get("sim.events"));
    let us_per_step = per(explore.self_ns, out.get("mc.steps")) / 1e3;
    out.insert("apps.ops".into(), get("apps.next_op").items as f64);
    out.insert("proto.run.self_ns_per_event".into(), per_event);
    out.insert("proto.run.allocs_per_event".into(), allocs_per_event);
    out.insert("mc.us_per_step".into(), us_per_step);
    out.insert(
        "bench.trace_overhead_ratio".into(),
        traced_wall / plain_wall - 1.0,
    );
    wl.traced_extras(&mut out);
    wl.check_once().map_err(Failure::Check)?;

    let path = format!("{SPANS_DIR}/{}.spans.json", args.workload);
    std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_json(&spans)))
        .map_err(|e| Failure::Setup(format!("cannot write {path}: {e}")))?;
    println!(
        "untraced pass {plain_wall:.3} s, traced pass {traced_wall:.3} s, {} spans in {path}",
        spans.len()
    );
    for (name, _) in RESULTS.iter().chain(LAYERS) {
        print_metric(name, out.get(*name).copied().unwrap_or(0.0));
    }
    println!(
        "{}",
        metrics::result_line(true, pass.attempted, pass.failed, &[RESULTS, LAYERS], &out)
    );
    Ok(())
}
