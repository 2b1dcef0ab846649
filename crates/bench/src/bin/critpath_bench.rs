//! `critpath_bench` — causal critical-path attribution across all six
//! protocol columns: where does each operation's latency actually go?
//!
//! ```text
//! critpath_bench [--seed N] [--json PATH] [APP...]
//! ```
//!
//! Every run records the full span/flow trace, reassembles per-op
//! causal DAGs with `genima-prof`, and charges each operation's window
//! to interrupt / firmware / wire / host-handler / queue-retry
//! segments. With `--json PATH` the sweep is written as
//! `BENCH_critpath.json` (one row per application × column carrying
//! the segment totals and per-op-class p50/p95/p99 latencies).
//!
//! The report's gates (`gates::table`) fail the run when the
//! attribution stops making sense:
//!
//! * every audited op's per-segment attribution must sum to its
//!   measured latency *exactly* (the sweep's core invariant; each row
//!   counts its `mismatched_ops`),
//! * the GeNIMA and GeNIMA-2025 critical paths must contain **zero**
//!   interrupt-segment time, while Base must show a nonzero interrupt
//!   share — the paper's thesis, visible in the attribution itself.
//!
//! Traces must also be complete: the analyzer refuses truncated
//! timelines, so a ring overflow fails the run, not a footnote.

use std::process::ExitCode;

use genima::{run_app_configured, sequential_time, Column, Json, ObsConfig, RunConfig, Topology};
use genima_bench::report::{topo_json, Cli, Report};
use genima_obs::OpClass;
use genima_prof::{profile, Segment};

/// Ring capacity for attribution runs: large enough that no node's
/// timeline truncates on the benchmark suite (the analyzer refuses
/// truncated traces, so an overflow here is a hard failure).
const ATTRIBUTION_RING: usize = 1 << 20;

fn main() -> ExitCode {
    let topo = Topology::new(4, 4);
    let cli = Cli::parse("critpath_bench", &["seed"], Some("APP"));
    let mut report = Report::new("critpath", cli.seed());
    report.meta.set("topo", topo_json(topo));
    let mut failed = 0u32;
    println!(
        "{:<22} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "app/column", "ops", "intr(us)", "fw(us)", "wire(us)", "host(us)", "queue(us)", "intr%"
    );
    for app in cli.apps() {
        let seq = sequential_time(app.as_ref());
        for column in Column::all() {
            let cfg = RunConfig::from_column(topo, column)
                .with_seed(report.seed)
                .with_obs(ObsConfig::with_capacity(ATTRIBUTION_RING));
            let out = match run_app_configured(app.as_ref(), &cfg) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("FAIL {} on {}: {e}", app.name(), column.name());
                    failed += 1;
                    continue;
                }
            };
            let prof = profile(&out.obs);
            let audited = match prof.audited_ops() {
                Ok(ops) => ops,
                Err(trunc) => {
                    eprintln!("FAIL {} on {}: {trunc}", app.name(), column.name());
                    failed += 1;
                    continue;
                }
            };
            let mismatched = audited
                .iter()
                .filter(|op| op.breakdown.total() != op.latency)
                .count();
            let total = prof.total_breakdown();
            let sum_ns = total.total().as_ns();
            let intr_share = if sum_ns > 0 {
                total.interrupt.as_ns() as f64 / sum_ns as f64
            } else {
                0.0
            };
            println!(
                "{:<22} {:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%",
                format!("{}/{}", app.name(), column.name()),
                audited.len(),
                total.interrupt.as_us(),
                total.firmware.as_us(),
                total.wire.as_us(),
                total.host_handler.as_us(),
                total.queue_retry.as_us(),
                intr_share * 100.0,
            );
            let mut row = Json::obj();
            row.set("app", Json::str(app.name()));
            row.set("column", Json::str(column.name()));
            row.set("hw", Json::str(out.report.hw));
            row.set("time_ms", Json::num(out.report.parallel_time().as_ms()));
            row.set("speedup", Json::num(out.report.speedup(seq)));
            row.set("ops", Json::u64(audited.len() as u64));
            row.set("mismatched_ops", Json::u64(mismatched as u64));
            row.set("total_ns", Json::u64(sum_ns));
            let mut segs = Json::obj();
            for seg in Segment::ALL {
                segs.set(seg.name(), Json::u64(total.get(seg).as_ns()));
            }
            row.set("segments_ns", segs);
            row.set("interrupt_share", Json::num(intr_share));
            let by_class = prof.by_class();
            let mut classes = Vec::new();
            for class in OpClass::ALL {
                let Some(summary) = by_class.get(&class) else {
                    continue;
                };
                let mut c = Json::obj();
                c.set("class", Json::str(class.name()));
                c.set("count", Json::u64(summary.count));
                c.set("p50_ns", Json::u64(summary.hist.p50().as_ns()));
                c.set("p95_ns", Json::u64(summary.hist.p95().as_ns()));
                c.set("p99_ns", Json::u64(summary.hist.p99().as_ns()));
                classes.push(c);
            }
            row.set("classes", Json::Arr(classes));
            report.rows.push(row);
        }
    }
    report.finish(cli.json.as_deref(), failed)
}
