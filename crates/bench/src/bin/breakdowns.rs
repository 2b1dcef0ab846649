//! `breakdowns` — developer tool: per-protocol execution-time
//! breakdowns and protocol counters for one or more applications
//! (all ten when run without arguments).
//!
//! ```text
//! breakdowns [--seed N] [--json PATH] [APP...]
//! ```
//!
//! With `--json PATH` the full sweep is additionally written as a
//! report (`BENCH_breakdowns.json` in CI): an `app` row per
//! application with its sequential time, then a `column` row per
//! protocol variant carrying the parallel time, speedup, category
//! shares and every protocol counter. Its gates (`gates::table`)
//! require all six columns per application.

use std::process::ExitCode;

use genima::{run_app_configured, sequential_time, Column, Json, RunConfig, Topology};
use genima_bench::report::{topo_json, Cli, Report};

fn main() -> ExitCode {
    let topo = Topology::new(4, 4);
    let cli = Cli::parse("breakdowns", &["seed"], Some("APP"));
    let mut report = Report::new("breakdowns", cli.seed());
    report.meta.set("topo", topo_json(topo));
    for app in cli.apps() {
        let seq = sequential_time(app.as_ref());
        println!("== {} (seq {:?})", app.name(), seq);
        let mut row = Json::obj();
        row.set("kind", Json::str("app"));
        row.set("app", Json::str(app.name()));
        row.set("sequential_ms", Json::num(seq.as_ms()));
        report.rows.push(row);
        for column in Column::all() {
            let cfg = RunConfig::from_column(topo, column).with_seed(report.seed);
            let r = match run_app_configured(app.as_ref(), &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("FAIL {} on {}: {e}", column.name(), app.name());
                    return ExitCode::FAILURE;
                }
            };
            let b = r.report.mean_breakdown();
            let c = r.report.counters;
            println!(
                "  {:9} su={:5.2} cmp={:7.1}ms dat={:7.1}ms lck={:7.1}ms ar={:6.1}ms bar={:7.1}ms bp={:6.1}ms | flt={} xfer={} retry={} int={} diffs={} runs={} ntc={} mpro={:5.1}ms",
                column.name(), r.report.speedup(seq),
                b.compute.as_ms(), b.data.as_ms(), b.lock.as_ms(), b.acqrel.as_ms(), b.barrier.as_ms(), b.barrier_protocol.as_ms(),
                c.faults, c.page_transfers, c.fetch_retries, c.interrupts, c.diffs, c.diff_run_messages, c.notice_messages,
                b.mprotect.as_ms(),
            );
            let full = r.report.to_json_value();
            let mut row = Json::obj();
            row.set("kind", Json::str("column"));
            row.set("app", Json::str(app.name()));
            row.set("column", Json::str(column.name()));
            row.set("parallel_ms", Json::num(r.report.parallel_time().as_ms()));
            row.set("speedup", Json::num(r.report.speedup(seq)));
            for key in ["shares", "counters"] {
                match full.get(key) {
                    Some(v) => row.set(key, v.clone()),
                    None => unreachable!("report JSON always has {key}"),
                };
            }
            report.rows.push(row);
        }
    }
    report.finish(cli.json.as_deref(), 0)
}
