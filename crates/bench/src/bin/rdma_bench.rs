//! `rdma_bench` — the 1999-vs-2025 hardware comparison: runs the full
//! GeNIMA protocol on the LANai hardware profile and on the modern
//! RNIC profile over the application suite and reports what a quarter
//! century of NI hardware buys the *same* protocol code.
//!
//! ```text
//! rdma_bench [--seed N] [--json PATH] [APP...]
//! ```
//!
//! With `--json PATH` the sweep is written as a report
//! (`BENCH_rdma.json` in CI): one row per (application, hardware
//! profile) carrying the parallel time, speedup over the sequential
//! run, the host-interrupt count, and the RNIC's own counters
//! (doorbells rung, CQEs posted, ODP faults taken).
//!
//! The report's gates (`gates::table`) fail the run when the
//! comparison stops making sense:
//!
//! * both profiles must take **zero** host interrupts (the full
//!   GeNIMA feature set is interrupt-free on any hardware),
//! * the RNIC rows must show doorbell and CQE activity, the LANai
//!   rows none,
//! * GeNIMA-2025 must beat GeNIMA-1999 on wall-clock for every
//!   application — if modern hardware loses to a 33 MHz LANai, the
//!   model is wrong.

use std::process::ExitCode;

use genima::{run_app_on, sequential_time, Column, Json, Topology};
use genima_bench::report::{topo_json, Cli, Report};

fn main() -> ExitCode {
    let topo = Topology::new(4, 4);
    let cli = Cli::parse("rdma_bench", &["seed"], Some("APP"));
    let mut report = Report::new("rdma", cli.seed());
    report.meta.set("topo", topo_json(topo));
    let columns = [
        Column::lanai(genima::FeatureSet::genima()),
        Column::genima_2025(),
    ];
    println!(
        "{:<16} {:>12} {:>9} {:>8} {:>6} {:>10} {:>10} {:>6}",
        "app/profile", "time(ms)", "speedup", "vs-1999", "intr", "doorbells", "cqes", "odp"
    );
    for app in cli.apps() {
        let seq = sequential_time(app.as_ref());
        let mut lanai_ms = 0.0f64;
        for column in columns {
            let out = run_app_on(app.as_ref(), topo, column);
            let r = &out.report;
            let ms = r.parallel_time().as_ms();
            let vs_1999 = if column.hw.is_rdma() && ms > 0.0 {
                lanai_ms / ms
            } else {
                lanai_ms = ms;
                1.0
            };
            println!(
                "{:<16} {:>12.2} {:>9.2} {:>8.2} {:>6} {:>10} {:>10} {:>6}",
                format!("{}/{}", app.name(), r.hw),
                ms,
                r.speedup(seq),
                vs_1999,
                r.counters.interrupts,
                r.ni.doorbells,
                r.ni.cqes,
                r.ni.odp_faults,
            );
            let mut row = Json::obj();
            row.set("app", Json::str(app.name()));
            row.set("column", Json::str(column.name()));
            row.set("hw", Json::str(r.hw));
            row.set("time_ms", Json::num(ms));
            row.set("speedup", Json::num(r.speedup(seq)));
            row.set("speedup_vs_1999", Json::num(vs_1999));
            row.set("interrupts", Json::u64(r.counters.interrupts));
            row.set("doorbells", Json::u64(r.ni.doorbells));
            row.set("cqes", Json::u64(r.ni.cqes));
            row.set("odp_faults", Json::u64(r.ni.odp_faults));
            row.set("op_latency", r.op_latency.json());
            report.rows.push(row);
        }
    }
    report.finish(cli.json.as_deref(), 0)
}
