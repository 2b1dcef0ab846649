//! `fault_matrix` — sweeps fault-injection rates across all six
//! evaluation columns and audits every run.
//!
//! ```text
//! fault_matrix [--seed N] [--grid N] [--nodes N] [--json PATH]
//! ```
//!
//! With `--json PATH` the sweep is additionally written as a report
//! (`BENCH_fault_matrix.json` in CI): one row per (drop rate, column)
//! with the run time, recovery counters and what the injector actually
//! did.
//!
//! For each drop rate in the sweep (0 %, 1 %, 5 %, 10 %, each faulty
//! row also duplicating and delaying packets) and each of the paper's
//! six evaluation columns (the paper's five on the 1999 LANai plus
//! GeNIMA-2025 on the RNIC), the matrix runs Ocean with a
//! [`PlanInjector`] installed, replays the run's traces through the
//! genima-check protocol auditor, and its gates (`gates::table`)
//! require:
//!
//! * every run completes (no wedge, no livelock),
//! * every protocol invariant holds under loss, duplication and
//!   reordering exactly as it does on the clean path,
//! * GeNIMA still takes **zero** host interrupts — recovery lives in
//!   the NI firmware model and the host-free property survives faults.
//!
//! Exits non-zero on any violation, so CI can run it as a smoke gate
//! (`.github/workflows/ci.yml`, job `fault-smoke`).

use std::process::ExitCode;

use genima::TextTable;
use genima_apps::OceanRowwise;
use genima_bench::report::{Cli, Report};
use genima_check::run_app_audited_on_with;
use genima_fault::{FaultPlan, PlanInjector, RunSeed};
use genima_obs::Json;
use genima_proto::{Column, Topology};
use genima_sim::Dur;

/// The sweep's fault plan at one drop rate: each faulty row also
/// duplicates and delays packets so all three recovery paths (retry
/// timers, duplicate suppression, reordering tolerance) are exercised.
fn plan_at(drop: f64) -> FaultPlan {
    if drop == 0.0 {
        FaultPlan::none()
    } else {
        FaultPlan::new()
            .drop_rate(drop)
            .duplicate_rate(drop / 2.0)
            .delay(drop, Dur::from_us(300))
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("fault_matrix", &["seed", "grid", "nodes"], None);
    let (grid, nodes) = (cli.num("grid", 96), cli.num("nodes", 4));
    let mut report = Report::new("fault_matrix", cli.seed());
    report.meta.set("grid", Json::u64(grid));
    report.meta.set("nodes", Json::u64(nodes));
    let app = OceanRowwise::with_grid(grid as usize, 2);
    let topo = Topology::new(nodes as usize, 1);
    let seed = RunSeed::new(report.seed);
    println!(
        "fault matrix: Ocean {grid}x{grid} on {nodes} nodes, seed {:#x}",
        report.seed
    );

    let mut table = TextTable::new(vec![
        "drop%",
        "column",
        "time(ms)",
        "retrans",
        "dup-supp",
        "inj-drop",
        "inj-dup",
        "inj-delay",
        "intr",
    ]);
    let mut aborted = 0u32;
    for &drop in &[0.0, 0.01, 0.05, 0.10] {
        for column in Column::all() {
            let plan = plan_at(drop);
            let injector = PlanInjector::new(plan.clone(), seed);
            let stats = injector.stats_handle();
            let run = match run_app_audited_on_with(&app, topo, column, |sys| {
                if plan.is_active() {
                    sys.set_fault_injector(Box::new(injector));
                }
            }) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("FAIL {} at drop {drop}: run aborted: {e}", column.name());
                    aborted += 1;
                    continue;
                }
            };
            if let Some(v) = run.audit.violations.first() {
                eprintln!("{} at drop {drop}: first violation {v:?}", column.name());
            }
            let f = stats.borrow();
            table.row(vec![
                format!("{:.0}", drop * 100.0),
                column.name().to_string(),
                format!("{:.2}", run.report.parallel_time().as_ms()),
                run.report.recovery.retransmits.to_string(),
                run.report.recovery.duplicates_suppressed.to_string(),
                f.dropped.to_string(),
                f.duplicated.to_string(),
                f.delayed.to_string(),
                run.report.counters.interrupts.to_string(),
            ]);
            let mut row = Json::obj();
            row.set("drop_rate", Json::num(drop));
            row.set("column", Json::str(column.name()));
            row.set("time_ms", Json::num(run.report.parallel_time().as_ms()));
            row.set("retransmits", Json::u64(run.report.recovery.retransmits));
            row.set(
                "duplicates_suppressed",
                Json::u64(run.report.recovery.duplicates_suppressed),
            );
            row.set("injected_drops", Json::u64(f.dropped));
            row.set("injected_dups", Json::u64(f.duplicated));
            row.set("injected_delays", Json::u64(f.delayed));
            row.set("interrupts", Json::u64(run.report.counters.interrupts));
            row.set("audit_clean", Json::Bool(run.audit.is_clean()));
            row.set("op_latency", run.report.op_latency.json());
            report.rows.push(row);
        }
    }
    println!("{table}");
    report.finish(cli.json.as_deref(), aborted)
}
