//! `barrier_scaling` — barrier latency versus node count, host-managed
//! node-0 manager versus NI-tree collectives.
//!
//! ```text
//! barrier_scaling [--seed N] [--iters N] [--json PATH]
//! ```
//!
//! With `--json PATH` the sweep is additionally written as a report
//! (`BENCH_barrier.json` in CI).
//!
//! The workload is a synthetic barrier storm: every process writes one
//! private shared page, computes briefly, and hits a barrier, repeated
//! `--iters` times past the warmup barrier. Everything except the
//! barrier implementation is held fixed (GeNIMA feature column), so
//! the sweep isolates the host-barrier vs NI-barrier axis of the
//! ablation:
//!
//! * `host` — the node-0 manager collects per-node arrival messages
//!   and sends per-node releases: O(nodes) serialized host messages
//!   per episode, linear fan-in.
//! * `ni-tree-K` — the k-ary NI-tree collective combines arrivals in
//!   firmware up the tree and broadcasts the release down it:
//!   O(log_K nodes) tree depth, zero host messages, zero interrupts.
//!
//! Its gates (`gates::table`) fail the run if the best NI-tree fanout
//! does not beat the host manager at 16 nodes and beyond, or if an
//! NI-tree run takes a host interrupt or a barrier-manager message, so
//! CI can run it as a smoke gate (`.github/workflows/ci.yml`, job `coll-smoke`). (A fanout-2
//! tree is legitimately slower than the manager at 32+ nodes — depth
//! log2(n) with a firmware combine per hop — which is why fanout is a
//! swept parameter and the protocol default is 4.)

use std::process::ExitCode;

use genima::{
    run_app_configured, BarrierImpl, FeatureSet, RunConfig, RunReport, TextTable, Topology,
};
use genima_apps::{App, Arrival, Layout, OpsBuilder, WorkloadSpec};
use genima_bench::report::{Cli, Report};
use genima_obs::Json;
use genima_proto::BarrierId;

/// Synthetic barrier-dominated workload: each process writes its own
/// page (so write notices ride every episode), computes a sliver, and
/// joins the next barrier. Barrier 0 is the warmup barrier, so
/// statistics cover exactly `iters` measured episodes.
struct BarrierStorm {
    iters: usize,
}

impl App for BarrierStorm {
    fn name(&self) -> &'static str {
        "Barrier-storm"
    }

    fn problem(&self) -> String {
        format!("{} episodes", self.iters)
    }

    fn spec(&self, topo: Topology) -> WorkloadSpec {
        let nprocs = topo.procs();
        let mut layout = Layout::new();
        let pages = layout.alloc_pages(nprocs);
        let mut sources = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut b = OpsBuilder::new();
            b.barrier(0);
            for i in 0..self.iters {
                // A deterministic sliver of imbalance so arrivals are
                // staggered, as in a real iteration.
                b.compute_us(5.0 + 0.25 * (p as f64));
                b.write(pages.page(p).base(), 64);
                b.barrier(1 + i);
            }
            sources.push(b.into_source());
        }
        WorkloadSpec {
            sources,
            homes: pages.homes_blocked(topo),
            locks: 1,
            bus_demand_per_proc: 0,
            warmup_barrier: Some(BarrierId::new(0)),
            arrival: Arrival::Closed,
        }
    }
}

/// Mean per-episode barrier time across processes, in microseconds.
fn barrier_us(report: &RunReport, iters: usize) -> f64 {
    report.mean_breakdown().barrier.as_us() / iters as f64
}

fn mode_name(barrier: BarrierImpl) -> String {
    match barrier {
        BarrierImpl::HostManager => "host".to_string(),
        BarrierImpl::NiTree { fanout } => format!("ni-tree-{fanout}"),
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("barrier_scaling", &["seed", "iters"], None);
    let iters = cli.num("iters", 12) as usize;
    let mut report = Report::new("barrier", cli.seed());
    report.meta.set("iters", Json::u64(iters as u64));
    let app = BarrierStorm { iters };
    let modes = [
        BarrierImpl::HostManager,
        BarrierImpl::NiTree { fanout: 2 },
        BarrierImpl::NiTree { fanout: 4 },
        BarrierImpl::NiTree { fanout: 8 },
    ];
    println!(
        "barrier scaling: {iters} episodes per run, seed {:#x}",
        report.seed
    );

    let mut table = TextTable::new(vec![
        "nodes",
        "mode",
        "barrier(us)",
        "time(ms)",
        "mgr-msgs",
        "intr",
    ]);
    let mut failed = 0u32;
    for &nodes in &[4usize, 8, 16, 32, 64] {
        for &mode in &modes {
            let cfg = RunConfig::new(Topology::new(nodes, 1), FeatureSet::genima())
                .with_seed(report.seed)
                .with_barrier(mode);
            let run = match run_app_configured(&app, &cfg) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!(
                        "FAIL {} at {nodes} nodes: run aborted: {e}",
                        mode_name(mode)
                    );
                    failed += 1;
                    continue;
                }
            };
            if let Err(e) = run.report.validate(&cfg.features) {
                eprintln!("FAIL {} at {nodes} nodes: {e}", mode_name(mode));
                failed += 1;
            }
            let us = barrier_us(&run.report, iters);
            table.row(vec![
                nodes.to_string(),
                mode_name(mode),
                format!("{us:.2}"),
                format!("{:.2}", run.report.parallel_time().as_ms()),
                run.report.counters.barrier_manager_msgs.to_string(),
                run.report.counters.interrupts.to_string(),
            ]);
            let mut row = Json::obj();
            row.set("nodes", Json::u64(nodes as u64));
            row.set("mode", Json::str(mode_name(mode)));
            row.set(
                "fanout",
                Json::u64(match mode {
                    BarrierImpl::HostManager => 0,
                    BarrierImpl::NiTree { fanout } => fanout as u64,
                }),
            );
            row.set("barrier_us", Json::num(us));
            row.set("time_ms", Json::num(run.report.parallel_time().as_ms()));
            row.set("barriers", Json::u64(run.report.counters.barriers));
            row.set(
                "manager_msgs",
                Json::u64(run.report.counters.barrier_manager_msgs),
            );
            row.set("interrupts", Json::u64(run.report.counters.interrupts));
            row.set("ni_barrier", Json::Bool(run.report.ni_barrier));
            report.rows.push(row);
        }
    }
    println!("{table}");
    report.finish(cli.json.as_deref(), failed)
}
