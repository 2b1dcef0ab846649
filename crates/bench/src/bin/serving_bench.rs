//! `serving_bench` — open-loop serving workloads under concurrent
//! churn, with a self-gating tail-latency report.
//!
//! ```text
//! serving_bench [--seed N] [--nodes N] [--ops N] [--json PATH]
//! ```
//!
//! Runs the two `genima-serve` workloads — the Zipf partitioned
//! key-value store and the graph-walk service — on all six evaluation
//! columns while a churn fault plan is live: **10% packet drop** for
//! the whole run plus **cycling per-node outage windows** (4 ms of
//! total silence per window, round-robin over the non-manager nodes).
//! The windows sit far below the ~38 ms retransmission give-up
//! budget, so churn manifests as retry storms and multi-millisecond
//! stalls, not peer death; degraded mode is armed anyway so an
//! unlucky seed degrades instead of aborting.
//!
//! The report's gates (`gates::table`; exit 1 on violation, so CI runs
//! this as a smoke gate):
//!
//! * every column completes under churn;
//! * GeNIMA and GeNIMA-2025 take **zero host interrupts** and keep
//!   merged p99 under a per-column bound (`P99_BOUND_GENIMA`,
//!   `P99_BOUND_2025`) — bounded tails without any asynchronous
//!   protocol processing;
//! * Base's merged p99 is at least `TAIL_RATIO`× GeNIMA's on the
//!   same stream — the visible tail collapse of interrupt-driven
//!   protocol processing under churn;
//! * the generated op stream hashes identically across all six
//!   columns (the workload seam leaks nothing protocol-specific);
//! * a repeated GeNIMA run is bit-identical (seeded determinism).
//!
//! With `--json PATH` the sweep is written as `BENCH_serving.json`.

use std::process::ExitCode;

use genima::{run_app_configured, ConfiguredOutcome, RunConfig, TextTable};
use genima_apps::App;
use genima_bench::gates::p99_bound;
use genima_bench::report::{Cli, Report};
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_obs::Json;
use genima_proto::{Column, Topology};
use genima_serve::{GraphWalk, KvServe};
use genima_sim::{Dur, Time};

/// Arrival window the ops are spread over.
const HORIZON: Dur = Dur::from_ms(40);

/// First arrival (leaves room for warmup on every column).
const START: Time = Time::from_ns(500_000);

/// The churn plan: 10% drop for the whole run, plus 4 ms outage
/// windows cycling round-robin over nodes 1..n (node 0 hosts the
/// barrier manager and the first page homes, so it stays up — churn
/// hits the replicas, as maintenance drains do). Every window is far
/// below the ~38 ms give-up budget.
fn churn_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new().drop_rate(0.10);
    if nodes < 2 {
        return plan;
    }
    let window = Dur::from_ms(4);
    let gap = Dur::from_ms(4);
    let mut from = START + Dur::from_ms(2);
    let mut victim = 1usize;
    while from + window < START + HORIZON {
        plan = plan.outage(NicId::new(victim), from, from + window);
        from = from + window + gap;
        victim = victim % (nodes - 1) + 1;
    }
    plan
}

/// FNV-1a over the Debug rendering of every op in every stream: a
/// cheap, stable fingerprint of the generated traffic.
fn stream_hash(app: &dyn App, topo: Topology) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for mut src in app.spec(topo).sources {
        while let Some(op) = src.next_op() {
            for b in format!("{op:?}").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run_one(
    app: &dyn App,
    topo: Topology,
    column: Column,
    seed: u64,
) -> Result<ConfiguredOutcome, genima::ProtoError> {
    let cfg = RunConfig::from_column(topo, column)
        .with_seed(seed)
        .with_faults(churn_plan(topo.nodes))
        .with_degraded(true);
    run_app_configured(app, &cfg)
}

fn main() -> ExitCode {
    let cli = Cli::parse("serving_bench", &["seed", "nodes", "ops"], None);
    let (nodes, ops) = (cli.num("nodes", 4), cli.num("ops", 800));
    let mut report = Report::new("serving", cli.seed());
    report.meta.set("nodes", Json::u64(nodes));
    report.meta.set("ops", Json::u64(ops));
    report.meta.set("horizon_ms", Json::num(HORIZON.as_ms()));
    let seed = report.seed;
    let topo = Topology::new(nodes as usize, 1);
    let kv = KvServe::new(4_096, 0.99, 90, ops, HORIZON)
        .with_seed(seed)
        .with_start(START);
    let walk = GraphWalk::new(8_192, 6, 0.99, ops / 2, HORIZON)
        .with_seed(seed)
        .with_start(START);
    println!("serving bench: {nodes} nodes, seed {seed:#x}, 10% drop + cycling 4ms outages");
    println!("  kv:   {}", kv.problem());
    println!("  walk: {}", walk.problem());

    let mut table = TextTable::new(vec![
        "workload", "column", "time(ms)", "Mops", "p50us", "p99us", "p999us", "failed", "retrans",
        "intr",
    ]);
    let mut aborted = 0u32;
    let workloads: [(&str, &dyn App); 2] = [("kv", &kv), ("walk", &walk)];
    for (wname, app) in workloads {
        for column in Column::all() {
            // The workload seam must leak nothing protocol-specific:
            // the same app generates bit-identical traffic no matter
            // which column will consume it (the `stream-hash` gate).
            let hash = stream_hash(app, topo);
            let out = match run_one(app, topo, column, seed) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("FAIL {wname}/{}: run aborted: {e}", column.name());
                    aborted += 1;
                    continue;
                }
            };
            let rep = &out.report;
            let merged = rep.serve.merged();
            let par = rep.parallel_time();
            let mops = if par > Dur::ZERO {
                merged.count() as f64 / (par.as_ns() as f64 * 1e-9) / 1e6
            } else {
                0.0
            };
            table.row(vec![
                wname.to_string(),
                column.name().to_string(),
                format!("{:.2}", par.as_ms()),
                format!("{mops:.3}"),
                format!("{:.0}", merged.p50().as_us()),
                format!("{:.0}", merged.p99().as_us()),
                format!("{:.0}", merged.p999().as_us()),
                rep.counters.failed_ops.to_string(),
                rep.recovery.retransmits.to_string(),
                rep.counters.interrupts.to_string(),
            ]);
            let mut row = Json::obj();
            row.set("workload", Json::str(wname));
            row.set("column", Json::str(column.name()));
            row.set("time_ms", Json::num(par.as_ms()));
            row.set(
                "mops_offered",
                Json::num(app.spec(topo).arrival.offered_mops()),
            );
            row.set("mops_sustained", Json::num(mops));
            row.set("p50_us", Json::num(merged.p50().as_us()));
            row.set("p99_us", Json::num(merged.p99().as_us()));
            row.set("p999_us", Json::num(merged.p999().as_us()));
            let bound = p99_bound(column.name());
            row.set("p99_bound_us", Json::num(bound.map_or(0.0, |b| b.as_us())));
            row.set("interrupts", Json::u64(rep.counters.interrupts));
            row.set("failed_ops", Json::u64(rep.counters.failed_ops));
            row.set("retransmits", Json::u64(rep.recovery.retransmits));
            row.set("mgmt_deliveries", Json::u64(rep.recovery.mgmt_deliveries));
            row.set("outage_drops", Json::u64(out.faults.outage_drops));
            row.set("stream_hash", Json::str(format!("{hash:016x}")));
            row.set("serve_latency", rep.serve.json());
            if column.name() == "GeNIMA" {
                // Seeded determinism: the same configuration must
                // reproduce the run bit-for-bit.
                let again = run_one(app, topo, column, seed);
                let same = again
                    .is_ok_and(|a| a.report.finish == rep.finish && a.report.serve == rep.serve);
                row.set("repeat_identical", Json::Bool(same));
            }
            report.rows.push(row);
        }
    }
    println!("{table}");
    report.finish(cli.json.as_deref(), aborted)
}
