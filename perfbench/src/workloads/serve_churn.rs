//! `serve-churn`: open-loop serving under churn. `KvServe` (4,096 keys,
//! Zipf 0.99, 90% reads, one lock per shard page) on 4 nodes × 1
//! process, 40,000 requests offered over 8 s of simulated time
//! (0.005 Mops), on all six columns, with 10% packet drop plus cycling
//! 4 ms node outages and degraded mode on.
//!
//! One pass serves [`STREAMS`] independent request streams, seeded
//! `seed`, `seed ^ 1<<32`, `seed ^ 2<<32`, … from `--seed`; each stream's
//! seed also seeds its fault injector. How much work a stream costs
//! depends on its seed (an aborted run ends early), so a pass averages
//! over several streams to keep run-to-run spread down.

use genima::run_app_configured;
use genima_apps::App;
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_proto::{Column, FeatureSet, Topology};
use genima_serve::KvServe;
use genima_sim::{Dur, Histogram, Time};

use super::{same_as_runner, Pass, Workload};
use crate::acc::{check_report, Fnv, ReportAcc};
use crate::calib;
use crate::cell::{build, run_cell, CellConfig, Outcome, SourceLayer};
use crate::trace;

/// Requests offered per stream and column.
const REQUESTS: u64 = 40_000;

/// Request streams per pass.
const STREAMS: u64 = 8;

/// Simulated span the arrivals cover.
const HORIZON: Dur = Dur::from_ms(8_000);

/// First arrival, after warm-up on every column.
const START: Time = Time::from_ns(500_000);

/// A request meets the latency limit when it completes within 2^23 ns
/// (≈8.39 ms) of its arrival: the histograms are power-of-two buckets,
/// so the limit is a bucket edge and "within" is exact.
const LIMIT_BUCKET: usize = 23;

pub struct ServeChurn {
    /// `(seed, store)` per stream.
    streams: Vec<(u64, KvServe)>,
    topo: Topology,
}

impl ServeChurn {
    pub fn new(seed: u64) -> ServeChurn {
        let streams = (0..STREAMS)
            .map(|k| {
                let s = seed ^ (k << 32);
                let kv = KvServe::new(4_096, 0.99, 90, REQUESTS, HORIZON)
                    .with_seed(s)
                    .with_start(START);
                (s, kv)
            })
            .collect();
        ServeChurn {
            streams,
            topo: Topology::new(4, 1),
        }
    }

    fn cells(&self) -> impl Iterator<Item = (&KvServe, CellConfig)> + '_ {
        self.streams.iter().flat_map(move |(seed, kv)| {
            Column::all()
                .into_iter()
                .map(move |c| (kv, self.config(*seed, c)))
        })
    }

    fn config(&self, seed: u64, column: Column) -> CellConfig {
        CellConfig {
            seed,
            faults: churn_plan(self.topo.nodes),
            degraded: true,
            source_layer: SourceLayer::Serve,
            ..CellConfig::clean(self.topo, column)
        }
    }
}

/// The churn plan of `serving_bench`, stretched over the horizon: 10%
/// drop for the whole run, plus 4 ms outages with 4 ms gaps cycling
/// round-robin over nodes 1..n (node 0 stays up). Each outage is far
/// below the ~38 ms retransmission give-up budget.
fn churn_plan(nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new().drop_rate(0.10);
    let window = Dur::from_ms(4);
    let mut from = START + Dur::from_ms(2);
    let mut victim = 1usize;
    while from + window < START + HORIZON {
        plan = plan.outage(NicId::new(victim), from, from + window);
        from = from + window + window;
        victim = victim % (nodes - 1) + 1;
    }
    plan
}

/// FNV-1a over the Debug rendering of every op of every stream.
fn stream_hash(app: &dyn App, topo: Topology) -> u64 {
    let mut h = Fnv::default();
    for mut src in app.spec(topo).sources {
        while let Some(op) = src.next_op() {
            h.add(format!("{op:?}").as_bytes());
        }
        h.add(&[]);
    }
    h.0
}

impl Workload for ServeChurn {
    fn setup_only(&self) -> f64 {
        self.cells().map(|(kv, cfg)| build(kv, &cfg).setup_s).sum()
    }

    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut acc = ReportAcc::default();
        let mut merged = Histogram::new();
        let mut sim_s = 0.0;
        for (kv, cfg) in self.cells() {
            let column = cfg.column;
            let what = format!("kv seed {:#x}/{}", cfg.seed, column.name());
            let out = run_cell(kv, &cfg);
            pass.attempted += REQUESTS;
            match out {
                Outcome::Done { report, faults, .. } => {
                    trace::span("bench.check", || check_report(&what, column, &report))?;
                    // A failed protocol op fails the request that issued it.
                    pass.failed += report.counters.failed_ops.min(REQUESTS);
                    merged.merge(&report.serve.merged());
                    sim_s += report.parallel_time().as_secs();
                    acc.add(column, &report, &faults);
                }
                Outcome::Aborted(why) => {
                    pass.failed += REQUESTS;
                    pass.fingerprint.add(why.as_bytes());
                    let why = why.replace('\n', " ");
                    pass.notes.push(format!("{what}: run aborted: {why}"));
                }
            }
            calib::lap();
        }
        acc.counts(&mut pass.counts);
        let offered = pass.attempted as f64;
        let within: u64 = merged.buckets()[..LIMIT_BUCKET].iter().sum();
        let c = &mut pass.counts;
        c.insert("sim_p50_us".into(), merged.p50().as_us());
        c.insert("sim_p99_us".into(), merged.p99().as_us());
        c.insert("sim_within_limit_frac".into(), within as f64 / offered);
        let mops = if sim_s > 0.0 {
            merged.count() as f64 / sim_s / 1e6
        } else {
            0.0
        };
        c.insert("serve.sustained_mops".into(), mops);
        pass.events = acc.events;
        pass.fingerprint.add(&acc.fingerprint.0.to_le_bytes());
        Ok(pass)
    }

    fn check_once(&self) -> Result<(), String> {
        // The workload seam must leak nothing protocol-specific: the
        // generated stream is the same whichever column consumes it.
        let (seed, kv) = &self.streams[0];
        let hash = stream_hash(kv, self.topo);
        for column in Column::all() {
            if stream_hash(kv, self.config(*seed, column).topo) != hash {
                return Err(format!("kv/{}: op stream hash drifted", column.name()));
            }
        }
        let cfg = self.config(*seed, Column::lanai(FeatureSet::base()));
        let Outcome::Done { report, .. } = run_cell(kv, &cfg) else {
            return Err("kv/Base: check run aborted".into());
        };
        let runner = run_app_configured(kv, &cfg.run_config()).map_err(|e| e.to_string())?;
        same_as_runner("kv/Base", &report.to_json(), &runner.report.to_json())
    }
}
