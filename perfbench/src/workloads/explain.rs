//! `explain`: the path by which a run explains itself. FFT, Radix,
//! Barnes-original and Ocean at 4×4 on Base and GeNIMA, each recorded
//! with a 2^20-span ring per node, then profiled (`genima_prof::profile`
//! and `audited_ops`), exported (`timeline_json` and `validate_trace`)
//! and audited (`run_app_audited_on`). The inputs are fixed; the seed
//! is not used.

use std::time::Instant;

use genima::run_app_configured;
use genima_apps::{app_by_name, App};
use genima_check::run_app_audited_on;
use genima_obs::{timeline_json, validate_trace, ObsConfig};
use genima_prof::{profile, Breakdown, Segment};
use genima_proto::{Column, Topology};

use super::{same_as_runner, Pass, Workload};
use crate::acc::{check_report, ReportAcc};
use crate::calib;
use crate::cell::{self, build, run_cell, CellConfig, Outcome};
use crate::metrics::Values;
use crate::trace;

const APPS: [&str; 4] = ["FFT", "Radix-local", "Barnes-original", "Ocean-rowwise"];

const COLUMNS: [&str; 2] = ["Base", "GeNIMA"];

/// Ring capacity per node: large enough that no timeline truncates.
const RING: usize = 1 << 20;

pub struct Explain {
    apps: Vec<Box<dyn App>>,
    topo: Topology,
}

impl Explain {
    pub fn new() -> Explain {
        Explain {
            apps: APPS
                .iter()
                .map(|n| app_by_name(n).expect("app is in the suite"))
                .collect(),
            topo: Topology::new(4, 4),
        }
    }

    fn cells(&self) -> impl Iterator<Item = (&dyn App, CellConfig)> + '_ {
        self.apps.iter().flat_map(move |a| {
            COLUMNS.iter().map(move |c| {
                let column = Column::by_name(c).expect("column exists");
                let cfg = CellConfig {
                    obs: ObsConfig::with_capacity(RING),
                    ..CellConfig::clean(self.topo, column)
                };
                (a.as_ref(), cfg)
            })
        })
    }
}

impl Workload for Explain {
    fn setup_only(&self) -> f64 {
        self.cells().map(|(a, cfg)| build(a, &cfg).setup_s).sum()
    }

    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut acc = ReportAcc::default();
        let mut segments = Breakdown::default();
        let (mut spans, mut dropped, mut prof_ops, mut findings) = (0u64, 0u64, 0u64, 0u64);
        let mut timeline_bytes = 0u64;
        for (app, cfg) in self.cells() {
            let column = cfg.column;
            let what = format!("{}/{}", app.name(), column.name());
            let out = run_cell(app, &cfg);
            pass.attempted += 1;
            let Outcome::Done {
                report,
                faults,
                obs,
            } = out
            else {
                return Err(format!("{what}: clean run aborted"));
            };
            trace::span("bench.check", || check_report(&what, column, &report))?;
            acc.add(column, &report, &faults);
            spans += obs.spans.len() as u64;
            dropped += obs.dropped;
            calib::lap();

            let total = trace::span("prof.profile", || {
                let prof = profile(&obs);
                let ops = prof.audited_ops().map_err(|t| format!("{what}: {t}"))?;
                for op in ops {
                    if op.breakdown.total() != op.latency {
                        return Err(format!(
                            "{what}: op {:#x} attribution {} ns != latency {} ns",
                            op.op,
                            op.breakdown.total().as_ns(),
                            op.latency.as_ns()
                        ));
                    }
                }
                prof_ops += ops.len() as u64;
                Ok(prof.total_breakdown())
            })?;
            segments.merge(&total);
            calib::lap();

            let stats = trace::span("obs.timeline", || {
                let text = timeline_json(&obs.spans);
                timeline_bytes += text.len() as u64;
                validate_trace(&text).map_err(|e| format!("{what}: invalid timeline: {e}"))
            })?;
            pass.fingerprint
                .add(format!("{what} {stats:?} {total:?}").as_bytes());
            calib::lap();

            let audited = trace::span("check.audit", || run_app_audited_on(app, self.topo, column));
            if !audited.audit.is_clean() {
                return Err(format!(
                    "{what}: audit found {} violation(s), first: {}",
                    audited.audit.violations.len(),
                    audited.audit.violations[0]
                ));
            }
            findings += audited.audit.violations.len() as u64;
            calib::lap();
        }
        if dropped != 0 {
            return Err(format!(
                "{dropped} spans evicted: the timeline is truncated"
            ));
        }
        acc.counts(&mut pass.counts);
        let sum = segments.total().as_ns().max(1) as f64;
        let c = &mut pass.counts;
        c.insert(
            "sim_unexplained_frac".into(),
            segments.queue_retry.as_ns() as f64 / sum,
        );
        for seg in Segment::ALL {
            c.insert(
                format!("prof.share.{}", seg.name()),
                segments.get(seg).as_ns() as f64 / sum,
            );
        }
        c.insert("prof.ops".into(), prof_ops as f64);
        c.insert("obs.spans".into(), spans as f64);
        c.insert("obs.dropped".into(), dropped as f64);
        c.insert("obs.timeline_mb".into(), timeline_bytes as f64 / 1e6);
        c.insert("check.findings".into(), findings as f64);
        pass.events = acc.events;
        pass.fingerprint.add(&acc.fingerprint.0.to_le_bytes());
        Ok(pass)
    }

    fn check_once(&self) -> Result<(), String> {
        let (app, cfg) = self.cells().next().expect("at least one cell");
        let Outcome::Done { report, .. } = run_cell(app, &cfg) else {
            return Err("check run aborted".into());
        };
        let runner = run_app_configured(app, &cfg.run_config()).map_err(|e| e.to_string())?;
        same_as_runner(
            &format!("{}/{}", app.name(), cfg.column.name()),
            &report.to_json(),
            &runner.report.to_json(),
        )
    }

    /// `obs.run_overhead_ratio`: host time of `try_run` with span
    /// recording on over the same runs with it off.
    fn traced_extras(&self, out: &mut Values) {
        let (mut on, mut off) = (0.0, 0.0);
        for (app, cfg) in self.cells() {
            for (obs, sum) in [(cfg.obs, &mut on), (ObsConfig::off(), &mut off)] {
                let built = build(app, &CellConfig { obs, ..cfg.clone() });
                let t0 = Instant::now();
                drop(cell::run(built));
                *sum += t0.elapsed().as_secs_f64();
            }
        }
        out.insert("obs.run_overhead_ratio".into(), on / off);
    }
}
