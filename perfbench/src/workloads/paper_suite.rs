//! `paper-suite`: the paper's evaluation. All ten applications at 4×4
//! on the six evaluation columns, plus each application's sequential
//! time and Origin 2000 run, on a clean network with observation off.
//! The inputs are the paper's fixed problem sizes; the seed is not
//! used.

use std::collections::BTreeMap;

use genima::{run_app_configured, run_app_on_hwdsm, sequential_time};
use genima_apps::{all_apps, App};
use genima_proto::{Column, FeatureSet, Topology};

use super::{same_as_runner, Pass, Workload};
use crate::acc::{check_report, ReportAcc};
use crate::calib;
use crate::cell::{build, run_cell, CellConfig, Outcome};
use crate::trace;

pub struct PaperSuite {
    apps: Vec<Box<dyn App>>,
    topo: Topology,
}

impl PaperSuite {
    pub fn new() -> PaperSuite {
        PaperSuite {
            apps: all_apps(),
            topo: Topology::new(4, 4),
        }
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

impl Workload for PaperSuite {
    fn setup_only(&self) -> f64 {
        let mut s = 0.0;
        for app in &self.apps {
            for column in Column::all() {
                s += build(app.as_ref(), &CellConfig::clean(self.topo, column)).setup_s;
            }
        }
        s
    }

    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut acc = ReportAcc::default();
        // Per column name, the speedup of each application in order.
        let mut speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for app in &self.apps {
            let app = app.as_ref();
            let (seq, origin) = trace::span("hwdsm.run", || {
                (sequential_time(app), run_app_on_hwdsm(app, self.topo))
            });
            pass.fingerprint
                .add(format!("{} {:?} {:?}", app.name(), seq, origin).as_bytes());
            calib::lap();
            for column in Column::all() {
                let what = format!("{}/{}", app.name(), column.name());
                let out = run_cell(app, &CellConfig::clean(self.topo, column));
                pass.attempted += 1;
                let Outcome::Done { report, faults, .. } = out else {
                    return Err(format!("{what}: clean run aborted"));
                };
                trace::span("bench.check", || check_report(&what, column, &report))?;
                speedups
                    .entry(column.name())
                    .or_default()
                    .push(report.speedup(seq));
                acc.add(column, &report, &faults);
                calib::lap();
            }
        }
        acc.counts(&mut pass.counts);
        for name in ["Base", "GeNIMA", "GeNIMA-2025"] {
            pass.counts.insert(
                format!("sim_speedup_geomean.{name}"),
                geomean(&speedups[name]),
            );
        }
        let (base, genima) = (&speedups["Base"], &speedups["GeNIMA"]);
        let gain = base
            .iter()
            .zip(genima)
            .map(|(b, g)| g / b - 1.0)
            .sum::<f64>()
            / base.len() as f64;
        pass.counts
            .insert("sim_genima_gain_pct".into(), gain * 100.0);
        pass.events = acc.events;
        pass.fingerprint.add(&acc.fingerprint.0.to_le_bytes());
        Ok(pass)
    }

    fn check_once(&self) -> Result<(), String> {
        let app = self.apps[0].as_ref();
        let cfg = CellConfig::clean(self.topo, Column::lanai(FeatureSet::genima()));
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
}
