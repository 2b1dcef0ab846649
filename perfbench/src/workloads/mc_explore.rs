//! `mc-explore`: exhaustive DPOR model checking of the `lost-update`
//! and `mp-bar` litmus tests on all six columns. Every schedule builds
//! a small system from scratch and replays it under an `EventPicker`,
//! so the explorer and the engine's picker path do the work; there are
//! no diffs to speak of and no faults. The inputs are fixed; the seed
//! is not used.

use std::cell::RefCell;
use std::time::Instant;

use genima_mc::{litmus, Config, ExploreReport, Explorer, Litmus};
use genima_proto::Column;

use super::{Pass, Workload};
use crate::calib;
use crate::metrics::Values;
use crate::trace;

/// The litmus subset explored, from the CI corpus.
const LITMUS: [&str; 2] = ["lost-update", "mp-bar"];

/// Systems built per cell in one set-up sample.
const SETUP_BUILDS: usize = 64;

pub struct McExplore {
    litmus: Vec<Litmus>,
    /// Schedules explored per cell in the last pass.
    schedules: RefCell<Vec<u64>>,
}

impl McExplore {
    pub fn new() -> McExplore {
        McExplore {
            litmus: LITMUS
                .iter()
                .map(|n| litmus::by_name(n).expect("litmus is in the CI corpus"))
                .collect(),
            schedules: RefCell::default(),
        }
    }

    fn cells(&self) -> impl Iterator<Item = (Litmus, Column)> + '_ {
        self.litmus
            .iter()
            .flat_map(|l| Column::all().into_iter().map(move |c| (*l, c)))
    }
}

fn fingerprint(rep: &ExploreReport) -> String {
    format!(
        "{} {} {} {} {} {:?}",
        rep.schedules,
        rep.steps_total,
        rep.sleep_blocked,
        rep.races_precise,
        rep.races_fallback,
        rep.outcomes
    )
}

impl Workload for McExplore {
    /// `Explorer::new`, plus [`SETUP_BUILDS`] builds of each cell's
    /// system with `Litmus::build_on`: the construction the explorer
    /// repeats for every schedule, sampled enough times to time.
    fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        for (l, c) in self.cells() {
            std::hint::black_box(Explorer::new(l, c, Config::default()));
            for _ in 0..SETUP_BUILDS {
                drop(l.build_on(c));
            }
        }
        t0.elapsed().as_secs_f64()
    }

    fn pass(&self) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let (mut schedules, mut steps, mut precise, mut blocked) = (0u64, 0u64, 0u64, 0u64);
        let mut explore_s = 0.0;
        let mut per_cell = Vec::new();
        for (l, c) in self.cells() {
            let what = format!("{}/{}", l.name, c.name());
            trace::next_run();
            let ex = trace::span("mc.new", || Explorer::new(l, c, Config::default()));
            trace::span("proto.new", || drop(l.build_on(c)));
            let t1 = Instant::now();
            let rep = trace::span("mc.explore", || ex.run());
            explore_s += t1.elapsed().as_secs_f64();
            trace::span("bench.check", || {
                if let Some(v) = &rep.violation {
                    return Err(format!("{what}: violation: {}", v.desc));
                }
                if !rep.exhaustive() {
                    return Err(format!("{what}: exploration not exhaustive"));
                }
                if rep.outcomes.len() < l.min_outcomes {
                    return Err(format!(
                        "{what}: {} outcomes, fewer than {}",
                        rep.outcomes.len(),
                        l.min_outcomes
                    ));
                }
                Ok(())
            })?;
            pass.fingerprint
                .add(format!("{what} {}", fingerprint(&rep)).as_bytes());
            schedules += rep.schedules;
            per_cell.push(rep.schedules);
            steps += rep.steps_total;
            precise += rep.races_precise;
            blocked += rep.sleep_blocked;
            calib::lap();
        }
        *self.schedules.borrow_mut() = per_cell;
        pass.attempted = schedules;
        pass.events = steps;
        let c = &mut pass.counts;
        c.insert("sim.events".into(), steps as f64);
        c.insert("mc.schedules".into(), schedules as f64);
        c.insert("mc.steps".into(), steps as f64);
        c.insert("mc.races_precise".into(), precise as f64);
        c.insert(
            "mc.sleep_blocked_frac".into(),
            blocked as f64 / schedules.max(1) as f64,
        );
        pass.host
            .insert("schedules_per_s".into(), schedules as f64 / explore_s);
        Ok(pass)
    }

    /// Exploration is deterministic: a second explorer on the first
    /// cell reports the same schedules, steps, races and outcomes.
    /// (`Explorer` builds its own systems, so there is no
    /// `run_app_configured` report to compare against.)
    fn check_once(&self) -> Result<(), String> {
        let (l, c) = self.cells().next().expect("at least one cell");
        let a = Explorer::new(l, c, Config::default()).run();
        let b = Explorer::new(l, c, Config::default()).run();
        if fingerprint(&a) == fingerprint(&b) {
            Ok(())
        } else {
            Err(format!(
                "{}/{}: exploration not deterministic",
                l.name,
                c.name()
            ))
        }
    }

    /// `proto.new_s` here is the host time to build, outside the
    /// explorer, as many systems per cell as the explorer built there
    /// (one per schedule).
    fn traced_extras(&self, out: &mut Values) {
        let per_cell = self.schedules.borrow().clone();
        let t0 = Instant::now();
        for ((l, c), n) in self.cells().zip(per_cell) {
            for _ in 0..n {
                drop(l.build_on(c));
            }
        }
        out.insert("proto.new_s".into(), t0.elapsed().as_secs_f64());
    }
}
