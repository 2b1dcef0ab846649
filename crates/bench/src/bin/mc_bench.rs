//! `mc_bench` — model-checking benchmark: exhaustively explores the
//! CI litmus corpus on every protocol column, bounds the extended
//! classic shapes, calibrates DPOR pruning against naive enumeration
//! on the lock-handoff litmus, and demonstrates the seeded-mutant
//! catch.
//!
//! ```text
//! mc_bench [--json PATH]
//! ```
//!
//! Rows are of three kinds: `litmus` (one exploration), `calibration`
//! and `mutant`. The report is checked in as `BENCH_mc.json` and gated
//! by `gates::table`; CI never regenerates it (the extended rows and
//! the naive calibration take minutes of single-core time).

use std::process::ExitCode;
use std::time::Instant;

use genima_bench::gates::MUTANT_BUDGET;
use genima_bench::report::{Cli, Report};
use genima_mc::{corpus, litmus, Config, Explorer, Litmus, Mode, ScheduleTrace};
use genima_obs::Json;
use genima_proto::{Column, FeatureSet, Mutation};

/// Schedule cap for the extended (classic, large) shapes: enough for
/// `sb` and `lock-handoff` to exhaust on Base, a bounded sweep
/// elsewhere.
const EXT_CAP: u64 = 1_000_000;

/// Naive-enumeration budget for the prune-ratio calibration. DPOR
/// exhausts lock-handoff on Base in ~800k schedules; naive enumeration
/// still isn't done at five times that, so the reported ratio is a
/// lower bound.
const NAIVE_CAP: u64 = 4_000_000;

fn explore_row(l: Litmus, c: Column, config: Config, tier: &str) -> Json {
    let start = Instant::now();
    let rep = Explorer::new(l, c, config).run();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let per_sec = rep.schedules as f64 / secs;
    println!(
        "{:<20} {:>9} {:>12} {:>9} {:>10} {:>9.0} {:>11}",
        format!("{}/{}", l.name, c.name()),
        rep.schedules,
        rep.sleep_blocked,
        rep.outcomes.len(),
        rep.steps_total,
        per_sec,
        if rep.exhaustive() {
            "exhaustive"
        } else {
            "bounded"
        },
    );
    if let Some(v) = &rep.violation {
        eprintln!("  UNEXPECTED VIOLATION: {}", v.desc);
    }

    let mut row = Json::obj();
    row.set("kind", Json::str("litmus"));
    row.set("litmus", Json::str(l.name));
    row.set("column", Json::str(c.name()));
    row.set("tier", Json::str(tier));
    row.set("schedules", Json::u64(rep.schedules));
    row.set("sleep_pruned", Json::u64(rep.sleep_blocked));
    row.set("truncated", Json::u64(rep.depth_truncated));
    row.set("violations", Json::u64(u64::from(rep.violation.is_some())));
    row.set("distinct_outcomes", Json::u64(rep.outcomes.len() as u64));
    row.set("steps_total", Json::u64(rep.steps_total));
    row.set("states_per_sec", Json::num(per_sec));
    row.set("races_precise", Json::u64(rep.races_precise));
    row.set("races_fallback", Json::u64(rep.races_fallback));
    row.set("exhaustive", Json::Bool(rep.exhaustive()));
    row
}

fn main() -> ExitCode {
    let cli = Cli::parse("mc_bench", &[], None);
    let mut report = Report::new("mc", 1999);
    let config = Config::default();

    println!(
        "{:<20} {:>9} {:>12} {:>9} {:>10} {:>9} {:>11}",
        "litmus/column", "scheds", "sleep-pruned", "outcomes", "steps", "sched/s", "coverage"
    );
    // CI corpus: every cell must exhaust on every column.
    for l in corpus() {
        for c in Column::all() {
            report.rows.push(explore_row(l, c, config, "ci"));
        }
    }
    // Extended classics: exhaustive where the cap allows (Base),
    // bounded on the NI-rich end.
    let ext_cfg = Config {
        max_schedules: EXT_CAP,
        ..config
    };
    for l in litmus::extended() {
        for c in [
            Column::lanai(FeatureSet::base()),
            Column::lanai(FeatureSet::genima()),
            Column::genima_2025(),
        ] {
            report.rows.push(explore_row(l, c, ext_cfg, "extended"));
        }
    }

    // Calibrate DPOR pruning against naive enumeration on the
    // lock-handoff litmus, Base column — the cell where DPOR itself
    // completes an exhaustive proof.
    let lh = litmus::by_name("lock-handoff").expect("lock-handoff litmus exists");
    let base = Column::lanai(FeatureSet::base());
    let dpor = Explorer::new(lh, base, ext_cfg).run();
    let naive_cfg = Config {
        mode: Mode::Naive,
        max_schedules: NAIVE_CAP,
        ..config
    };
    let naive = Explorer::new(lh, base, naive_cfg).run();
    let ratio = naive.schedules as f64 / dpor.schedules.max(1) as f64;
    println!(
        "lock-handoff/Base calibration: dpor {} ({}), naive {} schedules{} -> prune ratio {:.1}x{}",
        dpor.schedules,
        if dpor.exhaustive() {
            "exhaustive"
        } else {
            "bounded"
        },
        naive.schedules,
        if naive.budget_exhausted {
            " (capped)"
        } else {
            ""
        },
        ratio,
        if naive.budget_exhausted {
            " (lower bound)"
        } else {
            ""
        },
    );
    let mut calib = Json::obj();
    calib.set("kind", Json::str("calibration"));
    calib.set("litmus", Json::str(lh.name));
    calib.set("column", Json::str(base.name()));
    calib.set("dpor_schedules", Json::u64(dpor.schedules));
    calib.set("dpor_exhaustive", Json::Bool(dpor.exhaustive()));
    calib.set("naive_schedules", Json::u64(naive.schedules));
    calib.set("naive_capped", Json::Bool(naive.budget_exhausted));
    calib.set("prune_ratio", Json::num(ratio));
    report.rows.push(calib);

    // Seeded-mutant demonstration: the checker must catch the
    // reordered write notice within the budget and the minimized
    // counterexample must replay bit-identically.
    let mutation = Mutation::ReorderWriteNotice;
    let hunt_cfg = Config {
        max_schedules: MUTANT_BUDGET,
        ..config
    };
    let l = litmus::by_name("mp").expect("mp litmus exists");
    let c = Column::lanai(FeatureSet::genima());
    let start = Instant::now();
    let rep = Explorer::new(l, c, hunt_cfg).with_mutation(mutation).run();
    let caught = rep.violation.is_some();
    let replay_ok = rep.violation.as_ref().is_some_and(|v| {
        ScheduleTrace::new(l.name, c.name(), Some(mutation), v)
            .verify()
            .is_ok()
    });
    println!(
        "mutant {}: {} after {} schedules in {:.2}s (replay {})",
        mutation.name(),
        if caught { "caught" } else { "MISSED" },
        rep.schedules,
        start.elapsed().as_secs_f64(),
        if replay_ok { "ok" } else { "FAILED" },
    );
    let mut mutant = Json::obj();
    mutant.set("kind", Json::str("mutant"));
    mutant.set("name", Json::str(mutation.name()));
    mutant.set("litmus", Json::str(l.name));
    mutant.set("column", Json::str(c.name()));
    mutant.set("caught", Json::Bool(caught));
    mutant.set("replay_ok", Json::Bool(replay_ok));
    mutant.set(
        "schedules_to_violation",
        Json::u64(rep.schedules_to_violation),
    );
    mutant.set(
        "minimized_steps",
        Json::u64(rep.violation.as_ref().map_or(0, |v| v.steps.len() as u64)),
    );

    report.rows.push(mutant);
    report.finish(cli.json.as_deref(), 0)
}
