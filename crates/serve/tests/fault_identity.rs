//! Bit-identity gate for the fault path.
//!
//! The engine goldens (`crates/core/tests/engine_identity.rs`) run
//! clean, so none of them consults a fault injector. This table pins
//! faulty runs the same way: `KvServe` on 4 nodes x 1 process under a
//! churn plan (10% drop, 3% duplicate, 3% delay, dozens of outage windows including
//! back-to-back and overlapping ones, a firmware stall window, link
//! jitter and a targeted drop) with degraded mode on, on all six
//! columns. Any drift in which packets fault, how they are recovered or
//! deduplicated, or what the run reports changes a hash.
//!
//! Regenerate with:
//! `GOLDEN_PRINT=1 cargo test -p genima-serve --test fault_identity -- --nocapture`

use genima::{run_app_configured, RunConfig};
use genima_fault::FaultPlan;
use genima_nic::NicId;
use genima_proto::{Column, Topology};
use genima_serve::KvServe;
use genima_sim::{Dur, Time};

/// FNV-1a over the full JSON text.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const START: Time = Time::from_ns(500_000);
const HORIZON: Dur = Dur::from_ms(40);

/// Twelve rounds of three outages each, cycling over nodes 1..=3 (node
/// 0 stays up). Per round the victim gets two back-to-back 800 us
/// windows and a third window overlapping both.
fn churn_plan() -> FaultPlan {
    let mut plan = FaultPlan::new()
        .drop_rate(0.10)
        .duplicate_rate(0.03)
        .delay(0.03, Dur::from_us(300))
        .stall(
            NicId::new(2),
            START + Dur::from_ms(3),
            START + Dur::from_ms(9),
            Dur::from_us(20),
        )
        .link_jitter(NicId::new(0), NicId::new(1), Dur::from_us(30))
        .drop_nth(NicId::new(0), NicId::new(2), 5);
    let w = Dur::from_us(800);
    for k in 0..12u64 {
        let victim = NicId::new(1 + (k % 3) as usize);
        let t = START + Dur::from_ms(2 + 3 * k);
        plan = plan
            .outage(victim, t, t + w)
            .outage(victim, t + w, t + w + w)
            .outage(victim, t + Dur::from_us(500), t + Dur::from_us(1_200));
    }
    plan
}

/// Column -> FNV-1a of `RunReport::to_json` under [`churn_plan`].
const GOLDEN: &[(&str, u64)] = &[
    ("Base", 0x237254a2ac2b7b9c),
    ("DW", 0x820cef237c437d18),
    ("DW+RF", 0x91b260e142ba076c),
    ("DW+RF+DD", 0x6baed94a87579a23),
    ("GeNIMA", 0x45bbc552051a68c3),
    ("GeNIMA-2025", 0x491cbeaef13587ba),
];

#[test]
fn faulty_run_reports_match_golden_hashes() {
    let kv = KvServe::new(1_024, 0.99, 90, 2_000, HORIZON)
        .with_seed(5)
        .with_start(START);
    let topo = Topology::new(4, 1);
    let mut got = Vec::new();
    for column in Column::all() {
        let cfg = RunConfig::from_column(topo, column)
            .with_seed(5)
            .with_faults(churn_plan())
            .with_degraded(true);
        let out = run_app_configured(&kv, &cfg)
            .unwrap_or_else(|e| panic!("{} aborted: {e}", column.name()));
        // Every rule kind of the plan must actually fire.
        let f = out.faults;
        assert!(
            f.outage_drops > 0 && f.stalls > 0 && f.targeted == 1 && f.delayed > 0,
            "{}: plan under-exercised: {f:?}",
            column.name()
        );
        assert!(out.report.recovery.duplicates_suppressed > 0);
        let json = out.report.to_json();
        got.push((column.name(), fnv1a(json.as_bytes())));
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (col, h) in &got {
            println!("    (\"{col}\", 0x{h:016x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "golden table out of date");
    for ((col, h), (gc, gh)) in got.iter().zip(GOLDEN) {
        assert_eq!(col, gc, "golden table order drifted");
        assert_eq!(h, gh, "{col}: faulty RunReport JSON drifted");
    }
}
