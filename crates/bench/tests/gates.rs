//! The bench gate tables on hand-built reports: every fixture passes as
//! built, and each mutation fails the gate named in the test.

use genima_bench::report::Report;
use genima_obs::Json;

const COLUMNS: [&str; 6] = ["Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA", "GeNIMA-2025"];

fn j(text: &str) -> Json {
    Json::parse(text).expect("fixture parses")
}

fn report(bench: &str, rows: Vec<Json>) -> Report {
    let mut r = Report::new(bench, 7);
    r.rows = rows;
    r
}

/// Sets the dotted `path` of row `row` to the JSON text `val`, or
/// removes it when `val` is empty.
fn set(mut r: Report, row: usize, path: &str, val: &str) -> Report {
    let (parents, last) = path.rsplit_once('.').unwrap_or(("", path));
    let mut v = &mut r.rows[row];
    for key in parents.split('.').filter(|k| !k.is_empty()) {
        let Json::Obj(entries) = v else {
            panic!("{key}")
        };
        v = &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1;
    }
    let Json::Obj(entries) = v else {
        panic!("{path}")
    };
    entries.retain(|(k, _)| k != last);
    if !val.is_empty() {
        entries.push((last.to_string(), j(val)));
    }
    r
}

fn passes(mut r: Report) {
    if let Err(e) = r.check() {
        panic!("{} fixture must pass: {e}", r.bench);
    }
}

/// `r` fails gate `gate` with a message containing `needle`.
fn fails(mut r: Report, gate: &str, needle: &str) {
    let err = r.check().expect_err("mutated fixture must fail");
    let (_, outcome) = r.gates.iter().find(|(name, _)| *name == gate).expect(gate);
    let msg = outcome
        .as_deref()
        .unwrap_or_else(|| panic!("`{gate}` passed: {err}"));
    assert!(msg.contains(needle), "`{msg}` misses `{needle}`");
    assert!(err.contains(&format!("gate `{gate}` failed")), "{err}");
}

fn breakdowns() -> Report {
    let mut rows = vec![j(r#"{"kind":"app","app":"LU","sequential_ms":9.0}"#)];
    rows.extend(COLUMNS.iter().map(|c| {
        j(&format!(
            r#"{{"kind":"column","app":"LU","column":"{c}","parallel_ms":1.0,"speedup":2.0,
                "shares":{{}},"counters":{{"interrupts":0}}}}"#
        ))
    }));
    report("breakdowns", rows)
}

#[test]
fn breakdowns_gates() {
    passes(breakdowns());
    let r = set(breakdowns(), 5, "column", r#""GeNIMA-x""#);
    fails(r, "six-columns", "GeNIMA");
    let r = set(breakdowns(), 1, "counters.interrupts", "");
    fails(r, "shape", "interrupts");
    let r = set(breakdowns(), 0, "kind", r#""apps""#);
    fails(r, "shape", "unknown row kind");
}

fn engine() -> Report {
    let hold = |pow: u32, speedup: f64, allocs: f64| {
        j(&format!(
            r#"{{"kind":"hold","name":"hold-2^{pow}","pending":{},"heap_ns_per_event":300.0,
                "wheel_ns_per_event":50.0,"speedup":{speedup},"wheel_allocs_per_event":{allocs}}}"#,
            1u64 << pow
        ))
    };
    let system = j(r#"{"kind":"system","name":"ocean/Base","events":1000,
                       "events_per_sec":500000.0,"allocs_per_event":3.0}"#);
    report(
        "engine",
        vec![hold(10, 1.1, 0.5), hold(17, 6.0, 0.01), system],
    )
}

#[test]
fn engine_gates_read_the_largest_hold_population() {
    // The small population's 1.1x and 0.5 allocs/event are not gated.
    passes(engine());
    let r = set(engine(), 1, "speedup", "2.0");
    fails(r, "wheel-speedup", "need >= 3x");
    let r = set(engine(), 1, "wheel_allocs_per_event", "0.7");
    fails(r, "wheel-allocs", "0.700");
    fails(set(engine(), 2, "kind", r#""hold""#), "shape", "pending");
    let mut no_system = engine();
    no_system.rows.pop();
    fails(no_system, "system-rows", "system");
}

/// Per-op-kind tail-latency fragment every trajectory row carries.
const OP_LATENCY: &str = r#""op_latency":{
    "fetch":{"n":10,"p50_us":4.0,"p95_us":9.0,"p99_us":12.0},
    "lock":{"n":5,"p50_us":2.0,"p95_us":3.0,"p99_us":3.5},
    "barrier":{"n":8,"p50_us":20.0,"p95_us":40.0,"p99_us":55.0}}"#;

fn fault_matrix() -> Report {
    let row = |column: &str, interrupts: u64| {
        j(&format!(
            r#"{{"drop_rate":0.05,"column":"{column}","time_ms":3.5,"retransmits":2,
                "duplicates_suppressed":1,"injected_drops":4,"injected_dups":1,
                "injected_delays":2,"interrupts":{interrupts},"audit_clean":true,{OP_LATENCY}}}"#
        ))
    };
    let rows = vec![row("Base", 40), row("GeNIMA", 0), row("GeNIMA-2025", 0)];
    report("fault_matrix", rows)
}

#[test]
fn fault_matrix_gates() {
    passes(fault_matrix());
    let r = set(fault_matrix(), 0, "audit_clean", "3");
    fails(r, "shape", "audit_clean");
    let r = set(fault_matrix(), 0, "op_latency", "");
    fails(r, "shape", "op_latency");
    let r = set(fault_matrix(), 0, "op_latency.fetch.p99_us", "");
    fails(r, "shape", "p99_us");
}

#[test]
fn fault_matrix_gates_what_only_the_binary_checked_before() {
    let r = set(fault_matrix(), 0, "audit_clean", "false");
    fails(r, "audit-clean", "Base");
    let r = set(fault_matrix(), 1, "interrupts", "3");
    fails(r, "interrupt-free", "GeNIMA");
}

const BASE: usize = 0;
const GENIMA: usize = 4;
const RNIC: usize = 5;

fn serving() -> Report {
    let rows = COLUMNS.iter().map(|column| {
        let (p99, intr) = match *column {
            "GeNIMA" | "GeNIMA-2025" => (8389.0, 0),
            _ => (67109.0, 900),
        };
        let mut row = j(&format!(
            r#"{{"workload":"kv","column":"{column}","time_ms":55.0,"mops_offered":0.02,
                "mops_sustained":0.012,"p50_us":500.0,"p99_us":{p99:.1},"p999_us":{p99:.1},
                "p99_bound_us":0.0,"interrupts":{intr},"failed_ops":2,"retransmits":300,
                "mgmt_deliveries":1,"outage_drops":80,"stream_hash":"00c0ffee00c0ffee",
                "serve_latency":{{
                  "read":{{"n":90,"p50_us":40.0,"p95_us":300.0,"p99_us":900.0,"p999_us":2e3}},
                  "write":{{"n":10,"p50_us":60.0,"p95_us":400.0,"p99_us":1e3,"p999_us":3e3}},
                  "walk":{{"n":0,"p50_us":0.0,"p95_us":0.0,"p99_us":0.0,"p999_us":0.0}}}}}}"#
        ));
        if *column == "GeNIMA" {
            row.set("repeat_identical", Json::Bool(true));
        }
        row
    });
    report("serving", rows.collect())
}

#[test]
fn serving_gates_the_tails() {
    passes(serving());
    let r = set(serving(), GENIMA, "interrupts", "5");
    fails(r, "interrupt-free", "interrupts");
    // The bounds come from the gate table, not from the row.
    let busted = set(serving(), GENIMA, "p99_us", "67109.0");
    let r = set(busted, GENIMA, "p99_bound_us", "1e9");
    fails(r, "p99-bound", "33554");
    let r = set(serving(), RNIC, "p99_us", "20000.0");
    fails(r, "p99-bound", "16777");
    let r = set(serving(), 3, "stream_hash", r#""deadbeef""#);
    fails(r, "stream-hash", "kv");
    let r = set(serving(), 1, "serve_latency.read.p999_us", "");
    fails(r, "shape", "p999_us");
    fails(set(serving(), 1, "column", r#""DWX""#), "six-columns", "DW");
    let r = set(serving(), BASE, "p99_us", "4000.0");
    fails(r, "tail-collapse", "Base");
    let r = set(serving(), GENIMA, "repeat_identical", "false");
    fails(r, "repeat-identical", "kv");
    let r = set(serving(), GENIMA, "repeat_identical", "");
    fails(r, "repeat-identical", "kv");
    let idle = set(serving(), 2, "serve_latency.read.n", "0");
    let r = set(idle, 2, "serve_latency.write.n", "0");
    fails(r, "ops-completed", "no completed");
}

#[test]
fn serving_base_must_be_twice_genima_not_just_worse() {
    // The old schema check accepted Base >= GeNIMA; the bench's
    // 2x tail ratio rejects 1.5x.
    let r = set(serving(), BASE, "p99_us", "12583.5");
    fails(r, "tail-collapse", "2x");
    passes(set(serving(), BASE, "p99_us", "16778.0"));
}

fn rdma() -> Report {
    let lanai = format!(
        r#"{{"app":"FFT","column":"GeNIMA","hw":"LANai-1999","time_ms":10.0,"speedup":5.0,
            "speedup_vs_1999":1.0,"interrupts":0,"doorbells":0,"cqes":0,"odp_faults":0,
            {OP_LATENCY}}}"#
    );
    let rnic = format!(
        r#"{{"app":"FFT","column":"GeNIMA-2025","hw":"RNIC-2025","time_ms":6.0,"speedup":8.3,
            "speedup_vs_1999":1.7,"interrupts":0,"doorbells":900,"cqes":1800,"odp_faults":64,
            {OP_LATENCY}}}"#
    );
    report("rdma", vec![j(&lanai), j(&rnic)])
}

#[test]
fn rdma_gates_the_comparison() {
    passes(rdma());
    let r = set(rdma(), 1, "interrupts", "3");
    fails(r, "zero-interrupts", "interrupts");
    fails(set(rdma(), 1, "doorbells", "0"), "rnic-active", "flat");
    let r = set(rdma(), 1, "speedup_vs_1999", "0.8");
    fails(r, "rnic-beats-1999", "beat");
    let r = set(rdma(), 0, "doorbells", "5");
    fails(r, "lanai-no-rnic-counters", "doorbells");
    let r = set(rdma(), 0, "odp_faults", "2");
    fails(r, "lanai-no-rnic-counters", "odp_faults");
    let r = set(rdma(), 0, "column", r#""GeNIMA-2025""#);
    fails(r, "both-profiles", "0 LANai");
}

fn barrier() -> Report {
    let row = |nodes: u64, mode: &str, us: f64, msgs: u64| {
        let (fanout, ni) = mode
            .strip_prefix("ni-tree-")
            .map_or(("0", false), |f| (f, true));
        j(&format!(
            r#"{{"nodes":{nodes},"mode":"{mode}","fanout":{fanout},"barrier_us":{us},
                "time_ms":3.2,"barriers":12,"manager_msgs":{msgs},"interrupts":0,
                "ni_barrier":{ni}}}"#
        ))
    };
    report(
        "barrier",
        vec![
            // Below 16 nodes the tree may lose to the manager.
            row(8, "host", 150.0, 112),
            row(8, "ni-tree-4", 180.0, 0),
            row(16, "host", 400.0, 240),
            row(16, "ni-tree-2", 420.0, 0),
            row(16, "ni-tree-4", 268.9, 0),
        ],
    )
}

#[test]
fn barrier_gates() {
    passes(barrier());
    let r = set(barrier(), 4, "manager_msgs", "5");
    fails(r, "ni-tree-no-manager-msgs", "manager_msgs");
}

#[test]
fn barrier_gates_what_only_the_binary_checked_before() {
    let r = set(barrier(), 4, "barrier_us", "400.0");
    fails(r, "ni-tree-beats-host", "16 nodes");
    let r = set(barrier(), 4, "interrupts", "2");
    fails(r, "zero-interrupts", "interrupts");
}

fn diff() -> Report {
    let row = |case: &str| {
        j(&format!(
            r#"{{"case":"{case}","runs":8,"bytes":48,"ref_ns":1500.0,"block_ns":250.0,
                "tracked_ns":60.0,"speedup_block":6.0,"speedup_tracked":25.0,"identical":true}}"#
        ))
    };
    report("diff", vec![row("clean"), row("sparse")])
}

#[test]
fn diff_gates() {
    passes(diff());
    let r = set(diff(), 1, "speedup_block", "1.4");
    fails(r, "sparse-speedup", "need >= 3x");
    fails(set(diff(), 0, "identical", "false"), "identical", "clean");
    let r = set(diff(), 1, "case", r#""dense""#);
    fails(r, "sparse-speedup", "no `sparse`");
}

fn critpath() -> Report {
    let rows = COLUMNS.iter().map(|c| {
        let intr = if c.starts_with("GeNIMA") { 0 } else { 50 };
        j(&format!(
            r#"{{"app":"FFT","column":"{c}","hw":"LANai-1999","time_ms":4.2,"speedup":5.0,
                "ops":120,"mismatched_ops":0,"total_ns":{},"interrupt_share":0.1,
                "segments_ns":{{"interrupt":{intr},"firmware":200,"wire":300,
                  "host_handler":100,"queue_retry":400}},
                "classes":[{{"class":"fetch","count":80,"p50_ns":9,"p95_ns":21,"p99_ns":30}}]}}"#,
            intr + 1000
        ))
    });
    report("critpath", rows.collect())
}

#[test]
fn critpath_gates_attribution_and_interrupts() {
    passes(critpath());
    let r = set(critpath(), 0, "segments_ns.queue_retry", "401");
    fails(r, "segments-sum", "Base");
    let intr = set(critpath(), GENIMA, "segments_ns.interrupt", "5");
    let r = set(intr, GENIMA, "total_ns", "1005");
    fails(r, "interrupt-free", "GeNIMA");
    let quiet = set(critpath(), BASE, "segments_ns.interrupt", "0");
    let r = set(quiet, BASE, "total_ns", "1000");
    fails(r, "base-interrupts", "Base");
    let r = set(critpath(), 1, "column", r#""DW-typo""#);
    fails(r, "six-columns", "DW");
    let r = set(critpath(), 2, "mismatched_ops", "2");
    fails(r, "attribution-exact", "2 op(s)");
    fails(set(critpath(), 2, "classes", ""), "shape", "classes");
}

const EXT: usize = 10;
const CALIB: usize = 11;
const MUTANT: usize = 12;

fn mc() -> Report {
    let row = |litmus: &str, column: &str, tier: &str| {
        j(&format!(
            r#"{{"kind":"litmus","litmus":"{litmus}","column":"{column}","tier":"{tier}",
                "schedules":100,"sleep_pruned":40,"truncated":0,"violations":0,
                "distinct_outcomes":2,"steps_total":5000,"states_per_sec":12000.0,
                "races_precise":7,"races_fallback":0,"exhaustive":true}}"#
        ))
    };
    let mut rows: Vec<Json> = ["mp", "lost-update", "mono", "mp-bar", "barrier-epoch"]
        .iter()
        .flat_map(|l| ["Base", "GeNIMA"].map(|c| row(l, c, "ci")))
        .collect();
    rows.push(row("lock-handoff", "Base", "extended"));
    rows.push(j(
        r#"{"kind":"calibration","litmus":"lock-handoff","column":"Base",
        "dpor_schedules":800000,"dpor_exhaustive":true,"naive_schedules":4000000,
        "naive_capped":true,"prune_ratio":5.0}"#,
    ));
    rows.push(j(
        r#"{"kind":"mutant","name":"reorder-write-notice","litmus":"mp",
        "column":"GeNIMA","caught":true,"replay_ok":true,"schedules_to_violation":180,
        "minimized_steps":32}"#,
    ));
    report("mc", rows)
}

#[test]
fn mc_gates_violations_pruning_and_mutant() {
    passes(mc());
    // Only CI-corpus cells must be exhaustive proofs.
    passes(set(mc(), EXT, "exhaustive", "false"));
    let r = set(mc(), EXT, "violations", "1");
    fails(r, "no-violations", "lock-handoff/Base");
    let r = set(mc(), 0, "truncated", "3");
    fails(r, "no-depth-truncation", "mp/Base");
    let r = set(mc(), 0, "exhaustive", "false");
    fails(r, "ci-exhaustive", "not exhaustive");
    let mut short = mc();
    short.rows.remove(0);
    fails(short, "ci-exhaustive", "only 9");
    fails(set(mc(), CALIB, "prune_ratio", "2.0"), "dpor-prune", "5x");
    let r = set(mc(), CALIB, "dpor_exhaustive", "false");
    fails(r, "dpor-prune", "exhaustive proof");
    let r = set(mc(), CALIB, "kind", r#""calib""#);
    fails(r, "dpor-prune", "`calibration` row");
    let r = set(mc(), MUTANT, "caught", "false");
    fails(r, "mutant-caught", "not caught");
    let r = set(mc(), MUTANT, "schedules_to_violation", "2e4");
    fails(r, "mutant-caught", "10000");
    let r = set(mc(), MUTANT, "replay_ok", "false");
    fails(r, "mutant-replays", "replay");
}

#[test]
fn reports_round_trip_through_json_with_their_gates() {
    let mut r = serving();
    r.meta.set("nodes", Json::u64(4));
    r.check().expect("fixture passes");
    let text = r.dump();
    // One row per line, so a diff of two reports names the rows.
    assert_eq!(text.lines().count(), r.rows.len() + 2);
    let written = j(&text);
    let gates = written.get("gates").and_then(Json::as_arr).expect("gates");
    assert_eq!(gates.len(), r.gates.len());
    assert!(gates
        .iter()
        .all(|g| g.get("pass") == Some(&Json::Bool(true))));
    let mut back = Report::from_json(&written).expect("a report");
    assert!(back.gates.is_empty(), "recorded outcomes are not trusted");
    back.check().expect("re-evaluates clean");
    assert_eq!(back, r);
}

#[test]
fn unknown_bench_kinds_and_layouts_are_refused() {
    let err = report("mystery", vec![])
        .check()
        .expect_err("no gate table");
    assert!(err.contains("unknown bench"), "{err}");
    let old_layout = j(r#"{"bench":"diff","seed":7,"iters":4000,"rows":[]}"#);
    let err = Report::from_json(&old_layout).expect_err("no meta");
    assert!(err.contains("meta"), "{err}");
    fails(report("diff", vec![]), "shape", "no rows");
}
