//! Every bench's gate table: the row shapes its report must have and
//! the claims its numbers must support. Each threshold lives here once;
//! the emitting binary and `xtask obs-schema` both evaluate these
//! tables through [`Report`](crate::report::Report).

use std::collections::{BTreeMap, BTreeSet};

use genima_obs::Json;
use genima_prof::Segment;
use genima_proto::Column;
use genima_sim::Dur;

use crate::report::Gate;

/// serving: merged-p99 bound for GeNIMA on the 1999 NI. An outage
/// window freezes a victim node for 4 ms and the firmware's
/// retransmission backoff (150 µs doubling per attempt) overshoots the
/// window's end by up to ~9.6 ms before the next retry, so ops queued
/// behind a blackout legally see tens of milliseconds. The bound — one
/// power-of-two histogram bucket above that recovery overshoot — says
/// the tail stays on the scale of the injected disturbance instead of
/// collapsing open-loop the way Base does.
const P99_BOUND_GENIMA: Dur = Dur::from_ns(1 << 25); // 33.6 ms

/// serving: merged-p99 bound for GeNIMA-2025. The modern RNIC recovers
/// from the same blackouts at finer timeout granularity, so its tail
/// must stay a bucket tighter.
const P99_BOUND_2025: Dur = Dur::from_ns(1 << 24); // 16.8 ms

/// serving: Base's merged p99 must be at least this many times GeNIMA's.
const TAIL_RATIO: f64 = 2.0;

/// mc: the seeded mutant must be caught in fewer schedules than this
/// (also the hunt's budget).
pub const MUTANT_BUDGET: u64 = 10_000;

/// engine: wheel-over-heap speedup floor at the largest hold population.
const WHEEL_SPEEDUP: f64 = 3.0;
/// engine: steady-state wheel allocations per event, at most.
const WHEEL_ALLOCS: f64 = 0.1;
/// diff: block-scan-over-reference speedup floor on the sparse case.
const SPARSE_SPEEDUP: f64 = 3.0;
/// mc: DPOR-over-naive schedule ratio floor.
const PRUNE_RATIO: f64 = 5.0;
/// mc: CI-corpus rows a report must carry, at least.
const CI_ROWS: usize = 10;
/// barrier: from this many nodes on, the best NI tree beats the host.
const NI_TREE_NODES: u64 = 16;

/// The gate table for bench kind `bench`.
pub fn table(bench: &str) -> Option<&'static [Gate]> {
    TABLES.iter().find(|(b, _)| *b == bench).map(|&(_, t)| t)
}

/// The p99 bound a serving row on `column` is held to, if any.
pub fn p99_bound(column: &str) -> Option<Dur> {
    if column == "GeNIMA-2025" {
        Some(P99_BOUND_2025)
    } else if interrupt_free(column) {
        Some(P99_BOUND_GENIMA)
    } else {
        None
    }
}

const TABLES: &[(&str, &[Gate])] = &[
    ("breakdowns", BREAKDOWNS),
    ("fault_matrix", FAULT_MATRIX),
    ("serving", SERVING),
    ("barrier", BARRIER),
    ("diff", DIFF),
    ("rdma", RDMA),
    ("critpath", CRITPATH),
    ("engine", ENGINE),
    ("mc", MC),
];

const BREAKDOWNS: &[Gate] = &[
    Gate::each("shape", |r| match kind(r) {
        "app" => require(r, "str: app num: sequential_ms"),
        "column" => {
            require(
                r,
                "str: app column num: parallel_ms speedup obj: shares counters",
            )?;
            require(field(r, "counters"), "int: interrupts").map_err(|e| format!("counters: {e}"))
        }
        other => Err(format!("unknown row kind `{other}`")),
    }),
    Gate::rows("six-columns", |rows| {
        for app in rows.iter().filter(|r| kind(r) == "app") {
            let a = s(app, "app");
            let cols = rows
                .iter()
                .filter(|r| kind(r) == "column" && s(r, "app") == a);
            six_columns(cols).map_err(|e| format!("app {a}: {e}"))?;
        }
        Ok(())
    }),
];

const FAULT_MATRIX: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: column num: drop_rate time_ms bool: audit_clean int: retransmits \
             duplicates_suppressed injected_drops injected_dups injected_delays interrupts",
        )?;
        op_latency(r)
    }),
    Gate::each("audit-clean", |r| {
        let (column, drop) = (s(r, "column"), f(r, "drop_rate"));
        ensure(b(r, "audit_clean"), || {
            format!("{column} at drop {drop}: invariant violated")
        })
    }),
    Gate::each("interrupt-free", no_interrupts_on_interrupt_free_columns),
];

const SERVING: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: workload column stream_hash obj: serve_latency \
             num: time_ms mops_offered mops_sustained p50_us p99_us p999_us p99_bound_us \
             int: interrupts failed_ops retransmits mgmt_deliveries outage_drops",
        )?;
        ["read", "write", "walk"].iter().try_for_each(|class| {
            let c = field(field(r, "serve_latency"), class);
            require(c, "int: n num: p50_us p95_us p99_us p999_us")
                .map_err(|e| format!("serve_latency.{class}: {e}"))
        })
    }),
    Gate::each("ops-completed", |r| {
        let classes = ["read", "write", "walk"].iter();
        let done: u64 = classes
            .map(|c| u(field(field(r, "serve_latency"), c), "n"))
            .sum();
        ensure(done > 0, || "no completed serve ops".to_string())
    }),
    Gate::rows("six-columns", |rows| {
        per_workload(rows, |cells| six_columns(cells.iter().copied()))
    }),
    Gate::rows("stream-hash", |rows| {
        per_workload(rows, |cells| {
            let hashes: BTreeSet<&str> = cells.iter().map(|r| s(r, "stream_hash")).collect();
            ensure(hashes.len() == 1, || {
                "op stream differs across columns".to_string()
            })
        })
    }),
    Gate::each("interrupt-free", no_interrupts_on_interrupt_free_columns),
    Gate::each("p99-bound", |r| {
        let (w, c, p99) = (s(r, "workload"), s(r, "column"), f(r, "p99_us"));
        let bound = p99_bound(c).map_or(f64::INFINITY, Dur::as_us);
        ensure(p99 <= bound, || {
            format!("{w}/{c}: p99 {p99:.0}us exceeds the {bound:.0}us bound")
        })
    }),
    Gate::rows("tail-collapse", |rows| {
        per_workload(rows, |cells| {
            let p99 = |c| {
                cells
                    .iter()
                    .find(|r| s(r, "column") == c)
                    .map_or(0.0, |r| f(r, "p99_us"))
            };
            let (base, genima) = (p99("Base"), p99("GeNIMA"));
            ensure(base >= TAIL_RATIO * genima, || {
                format!("Base p99 {base:.0}us is not {TAIL_RATIO}x GeNIMA's {genima:.0}us")
            })
        })
    }),
    Gate::each("repeat-identical", |r| {
        let w = s(r, "workload");
        let ok = s(r, "column") != "GeNIMA" || b(r, "repeat_identical");
        ensure(ok, || format!("{w}/GeNIMA: repeat run not bit-identical"))
    }),
];

const BARRIER: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: mode num: barrier_us time_ms bool: ni_barrier \
             int: nodes fanout barriers manager_msgs interrupts",
        )
    }),
    Gate::each("ni-tree-no-manager-msgs", |r| {
        let (mode, nodes) = (s(r, "mode"), u(r, "nodes"));
        let ok = !b(r, "ni_barrier") || u(r, "manager_msgs") == 0;
        ensure(ok, || format!("{mode} at {nodes} nodes sent manager_msgs"))
    }),
    Gate::each("zero-interrupts", |r| zero(r, "interrupts")),
    Gate::rows("ni-tree-beats-host", |rows| {
        let nodes: BTreeSet<u64> = rows.iter().map(|r| u(r, "nodes")).collect();
        let mut at_scale = nodes.into_iter().filter(|&n| n >= NI_TREE_NODES);
        at_scale.try_for_each(|n| {
            let at = rows.iter().filter(|r| u(r, "nodes") == n);
            let host = at.clone().find(|r| !b(r, "ni_barrier"));
            let best = at
                .filter(|r| b(r, "ni_barrier"))
                .min_by(|x, y| f(x, "barrier_us").total_cmp(&f(y, "barrier_us")));
            let (Some(host), Some(best)) = (host, best) else {
                return Ok(());
            };
            let (h, t) = (f(host, "barrier_us"), f(best, "barrier_us"));
            ensure(t < h, || {
                let mode = s(best, "mode");
                format!("at {n} nodes the best NI tree ({mode}, {t:.2}us) loses to host ({h:.2}us)")
            })
        })
    }),
];

const DIFF: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: case num: ref_ns block_ns tracked_ns speedup_block speedup_tracked \
             int: runs bytes bool: identical",
        )
    }),
    Gate::each("identical", |r| {
        ensure(b(r, "identical"), || {
            format!("{}: output differs from the reference", s(r, "case"))
        })
    }),
    Gate::rows("sparse-speedup", |rows| {
        let sparse = rows
            .iter()
            .find(|r| s(r, "case") == "sparse")
            .ok_or("no `sparse` row")?;
        let x = f(sparse, "speedup_block");
        ensure(x >= SPARSE_SPEEDUP, || {
            format!("sparse block scan {x:.2}x the reference (need >= {SPARSE_SPEEDUP}x)")
        })
    }),
];

const RDMA: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: app column hw num: time_ms speedup speedup_vs_1999 \
             int: interrupts doorbells cqes odp_faults",
        )?;
        op_latency(r)
    }),
    Gate::each("zero-interrupts", |r| zero(r, "interrupts")),
    Gate::each("rnic-active", |r| {
        ensure(
            !rdma(r) || (u(r, "doorbells") > 0 && u(r, "cqes") > 0),
            || {
                format!(
                    "{} on {}: RNIC doorbell/CQE counters flat",
                    s(r, "app"),
                    s(r, "hw")
                )
            },
        )
    }),
    Gate::each("rnic-beats-1999", |r| {
        let x = f(r, "speedup_vs_1999");
        ensure(!rdma(r) || x > 1.0, || {
            format!(
                "{}: 2025 hardware does not beat 1999 (ratio {x:.2})",
                s(r, "app")
            )
        })
    }),
    Gate::each("lanai-no-rnic-counters", |r| {
        if rdma(r) {
            return Ok(());
        }
        ["doorbells", "cqes", "odp_faults"]
            .iter()
            .try_for_each(|k| zero(r, k))
    }),
    Gate::rows("both-profiles", |rows| {
        let rnic = rows.iter().filter(|r| rdma(r)).count();
        let lanai = rows.len() - rnic;
        ensure(rnic > 0 && lanai > 0, || {
            format!("{lanai} LANai and {rnic} RNIC rows")
        })
    }),
];

const CRITPATH: &[Gate] = &[
    Gate::each("shape", |r| {
        require(
            r,
            "str: app column hw num: time_ms speedup interrupt_share \
             int: ops total_ns mismatched_ops obj: segments_ns arr: classes",
        )?;
        let names: Vec<&str> = Segment::ALL.iter().map(|seg| seg.name()).collect();
        require(
            field(r, "segments_ns"),
            &format!("int: {}", names.join(" ")),
        )
        .map_err(|e| format!("segments_ns: {e}"))?;
        let mut classes = field(r, "classes").as_arr().unwrap_or_default().iter();
        classes.try_for_each(|c| require(c, "str: class int: count p50_ns p95_ns p99_ns"))
    }),
    Gate::each("segments-sum", |r| {
        let segs = field(r, "segments_ns");
        let sum: u64 = Segment::ALL.iter().map(|seg| u(segs, seg.name())).sum();
        ensure(sum == u(r, "total_ns"), || {
            format!(
                "{}/{}: segments sum to {sum} ns, not total_ns",
                s(r, "app"),
                s(r, "column")
            )
        })
    }),
    Gate::each("attribution-exact", |r| {
        let n = u(r, "mismatched_ops");
        ensure(n == 0, || {
            format!(
                "{}/{}: {n} op(s) whose attribution != latency",
                s(r, "app"),
                s(r, "column")
            )
        })
    }),
    Gate::each("interrupt-free", |r| {
        let (app, column) = (s(r, "app"), s(r, "column"));
        ensure(!interrupt_free(column) || interrupt_ns(r) == 0, || {
            format!("{app}: interrupt time on a {column} critical path")
        })
    }),
    Gate::each("base-interrupts", |r| {
        ensure(s(r, "column") != "Base" || interrupt_ns(r) > 0, || {
            format!(
                "{}: Base critical path shows zero interrupt time",
                s(r, "app")
            )
        })
    }),
    Gate::rows("six-columns", |rows| six_columns(rows)),
];

const ENGINE: &[Gate] = &[
    Gate::each("shape", |r| match kind(r) {
        "hold" => require(
            r,
            "str: name int: pending \
             num: heap_ns_per_event wheel_ns_per_event speedup wheel_allocs_per_event",
        ),
        "system" => require(
            r,
            "str: name int: events num: events_per_sec allocs_per_event",
        ),
        other => Err(format!("unknown row kind `{other}`")),
    }),
    Gate::rows("wheel-speedup", |rows| {
        let x = f(largest_hold(rows)?, "speedup");
        ensure(x >= WHEEL_SPEEDUP, || {
            format!("wheel {x:.2}x the heap at the largest population (need >= {WHEEL_SPEEDUP}x)")
        })
    }),
    Gate::rows("wheel-allocs", |rows| {
        let x = f(largest_hold(rows)?, "wheel_allocs_per_event");
        ensure(x <= WHEEL_ALLOCS, || {
            format!("{x:.3} wheel allocations per event (need <= {WHEEL_ALLOCS})")
        })
    }),
    Gate::rows("system-rows", |rows| {
        ensure(rows.iter().any(|r| kind(r) == "system"), || {
            "no `system` row".to_string()
        })
    }),
];

const MC: &[Gate] = &[
    Gate::each("shape", |r| match kind(r) {
        "litmus" => require(
            r,
            "str: litmus column tier num: states_per_sec bool: exhaustive int: schedules \
             sleep_pruned truncated violations distinct_outcomes steps_total races_precise \
             races_fallback",
        ),
        "calibration" => require(
            r,
            "str: litmus column int: dpor_schedules naive_schedules \
             bool: dpor_exhaustive naive_capped num: prune_ratio",
        ),
        "mutant" => require(
            r,
            "str: name litmus column bool: caught replay_ok \
             int: schedules_to_violation minimized_steps",
        ),
        other => Err(format!("unknown row kind `{other}`")),
    }),
    Gate::each("no-violations", |r| litmus_zero(r, "violations")),
    Gate::each("no-depth-truncation", |r| litmus_zero(r, "truncated")),
    Gate::rows("ci-exhaustive", |rows| {
        let mut ci = rows
            .iter()
            .filter(|r| kind(r) == "litmus" && s(r, "tier") == "ci");
        let n = ci.clone().count();
        ensure(n >= CI_ROWS, || {
            format!("only {n} CI-corpus rows (need >= {CI_ROWS})")
        })?;
        ci.try_for_each(|r| {
            let (l, c) = (s(r, "litmus"), s(r, "column"));
            ensure(b(r, "exhaustive"), || {
                format!("CI cell {l}/{c} is not exhaustive")
            })
        })
    }),
    Gate::rows("dpor-prune", |rows| {
        let c = one(rows, "calibration")?;
        let x = f(c, "prune_ratio");
        ensure(b(c, "dpor_exhaustive"), || {
            "DPOR side is not an exhaustive proof".to_string()
        })?;
        ensure(x >= PRUNE_RATIO, || {
            format!("prune ratio {x:.1}x below {PRUNE_RATIO}x")
        })
    }),
    Gate::rows("mutant-caught", |rows| {
        let m = one(rows, "mutant")?;
        let n = u(m, "schedules_to_violation");
        ensure(b(m, "caught"), || "seeded bug not caught".to_string())?;
        ensure(n < MUTANT_BUDGET, || {
            format!("caught after {n} schedules (need < {MUTANT_BUDGET})")
        })
    }),
    Gate::rows("mutant-replays", |rows| {
        let replayed = b(one(rows, "mutant")?, "replay_ok");
        ensure(replayed, || "counterexample did not replay".to_string())
    }),
];

/// Checks `v` carries every field `spec` names. The spec is groups of
/// `type: name...` with types `str num int bool obj arr`, e.g.
/// `"str: app column num: time_ms"`.
fn require(v: &Json, spec: &str) -> Result<(), String> {
    let mut ty = "";
    for word in spec.split_whitespace() {
        if let Some(t) = word.strip_suffix(':') {
            ty = t;
            continue;
        }
        let field = v.get(word);
        let ok = match ty {
            "str" => field.and_then(Json::as_str).is_some(),
            "num" => field.and_then(Json::as_f64).is_some(),
            "int" => field.and_then(Json::as_u64).is_some(),
            "bool" => field.and_then(Json::as_bool).is_some(),
            "obj" => field.and_then(Json::as_obj).is_some(),
            "arr" => field.and_then(Json::as_arr).is_some(),
            other => panic!("field spec `{spec}`: unknown type `{other}`"),
        };
        ensure(ok, || format!("missing {ty} `{word}`"))?;
    }
    Ok(())
}

/// The per-op-kind tail latencies every trajectory row carries.
fn op_latency(r: &Json) -> Result<(), String> {
    let ol = r.get("op_latency").ok_or("missing `op_latency`")?;
    ["fetch", "lock", "barrier"].iter().try_for_each(|class| {
        require(field(ol, class), "int: n num: p50_us p95_us p99_us")
            .map_err(|e| format!("op_latency.{class}: {e}"))
    })
}

/// `key` is zero on a litmus row.
fn litmus_zero(r: &Json, key: &str) -> Result<(), String> {
    if kind(r) != "litmus" {
        return Ok(());
    }
    zero(r, key).map_err(|e| format!("{}/{}: {e}", s(r, "litmus"), s(r, "column")))
}

/// The single row of kind `k`.
fn one<'a>(rows: &'a [Json], k: &str) -> Result<&'a Json, String> {
    match rows.iter().filter(|r| kind(r) == k).collect::<Vec<_>>()[..] {
        [r] => Ok(r),
        ref found => Err(format!("need exactly one `{k}` row, found {}", found.len())),
    }
}

/// Runs `check` on each serving workload's rows, naming the workload
/// on failure.
fn per_workload(
    rows: &[Json],
    check: impl Fn(&[&Json]) -> Result<(), String>,
) -> Result<(), String> {
    let mut workloads: BTreeMap<&str, Vec<&Json>> = BTreeMap::new();
    for r in rows {
        workloads.entry(s(r, "workload")).or_default().push(r);
    }
    workloads
        .into_iter()
        .try_for_each(|(w, cells)| check(&cells).map_err(|e| format!("`{w}`: {e}")))
}

/// All six evaluation columns appear among `rows`' `column` fields.
fn six_columns<'a>(rows: impl IntoIterator<Item = &'a Json>) -> Result<(), String> {
    let seen: BTreeSet<&str> = rows.into_iter().map(|r| s(r, "column")).collect();
    let all = Column::all();
    let missing: Vec<&str> = all
        .iter()
        .map(|c| c.name())
        .filter(|c| !seen.contains(c))
        .collect();
    ensure(missing.is_empty(), || {
        format!("missing column(s) {}", missing.join(", "))
    })
}

/// The hold row with the largest pending population.
fn largest_hold(rows: &[Json]) -> Result<&Json, String> {
    let holds = rows.iter().filter(|r| kind(r) == "hold");
    holds
        .max_by_key(|r| u(r, "pending"))
        .ok_or_else(|| "no `hold` row".to_string())
}

fn no_interrupts_on_interrupt_free_columns(r: &Json) -> Result<(), String> {
    let column = s(r, "column");
    if !interrupt_free(column) {
        return Ok(());
    }
    zero(r, "interrupts").map_err(|e| format!("{column}: {e}"))
}

fn zero(r: &Json, key: &str) -> Result<(), String> {
    ensure(u(r, key) == 0, || {
        format!("{} {key} (must be 0)", u(r, key))
    })
}

fn ensure(ok: bool, err: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(err())
    }
}

fn interrupt_free(column: &str) -> bool {
    Column::by_name(column).is_some_and(|c| c.features.interrupt_free())
}

fn rdma(r: &Json) -> bool {
    Column::by_name(s(r, "column")).is_some_and(|c| c.hw.is_rdma())
}

fn interrupt_ns(r: &Json) -> u64 {
    u(field(r, "segments_ns"), "interrupt")
}

// Field readers. A missing or mistyped field reads as empty/zero; the
// `shape` gate of every table reports it.
fn field<'a>(r: &'a Json, key: &str) -> &'a Json {
    static NULL: Json = Json::Null;
    r.get(key).unwrap_or(&NULL)
}
fn kind(r: &Json) -> &str {
    s(r, "kind")
}
fn s<'a>(r: &'a Json, key: &str) -> &'a str {
    r.get(key).and_then(Json::as_str).unwrap_or_default()
}
fn u(r: &Json, key: &str) -> u64 {
    r.get(key).and_then(Json::as_u64).unwrap_or_default()
}
fn f(r: &Json, key: &str) -> f64 {
    r.get(key).and_then(Json::as_f64).unwrap_or_default()
}
fn b(r: &Json, key: &str) -> bool {
    r.get(key).and_then(Json::as_bool).unwrap_or_default()
}
