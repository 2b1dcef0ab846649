//! Metric names and units, the check that `BENCHMARK.json` declares
//! exactly these, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use genima_obs::Json;

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "ev/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-workload results. They are printed by name with tracing off and
/// reported among the per-layer metrics of the traced run (0 on a
/// workload where the result does not apply).
pub const RESULTS: &[(&str, &str)] = &[
    ("ops_failed_frac", "ratio"),
    ("sim_speedup_geomean.Base", "x"),
    ("sim_speedup_geomean.GeNIMA", "x"),
    ("sim_speedup_geomean.GeNIMA-2025", "x"),
    ("sim_genima_gain_pct", "%"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_within_limit_frac", "ratio"),
    ("schedules_per_s", "1/s"),
    ("sim_unexplained_frac", "ratio"),
];

/// Per-layer metrics of the traced run.
pub const LAYERS: &[(&str, &str)] = &[
    ("apps.next_op_s", "s"),
    ("apps.ops", "count"),
    ("serve.next_op_s", "s"),
    ("serve.sustained_mops", "Mops"),
    ("proto.new_s", "s"),
    ("proto.run_s", "s"),
    ("proto.run.self_ns_per_event", "ns/event"),
    ("proto.run.allocs_per_event", "allocs/event"),
    ("proto.faults", "count"),
    ("proto.page_transfers", "count"),
    ("proto.fetch_retries", "count"),
    ("proto.interrupts", "count"),
    ("proto.notice_messages", "count"),
    ("proto.remote_lock_acquires", "count"),
    ("proto.lock_spin_retries", "count"),
    ("proto.invalidations", "count"),
    ("proto.failed_ops", "count"),
    ("proto.degraded_heals", "count"),
    ("proto.share.compute.Base", "ratio"),
    ("proto.share.data.Base", "ratio"),
    ("proto.share.lock.Base", "ratio"),
    ("proto.share.acqrel.Base", "ratio"),
    ("proto.share.barrier.Base", "ratio"),
    ("proto.share.compute.GeNIMA", "ratio"),
    ("proto.share.data.GeNIMA", "ratio"),
    ("proto.share.lock.GeNIMA", "ratio"),
    ("proto.share.acqrel.GeNIMA", "ratio"),
    ("proto.share.barrier.GeNIMA", "ratio"),
    ("proto.fetch_wait_p99_us", "us"),
    ("proto.lock_wait_p99_us", "us"),
    ("proto.barrier_wait_p99_us", "us"),
    ("sim.events", "count"),
    ("mem.diffs", "count"),
    ("mem.diff_run_messages", "count"),
    ("mem.mprotect_calls", "count"),
    ("nic.packets.small", "count"),
    ("nic.packets.large", "count"),
    ("nic.bytes", "B"),
    ("nic.contention.source.small", "x"),
    ("nic.contention.source.large", "x"),
    ("nic.contention.lanai.small", "x"),
    ("nic.contention.lanai.large", "x"),
    ("nic.contention.dest.small", "x"),
    ("nic.contention.dest.large", "x"),
    ("net.contention.small", "x"),
    ("net.contention.large", "x"),
    ("rnic.doorbells", "count"),
    ("rnic.cqes", "count"),
    ("rnic.odp_faults", "count"),
    ("nic.retransmits", "count"),
    ("nic.duplicates_suppressed", "count"),
    ("nic.unreachable", "count"),
    ("nic.mgmt_deliveries", "count"),
    ("fault.packets", "count"),
    ("fault.dropped", "count"),
    ("fault.outage_drops", "count"),
    ("fault.decide_s", "s"),
    ("coll.barriers", "count"),
    ("coll.barrier_manager_msgs", "count"),
    ("hwdsm.run_s", "s"),
    ("mc.explore_s", "s"),
    ("mc.schedules", "count"),
    ("mc.steps", "count"),
    ("mc.us_per_step", "us"),
    ("mc.races_precise", "count"),
    ("mc.sleep_blocked_frac", "ratio"),
    ("obs.spans", "count"),
    ("obs.dropped", "count"),
    ("obs.timeline_s", "s"),
    ("obs.timeline_mb", "MB"),
    ("obs.run_overhead_ratio", "ratio"),
    ("prof.profile_s", "s"),
    ("prof.ops", "count"),
    ("prof.share.interrupt", "ratio"),
    ("prof.share.firmware", "ratio"),
    ("prof.share.wire", "ratio"),
    ("prof.share.host_handler", "ratio"),
    ("prof.share.queue_retry", "ratio"),
    ("check.audit_s", "s"),
    ("check.findings", "count"),
    ("bench.uncovered_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

fn declared(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    arr.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json {key} entry lacks name or unit")),
            }
        })
        .collect()
}

fn owned(list: &[&[(&str, &str)]]) -> Vec<(String, String)> {
    list.iter()
        .flat_map(|l| l.iter())
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Checks that `BENCHMARK.json` declares exactly the metrics this
/// program reports, with the same units, in the same order.
pub fn check_declared(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if declared(&doc, "end_to_end")? != owned(&[END_TO_END]) {
        return Err(format!(
            "{path}: end_to_end differs from the metrics reported"
        ));
    }
    if declared(&doc, "per_layer")? != owned(&[RESULTS, LAYERS]) {
        return Err(format!(
            "{path}: per_layer differs from the metrics reported"
        ));
    }
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of `table`, in order, with its unit. A metric missing from `values`
/// is reported as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[&[(&str, &str)]],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for (name, unit) in table.iter().flat_map(|l| l.iter()) {
        let v = values.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The unit of a metric in any table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(RESULTS)
        .chain(LAYERS)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
