//! Sums what the program already reports (`RunReport`, `FaultStats`)
//! over the runs of one pass, and the checks every report must pass.

use genima_fault::FaultStats;
use genima_nic::{Monitor, SizeClass, Stage};
use genima_proto::{Breakdown, Column, Counters, NiStats, OpLatency, RecoveryStats, RunReport};

use crate::metrics::Values;

/// Running sums over the completed runs of one pass.
#[derive(Default)]
pub struct ReportAcc {
    counters: Counters,
    monitor: Monitor,
    recovery: RecoveryStats,
    ni: NiStats,
    waits: OpLatency,
    faults: FaultStats,
    base: Breakdown,
    genima: Breakdown,
    /// Simulated events over the completed runs.
    pub events: u64,
    /// FNV-1a over every report's JSON: two passes simulated the same
    /// thing exactly when their fingerprints agree.
    pub fingerprint: Fnv,
}

impl ReportAcc {
    /// Adds one completed run.
    pub fn add(&mut self, column: Column, report: &RunReport, faults: &FaultStats) {
        let c = &report.counters;
        let s = &mut self.counters;
        s.faults += c.faults;
        s.page_transfers += c.page_transfers;
        s.fetch_retries += c.fetch_retries;
        s.interrupts += c.interrupts;
        s.diffs += c.diffs;
        s.diff_run_messages += c.diff_run_messages;
        s.notice_messages += c.notice_messages;
        s.remote_lock_acquires += c.remote_lock_acquires;
        s.lock_spin_retries += c.lock_spin_retries;
        s.barriers += c.barriers;
        s.barrier_manager_msgs += c.barrier_manager_msgs;
        s.mprotect_calls += c.mprotect_calls;
        s.invalidations += c.invalidations;
        s.failed_ops += c.failed_ops;
        s.degraded_heals += c.degraded_heals;
        self.monitor.merge(&report.monitor);
        let r = &report.recovery;
        self.recovery.retransmits += r.retransmits;
        self.recovery.duplicates_suppressed += r.duplicates_suppressed;
        self.recovery.unreachable += r.unreachable;
        self.recovery.mgmt_deliveries += r.mgmt_deliveries;
        self.ni.doorbells += report.ni.doorbells;
        self.ni.cqes += report.ni.cqes;
        self.ni.odp_faults += report.ni.odp_faults;
        self.waits.fetch.merge(&report.op_latency.fetch);
        self.waits.lock.merge(&report.op_latency.lock);
        self.waits.barrier.merge(&report.op_latency.barrier);
        self.faults.packets += faults.packets;
        self.faults.dropped += faults.dropped;
        self.faults.outage_drops += faults.outage_drops;
        match column.name() {
            "Base" => self.base.merge(&report.mean_breakdown()),
            "GeNIMA" => self.genima.merge(&report.mean_breakdown()),
            _ => {}
        }
        self.events += report.events;
        self.fingerprint.add(report.to_json().as_bytes());
    }

    /// Writes the per-layer counts.
    pub fn counts(&self, out: &mut Values) {
        let c = &self.counters;
        let mut set = |k: &str, v: f64| {
            out.insert(k.to_string(), v);
        };
        set("sim.events", self.events as f64);
        set("proto.faults", c.faults as f64);
        set("proto.page_transfers", c.page_transfers as f64);
        set("proto.fetch_retries", c.fetch_retries as f64);
        set("proto.interrupts", c.interrupts as f64);
        set("proto.notice_messages", c.notice_messages as f64);
        set("proto.remote_lock_acquires", c.remote_lock_acquires as f64);
        set("proto.lock_spin_retries", c.lock_spin_retries as f64);
        set("proto.invalidations", c.invalidations as f64);
        set("proto.failed_ops", c.failed_ops as f64);
        set("proto.degraded_heals", c.degraded_heals as f64);
        for (col, b) in [("Base", &self.base), ("GeNIMA", &self.genima)] {
            let total = b.total().as_ns().max(1) as f64;
            for (cat, d) in [
                ("compute", b.compute),
                ("data", b.data),
                ("lock", b.lock),
                ("acqrel", b.acqrel),
                ("barrier", b.barrier),
            ] {
                set(
                    &format!("proto.share.{cat}.{col}"),
                    d.as_ns() as f64 / total,
                );
            }
        }
        set("proto.fetch_wait_p99_us", self.waits.fetch.p99().as_us());
        set("proto.lock_wait_p99_us", self.waits.lock.p99().as_us());
        set(
            "proto.barrier_wait_p99_us",
            self.waits.barrier.p99().as_us(),
        );
        set("mem.diffs", c.diffs as f64);
        set("mem.diff_run_messages", c.diff_run_messages as f64);
        set("mem.mprotect_calls", c.mprotect_calls as f64);
        let m = &self.monitor;
        set("nic.packets.small", m.packets(SizeClass::Small) as f64);
        set("nic.packets.large", m.packets(SizeClass::Large) as f64);
        set("nic.bytes", m.total_bytes() as f64);
        for (stage, sname) in [
            (Stage::Source, "nic.contention.source"),
            (Stage::Lanai, "nic.contention.lanai"),
            (Stage::Dest, "nic.contention.dest"),
            (Stage::Net, "net.contention"),
        ] {
            for (class, cname) in [(SizeClass::Small, "small"), (SizeClass::Large, "large")] {
                let st = m.stats(stage, class);
                let ratio = if st.actual.count() == 0 {
                    0.0
                } else {
                    st.ratio()
                };
                set(&format!("{sname}.{cname}"), ratio);
            }
        }
        set("rnic.doorbells", self.ni.doorbells as f64);
        set("rnic.cqes", self.ni.cqes as f64);
        set("rnic.odp_faults", self.ni.odp_faults as f64);
        let r = &self.recovery;
        set("nic.retransmits", r.retransmits as f64);
        set("nic.duplicates_suppressed", r.duplicates_suppressed as f64);
        set("nic.unreachable", r.unreachable as f64);
        set("nic.mgmt_deliveries", r.mgmt_deliveries as f64);
        set("fault.packets", self.faults.packets as f64);
        set("fault.dropped", self.faults.dropped as f64);
        set("fault.outage_drops", self.faults.outage_drops as f64);
        set("coll.barriers", c.barriers as f64);
        set("coll.barrier_manager_msgs", c.barrier_manager_msgs as f64);
    }
}

/// The checks every report must pass: `RunReport::validate`, and zero
/// host interrupts and zero barrier-manager messages on an
/// interrupt-free column.
pub fn check_report(what: &str, column: Column, report: &RunReport) -> Result<(), String> {
    report
        .validate(&column.features)
        .map_err(|e| format!("{what}: {e}"))?;
    if column.features.interrupt_free()
        && (report.counters.interrupts != 0 || report.counters.barrier_manager_msgs != 0)
    {
        return Err(format!(
            "{what}: interrupt-free column shows {} interrupts and {} barrier-manager messages",
            report.counters.interrupts, report.counters.barrier_manager_msgs
        ));
    }
    Ok(())
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in, followed by a separator.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Median of `v` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}
