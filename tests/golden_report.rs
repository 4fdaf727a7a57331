//! Golden determinism pin: one full `RunReport` per policy, serialized
//! byte-for-byte and compared against a checked-in snapshot.
//!
//! This is the behavior bar for hot-path work: an optimization PR must not
//! move a single simulated event, so the report it produces — served/missed
//! counts, per-class outcomes, MPL, utilizations, timings, windows, PMM
//! trace — must match the snapshot captured *before* the refactor, bit for
//! bit. (`RunReport::events` is deliberately excluded: it is a perf counter,
//! and optimizations may legitimately dispatch fewer dead events.)
//!
//! A second pin covers the multi-tenant accounting path: every
//! `TenantOutcome` field of a shortened `scale` run under the scale
//! figure's three policy arms.
//!
//! To re-bless after an *intentional* behavior change:
//! `UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test golden_report`

use pmm_core::prelude::*;
use pmm_core::rtdbs::RunReport;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned configuration: a Figure 3-style baseline cell, shortened so
/// the test stays fast but long enough to cross several feedback batches,
/// windows, and (under PMM) at least one strategy decision.
fn golden_cfg() -> SimConfig {
    let mut cfg = SimConfig::baseline(0.06);
    cfg.duration_secs = 2_500.0;
    cfg.window_secs = 500.0;
    cfg.seed = 1994;
    cfg
}

/// Deterministic, exact serialization of every behavior field. Floats use
/// `{:?}` (shortest round-trip), so any bit-level difference shows.
fn serialize(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", report.policy);
    let _ = writeln!(out, "served: {}", report.served);
    let _ = writeln!(out, "missed: {}", report.missed);
    for c in &report.classes {
        let _ = writeln!(
            out,
            "class {}: served={} missed={}",
            c.name, c.served, c.missed
        );
    }
    let _ = writeln!(out, "avg_mpl: {:?}", report.avg_mpl);
    let _ = writeln!(out, "cpu_util: {:?}", report.cpu_util);
    let _ = writeln!(out, "disk_util: {:?}", report.disk_util);
    let _ = writeln!(out, "waiting: {:?}", report.timings.waiting);
    let _ = writeln!(out, "execution: {:?}", report.timings.execution);
    let _ = writeln!(out, "response: {:?}", report.timings.response);
    let _ = writeln!(out, "avg_fluctuations: {:?}", report.avg_fluctuations);
    for w in &report.windows {
        let _ = writeln!(
            out,
            "window t={:?}: served={} missed={}",
            w.t_secs, w.served, w.missed
        );
    }
    for p in &report.trace {
        let _ = writeln!(
            out,
            "trace t={:?}: mode={} target_mpl={:?}",
            p.at.as_secs_f64(),
            p.mode,
            p.target_mpl
        );
    }
    let _ = writeln!(out, "miss_ci_half_width: {:?}", report.miss_ci_half_width);
    let _ = writeln!(out, "sim_secs: {:?}", report.sim_secs);
    out
}

/// Every `TenantOutcome` field plus the run's MPL, floats as `{:?}`.
fn serialize_tenants(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", report.policy);
    let _ = writeln!(out, "avg_mpl: {:?}", report.avg_mpl);
    for t in &report.tenants {
        let _ = writeln!(
            out,
            "tenant {}: quota={} soft={} served={} missed={} avg_mpl={:?} \
             quota_utilization={:?} borrowed_pages={:?}",
            t.name,
            t.quota_pages,
            t.soft,
            t.served,
            t.missed,
            t.avg_mpl,
            t.quota_utilization,
            t.borrowed_pages
        );
    }
    out
}

/// Compare `actual` against the snapshot `golden/<file>`, or rewrite the
/// snapshot when `UPDATE_GOLDEN` is set.
fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden snapshot");
        eprintln!("golden snapshot updated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "RunReport deviates from the golden snapshot — the simulation moved \
         an event. If the change is intentional, re-bless with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn run_report_matches_golden_snapshot() {
    let mut actual = String::new();
    for policy in ["Max", "MinMax", "PMM"] {
        let boxed: Box<dyn MemoryPolicy> = match policy {
            "Max" => Box::new(MaxPolicy),
            "MinMax" => Box::new(MinMaxPolicy::unlimited()),
            _ => Box::new(Pmm::with_defaults()),
        };
        let report = run_simulation(golden_cfg(), boxed);
        let _ = writeln!(actual, "==== {policy} ====");
        actual.push_str(&serialize(&report));
    }
    check_golden("runreport_fig3.txt", &actual);
}

/// A 48-tenant `scale` cell at its preset's 1 200 s: long enough for
/// tenants to gain, lose and regain memory many times over.
fn tenant_cfg() -> SimConfig {
    let mut cfg = SimConfig::scale(48);
    cfg.duration_secs = 1_200.0;
    cfg.seed = 1994;
    cfg
}

#[test]
fn tenant_outcomes_match_golden_snapshot() {
    let mut actual = String::new();
    let cfg = tenant_cfg();
    let partitions: Vec<PartitionSpec> = cfg
        .tenants
        .iter()
        .map(|t| PartitionSpec {
            quota: t.quota_pages,
            soft: t.soft,
        })
        .collect();
    let soft = || PartitionedPolicy::new(partitions.clone()).soften();
    let arms: [(&str, Box<dyn MemoryPolicy>); 3] = [
        ("Partitioned-soft", Box::new(soft())),
        (
            "snapshot/Partitioned-soft",
            Box::new(SnapshotOnly::new(Box::new(soft()))),
        ),
        ("PMM-tenant", Box::new(TenantPmm::new(partitions.clone()))),
    ];
    for (label, policy) in arms {
        let report = run_simulation(cfg.clone(), policy);
        assert_eq!(report.tenants.len(), 48);
        let _ = writeln!(actual, "==== {label} ====");
        actual.push_str(&serialize_tenants(&report));
    }
    check_golden("runreport_tenants.txt", &actual);
}
