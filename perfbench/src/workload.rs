//! The three benchmark workloads, how one replication of each is built, and
//! the digest that pins its simulated statistics.

use pmm::{MemoryPolicy, PartitionSpec, Pmm, TenantPmm};
use rtdbs::{RunReport, SimConfig};
use std::fmt::Write as _;

/// One named workload: a `SimConfig` preset, a horizon, and the policy the
/// paper (or the tenancy extension) runs on it.
pub struct Workload {
    pub name: &'static str,
    /// Simulated seconds per replication. Shorter than the presets' own
    /// horizons so one run holds many replications and reports their
    /// median; long enough that every layer the workload is chosen for runs.
    pub horizon_secs: f64,
    preset: fn() -> SimConfig,
    /// `PMM-tenant` (one PMM controller per partition) instead of `PMM`.
    per_tenant: bool,
}

fn baseline_join() -> SimConfig {
    SimConfig::baseline(0.07)
}

fn scale_1000() -> SimConfig {
    SimConfig::scale(1000)
}

pub const WORKLOADS: [Workload; 3] = [
    // The knee of Fig 3: the per-I/O path (operators, disks, calendar)
    // dominates and PMM is a rounding error.
    Workload {
        name: "baseline-join",
        horizon_secs: 7_200.0,
        preset: baseline_join,
        per_tenant: false,
    },
    // Fig 12: the 2.5 h Medium phase, then 50 min of the Small phase, so
    // the per-query path and PMM's re-learning after the change both run.
    Workload {
        name: "workload-shift",
        horizon_secs: 12_000.0,
        preset: SimConfig::workload_changes,
        per_tenant: false,
    },
    // 10^3 tenants: a deep calendar and partitioned reallocation per
    // arrival and departure; sorts instead of joins. At 0.02 queries/s per
    // tenant, half an hour closes one per-tenant feedback batch for most
    // tenants, so PMM-tenant's per-tenant learning runs.
    Workload {
        name: "tenants-1000",
        horizon_secs: 1_800.0,
        preset: scale_1000,
        per_tenant: true,
    },
];

/// Replication seeds are `1..=POOL`; every untraced run replicates each of
/// them at least once, so every run measures the same input mix.
pub const POOL: u64 = 4;

/// `SimConfig::seed` of replication `i` of a run started with
/// `--seed run_seed`: the run walks the pool from its own offset. The pool
/// is fixed so that every replication's digest can be recorded beside the
/// benchmark.
pub fn replication_seed(run_seed: u64, i: u64) -> u64 {
    1 + (run_seed % POOL + i) % POOL
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn config(&self, seed: u64) -> SimConfig {
        let mut cfg = (self.preset)();
        cfg.duration_secs = self.horizon_secs;
        cfg.seed = seed;
        cfg
    }

    pub fn policy(&self, cfg: &SimConfig) -> Box<dyn MemoryPolicy> {
        if self.per_tenant {
            let parts = cfg
                .tenants
                .iter()
                .map(|t| PartitionSpec {
                    quota: t.quota_pages,
                    soft: t.soft,
                })
                .collect();
            Box::new(TenantPmm::new(parts))
        } else {
            Box::new(Pmm::with_defaults())
        }
    }
}

/// FNV-1a over every simulated statistic of the report. Excludes `events`
/// (a perf counter a speed-only change may legitimately move) and the
/// observability outputs.
pub fn digest(r: &RunReport) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.policy,
        r.served,
        r.missed,
        r.avg_mpl,
        r.cpu_util,
        r.disk_util,
        r.timings.waiting,
        r.timings.execution,
        r.timings.response,
        r.avg_fluctuations,
        r.miss_ci_half_width,
        r.sim_secs,
        r.trace,
    );
    for c in &r.classes {
        let _ = write!(s, "|c {} {} {}", c.name, c.served, c.missed);
    }
    for t in &r.tenants {
        let _ = write!(
            s,
            "|t {} {} {} {} {} {:?} {:?} {:?}",
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
    for w in &r.windows {
        let _ = write!(s, "|w {:?} {} {}", w.t_secs, w.served, w.missed);
    }
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded digests, one `workload<TAB>seed<TAB>digest` line each, written
/// by `--record`.
const DIGESTS: &str = include_str!("../digests.tsv");

pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split('\t');
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// The output checks every replication must pass.
pub fn check_conservation(r: &RunReport) -> Result<(), String> {
    let classes: u64 = r.classes.iter().map(|c| c.served).sum();
    let windows: u64 = r.windows.iter().map(|w| w.served).sum();
    if r.served == 0 {
        return Err("no query served".into());
    }
    if classes != r.served || windows != r.served {
        return Err(format!(
            "served {} but classes sum to {classes} and windows to {windows}",
            r.served
        ));
    }
    if !r.tenants.is_empty() {
        let tenants: u64 = r.tenants.iter().map(|t| t.served).sum();
        if tenants != r.served {
            return Err(format!("served {} but tenants sum to {tenants}", r.served));
        }
    }
    if r.missed > r.served {
        return Err(format!("missed {} > served {}", r.missed, r.served));
    }
    Ok(())
}

/// The report with its observability outputs cleared, rendered field for
/// field (`Debug` prints every float round-trip exact).
pub fn simulated_fields(r: &RunReport) -> String {
    let mut r = r.clone();
    r.obs_trace.clear();
    r.metrics = None;
    r.profile = None;
    format!("{r:?}")
}
