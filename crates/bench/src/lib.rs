//! `bench` — the experiment harness: one reproducible experiment per table
//! and figure of the paper's Section 5.
//!
//! [`driver`] holds the figure registry: every figure is one
//! [`driver::FigureSpec`] whose typed [`driver::CellSpec`]s name a
//! [`Policy`] plus an optional device, degradation mode and snapshot arm.
//! The driver runs a figure's cells over independently seeded replications
//! and merges them; [`report`] renders a merged figure in the paper's
//! table layout, and the `figures` Criterion bench times a short slice of
//! one cell per figure.
//!
//! Scaling note: wall-clock cost grows with simulated duration, so every
//! run takes a horizon. Passing `PAPER_SECS` (10 simulated hours, the
//! paper's setting) reproduces the published measurement protocol; the
//! CI-friendly default in the binary is one simulated hour.

use pmm_core::pmm::adaptive::REGIME_WINDOW_BATCHES;
use pmm_core::prelude::*;

pub mod driver;
pub mod report;

/// The paper's run length: 10 simulated hours.
pub const PAPER_SECS: f64 = 36_000.0;

/// A memory-allocation policy of the experiments, as data. [`make_policy`]
/// builds it; [`Policy::label`] renders the name the figure JSON carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Max: every admitted query gets its maximum demand.
    Max,
    /// MinMax-N (`None` = MinMax-∞).
    MinMax {
        /// MPL limit N.
        limit: Option<u32>,
    },
    /// Proportional-N (`None` = unlimited).
    Proportional {
        /// MPL limit N.
        limit: Option<u32>,
    },
    /// PMM, optionally regime-aware (v2), with an optional `UtilLow`
    /// override of the Table 1 default.
    Pmm {
        /// Segment learned batches at detected regime switches.
        regime: bool,
        /// Lower edge of the desirable utilization range.
        util_low: Option<f64>,
    },
    /// MinMax per tenant partition, with the config's quotas; `soft` lets
    /// every partition borrow idle pages.
    Partitioned {
        /// Soften every quota.
        soft: bool,
    },
    /// One PMM controller per tenant partition (PMM v2).
    PmmTenant {
        /// Regime-aware controllers.
        regime: bool,
    },
    /// [`PanicPolicy`], for the `crashtest` figure.
    Panic,
}

impl Policy {
    /// MinMax-∞.
    pub const MINMAX: Policy = Policy::MinMax { limit: None };
    /// Unlimited Proportional.
    pub const PROPORTIONAL: Policy = Policy::Proportional { limit: None };
    /// PMM with the Table 1 defaults.
    pub const PMM: Policy = Policy::Pmm {
        regime: false,
        util_low: None,
    };
    /// Regime-aware PMM.
    pub const PMM_REGIME: Policy = Policy::Pmm {
        regime: true,
        util_low: None,
    };
    /// Per-tenant PMM.
    pub const PMM_TENANT: Policy = Policy::PmmTenant { regime: false };

    /// The policy's cell name: `"MinMax-2"`, `"PMM-regime"`,
    /// `"Partitioned-soft"`, ... A `util_low` override is not part of the
    /// name: the `util_low` figure sweeps it as its x axis.
    pub fn label(&self) -> String {
        let limited = |name: &str, limit: Option<u32>| match limit {
            Some(n) => format!("{name}-{n}"),
            None => name.to_string(),
        };
        match *self {
            Policy::Max => "Max".into(),
            Policy::MinMax { limit } => limited("MinMax", limit),
            Policy::Proportional { limit } => limited("Proportional", limit),
            Policy::Pmm { regime: false, .. } => "PMM".into(),
            Policy::Pmm { regime: true, .. } => "PMM-regime".into(),
            Policy::Partitioned { soft: false } => "Partitioned".into(),
            Policy::Partitioned { soft: true } => "Partitioned-soft".into(),
            Policy::PmmTenant { regime: false } => "PMM-tenant".into(),
            Policy::PmmTenant { regime: true } => "PMM-tenant-regime".into(),
            Policy::Panic => "panic".into(),
        }
    }
}

/// Build `policy` for a run of `cfg`. The tenant-aware policies take their
/// partitions from `cfg.tenants`: `Partitioned { soft: false }` enforces
/// the quotas as declared, `soft: true` lets every partition borrow.
///
/// # Panics
/// Panics on a tenant-aware policy against a config with no tenants.
pub fn make_policy(policy: Policy, cfg: &SimConfig) -> Box<dyn MemoryPolicy> {
    let partitions = || -> Vec<PartitionSpec> {
        assert!(
            !cfg.tenants.is_empty(),
            "policy {} needs tenants in the SimConfig",
            policy.label()
        );
        cfg.tenants
            .iter()
            .map(|t| PartitionSpec {
                quota: t.quota_pages,
                soft: t.soft,
            })
            .collect()
    };
    match policy {
        Policy::Max => Box::new(MaxPolicy),
        Policy::MinMax { limit: None } => Box::new(MinMaxPolicy::unlimited()),
        Policy::MinMax { limit: Some(n) } => Box::new(MinMaxPolicy::with_limit(n)),
        Policy::Proportional { limit: None } => Box::new(ProportionalPolicy::unlimited()),
        Policy::Proportional { limit: Some(n) } => {
            Box::new(ProportionalPolicy::with_limit(n))
        }
        Policy::Pmm { regime, util_low } => {
            let defaults = PmmParams::default();
            let params = PmmParams {
                util_low: util_low.unwrap_or(defaults.util_low),
                ..defaults
            };
            Box::new(if regime {
                Pmm::with_regime(params, REGIME_WINDOW_BATCHES)
            } else {
                Pmm::new(params)
            })
        }
        Policy::Partitioned { soft: false } => {
            Box::new(PartitionedPolicy::new(partitions()))
        }
        Policy::Partitioned { soft: true } => {
            Box::new(PartitionedPolicy::new(partitions()).soften())
        }
        Policy::PmmTenant { regime: false } => Box::new(TenantPmm::new(partitions())),
        Policy::PmmTenant { regime: true } => {
            Box::new(TenantPmm::new(partitions()).regime_aware())
        }
        Policy::Panic => Box::new(PanicPolicy),
    }
}

/// A deliberately crashing policy: its first allocation panics. Exists only
/// for the hidden `crashtest` figure, which proves the driver quarantines a
/// panicking replication instead of losing the whole sweep.
pub struct PanicPolicy;

impl MemoryPolicy for PanicPolicy {
    fn name(&self) -> String {
        "panic".into()
    }

    fn allocate_into(
        &mut self,
        _snapshot: &pmm_core::pmm::SystemSnapshot,
        _scratch: &mut pmm_core::pmm::AllocScratch,
        _out: &mut pmm_core::pmm::Grants,
    ) {
        panic!("deliberate crashtest panic");
    }

    fn mode(&self) -> StrategyMode {
        StrategyMode::MinMax
    }

    fn trace(&self) -> &[pmm_core::pmm::TracePoint] {
        &[]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_policy_builds_named_policies() {
        let cfg = SimConfig::baseline(0.05);
        for (policy, name) in [
            (Policy::Max, "Max"),
            (Policy::MINMAX, "MinMax"),
            (Policy::MinMax { limit: Some(10) }, "MinMax-10"),
            (Policy::Proportional { limit: Some(5) }, "Proportional-5"),
            (Policy::PMM, "PMM"),
            (Policy::PMM_REGIME, "PMM-regime"),
        ] {
            assert_eq!(policy.label(), name);
            assert_eq!(make_policy(policy, &cfg).name(), name);
        }
    }

    #[test]
    fn make_policy_builds_partitions_from_tenants() {
        let cfg = SimConfig::multi_tenant(0.5);
        for policy in [
            Policy::Partitioned { soft: false },
            Policy::Partitioned { soft: true },
            Policy::PMM_TENANT,
        ] {
            assert_eq!(make_policy(policy, &cfg).name(), policy.label());
        }
    }

    #[test]
    #[should_panic(expected = "needs tenants")]
    fn make_policy_rejects_partitioned_without_tenants() {
        make_policy(
            Policy::Partitioned { soft: false },
            &SimConfig::baseline(0.05),
        );
    }

    #[test]
    fn apply_device_cell_installs_device_and_eviction() {
        use driver::{figure_spec, CellSpec};
        let devices = figure_spec("devices").expect("known figure");
        let cell = CellSpec::new(0.05, Policy::Max).on(
            DeviceSpec::Ssd(SsdSpec::default()),
            EvictionSpec::LruK { k: 2 },
        );
        assert_eq!(cell.label(), "ssd+lruk/Max");
        let sim = devices.resolve(&cell, 600.0);
        assert!(matches!(sim.resources.device, DeviceSpec::Ssd(_)));
        assert_eq!(sim.resources.eviction, EvictionSpec::LruK { k: 2 });
        assert_eq!(sim.duration_secs, 600.0);
        // A plain cell keeps the figure's device.
        let sim = devices.resolve(&CellSpec::new(0.05, Policy::PMM), 600.0);
        assert_eq!(sim.resources.device, DeviceSpec::Cylinder);
        assert_eq!(sim.resources.eviction, EvictionSpec::Lru);
    }

    #[test]
    fn apply_fault_cell_installs_the_degradation_mode() {
        use driver::{figure_spec, CellSpec};
        let faults = figure_spec("faults").expect("known figure");
        let cell = CellSpec::new(1.0, Policy::PMM).degraded(DegradationMode::Requeue);
        assert_eq!(cell.label(), "requeue/PMM");
        let sim = faults.resolve(&cell, 600.0);
        assert_eq!(sim.faults.default_mode, DegradationMode::Requeue);
        // A plain cell keeps the figure's default mode.
        let sim = faults.resolve(&CellSpec::new(1.0, Policy::MINMAX), 600.0);
        assert_eq!(sim.faults.default_mode, DegradationMode::Abort);
    }

    #[test]
    #[should_panic(expected = "deliberate crashtest panic")]
    fn panic_policy_panics_on_first_allocation() {
        let mut cfg = SimConfig::baseline(0.05);
        cfg.duration_secs = 100.0;
        let policy = make_policy(Policy::Panic, &cfg);
        run_simulation(cfg, policy);
    }

    /// The driver config of the quick runs below: one seed over `secs`.
    fn quick(secs: f64) -> driver::DriverConfig {
        driver::DriverConfig {
            seeds: 1,
            threads: 1,
            secs,
            ..driver::DriverConfig::default()
        }
    }

    #[test]
    fn quick_baseline_figure_runs() {
        let r = driver::run_figure("fig3", quick(300.0)).expect("fig3 runs");
        assert_eq!(r.cells.len(), 5 * 4, "five rates × four policies");
        assert!(r.cells.iter().all(|c| c.served > 0));
    }

    #[test]
    fn reports_render_paper_tables() {
        // Every paper-layout report renders its tables from a quick run.
        for report in &report::REPORTS {
            let cfg = driver::DriverConfig {
                record_pmm_decisions: report.pmm_decisions,
                ..quick(150.0)
            };
            let r = driver::run_figure(report.figure, cfg).expect("figure runs");
            let mut text = String::new();
            (report.render)(&r, &mut text).expect("render to a String");
            assert!(text.starts_with("== "), "{}: {text}", report.figure);
            if report.figure == "fig3" {
                // Rate × policy tables: the policies head the columns and
                // each rate opens a row.
                assert!(text.contains("== Figure 3: Miss Ratio (Baseline) =="));
                assert!(text.contains("Max         MinMax   Proportional"), "{text}");
                assert!(text.contains("\n     0.040 "), "{text}");
                assert!(text.contains("== Table 7: Average Timings (seconds) =="));
            }
        }
    }
}
