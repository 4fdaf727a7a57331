//! Differential pin: observability never changes simulated behaviour.
//!
//! Tracing, the metrics registry and the wall-clock profiler are read-only
//! riders on the engine. Turning them all on must leave every simulated
//! outcome *bit-identical* — not statistically close: every event lands at
//! the same tick, every f64 accumulator walks the same association order.
//! `tests/observability.rs` pins that on one baseline configuration; this
//! harness extends it property-style over the configuration space.
//! Randomized `SimConfig`s (presets, arrival rates, seeds, policies,
//! feedback batch sizes — which move the allocation-interruption offsets —
//! and fault storms) run twice: dark (`ObsConfig::default()`) and fully lit
//! (`TraceMode::Full`, metrics and profile on). The serialized behaviour
//! reports must match byte for byte, and the lit run must have produced a
//! trace. The golden snapshot (`tests/golden_report.rs`) pins the dark
//! path's bytes on top of this.

use bench::{make_policy, Policy};
use integration_tests::short_baseline;
use pmm_core::prelude::*;
use pmm_core::rtdbs::RunReport;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Policies the harness rotates through: the three static allocators, a
/// limited MinMax (different grant shapes), and both PMM variants
/// (feedback-driven reallocations at batch boundaries).
const POLICIES: &[Policy] = &[
    Policy::Max,
    Policy::MINMAX,
    Policy::MinMax { limit: Some(16) },
    Policy::PROPORTIONAL,
    Policy::PMM,
    Policy::PMM_REGIME,
];

/// Exact serialization of every behavior field (the golden test's format
/// plus the event count): floats via `{:?}` so a single bit of drift shows.
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
    let _ = writeln!(out, "events: {}", report.events);
    out
}

/// Run `cfg` dark and fully lit; the two serialized reports must be
/// byte-equal and the lit run must carry a trace. Policies are stateful, so
/// each run gets a fresh instance built from the same `Policy`. `label`
/// identifies the generated case in failure output.
fn assert_obs_invariant(mut cfg: SimConfig, policy: Policy, label: &str) {
    cfg.obs = ObsConfig::default();
    let dark = run_simulation(cfg.clone(), make_policy(policy, &cfg));
    cfg.obs = ObsConfig {
        trace: TraceMode::Full,
        metrics: true,
        profile: true,
        ..ObsConfig::default()
    };
    let lit = run_simulation(cfg.clone(), make_policy(policy, &cfg));

    assert!(dark.obs_trace.is_empty(), "[{label}] dark run traced");
    assert!(!lit.obs_trace.is_empty(), "[{label}] lit run has no trace");
    assert!(lit.metrics.is_some() && lit.profile.is_some(), "[{label}]");
    assert_eq!(
        serialize(&dark),
        serialize(&lit),
        "[{label}] serialized reports differ"
    );
}

/// One deterministic spot check per preset family, cheap enough to always
/// run: the baseline cell that the golden snapshot pins.
#[test]
fn baseline_paths_agree() {
    let cfg = short_baseline(0.06, 600.0);
    assert_obs_invariant(cfg, Policy::PMM, "baseline/PMM");
}

/// Faulted run: degradation, outages, and memory shocks all interrupt
/// operators mid-run and exercise the fault events' trace records.
#[test]
fn faulted_paths_agree() {
    let mut cfg = short_baseline(0.06, 300.0);
    cfg.faults = FaultPlan::scaled(0.8);
    assert_obs_invariant(cfg, Policy::MINMAX, "faulted/MinMax");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The randomized differential: preset, rate, seed, policy, feedback
    /// batch size (moves allocation-interruption offsets), and an optional
    /// fault storm, each run dark and fully lit.
    #[test]
    fn fastforward_matches_reference(
        preset in 0u8..5,
        rate in 0.02f64..0.12,
        seed in 0u64..1_000_000,
        policy_idx in 0usize..POLICIES.len(),
        sample_size in 4u32..24,
        fault_intensity in proptest::option::of(0.2f64..1.0),
    ) {
        let secs = 240.0;
        let mut cfg = match preset {
            0 => SimConfig::baseline(rate),
            1 => SimConfig::disk_contention(rate),
            2 => SimConfig::sorts(rate),
            3 => SimConfig::multiclass(rate),
            _ => SimConfig::workload_changes(),
        };
        cfg.duration_secs = secs;
        cfg.window_secs = secs / 4.0;
        cfg.seed = seed;
        cfg.sample_size = sample_size;
        if let Some(intensity) = fault_intensity {
            cfg.faults = FaultPlan::scaled(intensity);
        }
        let policy = POLICIES[policy_idx];
        let label = format!(
            "preset={preset} rate={rate:.3} seed={seed} policy={policy} \
             sample_size={sample_size} faults={fault_intensity:?}",
            policy = policy.label()
        );
        assert_obs_invariant(cfg, policy, &label);
    }
}
