//! Differential pin for the analytic fast-forward path.
//!
//! The engine drives operators two ways: the batched run protocol with
//! closed-form descriptor planning (`SimConfig::fastforward = true`, the
//! production default) and the single-step reference path (`false`), which
//! re-enters the operator state machine once per action. The two are
//! promised *bit-identical* — not statistically close: every simulated
//! event lands at the same tick with the same payload, every f64
//! accumulator walks the same association order.
//!
//! This harness pins that promise property-style: randomized `SimConfig`s
//! (presets, arrival rates, seeds, policies, feedback batch sizes — which
//! move the allocation-interruption offsets — and fault plans) run through
//! both paths, and the full obs trace (`TraceMode::Full`) must match
//! event for event, while the serialized behavior report must match byte
//! for byte. The golden snapshot (`tests/golden_report.rs`) stays
//! un-re-blessed on top of this: the descriptor path is the one the golden
//! was captured against.

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

/// Exact serialization of every behavior field (the golden test's format):
/// floats via `{:?}` so a single bit of drift shows.
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

/// Run `cfg` through one path. Policies are stateful, so each run gets a
/// fresh instance built from the same `Policy`.
fn run_path(mut cfg: SimConfig, policy: Policy, fastforward: bool) -> RunReport {
    cfg.fastforward = fastforward;
    let policy = make_policy(policy, &cfg);
    run_simulation(cfg, policy)
}

/// Assert both paths of `cfg` agree event-for-event and byte-for-byte.
/// `label` identifies the generated case in failure output.
fn assert_paths_agree(cfg: SimConfig, policy: Policy, label: &str) {
    let fast = run_path(cfg.clone(), policy, true);
    let slow = run_path(cfg, policy, false);

    // Event-for-event: first divergence, not just a blanket inequality, so
    // a failure says *when* the trajectories split.
    for (i, (f, s)) in fast.obs_trace.iter().zip(slow.obs_trace.iter()).enumerate() {
        assert_eq!(
            f,
            s,
            "[{label}] traces diverge at record {i} (of {} fast / {} slow)",
            fast.obs_trace.len(),
            slow.obs_trace.len()
        );
    }
    assert_eq!(
        fast.obs_trace.len(),
        slow.obs_trace.len(),
        "[{label}] one trace is a strict prefix of the other"
    );

    let (fast_bytes, slow_bytes) = (serialize(&fast), serialize(&slow));
    assert_eq!(
        fast_bytes, slow_bytes,
        "[{label}] serialized reports differ"
    );
}

/// One deterministic spot check per preset family, cheap enough to always
/// run: the baseline cell that the golden snapshot pins.
#[test]
fn baseline_paths_agree() {
    let mut cfg = short_baseline(0.06, 600.0);
    cfg.obs.trace = TraceMode::Full;
    assert_paths_agree(cfg, Policy::PMM, "baseline/PMM");
}

/// Faulted run: degradation, outages, and memory shocks all interrupt
/// operators mid-run, which is exactly where `sync_run` reconciliation
/// could drift from the reference path.
#[test]
fn faulted_paths_agree() {
    let mut cfg = short_baseline(0.06, 300.0);
    cfg.obs.trace = TraceMode::Full;
    cfg.faults = FaultPlan::scaled(0.8);
    assert_paths_agree(cfg, Policy::MINMAX, "faulted/MinMax");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The randomized differential: preset, rate, seed, policy, feedback
    /// batch size (moves allocation-interruption offsets), and an optional
    /// fault storm.
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
        cfg.obs.trace = TraceMode::Full;
        if let Some(intensity) = fault_intensity {
            cfg.faults = FaultPlan::scaled(intensity);
        }
        let policy = POLICIES[policy_idx];
        let label = format!(
            "preset={preset} rate={rate:.3} seed={seed} policy={policy} \
             sample_size={sample_size} faults={fault_intensity:?}",
            policy = policy.label()
        );
        assert_paths_agree(cfg, policy, &label);
    }
}
