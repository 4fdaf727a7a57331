//! Paper-layout reports: pure functions from a figure's merged
//! [`FigureResult`] to the text tables of the paper's Section 5. Every
//! number is the mean over the figure's seeded replications.

use crate::driver::{FigureResult, MergedCell};
use std::fmt::{Result, Write};

/// A paper-layout report: the registry figure it renders and the artifact
/// names that select it.
pub struct Report {
    /// The registry figure whose merged result the report renders.
    pub figure: &'static str,
    /// Artifact names accepted on the `experiments` command line.
    pub artifacts: &'static [&'static str],
    /// Whether the tables need replication 0's PMM decision trace.
    pub pmm_decisions: bool,
    /// Append the tables to the output.
    pub render: fn(&FigureResult, &mut String) -> Result,
}

const fn report(
    figure: &'static str,
    artifacts: &'static [&'static str],
    pmm_decisions: bool,
    render: fn(&FigureResult, &mut String) -> Result,
) -> Report {
    Report {
        figure,
        artifacts,
        pmm_decisions,
        render,
    }
}

/// Every report, in the order `experiments all` prints them.
pub const REPORTS: [Report; 10] = [
    report(
        "fig3",
        &["fig3", "fig4", "fig5", "fig7", "table7"],
        false,
        baseline,
    ),
    report("fig6", &["fig6"], true, fig6),
    report("fig8", &["fig8", "fig9", "fig10"], false, contention),
    report("fig11", &["fig11"], false, fig11),
    report("fig12", &["fig12_14", "fig15"], true, workload_changes),
    report("fig16", &["fig16"], false, sorts),
    report("fig17", &["fig17", "fig18"], false, multiclass),
    report("util_low", &["util_low"], false, util_low),
    report("scaledown", &["scaledown"], false, scale_down),
    report("ablation", &["ablation"], false, ablation),
];

/// The report an artifact name selects.
pub fn report_for(artifact: &str) -> Option<&'static Report> {
    REPORTS.iter().find(|r| r.artifacts.contains(&artifact))
}

/// One table of [`pivot`]: title, unit, and the metric it shows.
type Table = (&'static str, &'static str, fn(&MergedCell) -> f64);

const MISS: fn(&MergedCell) -> f64 = |c| c.miss_pct.mean;
const DISK: fn(&MergedCell) -> f64 = |c| 100.0 * c.disk_util.mean;
const MPL: fn(&MergedCell) -> f64 = |c| c.avg_mpl.mean;
const FLUCTUATIONS: fn(&MergedCell) -> f64 = |c| c.avg_fluctuations.mean;

/// Each table as one metric over x × policy. The cells are x-major, so
/// each row is one run of cells sharing an x, and the first row names the
/// columns.
fn pivot(r: &FigureResult, out: &mut String, x_label: &str, tables: &[Table]) -> Result {
    for (title, unit, metric) in tables {
        writeln!(out, "== {title} ==")?;
        write!(out, "{x_label:>10}")?;
        for c in rows(r).next().unwrap_or_default() {
            write!(out, " {:>14}", c.policy)?;
        }
        writeln!(out, "   ({unit})")?;
        for row in rows(r) {
            write!(out, "{:>10.3}", row[0].x)?;
            for c in row {
                write!(out, " {:>14.2}", metric(c))?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

/// The cells grouped by x.
fn rows(r: &FigureResult) -> impl Iterator<Item = &[MergedCell]> {
    r.cells.chunk_by(|a, b| a.x == b.x)
}

/// Cell `cell`'s PMM decision trace as `t (s)  mode  target MPL` rows.
fn decisions(r: &FigureResult, out: &mut String, cell: usize) -> Result {
    for t in r.pmm_traces.iter().filter(|t| t.cell == cell) {
        for p in &t.points {
            let target = p.target_mpl.map_or("-".into(), |m| m.to_string());
            let (at, mode) = (p.at.as_secs_f64(), p.mode.to_string());
            writeln!(out, "{at:>10.0} {mode:>8} {target:>10}")?;
        }
    }
    Ok(())
}

/// Figures 3, 4, 5, 7 and Table 7: the Section 5.1 baseline sweep.
fn baseline(r: &FigureResult, out: &mut String) -> Result {
    pivot(
        r,
        out,
        "rate q/s",
        &[
            ("Figure 3: Miss Ratio (Baseline)", "% missed", MISS),
            ("Figure 4: Disk Utilization (Baseline)", "% busy", DISK),
            ("Figure 5: Average MPL (Baseline)", "queries", MPL),
            (
                "Figure 7: Memory Fluctuations (Baseline)",
                "changes/query",
                FLUCTUATIONS,
            ),
        ],
    )?;
    writeln!(out, "== Table 7: Average Timings (seconds) ==")?;
    for row in rows(r).filter(|row| [0.04, 0.06, 0.08].contains(&row[0].x)) {
        writeln!(out, "arrival rate {:.2}:", row[0].x)?;
        writeln!(out, "  algorithm        waiting  execution     total")?;
        for c in row {
            let (wait, exec, total) = (c.waiting.mean, c.execution.mean, c.response.mean);
            writeln!(
                out,
                "  {:<14} {wait:>9.1} {exec:>10.1} {total:>9.1}",
                c.policy
            )?;
        }
    }
    writeln!(out)
}

/// Figure 6: PMM's target-MPL trace on the baseline.
fn fig6(r: &FigureResult, out: &mut String) -> Result {
    writeln!(
        out,
        "== Figure 6: PMM target MPL trace (baseline, λ = 0.075) =="
    )?;
    writeln!(out, "     t (s)     mode target MPL")?;
    decisions(r, out, 0)?;
    let miss = r.cells.first().map_or(0.0, MISS);
    writeln!(out, "final miss ratio: {miss:.1}%\n")
}

/// Figures 8, 9, 10: the moderate-disk-contention sweep.
fn contention(r: &FigureResult, out: &mut String) -> Result {
    pivot(
        r,
        out,
        "rate q/s",
        &[
            (
                "Figure 8: Miss Ratio (Disk Contention, 6 disks)",
                "% missed",
                MISS,
            ),
            (
                "Figure 9: Disk Utilization (Disk Contention)",
                "% busy",
                DISK,
            ),
            ("Figure 10: Average MPL (Disk Contention)", "queries", MPL),
        ],
    )
}

/// Figure 11: MinMax-N against N.
fn fig11(r: &FigureResult, out: &mut String) -> Result {
    writeln!(out, "== Figure 11: MinMax-N sweep (λ = 0.07, 6 disks) ==")?;
    writeln!(out, "    N     miss %      MPL  disk util")?;
    for c in &r.cells {
        let (n, miss, mpl, disk) =
            (c.x, c.miss_pct.mean, c.avg_mpl.mean, c.disk_util.mean);
        writeln!(out, "{n:>5} {miss:>10.1} {mpl:>8.1} {disk:>10.2}")?;
    }
    writeln!(out)
}

/// Figures 12–15: the alternating Small/Medium workload.
fn workload_changes(r: &FigureResult, out: &mut String) -> Result {
    for (i, c) in r.cells.iter().enumerate() {
        let policy = &c.policy;
        writeln!(
            out,
            "== Figures 12–14: {policy} miss-ratio time series (workload changes) =="
        )?;
        writeln!(out, "     t (s)   served   missed   miss %")?;
        for w in &c.windows {
            let (t, served, missed, miss) =
                (w.t_secs, w.served, w.missed, w.miss_pct.mean);
            writeln!(out, "{t:>10.0} {served:>8} {missed:>8} {miss:>8.1}")?;
        }
        writeln!(out, "overall: {:.1}%", c.miss_pct.mean)?;
        for k in &c.classes {
            let (name, served, miss) = (&k.name, k.served, k.miss_pct.mean);
            writeln!(
                out,
                "  class {name:<8} served {served:>5}  miss {miss:>5.1}%"
            )?;
        }
        if policy == "PMM" {
            writeln!(out, "== Figure 15: PMM MPL trace (workload changes) ==")?;
            decisions(r, out, i)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 16: the external-sort sweep.
fn sorts(r: &FigureResult, out: &mut String) -> Result {
    pivot(
        r,
        out,
        "rate q/s",
        &[("Figure 16: Miss Ratio (External Sort)", "% missed", MISS)],
    )
}

/// Figures 17 and 18: the multiclass sweep, system-wide and per class
/// under PMM.
fn multiclass(r: &FigureResult, out: &mut String) -> Result {
    let title = "Figure 17: System Miss Ratio (Multiclass)";
    pivot(r, out, "Small q/s", &[(title, "% missed", MISS)])?;
    writeln!(
        out,
        "== Figure 18: Class Miss Ratios under PMM (Multiclass) =="
    )?;
    writeln!(out, " Small q/s   Medium %    Small %")?;
    for c in r.cells.iter().filter(|c| c.policy == "PMM") {
        let class = |i: usize| c.classes.get(i).map_or(0.0, |k| k.miss_pct.mean);
        writeln!(out, "{:>10.2} {:>10.1} {:>10.1}", c.x, class(0), class(1))?;
    }
    writeln!(out)
}

/// Section 5.4: PMM's sensitivity to `UtilLow`.
fn util_low(r: &FigureResult, out: &mut String) -> Result {
    writeln!(
        out,
        "== Section 5.4: PMM sensitivity to UtilLow (baseline, λ = 0.07) =="
    )?;
    writeln!(out, " UtilLow     miss %")?;
    for c in &r.cells {
        writeln!(out, "{:>8.2} {:>10.1}", c.x, c.miss_pct.mean)?;
    }
    writeln!(out)
}

/// Section 5.7: full-size against scaled-down miss ratios per policy. The
/// full-size cells are the first half.
fn scale_down(r: &FigureResult, out: &mut String) -> Result {
    writeln!(
        out,
        "== Section 5.7: scale-down check (sizes ÷10, rates ×10) =="
    )?;
    writeln!(out, "policy    full miss % small miss %")?;
    let (full, small) = r.cells.split_at(r.cells.len() / 2);
    for (f, s) in full.iter().zip(small) {
        let (policy, full, small) = (&f.policy, f.miss_pct.mean, s.miss_pct.mean);
        writeln!(out, "{policy:<8} {full:>12.1} {small:>12.1}")?;
    }
    writeln!(out)
}

/// Firm deadlines against run-to-completion under PMM.
fn ablation(r: &FigureResult, out: &mut String) -> Result {
    writeln!(
        out,
        "== Ablation: firm vs run-to-completion deadlines (PMM, λ = 0.06) =="
    )?;
    for c in &r.cells {
        let (firm, miss, exec, mpl) = (
            c.x == 1.0,
            c.miss_pct.mean,
            c.execution.mean,
            c.avg_mpl.mean,
        );
        writeln!(
            out,
            "  firm={firm:<5} miss {miss:>5.1}%  exec {exec:>6.1}s  MPL {mpl:>4.1}"
        )?;
    }
    writeln!(out)
}
