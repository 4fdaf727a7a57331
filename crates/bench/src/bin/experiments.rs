//! `experiments` — regenerate the paper's tables and figures.
//!
//! Every run goes through the parallel multi-seed experiment driver: it
//! shards a registered figure's cells across a thread pool, one
//! independently seeded replication per `--seeds`, merges the per-seed
//! reports into batch-means confidence intervals, and writes
//! `BENCH_<figure>.json`, byte-identical for any `--threads` value.
//!
//! A figure is selected two ways, freely mixed:
//!
//! * `--figure <name>` (repeatable) prints the merged miss-ratio table.
//!   `--figure all` runs fig3 fig8 fig11 fig12 fig16 fig17 burst tenants
//!   devices faults scale; the registered figures crashtest, fig6,
//!   util_low, ablation and scaledown run only when named.
//! * A positional artifact name prints the paper-layout tables of the
//!   figure behind it, as seed-merged means: fig3 fig4 fig5 fig7 table7
//!   (from fig3), fig6, fig8 fig9 fig10 (from fig8), fig11, fig12_14 fig15
//!   (from fig12, with PMM decision recording on), fig16, fig17 fig18 (from
//!   fig17), util_low, scaledown (the Section 5.7 check), ablation, or
//!   `all` for every one of them.
//!
//! With no selection, `--smoke` means `--figure all` and anything else
//! means the artifact `all`.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- --figure fig3 --seeds 8 --threads 4
//! cargo run --release -p bench --bin experiments -- --figure all --smoke
//! cargo run --release -p bench --bin experiments -- fig11 --seeds 4 --secs 36000
//! ```
//!
//! Flags: `--seeds N` (default 8), `--threads N` (default: available
//! cores), `--secs S` (default 3600), `--master-seed S` (default 1994),
//! `--out DIR` (default `.`, must exist), `--smoke` (the seed and sim-secs
//! *defaults* become 1 and 300; explicit values still win),
//! `--record-arrivals` (replication 0's inter-arrival gaps per cell and
//! class as `TRACE_<figure>_cell<i>_class<j>.txt`, replayable via
//! `ArrivalSpec::Trace`), `--record-pmm-decisions` (replication 0's PMM
//! decision trace per adaptive cell as `TRACE_pmm_<figure>_cell<i>.txt`),
//! `--trace` (replication 0's structured sim-time trace per cell as
//! `TRACE_obs_<figure>_cell<i>.txt` — streamed to disk for `faults` —
//! cell 0 as Chrome trace-event JSON `CHROME_<figure>_cell0.json`, and the
//! seed-merged metrics registry as `BENCH_<figure>_metrics.json`),
//! `--metrics` (the metrics registry without record-level tracing), and
//! `--profile` (wall-clock attribution per engine subsystem in
//! `BENCH_profile.json`, machine-dependent like `BENCH_perf.json`). A
//! value flag without a value, an unknown flag or artifact, and a
//! non-positive or non-finite `--secs` are errors. A replication that
//! panics does not abort the sweep: its unit is written to
//! `BENCH_<figure>_quarantine.json` with its cell, policy, replication
//! index and seed.

use bench::driver::{
    figure_spec, metrics_json, perf_json, profile_json, quarantine_json, run_figure,
    DriverConfig, FigurePerf, FIGURES,
};
use bench::report::{report_for, Report, REPORTS};
use pmm_core::obs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags that take no value.
const SWITCHES: [&str; 6] = [
    "--smoke",
    "--record-arrivals",
    "--record-pmm-decisions",
    "--trace",
    "--metrics",
    "--profile",
];

/// Flags that take a value.
const VALUE_FLAGS: [&str; 6] = [
    "--figure",
    "--seeds",
    "--threads",
    "--secs",
    "--master-seed",
    "--out",
];

/// One figure to run, with the paper-layout report to print it through
/// (`None` prints the merged miss-ratio table).
type Job = (&'static str, Option<&'static Report>);

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The one argument parser: a strict scan over every argument, then the
/// driver config from the collected values.
fn parse(args: &[String]) -> Result<(Vec<Job>, DriverConfig, PathBuf), String> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut values: Vec<(&str, &str)> = Vec::new();
    let mut switches: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if SWITCHES.contains(&a) {
            switches.push(a);
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            let v = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => return Err(format!("{a} requires a value")),
            };
            if a != "--figure" {
                values.push((a, v));
            } else if v == "all" {
                jobs.extend(FIGURES.iter().map(|&f| (f, None)));
            } else {
                jobs.push((figure_spec(v)?.name, None));
            }
            i += 2;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a}"));
        } else if a == "all" {
            jobs.extend(REPORTS.iter().map(|r| (r.figure, Some(r))));
            i += 1;
        } else {
            let report = report_for(a).ok_or_else(|| {
                let known: Vec<&str> =
                    REPORTS.iter().flat_map(|r| r.artifacts).copied().collect();
                format!(
                    "unknown artifact {a:?}; known artifacts: all, {}",
                    known.join(", ")
                )
            })?;
            jobs.push((report.figure, Some(report)));
            i += 1;
        }
    }
    let smoke = switches.contains(&"--smoke");
    if jobs.is_empty() {
        if smoke {
            jobs.extend(FIGURES.iter().map(|&f| (f, None)));
        } else {
            jobs.extend(REPORTS.iter().map(|r| (r.figure, Some(r))));
        }
    }
    // Artifacts sharing a figure (fig3 and fig4, ...) run it once.
    let mut seen: Vec<(&str, bool)> = Vec::new();
    jobs.retain(|&(figure, report)| {
        let key = (figure, report.is_some());
        let fresh = !seen.contains(&key);
        seen.push(key);
        fresh
    });

    // The first occurrence of a value flag wins; a present-but-unparsable
    // value is an error, not a silent fallback to the default.
    fn value<T: std::str::FromStr>(
        values: &[(&str, &str)],
        flag: &str,
        default: T,
    ) -> Result<T, String> {
        match values.iter().find(|(f, _)| *f == flag) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for {flag}")),
        }
    }
    // `--smoke` only moves the *defaults*: an explicit `--seeds`/`--secs`
    // still wins, so a long-horizon smoke (`--smoke --secs 36000`) keeps the
    // smoke posture without forfeiting the horizon.
    let cfg = DriverConfig {
        seeds: value(&values, "--seeds", if smoke { 1 } else { 8 })?,
        threads: value(&values, "--threads", default_threads())?,
        secs: value(&values, "--secs", if smoke { 300.0 } else { 3_600.0 })?,
        master_seed: value(&values, "--master-seed", 1994)?,
        record_arrivals: switches.contains(&"--record-arrivals"),
        record_pmm_decisions: switches.contains(&"--record-pmm-decisions"),
        trace: switches.contains(&"--trace"),
        metrics: switches.contains(&"--metrics"),
        profile: switches.contains(&"--profile"),
        stream_dir: None,
    };
    if cfg.seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if !(cfg.secs > 0.0 && cfg.secs.is_finite()) {
        return Err("--secs must be a positive number".into());
    }
    let out_dir = PathBuf::from(value(&values, "--out", ".".to_string())?);
    Ok((jobs, cfg, out_dir))
}

/// Write `body` to `dir/name` and return the path written.
fn write(dir: &Path, name: String, body: String) -> Result<PathBuf, String> {
    let path = dir.join(name);
    std::fs::write(&path, body)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &[String]) -> Result<(), String> {
    let (jobs, cfg, out_dir) = parse(args)?;
    let mut perf: Vec<(String, FigurePerf)> = Vec::new();
    let mut profiles: Vec<(String, obs::ProfileReport)> = Vec::new();
    for (figure, report) in jobs {
        let started = std::time::Instant::now();
        let mut fig_cfg = cfg.clone();
        fig_cfg.record_pmm_decisions |= report.is_some_and(|r| r.pmm_decisions);
        // The faults sweep streams its structured traces to disk as the
        // runs progress — fault storms under Full tracing would otherwise
        // buffer large rings per cell.
        let streamed = figure == "faults"
            && fig_cfg.trace
            && !fig_cfg.record_arrivals
            && !fig_cfg.record_pmm_decisions;
        if streamed {
            fig_cfg.stream_dir = Some(out_dir.clone());
        }
        let result = run_figure(figure, fig_cfg)?;
        match report {
            Some(r) => {
                let mut tables = String::new();
                (r.render)(&result, &mut tables).map_err(|e| e.to_string())?;
                print!("{tables}");
            }
            None => print!("{}", result.render()),
        }
        let path = write(&out_dir, format!("BENCH_{figure}.json"), result.to_json())?;
        println!(
            "wrote {} ({} cells × {} seeds, {:.1}s wall on {} threads, \
             {:.0} events/s per core)\n",
            path.display(),
            result.cells.len(),
            cfg.seeds,
            started.elapsed().as_secs_f64(),
            cfg.threads,
            result.perf.events_per_sec(),
        );
        // Recorded arrival traces: one whitespace/comment text file per
        // cell and class, in the exact format `Trace::from_file` parses.
        for t in &result.traces {
            let mut body = format!(
                "# {figure} cell {} (x={:?}, policy={}) class {} — replication 0 \
                 inter-arrival gaps (s)\n",
                t.cell, t.x, t.policy, t.class
            );
            for g in &t.gaps {
                body.push_str(&format!("{g:?}\n"));
            }
            let name = format!("TRACE_{figure}_cell{}_class{}.txt", t.cell, t.class);
            write(&out_dir, name, body)?;
        }
        if !result.traces.is_empty() {
            println!(
                "wrote {} arrival trace file(s) (replayable via ArrivalSpec::Trace)",
                result.traces.len()
            );
        }
        // PMM decision traces (Figure 15): one text file per cell whose
        // policy took adaptive decisions, in the Figures 6/15 layout.
        for t in &result.pmm_traces {
            let mut body = format!(
                "# {figure} cell {} (x={:?}, policy={}) — replication 0 PMM \
                 decision trace: t_secs mode target_mpl\n",
                t.cell, t.x, t.policy
            );
            for p in &t.points {
                body.push_str(&format!(
                    "{:?} {} {}\n",
                    p.at.as_secs_f64(),
                    p.mode,
                    p.target_mpl.map_or("-".into(), |m| m.to_string())
                ));
            }
            write(
                &out_dir,
                format!("TRACE_pmm_{figure}_cell{}.txt", t.cell),
                body,
            )?;
        }
        if !result.pmm_traces.is_empty() {
            println!(
                "wrote {} PMM decision trace file(s) (Figure 15 series)",
                result.pmm_traces.len()
            );
        }
        // Structured observability artifacts (--trace): the rendered text
        // trace per cell, the seed-merged metrics registry, and a Chrome
        // trace-event export of cell 0 for chrome://tracing / Perfetto.
        for t in &result.obs_traces {
            let mut body = format!(
                "# {figure} cell {} (x={:?}, policy={}) — replication 0 \
                 structured sim-time trace\n",
                t.cell, t.x, t.policy
            );
            body.push_str(&obs::render_text(&t.records));
            write(
                &out_dir,
                format!("TRACE_obs_{figure}_cell{}.txt", t.cell),
                body,
            )?;
        }
        if let Some(t) = result.obs_traces.first() {
            let chrome = obs::chrome_trace_json(&t.records);
            let chrome_path =
                write(&out_dir, format!("CHROME_{figure}_cell0.json"), chrome)?;
            println!(
                "wrote {} structured trace file(s) and {} (Chrome trace-event \
                 export)",
                result.obs_traces.len(),
                chrome_path.display()
            );
        }
        if !result.metrics.is_empty() {
            let name = format!("BENCH_{figure}_metrics.json");
            let metrics_path = write(&out_dir, name, metrics_json(&result))?;
            println!(
                "wrote {} (merged metrics registry; thread-count invariant)",
                metrics_path.display()
            );
        }
        if streamed {
            println!(
                "streamed {} structured trace file(s) to {} \
                 (TRACE_obs_{figure}_cell<i>.txt; no Chrome export for \
                 streamed cells)",
                result.cells.len(),
                out_dir.display()
            );
        }
        // Quarantined replications: the sweep survived a panicking unit.
        // Keep the exit status green — the partial results are valid and
        // deterministic — but say so loudly and leave the evidence behind.
        if !result.quarantine.is_empty() {
            let name = format!("BENCH_{figure}_quarantine.json");
            let q_path = write(&out_dir, name, quarantine_json(&result))?;
            eprintln!(
                "warning: {} replication(s) of {figure} panicked and were \
                 quarantined; see {}",
                result.quarantine.len(),
                q_path.display()
            );
        }
        if let Some(p) = &result.profile {
            profiles.push((figure.to_string(), p.clone()));
        }
        perf.push((figure.to_string(), result.perf));
    }
    // The perf trajectory is a separate artifact: BENCH_<figure>.json stays
    // byte-identical across machines and thread counts, BENCH_perf.json
    // deliberately is not.
    let perf_path = write(&out_dir, "BENCH_perf.json".into(), perf_json(&cfg, &perf))?;
    println!(
        "wrote {} (perf trajectory; not determinism-pinned)",
        perf_path.display()
    );
    // The self-profile is wall-clock attribution per engine subsystem —
    // machine-dependent like the perf trajectory, and kept apart from it.
    if !profiles.is_empty() {
        let profile = profile_json(&cfg, &profiles);
        let profile_path = write(&out_dir, "BENCH_profile.json".into(), profile)?;
        println!(
            "wrote {} (self-profile; not determinism-pinned)",
            profile_path.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
