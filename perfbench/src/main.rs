//! Benchmark of the PMM firm real-time simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload baseline-join --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all observability off;
//! `--trace 1` replays the same seeds with the policy wrapper, the metrics
//! registry and the profiler switched on, and drives the calendar, the
//! operators and the disks in isolation, to print the per-layer metrics.
//! Both check every replication's output. The last stdout line is a JSON
//! result. `--record` re-records the digests of every pool seed into
//! `perfbench/digests.tsv` (run from the repository root). See
//! `perfbench/README.md` for the workloads and metrics.

mod drives;
mod traced;
mod workload;

use rtdbs::{RunReport, Simulator};
use simkit::SeedSequence;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use traced::{SpanKind, SpanLog, TracedPolicy};
use workload::Workload;

/// Builds timed before every untraced replication, so that set-up samples
/// spread over the whole run as the replications do: the host's speed
/// drifts by tens of percent within seconds.
const SETUP_PER_REP: u64 = 8;
/// Traced replications the exact per-layer counts cover.
const COUNT_REPS: u64 = 2;
/// Share of a traced run spent on replications; the rest drives layers.
const TRACED_REP_SHARE: f64 = 0.6;
/// Layer-drive sizes per round.
const CALENDAR_STEPS: usize = 200_000;
const EXEC_QUERIES: usize = 24;
/// Rounds every layer drive completes, whatever the time left.
const MIN_DRIVE_ROUNDS: u64 = 3;
/// Where `--trace 1` writes the policy spans of its first replication.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.iter().any(|a| a == "--record") {
        record()
    } else {
        parse_args(&argv).and_then(|args| {
            if args.trace {
                per_layer(&args)
            } else {
                end_to_end(&args)
            }
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(40.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Observability arms of one replication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Arm {
    /// Everything off: the measured configuration.
    Bare,
    /// The policy wrapped in `TracedPolicy`, observability off.
    Wrapped,
    /// `obs.metrics` on.
    Metrics,
    /// `obs.metrics` and `obs.profile` on, policy wrapped.
    Profile,
}

struct Rep {
    report: RunReport,
    run_s: f64,
    spans: Option<Rc<RefCell<SpanLog>>>,
}

/// Build the config, the policy and the simulator for one replication.
fn set_up(
    w: &Workload,
    seed: u64,
    arm: Arm,
) -> (Simulator, Option<Rc<RefCell<SpanLog>>>) {
    let mut cfg = w.config(seed);
    cfg.obs.metrics = matches!(arm, Arm::Metrics | Arm::Profile);
    cfg.obs.profile = arm == Arm::Profile;
    let mut policy = w.policy(&cfg);
    let mut spans = None;
    if matches!(arm, Arm::Wrapped | Arm::Profile) {
        let log = SpanLog::new();
        policy = Box::new(TracedPolicy::new(policy, Rc::clone(&log)));
        spans = Some(log);
    }
    (Simulator::new(cfg, policy), spans)
}

/// Time `SETUP_PER_REP` builds ahead of replication `i`, one sample each;
/// every simulator is dropped outside its timed region.
fn setup_samples(w: &Workload, run_seed: u64, i: u64, out: &mut Vec<f64>) {
    for k in 0..SETUP_PER_REP {
        let t0 = Instant::now();
        let built = set_up(w, workload::replication_seed(run_seed, i + k), Arm::Bare);
        out.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
}

fn replicate(w: &Workload, seed: u64, arm: Arm) -> Result<Rep, String> {
    guarded(|| {
        let (sim, spans) = set_up(w, seed, arm);
        let t1 = Instant::now();
        let report = sim.run();
        let run_s = t1.elapsed().as_secs_f64();
        Ok(Rep {
            report,
            run_s,
            spans,
        })
    })
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Conservation checks plus the recorded digest.
fn check_bare(w: &Workload, seed: u64, r: &RunReport) -> Result<(), String> {
    workload::check_conservation(r)?;
    let want = workload::recorded_digest(w.name, seed)
        .ok_or_else(|| format!("no digest recorded for {} seed {seed}", w.name))?;
    let got = workload::digest(r);
    if got != want {
        return Err(format!(
            "simulated statistics changed: digest {got:016x}, recorded {want:016x}"
        ));
    }
    Ok(())
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut served, mut missed) = (0u64, 0u64);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    // Per pool seed: queries served and the run time of every replication.
    let mut by_seed: Vec<(u64, Vec<f64>)> =
        vec![(0, Vec::new()); workload::POOL as usize];
    let mut i = 0;
    while i < workload::POOL || Instant::now() < deadline {
        let seed = workload::replication_seed(args.seed, i);
        attempted += 1;
        let rep = guarded(|| {
            setup_samples(w, args.seed, i, &mut setups);
            let rep = replicate(w, seed, Arm::Bare)?;
            check_bare(w, seed, &rep.report)?;
            Ok(rep)
        });
        match rep {
            Ok(rep) => {
                rates.push(rep.report.served as f64 / rep.run_s);
                let slot = &mut by_seed[(seed - 1) as usize];
                slot.0 = rep.report.served;
                slot.1.push(rep.run_s);
                if i < workload::POOL {
                    served += rep.report.served;
                    missed += rep.report.missed;
                }
            }
            Err(e) => {
                failed += 1;
                println!("FAILED {} seed {seed}: {e}", w.name);
            }
        }
        i += 1;
    }
    // Every pool seed weighs once, whichever seeds the run happened to
    // repeat, with its fastest replication: the host's speed drifts by tens
    // of percent over seconds, and the fastest of a seed's replications is
    // the least disturbed reading of the program's own cost.
    let measured: Vec<&(u64, Vec<f64>)> =
        by_seed.iter().filter(|s| !s.1.is_empty()).collect();
    if measured.is_empty() || setups.is_empty() {
        return Err(format!("every replication of {} failed", w.name));
    }
    let pool_served: u64 = measured.iter().map(|s| s.0).sum();
    let pool_secs: f64 = measured
        .iter()
        .map(|s| s.1.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    let peak_rss = peak_rss_mib()?;
    println!(
        "# {} seed {}: {attempted} replications of {} sim-s over {} pool seeds, \
         {failed} failed (failed_ratio {})",
        w.name,
        args.seed,
        w.horizon_secs,
        measured.len(),
        failed as f64 / attempted as f64
    );
    print_samples("per-replication queries/s", &rates);
    print_samples("setup_s", &setups);
    let metrics = vec![
        (
            "sim_queries_per_wall_s",
            pool_served as f64 / pool_secs,
            "queries/s",
        ),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", peak_rss, "MiB"),
        (
            "miss_pct",
            100.0 * missed as f64 / served.max(1) as f64,
            "%",
        ),
    ];
    emit(attempted, failed, &metrics)
}

/// Per-replication samples of the traced run.
#[derive(Default)]
struct Traced {
    served: u64,
    events: u64,
    cpu_bursts: u64,
    disk_requests: u64,
    cache_hits: u64,
    allocate_calls: u64,
    batches: u64,
    cpu_util: Vec<f64>,
    disk_util: Vec<f64>,
    avg_mpl: Vec<f64>,
    live: Vec<f64>,
    self_s: Vec<f64>,
    allocate_s: Vec<f64>,
    allocate_share: Vec<f64>,
    bookkeeping_share: Vec<f64>,
    dispatch_share: Vec<f64>,
    calendar_pop_share: Vec<f64>,
    disk_start_share: Vec<f64>,
    metrics_overhead: Vec<f64>,
    profile_overhead: Vec<f64>,
    allocate_ns: Vec<f64>,
    batch_ns: Vec<f64>,
}

fn counter(r: &RunReport, name: &str) -> Result<u64, String> {
    r.metrics
        .as_ref()
        .and_then(|m| m.counters.iter().find(|(n, _)| n == name))
        .map(|&(_, v)| v)
        .ok_or_else(|| format!("metrics registry has no counter {name}"))
}

fn profile_secs(r: &RunReport, section: &str) -> Result<f64, String> {
    r.profile
        .as_ref()
        .and_then(|p| p.sections.iter().find(|s| s.name == section))
        .map(|s| s.wall_secs)
        .ok_or_else(|| format!("profile has no section {section}"))
}

fn span_secs(log: &SpanLog, keep: impl Fn(SpanKind) -> bool) -> f64 {
    log.spans
        .iter()
        .filter(|s| keep(s.kind))
        .map(|s| s.dur_ns as f64 * 1e-9)
        .sum()
}

/// One traced replication: all four arms, checked against each other.
fn traced_replication(
    w: &Workload,
    seed: u64,
    counted: bool,
    acc: &mut Traced,
) -> Result<Rc<RefCell<SpanLog>>, String> {
    let bare = replicate(w, seed, Arm::Bare)?;
    check_bare(w, seed, &bare.report)?;
    let expect = workload::simulated_fields(&bare.report);
    let run_arm = |arm| {
        let rep = replicate(w, seed, arm)?;
        if workload::simulated_fields(&rep.report) != expect {
            return Err(format!("{arm:?} run's report differs from the bare run's"));
        }
        Ok(rep)
    };
    let wrapped = run_arm(Arm::Wrapped)?;
    let metrics = run_arm(Arm::Metrics)?;
    let profile = run_arm(Arm::Profile)?;
    let r = &metrics.report;
    let (arrivals, served) =
        (counter(r, "engine.arrivals")?, counter(r, "engine.served")?);
    if arrivals < served || served != r.served {
        return Err(format!(
            "registry arrivals {arrivals}, served {served}; report served {}",
            r.served
        ));
    }
    let spans = wrapped.spans.expect("wrapped arm records spans");
    let pspans = profile.spans.expect("profile arm records spans");
    if counted {
        let b = &bare.report;
        acc.served += b.served;
        acc.events += b.events;
        acc.cpu_bursts += counter(r, "cpu.bursts")?;
        acc.disk_requests += counter(r, "disk.requests")?;
        acc.cache_hits += counter(r, "disk.cache_hits")?;
        let log = spans.borrow();
        acc.allocate_calls +=
            log.spans.iter().filter(|s| s.kind.is_allocate()).count() as u64;
        acc.batches += log.spans.iter().filter(|s| !s.kind.is_allocate()).count() as u64;
        acc.cpu_util.push(b.cpu_util);
        acc.disk_util.push(b.disk_util);
        acc.avg_mpl.push(b.avg_mpl);
        // Little's law over completed queries, floored by the holders.
        acc.live
            .push((b.served as f64 / b.sim_secs * b.timings.response).max(b.avg_mpl));
    }
    let log = spans.borrow();
    let alloc_s = span_secs(&log, SpanKind::is_allocate);
    acc.self_s.push(wrapped.run_s - span_secs(&log, |_| true));
    acc.allocate_s.push(alloc_s);
    acc.allocate_share.push(alloc_s / wrapped.run_s);
    acc.allocate_ns.extend(log.durations(SpanKind::is_allocate));
    acc.batch_ns.extend(log.durations(|k| !k.is_allocate()));
    let p = &profile.report;
    let pwall = profile.run_s;
    let palloc = span_secs(&pspans.borrow(), SpanKind::is_allocate);
    acc.bookkeeping_share
        .push((profile_secs(p, "reallocate")? - palloc) / pwall);
    acc.dispatch_share
        .push(profile_secs(p, "dispatch")? / pwall);
    acc.calendar_pop_share
        .push(profile_secs(p, "calendar_pop")? / pwall);
    acc.disk_start_share
        .push(profile_secs(p, "disk_start")? / pwall);
    acc.metrics_overhead.push(metrics.run_s / bare.run_s);
    acc.profile_overhead.push(profile.run_s / bare.run_s);
    drop(log);
    Ok(spans)
}

fn per_layer(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let reps_end = start + Duration::from_secs_f64(args.seconds * TRACED_REP_SHARE);
    let mut acc = Traced::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut i = 0;
    while i < COUNT_REPS || Instant::now() < reps_end {
        let seed = workload::replication_seed(args.seed, i);
        attempted += 1;
        match traced_replication(w, seed, i < COUNT_REPS, &mut acc) {
            Ok(spans) if i == 0 => write_spans(w, args.seed, &spans.borrow())?,
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                println!("FAILED {} seed {seed}: {e}", w.name);
            }
        }
        i += 1;
    }
    if acc.served == 0 {
        return Err(format!("the counted replications of {} failed", w.name));
    }

    // Layer drives, with inputs from the first replication's config.
    let cfg = w.config(workload::replication_seed(args.seed, 0));
    let live = mean(&acc.live);
    let depth = cfg.classes.len() + 2 * live.ceil() as usize;
    let disk_depth = (live / f64::from(cfg.resources.num_disks)).ceil().max(1.0) as usize;
    let (mut cal_ns, mut exec_ns, mut disk_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut exec_counts = None;
    let drives = guarded(|| {
        let inputs = drives::ExecInputs::generate(&cfg, args.seed, EXEC_QUERIES);
        let accesses = inputs.disk_accesses()?;
        let mut round = 0u64;
        while round < MIN_DRIVE_ROUNDS || Instant::now() < end {
            cal_ns.push(drives::calendar_ns_per_event(
                depth,
                CALENDAR_STEPS,
                SeedSequence::new(args.seed).substream("calendar", round),
            ));
            let (counts, secs) = inputs.run_operators()?;
            exec_ns.push(secs * 1e9 / counts.actions as f64);
            exec_counts.get_or_insert(counts);
            let (starts, secs) = inputs.run_disks(&accesses, disk_depth)?;
            disk_ns.push(secs * 1e9 / starts as f64);
            round += 1;
        }
        Ok(())
    });
    if let Err(e) = drives {
        attempted += 1;
        failed += 1;
        println!("FAILED {} layer drives: {e}", w.name);
    }
    let exec = exec_counts.unwrap_or_default();
    let served = acc.served as f64;
    let allocate_ns = sorted(std::mem::take(&mut acc.allocate_ns));
    println!(
        "# {} seed {}: {attempted} traced replications of {} sim-s, {failed} failed; \
         calendar depth {depth}, disk queue depth {disk_depth}",
        w.name, args.seed, w.horizon_secs
    );
    let metrics = vec![
        (
            "rtdbs.events_per_query",
            acc.events as f64 / served,
            "count",
        ),
        (
            "rtdbs.cpu_bursts_per_query",
            acc.cpu_bursts as f64 / served,
            "count",
        ),
        ("rtdbs.self_s", median(&acc.self_s), "s"),
        (
            "rtdbs.realloc_bookkeeping_share",
            median(&acc.bookkeeping_share),
            "ratio",
        ),
        (
            "rtdbs.profile.dispatch_share",
            median(&acc.dispatch_share),
            "ratio",
        ),
        (
            "simkit.profile.calendar_pop_share",
            median(&acc.calendar_pop_share),
            "ratio",
        ),
        (
            "storage.profile.disk_start_share",
            median(&acc.disk_start_share),
            "ratio",
        ),
        ("simkit.calendar.ns_per_event", median(&cal_ns), "ns"),
        (
            "exec.actions_per_query",
            exec.actions as f64 / exec.queries.max(1) as f64,
            "count",
        ),
        (
            "exec.plans_per_query",
            exec.plans as f64 / exec.queries.max(1) as f64,
            "count",
        ),
        ("exec.ns_per_action", median(&exec_ns), "ns"),
        (
            "storage.requests_per_query",
            acc.disk_requests as f64 / served,
            "count",
        ),
        (
            "storage.cache_hit_ratio",
            acc.cache_hits as f64 / acc.disk_requests.max(1) as f64,
            "ratio",
        ),
        ("storage.ns_per_start", median(&disk_ns), "ns"),
        (
            "pmm.allocate_calls_per_query",
            acc.allocate_calls as f64 / served,
            "count",
        ),
        ("pmm.allocate_ns_p50", quantile(&allocate_ns, 0.5), "ns"),
        ("pmm.allocate_ns_p99", quantile(&allocate_ns, 0.99), "ns"),
        ("pmm.allocate_s", median(&acc.allocate_s), "s"),
        ("pmm.allocate_share", median(&acc.allocate_share), "ratio"),
        (
            "pmm.batch_ns_p50",
            quantile(&sorted(acc.batch_ns), 0.5),
            "ns",
        ),
        ("pmm.batches", acc.batches as f64, "count"),
        ("rtdbs.cpu_util", mean(&acc.cpu_util), "ratio"),
        ("storage.disk_util", mean(&acc.disk_util), "ratio"),
        ("rtdbs.avg_mpl", mean(&acc.avg_mpl), "count"),
        (
            "obs.metrics_overhead",
            median(&acc.metrics_overhead),
            "ratio",
        ),
        (
            "obs.profile_overhead",
            median(&acc.profile_overhead),
            "ratio",
        ),
    ];
    emit(attempted, failed, &metrics)
}

/// Write the policy spans of a run's first replication as TSV (kind,
/// start, duration), replacing the workload's previous file.
fn write_spans(w: &Workload, run_seed: u64, log: &SpanLog) -> Result<(), String> {
    let seed = workload::replication_seed(run_seed, 0);
    let mut out = format!("# {} --seed {run_seed}: replication seed {seed}\n", w.name);
    out.push_str("span\tstart_ns\tdur_ns\n");
    for s in &log.spans {
        let _ = writeln!(out, "{}\t{}\t{}", s.kind.name(), s.start_ns, s.dur_ns);
    }
    let path = format!("{SPAN_DIR}/pmm_spans_{}.tsv", w.name);
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Run every pool seed of every workload bare and rewrite the digests.
fn record() -> Result<(), String> {
    let mut out = String::new();
    for w in &workload::WORKLOADS {
        for seed in 1..=workload::POOL {
            let rep = replicate(w, seed, Arm::Bare)?;
            workload::check_conservation(&rep.report)?;
            let _ = writeln!(
                out,
                "{}\t{seed}\t{:016x}",
                w.name,
                workload::digest(&rep.report)
            );
            eprintln!(
                "{} seed {seed}: served {} miss {:.2}% events {} run {:.3}s",
                w.name,
                rep.report.served,
                rep.report.miss_pct(),
                rep.report.events,
                rep.run_s
            );
        }
    }
    let path = "perfbench/digests.tsv";
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Peak resident set of this process (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of sorted samples (0 for none).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn print_samples(name: &str, v: &[f64]) {
    let s = sorted(v.to_vec());
    println!(
        "# {name}: n={} p25={} p50={} p75={} max={}",
        s.len(),
        quantile(&s, 0.25),
        quantile(&s, 0.5),
        quantile(&s, 0.75),
        s[s.len() - 1]
    );
}

/// Print every metric with its unit, then the JSON result line.
fn emit(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut json = String::new();
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        println!("{name:<36} {value:>16.6} {unit}");
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(())
}
