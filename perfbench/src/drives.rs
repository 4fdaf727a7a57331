//! Layer drives: the calendar, the operators and the disks, each fed
//! through its public API with inputs generated from a workload's config
//! and seed, timed in isolation.

use exec::{Action, ActionRun, ExternalSort, FileRef, HashJoin, Operator};
use rtdbs::{QueryType, SimConfig};
use simkit::{Calendar, Duration, Rng, SeedSequence, SimTime};
use std::hint::black_box;
use std::time::Instant;
use storage::{Access, Disk, FileId, Layout, RelationMeta, Service};

/// Hold model at a standing depth: each step pops the earliest event and
/// schedules its successor, as the engine does per dispatched event.
/// Returns wall nanoseconds per pop+schedule pair.
pub fn calendar_ns_per_event(depth: usize, steps: usize, mut rng: Rng) -> f64 {
    // Mean lifetime `depth` sim-seconds at one event per sim-second keeps
    // `depth` events standing.
    let rate = 1.0 / depth as f64;
    let mut cal: Calendar<u64> = Calendar::new();
    for i in 0..depth {
        cal.schedule(SimTime::from_secs_f64(rng.exponential(rate)), i as u64);
    }
    let gaps: Vec<Duration> = (0..steps)
        .map(|_| Duration::from_secs_f64(rng.exponential(rate)))
        .collect();
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &gap in &gaps {
        let (at, payload) = cal.pop().expect("the hold model keeps events standing");
        acc = acc.wrapping_add(payload);
        cal.schedule(at + gap, payload);
    }
    let ns = t0.elapsed().as_nanos() as f64 / steps as f64;
    black_box(acc);
    ns
}

enum OpSpec {
    Join { r: RelationMeta, s: RelationMeta },
    Sort { r: RelationMeta },
}

/// One operator instance: its operands, the grant it starts with, and the
/// grant it is switched to after `change_after` actions.
struct QuerySpec {
    op: OpSpec,
    grant: u32,
    regrant: u32,
    change_after: u64,
}

/// Operator inputs drawn like the engine draws them: a class picked in
/// proportion to its arrival rate, operands from the class's relation
/// groups on a layout built from the workload's database, and grants
/// uniform across each operator's [min, max] demand.
pub struct ExecInputs {
    cfg: SimConfig,
    layout_seed: u64,
    queries: Vec<QuerySpec>,
}

#[derive(Clone, Copy, Default)]
pub struct ExecCounts {
    pub queries: u64,
    pub actions: u64,
    pub plans: u64,
}

impl ExecInputs {
    pub fn generate(cfg: &SimConfig, seed: u64, n: usize) -> Self {
        let mut rng = SeedSequence::new(seed).stream("exec");
        let layout_seed = rng.next_u64();
        let layout = build_layout(cfg, layout_seed);
        let total_rate: f64 = cfg.classes.iter().map(|c| c.mean_rate()).sum();
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let mut x = rng.uniform(0.0, total_rate);
            let class = cfg
                .classes
                .iter()
                .find(|c| {
                    x -= c.mean_rate();
                    x < 0.0
                })
                .unwrap_or(&cfg.classes[cfg.classes.len() - 1]);
            let op = match class.query_type {
                QueryType::HashJoin { groups } => {
                    let a = layout.random_relation(groups.0, &mut rng);
                    let b = layout.random_relation(groups.1, &mut rng);
                    // The smaller relation builds, as in the engine.
                    let (r, s) = if a.pages <= b.pages { (a, b) } else { (b, a) };
                    OpSpec::Join { r, s }
                }
                QueryType::ExternalSort { group } => OpSpec::Sort {
                    r: layout.random_relation(group, &mut rng),
                },
            };
            let probe = build_op(cfg, &op);
            let (lo, hi) = (u64::from(probe.min_memory()), u64::from(probe.max_memory()));
            let operand_blocks =
                u64::from(probe.operand_pages() / cfg.resources.exec.block_pages.max(1));
            queries.push(QuerySpec {
                op,
                grant: rng.int_in(lo, hi) as u32,
                regrant: rng.int_in(lo, hi) as u32,
                change_after: rng.int_in(1, operand_blocks.max(1)),
            });
        }
        ExecInputs {
            cfg: cfg.clone(),
            layout_seed,
            queries,
        }
    }

    /// Drive every operator to completion, discarding its actions.
    /// Returns the counts and the wall seconds taken.
    pub fn run_operators(&self) -> Result<(ExecCounts, f64), String> {
        let mut counts = ExecCounts::default();
        let t0 = Instant::now();
        for q in &self.queries {
            let mut op = build_op(&self.cfg, &q.op);
            drive(&mut *op, q, &mut counts, |a| {
                black_box(a);
            })?;
        }
        Ok((counts, t0.elapsed().as_secs_f64()))
    }

    /// Drive every operator again, placing temp files on the layout and
    /// resolving each I/O to a physical access. Returns one access list
    /// per disk, queries interleaved round-robin (each query has one I/O
    /// outstanding at a time) and each access tagged with its query's
    /// earliest-deadline priority.
    pub fn disk_accesses(&self) -> Result<Vec<Vec<(SimTime, Access)>>, String> {
        let mut layout = build_layout(&self.cfg, self.layout_seed);
        let geometry = self.cfg.resources.geometry;
        let mut per_query: Vec<Vec<(usize, Access)>> = Vec::new();
        let mut counts = ExecCounts::default();
        for (qi, q) in self.queries.iter().enumerate() {
            let mut op = build_op(&self.cfg, &q.op);
            let mut temps: Vec<(u32, FileId)> = Vec::new();
            let mut ios = Vec::new();
            drive(&mut *op, q, &mut counts, |a| match a {
                Action::Io(req) => {
                    let file = match req.file {
                        FileRef::Base(f) => f,
                        FileRef::Temp(slot) => {
                            temps
                                .iter()
                                .find(|(s, _)| *s == slot)
                                .expect("I/O on a bound temp slot")
                                .1
                        }
                    };
                    let meta = layout.meta(file);
                    ios.push((
                        meta.disk.0 as usize,
                        Access {
                            owner: qi as u64,
                            file,
                            first_page: req.first_page,
                            pages: req.pages,
                            kind: req.kind,
                            prefetch: req.prefetch,
                            cylinder: geometry.cylinder_of(
                                meta.start_cylinder,
                                req.first_page % meta.pages.max(1),
                            ),
                        },
                    ));
                }
                Action::CreateTemp { slot, pages } => {
                    let file = layout.create_temp(pages);
                    temps.retain(|(s, _)| *s != slot);
                    temps.push((slot, file));
                }
                Action::DropTemp { slot } => {
                    if let Some(at) = temps.iter().position(|(s, _)| *s == slot) {
                        layout.drop_temp(temps.swap_remove(at).1);
                    }
                }
                _ => {}
            })?;
            per_query.push(ios);
        }
        let mut per_disk = vec![Vec::new(); self.cfg.resources.num_disks as usize];
        let longest = per_query.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..longest {
            for (qi, ios) in per_query.iter().enumerate() {
                if let Some((disk, access)) = ios.get(k) {
                    per_disk[*disk].push((SimTime::from_secs(qi as u64), access.clone()));
                }
            }
        }
        Ok(per_disk)
    }

    /// Feed `per_disk` through fresh disks of the workload's device with at
    /// most `depth` requests queued per disk. Returns the `Disk::start`
    /// calls and the wall seconds taken.
    pub fn run_disks(
        &self,
        per_disk: &[Vec<(SimTime, Access)>],
        depth: usize,
    ) -> Result<(u64, f64), String> {
        let res = &self.cfg.resources;
        let mut disks: Vec<Disk> = (0..per_disk.len())
            .map(|_| {
                Disk::new(
                    res.device.build(&res.geometry),
                    res.eviction,
                    res.exec.block_pages,
                    SimTime::ZERO,
                )
            })
            .collect();
        let work = per_disk.to_vec();
        let mut starts = 0u64;
        let t0 = Instant::now();
        for (disk, list) in disks.iter_mut().zip(work) {
            let mut now = SimTime::ZERO;
            let mut pending = list.into_iter();
            loop {
                while disk.queue_len() < depth {
                    match pending.next() {
                        Some((deadline, access)) => disk.enqueue(deadline, access),
                        None => break,
                    }
                }
                let Some((_, service)) = disk.start(now) else {
                    break;
                };
                match service {
                    Service::Media { time } => now += time,
                    Service::CacheHit => {}
                    other => return Err(format!("healthy disk returned {other:?}")),
                }
                disk.finish(now);
                starts += 1;
            }
        }
        Ok((starts, t0.elapsed().as_secs_f64()))
    }
}

fn build_layout(cfg: &SimConfig, seed: u64) -> Layout {
    Layout::build(
        cfg.resources.geometry,
        cfg.resources.num_disks,
        &cfg.database,
        &mut Rng::new(seed),
    )
}

fn build_op(cfg: &SimConfig, op: &OpSpec) -> Box<dyn Operator> {
    let exec_cfg = cfg.resources.exec;
    match op {
        OpSpec::Join { r, s } => {
            Box::new(HashJoin::new(exec_cfg, r.file, r.pages, s.file, s.pages))
        }
        OpSpec::Sort { r } => Box::new(ExternalSort::new(exec_cfg, r.file, r.pages)),
    }
}

/// Drive `op` to completion through the engine's protocol: plan a run,
/// consume it, and on the grant change roll back to the consumption point
/// before applying the new grant. `plans` counts how often the operator
/// is re-entered for work; `actions` counts the actions it yields.
fn drive(
    op: &mut dyn Operator,
    q: &QuerySpec,
    counts: &mut ExecCounts,
    mut on_action: impl FnMut(Action),
) -> Result<(), String> {
    const MAX_PLANS: u64 = 50_000_000;
    op.set_allocation(q.grant);
    let mut run = ActionRun::new();
    let mut done = 0u64;
    for _ in 0..MAX_PLANS {
        op.plan_run(&mut run);
        counts.plans += 1;
        while let Some(action) = run.pop() {
            done += 1;
            match action {
                Action::Finished => {
                    counts.actions += done;
                    counts.queries += 1;
                    return Ok(());
                }
                Action::Parked => return Err("operator parked despite its grant".into()),
                a => on_action(a),
            }
            if done == q.change_after {
                if run.has_pending() {
                    op.sync_run(&run);
                    run.clear();
                }
                op.set_allocation(q.regrant);
                break;
            }
        }
    }
    Err(format!("operator did not finish within {MAX_PLANS} plans"))
}
