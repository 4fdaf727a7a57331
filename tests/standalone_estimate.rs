//! The stand-alone deadline estimate is exact: for every operand pair of
//! the baseline and workload-change databases, on both the cylinder disk
//! and the SSD, `rtdbs::standalone_estimate` returns the same `Duration`,
//! bit for bit, as a straightforward reference kept here — a layout lookup
//! per I/O and a hash map of fresh per-disk service models.

use pmm_core::exec::{Action, FileRef};
use pmm_core::prelude::*;
use pmm_core::rtdbs::standalone_estimate;
use pmm_core::simkit::SeedSequence;
use pmm_core::storage::{DiskId, Layout, RelationMeta, ServiceModel};
use std::collections::HashMap;

/// The estimate as first written: resolve every I/O through
/// `Layout::meta` and keep one lazily built service model per disk in a
/// `HashMap`.
fn reference(
    cfg: &SimConfig,
    layout: &Layout,
    r: RelationMeta,
    s: Option<RelationMeta>,
) -> Duration {
    let res = &cfg.resources;
    let mut op: Box<dyn Operator> = match s {
        Some(s) => Box::new(HashJoin::new(res.exec, r.file, r.pages, s.file, s.pages)),
        None => Box::new(ExternalSort::new(res.exec, r.file, r.pages)),
    };
    op.set_allocation(op.max_memory());
    let geometry = res.geometry;
    let mut total = Duration::ZERO;
    let mut models: HashMap<DiskId, Box<dyn ServiceModel>> = HashMap::new();
    loop {
        match op.step() {
            Action::Cpu(instr) => {
                total += Duration::from_secs_f64(instr as f64 / (res.cpu_mips * 1e6));
            }
            Action::Io(io) => {
                let (disk, start) = match io.file {
                    FileRef::Base(f) => {
                        let meta = layout.meta(f);
                        (meta.disk, meta.start_cylinder)
                    }
                    FileRef::Temp(_) => (r.disk, geometry.num_cylinders / 6),
                };
                let cyl = geometry.cylinder_of(start, io.first_page);
                let model = models.entry(disk).or_insert_with(|| {
                    let mut m = res.device.build(&geometry);
                    m.park_at(cyl);
                    m
                });
                total += model.access_time(cyl, io.pages.max(1), io.kind, 0);
            }
            Action::CreateTemp { .. } | Action::DropTemp { .. } => {}
            Action::Parked => panic!("stand-alone execution cannot park"),
            Action::Finished => return total,
        }
    }
}

/// Compare every operand pair (and every sort operand) the config's
/// classes can draw; returns how many were compared.
fn check_every_pair(cfg: &SimConfig) -> usize {
    let layout = Layout::build(
        cfg.resources.geometry,
        cfg.resources.num_disks,
        &cfg.database,
        &mut SeedSequence::new(cfg.seed).stream("layout"),
    );
    let rel = |i: usize| layout.relations()[i];
    let placed = |m: RelationMeta| (m.file, layout.meta(m.file));
    let mut compared = 0;
    for class in &cfg.classes {
        match class.query_type {
            QueryType::HashJoin { groups } => {
                for &a in layout.relations_in_group(groups.0) {
                    for &b in layout.relations_in_group(groups.1) {
                        // The engine's operand order: the smaller builds.
                        let (r, s) = if rel(a).pages <= rel(b).pages {
                            (rel(a), rel(b))
                        } else {
                            (rel(b), rel(a))
                        };
                        let got = standalone_estimate(
                            &cfg.resources,
                            placed(r),
                            Some(placed(s)),
                        );
                        assert_eq!(
                            got,
                            reference(cfg, &layout, r, Some(s)),
                            "{r:?} ⋈ {s:?}"
                        );
                        compared += 1;
                    }
                }
            }
            QueryType::ExternalSort { group } => {
                for &a in layout.relations_in_group(group) {
                    let got = standalone_estimate(&cfg.resources, placed(rel(a)), None);
                    assert_eq!(got, reference(cfg, &layout, rel(a), None), "sort {a}");
                    compared += 1;
                }
            }
        }
    }
    compared
}

#[test]
fn estimate_matches_reference_on_every_baseline_pair() {
    for device in [DeviceSpec::Cylinder, DeviceSpec::Ssd(SsdSpec::default())] {
        let cfg = SimConfig::baseline(0.07).with_device(device);
        // 30 × 30 operand pairs: 3 relations per disk per group, 10 disks.
        assert_eq!(check_every_pair(&cfg), 900);
    }
}

#[test]
fn estimate_matches_reference_on_every_workload_change_pair() {
    for device in [DeviceSpec::Cylinder, DeviceSpec::Ssd(SsdSpec::default())] {
        let cfg = SimConfig::workload_changes().with_device(device);
        // Medium and Small classes, 18 × 18 pairs each on 6 disks.
        assert_eq!(check_every_pair(&cfg), 2 * 324);
    }
}

#[test]
fn estimate_matches_reference_on_sorts() {
    let cfg = SimConfig::sorts(0.1);
    assert!(check_every_pair(&cfg) > 0);
}
