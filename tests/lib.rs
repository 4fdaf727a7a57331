//! Shared fixtures for the cross-crate integration tests.

use pmm_core::pmm::{
    max_allocate_into, minmax_allocate_into, proportional_allocate_into, AllocScratch,
    Grants, QueryDemand,
};
use pmm_core::prelude::*;

/// A short baseline configuration sized for test runtimes: same model as
/// the paper's Section 5.1 setup, shorter horizon.
pub fn short_baseline(rate: f64, secs: f64) -> SimConfig {
    let mut cfg = SimConfig::baseline(rate);
    cfg.duration_secs = secs;
    cfg.window_secs = secs / 4.0;
    cfg
}

/// One-shot Max division on fresh buffers (a cold scratch and a new grant
/// vector per call).
pub fn fresh_max(queries: &[QueryDemand], total: u32) -> Grants {
    let mut out = Grants::new();
    max_allocate_into(queries, total, &mut AllocScratch::default(), &mut out);
    out
}

/// One-shot MinMax-N division on fresh buffers.
pub fn fresh_minmax(queries: &[QueryDemand], total: u32, limit: Option<u32>) -> Grants {
    let mut out = Grants::new();
    minmax_allocate_into(
        queries,
        total,
        limit,
        &mut AllocScratch::default(),
        &mut out,
    );
    out
}

/// One-shot Proportional-N division on fresh buffers.
pub fn fresh_proportional(
    queries: &[QueryDemand],
    total: u32,
    limit: Option<u32>,
) -> Grants {
    let mut out = Grants::new();
    proportional_allocate_into(
        queries,
        total,
        limit,
        &mut AllocScratch::default(),
        &mut out,
    );
    out
}
