//! In-situ spans around the memory policy: a forwarding `MemoryPolicy`
//! that times every allocation and feedback call the engine makes.

use pmm::{
    AllocScratch, BatchStats, DirtySet, Grants, MemoryPolicy, QueryDemand, StrategyMode,
    SystemSnapshot, TracePoint,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    Allocate,
    AllocateDirty,
    Batch,
    TenantBatch,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Allocate => "allocate_into",
            SpanKind::AllocateDirty => "allocate_dirty_into",
            SpanKind::Batch => "on_batch",
            SpanKind::TenantBatch => "on_tenant_batch",
        }
    }

    pub fn is_allocate(self) -> bool {
        matches!(self, SpanKind::Allocate | SpanKind::AllocateDirty)
    }
}

/// One policy call; times are nanoseconds from the log's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Rc<RefCell<SpanLog>> {
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }))
    }

    /// Durations (ns) of the spans `keep` selects.
    pub fn durations(
        &self,
        keep: fn(SpanKind) -> bool,
    ) -> impl Iterator<Item = f64> + '_ {
        self.spans
            .iter()
            .filter(move |s| keep(s.kind))
            .map(|s| s.dur_ns as f64)
    }
}

/// Forwards every `MemoryPolicy` method to `inner`, including the ones
/// that pick the engine's code path (`supports_dirty_allocation`,
/// `wants_tenant_feedback`, `target_mpl`, `mode`, `trace`), so a wrapped
/// run takes exactly the bare run's path.
pub struct TracedPolicy {
    inner: Box<dyn MemoryPolicy>,
    log: Rc<RefCell<SpanLog>>,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn MemoryPolicy>, log: Rc<RefCell<SpanLog>>) -> Self {
        TracedPolicy { inner, log }
    }

    fn record(&self, kind: SpanKind, t0: Instant) {
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        let start_ns = t0.duration_since(log.origin).as_nanos() as u64;
        let dur_ns = end.duration_since(t0).as_nanos() as u64;
        log.spans.push(Span {
            kind,
            start_ns,
            dur_ns,
        });
    }
}

impl MemoryPolicy for TracedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn allocate_into(
        &mut self,
        snapshot: &SystemSnapshot,
        scratch: &mut AllocScratch,
        out: &mut Grants,
    ) {
        let t0 = Instant::now();
        self.inner.allocate_into(snapshot, scratch, out);
        self.record(SpanKind::Allocate, t0);
    }

    fn supports_dirty_allocation(&self) -> bool {
        self.inner.supports_dirty_allocation()
    }

    fn allocate_dirty_into(
        &mut self,
        total_memory: u32,
        groups: &[Vec<QueryDemand>],
        dirty: &mut DirtySet,
        out: &mut Grants,
    ) {
        let t0 = Instant::now();
        self.inner
            .allocate_dirty_into(total_memory, groups, dirty, out);
        self.record(SpanKind::AllocateDirty, t0);
    }

    fn on_batch(&mut self, stats: &BatchStats) {
        let t0 = Instant::now();
        self.inner.on_batch(stats);
        self.record(SpanKind::Batch, t0);
    }

    fn wants_tenant_feedback(&self) -> bool {
        self.inner.wants_tenant_feedback()
    }

    fn on_tenant_batch(&mut self, tenant: u32, stats: &BatchStats) {
        let t0 = Instant::now();
        self.inner.on_tenant_batch(tenant, stats);
        self.record(SpanKind::TenantBatch, t0);
    }

    fn target_mpl(&self) -> Option<u32> {
        self.inner.target_mpl()
    }

    fn mode(&self) -> StrategyMode {
        self.inner.mode()
    }

    fn trace(&self) -> &[TracePoint] {
        self.inner.trace()
    }
}
