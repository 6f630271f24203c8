//! Transparent layer decorators for the traced run.
//!
//! The benchmark measures each layer from outside, through public APIs
//! only: [`TracedPolicy`] wraps any [`RatePolicy`] and [`TracedFeed`] any
//! [`JobFeed`], forwarding every call unchanged and recording a span
//! (start and end, in nanoseconds since a shared epoch) around the calls
//! that do a layer's work. Untraced runs use neither decorator. The
//! transparency tests in `main.rs` pin that a wrapped run produces the
//! same completion digest and driver counters as an unwrapped one.

use echelon_core::JobId;
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::runtime::JobFeed;
use echelon_simnet::alloc::{AllocScratch, RateAlloc};
use echelon_simnet::fault::FaultKind;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::NodeId;
use echelon_simnet::runner::{AllocHorizon, RatePolicy};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeSet;
use std::time::Instant;

/// One timed call: nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Times `f` against `epoch` and appends the interval to `spans`.
fn timed<T>(epoch: Instant, spans: &mut Vec<Interval>, f: impl FnOnce() -> T) -> T {
    let start_ns = since(epoch);
    let out = f();
    spans.push(Interval {
        start_ns,
        end_ns: since(epoch),
    });
    out
}

/// A [`RatePolicy`] that times every allocation entry point of the
/// wrapped policy and forwards everything else untouched.
pub struct TracedPolicy<P: RatePolicy> {
    inner: P,
    epoch: Instant,
    allocs: Vec<Interval>,
}

impl<P: RatePolicy> TracedPolicy<P> {
    pub fn new(inner: P, epoch: Instant) -> TracedPolicy<P> {
        TracedPolicy {
            inner,
            epoch,
            allocs: Vec::new(),
        }
    }

    /// The wrapped policy and the allocation spans recorded around it.
    pub fn into_parts(self) -> (P, Vec<Interval>) {
        (self.inner, self.allocs)
    }
}

impl<P: RatePolicy> RatePolicy for TracedPolicy<P> {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        let inner = &mut self.inner;
        timed(self.epoch, &mut self.allocs, || {
            inner.allocate(now, flows, topo)
        })
    }

    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        let inner = &mut self.inner;
        timed(self.epoch, &mut self.allocs, || {
            inner.allocate_incremental(now, flows, delta, topo)
        })
    }

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let inner = &mut self.inner;
        timed(self.epoch, &mut self.allocs, || {
            inner.allocate_dense(now, flows, topo, ws, out)
        })
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let inner = &mut self.inner;
        timed(self.epoch, &mut self.allocs, || {
            inner.allocate_dense_incremental(now, flows, delta, topo, ws, out)
        })
    }

    fn allocate_dense_incremental_sparse(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        let inner = &mut self.inner;
        timed(self.epoch, &mut self.allocs, || {
            inner.allocate_dense_incremental_sparse(now, flows, delta, topo, ws, out)
        })
    }

    fn changed_indices(&self) -> Option<&[usize]> {
        self.inner.changed_indices()
    }

    fn horizon(&self, now: SimTime, flows: &[ActiveFlowView], rates: &[f64]) -> AllocHorizon {
        self.inner.horizon(now, flows, rates)
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        self.inner.on_fault(now, fault)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        self.inner.pod_stats()
    }

    fn delta_fill_stats(&self) -> Option<(u64, u64)> {
        self.inner.delta_fill_stats()
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.inner.book_stats()
    }
}

/// What [`TracedFeed`] observed of the service layer.
#[derive(Debug, Clone, Default)]
pub struct FeedTrace {
    /// One span per [`JobFeed::admit`] call.
    pub admits: Vec<Interval>,
    /// One span per [`JobFeed::on_job_retired`] call.
    pub retires: Vec<Interval>,
    /// Jobs returned by all admit calls together.
    pub admitted: usize,
    /// Highest backlog seen right after an admit call.
    pub backlog_peak: usize,
}

/// A [`JobFeed`] that times admission and retirement on the wrapped feed
/// and forwards every query untouched.
pub struct TracedFeed<'a, F: JobFeed + ?Sized> {
    inner: &'a mut F,
    epoch: Instant,
    trace: FeedTrace,
}

impl<'a, F: JobFeed + ?Sized> TracedFeed<'a, F> {
    pub fn new(inner: &'a mut F, epoch: Instant) -> TracedFeed<'a, F> {
        TracedFeed {
            inner,
            epoch,
            trace: FeedTrace::default(),
        }
    }

    pub fn into_trace(self) -> FeedTrace {
        self.trace
    }
}

impl<F: JobFeed + ?Sized> JobFeed for TracedFeed<'_, F> {
    fn next_event_at(&self) -> Option<SimTime> {
        self.inner.next_event_at()
    }

    fn wants_admission(&self, now: SimTime) -> bool {
        self.inner.wants_admission(now)
    }

    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        let inner = &mut *self.inner;
        let jobs = timed(self.epoch, &mut self.trace.admits, || {
            inner.admit(now, claimed)
        });
        self.trace.admitted += jobs.len();
        self.trace.backlog_peak = self.trace.backlog_peak.max(self.inner.backlog());
        jobs
    }

    fn on_job_retired(&mut self, now: SimTime, job: JobId) {
        let inner = &mut *self.inner;
        timed(self.epoch, &mut self.trace.retires, || {
            inner.on_job_retired(now, job)
        })
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}
