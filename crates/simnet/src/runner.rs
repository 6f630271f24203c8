//! Self-contained flow simulation loop for static demand sets.
//!
//! [`run_flows`] drives a static set of [`FlowDemand`]s to completion under
//! a [`RatePolicy`]. The driver recomputes rates at every event batch
//! that has active flows: releases, completions and faults (the fluid
//! model's only rate-change points for static demand sets).
//!
//! [`run_flows_with`] additionally selects a [`RecomputeMode`]: `Full`
//! calls [`RatePolicy::allocate_dense`] (the naive reference path,
//! re-deriving everything from the flow slice), `Incremental` calls
//! [`RatePolicy::allocate_dense_incremental`] with the [`FlowDelta`]
//! accumulated since the previous allocation, letting stateful schedulers
//! reuse cached group structure. Both modes must produce bit-identical
//! traces; the differential tests in `tests/differential.rs` enforce this.
//!
//! The event-loop skeleton itself lives in [`crate::driver`]; this module
//! contributes only the static-demand [`WorkloadSource`] (release flows at
//! fixed times, collect completions) and remains the workhorse for
//! scheduler unit tests and the pure-network experiments. Layers with
//! *dynamic* demands (compute units emitting flows, chunked transport,
//! cluster arrivals) plug their own sources into the same driver.

use crate::alloc::{
    alloc_via_dense, store_slot_route, waterfill_bucket, waterfill_dense, AllocScratch, RateAlloc,
};
use crate::driver::{drive_faulted_configured, DriveConfig, DriveStats, WorkloadSource};
use crate::fault::{FaultKind, FaultPlan};
use crate::flow::{ActiveFlowView, FlowCompletion, FlowDemand};
use crate::fluid::{FlowDelta, FluidNetwork};
use crate::ids::FlowId;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{FlowTrace, TraceEventKind};
use std::collections::BTreeMap;

/// A bandwidth allocation policy: the single extension point all
/// schedulers implement.
///
/// The driver calls [`Self::allocate_dense`] or
/// [`Self::allocate_dense_incremental`] (or its sparse variant) at every
/// event batch with active flows, and the policy must write a feasible
/// rate for every active flow. Policies may keep internal state (e.g. coflow orderings
/// computed on arrival).
///
/// [`Self::allocate_dense`] is the one required method. Every other
/// entry point has a provided default built on it: the incremental
/// recompute ignores the delta, and the map-based [`Self::allocate`] and
/// [`Self::allocate_incremental`] convert the dense answer once
/// ([`alloc_via_dense`]). A stateful policy overrides
/// [`Self::allocate_dense_incremental`] to patch its cached structure.
pub trait RatePolicy {
    /// Map-based full recompute, for callers outside the driver: the
    /// dense answer as one id-keyed [`RateAlloc`].
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
        })
    }

    /// Map-based incremental recompute: the answer of
    /// [`Self::allocate_dense_incremental`] as one [`RateAlloc`].
    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense_incremental(now, flows, delta, topo, ws, out)
        })
    }

    /// Dense full recompute: writes `out[i]` for `flows[i]` (the id-sorted
    /// active slice), reusing the caller-owned scratch so steady-state
    /// allocations touch no heap. `out` must end up `flows.len()` long.
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    );

    /// Dense incremental recompute: like [`Self::allocate_dense`], but
    /// additionally told which flows arrived/departed since the previous
    /// call, so stateful policies can patch cached group structure
    /// instead of re-deriving it from `flows`.
    ///
    /// The default ignores the delta and runs the full recompute, so
    /// plain policies stay correct for free. Implementations must be
    /// *observationally identical* to [`Self::allocate_dense`]: given the
    /// same event sequence, both paths must return bit-identical
    /// allocations. Callers must report every arrival and departure
    /// through `delta` exactly once across the sequence of incremental
    /// calls.
    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let _ = delta;
        self.allocate_dense(now, flows, topo, ws, out);
    }

    /// Unused: the driver allocates at every event batch and never asks.
    /// Kept, returning [`AllocHorizon::NextEvent`], because the benchmark
    /// binary's policy wrapper still forwards it.
    fn horizon(&self, now: SimTime, flows: &[ActiveFlowView], rates: &[f64]) -> AllocHorizon {
        let _ = (now, flows, rates);
        AllocHorizon::NextEvent
    }

    /// Notifies the policy of an injected fault (see [`crate::fault`]).
    /// Called by [`crate::driver::drive_faulted`] *after* link capacity
    /// changes have been applied to the driver's network but *before* the
    /// fault-forced reallocation. Policies holding caches whose validity
    /// depends on capacities or coordinator availability must invalidate
    /// them here — the fault differential suite fails bitwise against the
    /// full-recompute reference if they don't. Default: ignore (correct
    /// for policies that re-read capacities on every allocation).
    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let _ = (now, fault);
    }

    /// Voids any answer the policy holds over from an earlier allocation
    /// (a coordinator keeps a decision's rates in force between its
    /// triggers), so the next allocation computes afresh. A decorator
    /// that re-derives its own answer from the wrapped policy's at every
    /// event calls it before each allocation; the driver never does.
    /// Default: nothing is held.
    fn release_held(&mut self) {}

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str {
        "policy"
    }

    /// Pod-decomposition counters as `(pods recomputed, pods in scope)`,
    /// summed over this policy's allocations, for
    /// [`DriveStats::pod_recompute_fraction`]. `None` (the default) means
    /// the policy does not decompose by pod; the driver leaves the
    /// counters at zero.
    fn pod_stats(&self) -> Option<(usize, usize)> {
        None
    }

    /// Delta-fill counters as `(patch hits, full-refill fallbacks)`, for
    /// [`DriveStats`]`::{delta_fill_hits, delta_fill_fallbacks}`. No
    /// policy in the workspace keeps a fill cache, so every one returns
    /// the default `None` and the driver leaves both counters at zero.
    /// The hook stays because policy decorators (the benchmark's
    /// `TracedPolicy`) forward it.
    ///
    /// [`DriveStats`]: crate::driver::DriveStats
    fn delta_fill_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Group-registry occupancy as `(current, peak)` — how many flow
    /// groups (EchelonFlows, coflows) the policy holds *now* and at its
    /// high-water mark, for [`DriveStats::peak_book_occupancy`]. The peak
    /// is the memory-bound witness of open-loop drives: with completed-
    /// group eviction it stays proportional to concurrently live jobs,
    /// not to all jobs ever admitted. `None` (the default) means the
    /// policy keeps no group registry; the driver leaves the counter at
    /// zero.
    ///
    /// [`DriveStats::peak_book_occupancy`]: crate::driver::DriveStats::peak_book_occupancy
    fn book_stats(&self) -> Option<(usize, usize)> {
        None
    }

    /// Sparse-licensed variant of [`Self::allocate_dense_incremental`]:
    /// the policy *may* leave `out` entries it knows are unchanged stale
    /// (unwritten or carrying garbage), reporting the rewritten indices
    /// through [`Self::changed_indices`]. Returns `true` when it did so
    /// — the caller must then apply via
    /// `FluidNetwork::set_rates_sparse(out, changed)` — and `false` when
    /// it fell back to the dense contract with `out` fully populated.
    ///
    /// The default delegates to the dense incremental path, so plain
    /// policies never produce sparse buffers.
    #[allow(clippy::too_many_arguments)]
    fn allocate_dense_incremental_sparse(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        self.allocate_dense_incremental(now, flows, delta, topo, ws, out);
        false
    }

    /// Indices of `out` the most recent sparse-licensed allocation
    /// rewrote (see [`Self::allocate_dense_incremental_sparse`]).
    /// `Some(changed)` licenses the caller to apply rates sparsely —
    /// entries outside `changed` were not rewritten (their buffer
    /// contents are unspecified) and the network's current rates for
    /// them are still the policy's answer. `None` (the default) means
    /// every entry of `out` is authoritative and must be applied
    /// densely. Only meaningful immediately after an `allocate_dense*`
    /// call on the same policy; any intervening call invalidates the
    /// slice.
    fn changed_indices(&self) -> Option<&[usize]> {
        None
    }
}

/// The return type of the unused [`RatePolicy::horizon`]: the driver
/// recomputes at every event batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocHorizon {
    /// Recompute at the next event.
    NextEvent,
}

/// Which `RatePolicy` entry point the simulation loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeMode {
    /// Call [`RatePolicy::allocate_dense`] — re-derive everything per event.
    #[default]
    Full,
    /// Call [`RatePolicy::allocate_dense_incremental`] with the flow delta.
    Incremental,
}

/// Max-min fair sharing: the paper's baseline (Fig. 2a).
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxMinPolicy;

impl RatePolicy for MaxMinPolicy {
    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(flows.len(), 0.0);
        waterfill_dense(topo, flows, None, out, ws);
    }

    fn name(&self) -> &'static str {
        "fair-sharing"
    }
}

/// Sentinel pod id for flows whose route crosses the core (src and dst
/// live in different pods) — their presence couples pods, so the policy
/// falls back to the whole-fabric waterfill.
const CROSS_POD: u32 = u32::MAX;

/// Pod-decomposed max-min fair sharing for fat-tree fabrics.
///
/// On a [`Topology::FatTree`], every resource belongs to exactly one pod
/// and a pod-local flow's route stays inside its pod, so the fabric-wide
/// max-min filling decomposes into independent per-pod fillings over
/// disjoint link sets. The canonical arithmetic is *pod-sequential*:
/// each pod is filled on its own, seeding residuals from its own links
/// only, bit for bit as the unweighted, zero-floor
/// [`crate::alloc::waterfill_dense`] fills the pod's members alone, in
/// ascending id order. (This is the policy's own reference arithmetic —
/// it is max-min fair per pod, but not bit-identical to
/// [`MaxMinPolicy`]'s whole-fabric round structure.)
///
/// The policy is one state machine over flow deltas. Arrivals and
/// departures dirty their pod; every allocation refills exactly the
/// dirty pods and keeps the stored rates of the clean ones — exact,
/// because a pod's rates are a pure function of its flow set and link
/// capacities. The full recompute ([`RatePolicy::allocate_dense`]) is
/// the same machine fed a delta in which every live flow arrived. Any
/// fault dirties every pod ([`RatePolicy::on_fault`]), and any live
/// core-crossing flow forces the whole-fabric fallback until it drains:
/// the same engine over every live flow, bitwise
/// [`crate::alloc::waterfill_dense`]. Pod and fabric fills of every
/// width run one engine, the bucket-queue waterfill, in one coordinate
/// system, global link ids. The differential suites pin both
/// recompute modes bitwise against an independent pod-sequential
/// reference.
///
/// On topologies without pods the policy always uses the whole-fabric
/// waterfill and reports no pod work.
#[derive(Debug, Default, Clone)]
pub struct PodMaxMinPolicy {
    /// Pod of each live flow ([`CROSS_POD`] for core-crossing flows);
    /// needed to dirty the right pod on departures, whose views are gone
    /// from the flow slice by allocation time.
    pod_of_flow: BTreeMap<FlowId, u32>,
    /// Live core-crossing flows; nonzero forces the global fallback.
    cross_pod_live: usize,
    /// Live member ids per pod, ascending — the order the pod-sequential
    /// arithmetic fills them in.
    pod_members: Vec<Vec<FlowId>>,
    /// Per pod: every member's `slot_rate` entry holds its current rate.
    /// Arrivals, departures and faults clear it; a refill sets it.
    cache_valid: Vec<bool>,
    /// Rate per arena slot, written when the owning pod is refilled.
    /// Valid for a live pod-local flow iff its pod is clean: arrivals
    /// and departures both dirty their pod, so a clean pod's members
    /// were all refilled together. Slot recycling is safe for the same
    /// reason — reuse implies a departure and an arrival.
    slot_rate: Vec<f64>,
    /// Scratch: output indices of the members of the pods the latest
    /// allocation refilled, in ascending pod order — after a sparse
    /// allocation, exactly the rewritten entries. A whole-fabric
    /// fallback lists every flow.
    members: Vec<usize>,
    /// Scratch parallel to `members`: each member's arena slot.
    member_slots: Vec<u32>,
    /// True when `members` describes the most recent allocation (see
    /// [`RatePolicy::changed_indices`]).
    sparse_report: bool,
    /// Force the next pod-mode allocation to emit every live flow
    /// densely: set when a whole-fabric fallback overwrote clean pods'
    /// applied rates, which a sparse apply would otherwise never repair.
    emit_all: bool,
    pods_recomputed: usize,
    pods_total: usize,
    /// Capacity per global link id; empty = stale. Snapshotted lazily
    /// from the topology and cleared on every fault (capacities are the
    /// only fault-mutable input) and every reset.
    caps: Vec<f64>,
    /// Per arena slot: the flow's route as global link ids, core
    /// crossers included, written once at arrival (routes are fixed for
    /// a flow's lifetime, slots recycle only through a departure +
    /// arrival). Flat arena of [`crate::alloc::ROUTE_RANK_STRIDE`]
    /// entries per slot — one cache line, no pointer chase.
    routes: Vec<u32>,
}

impl PodMaxMinPolicy {
    /// A pod-decomposed policy with no flows observed yet.
    pub fn new() -> PodMaxMinPolicy {
        PodMaxMinPolicy::default()
    }

    /// Accepted and ignored: pods are always refilled on the calling
    /// thread. Per-pod thread sharding was removed (DESIGN §12.4); the
    /// method stays because the benchmark package builds its policy
    /// with `with_threads(1)`.
    pub fn with_threads(self, threads: usize) -> PodMaxMinPolicy {
        let _ = threads;
        self
    }

    /// The pod of a flow, or [`CROSS_POD`] when its endpoints differ.
    fn classify(topo: &Topology, src: crate::ids::NodeId, dst: crate::ids::NodeId) -> u32 {
        match (topo.host_pod(src), topo.host_pod(dst)) {
            (Some(a), Some(b)) if a == b => a,
            _ => CROSS_POD,
        }
    }

    /// Sizes the per-pod state for a fabric of `npods` pods.
    fn ensure_pods(&mut self, npods: usize) {
        if self.pod_members.len() != npods {
            self.pod_members = vec![Vec::new(); npods];
            self.cache_valid = vec![false; npods];
        }
    }

    /// Forgets every flow observed so far, as if all of them departed:
    /// their pods are emptied and dirtied. Exact whenever every live
    /// flow is among the current arrivals, since no earlier flow can
    /// then still be live. It also drops the departures the driver
    /// never delivers — flows finishing at a run's final instant — which
    /// a reused policy would otherwise resolve, and the capacity
    /// snapshot, since a previous run may have ended on a degraded link
    /// or run on another fabric.
    fn reset(&mut self) {
        for (pod, members) in self.pod_members.iter_mut().enumerate() {
            if !members.is_empty() {
                members.clear();
                self.cache_valid[pod] = false;
            }
        }
        self.pod_of_flow.clear();
        self.cross_pod_live = 0;
        self.caps.clear();
    }

    /// Observes `v` arriving: stores its route in the slot arena once
    /// (routes are fixed for the flow's lifetime and a slot is recycled
    /// only through a departure + arrival) and dirties its pod.
    fn arrive(&mut self, v: &ActiveFlowView, topo: &Topology) {
        let slot = v.slot as usize;
        if slot >= self.slot_rate.len() {
            self.slot_rate.resize(slot + 1, 0.0);
        }
        store_slot_route(&mut self.routes, v.slot, &v.route);
        let pod = Self::classify(topo, v.src, v.dst);
        self.pod_of_flow.insert(v.id, pod);
        if pod == CROSS_POD {
            self.cross_pod_live += 1;
            return;
        }
        self.cache_valid[pod as usize] = false;
        let pm = &mut self.pod_members[pod as usize];
        if let Err(p) = pm.binary_search(&v.id) {
            pm.insert(p, v.id);
        }
    }

    /// Observes a departure, dirtying the flow's pod. An id never seen
    /// arriving — it arrived and departed within one delta, so it was
    /// never allocated — changes nothing.
    fn depart(&mut self, id: &FlowId) {
        match self.pod_of_flow.remove(id) {
            Some(CROSS_POD) => self.cross_pod_live -= 1,
            Some(pod) => {
                self.cache_valid[pod as usize] = false;
                let pm = &mut self.pod_members[pod as usize];
                if let Ok(p) = pm.binary_search(id) {
                    pm.remove(p);
                }
            }
            None => {}
        }
    }

    /// Refills every dirty pod: resolves its members from `pod_members`,
    /// runs the bucket engine over them, and stores their rates in
    /// `slot_rate`. The engine also writes each member's entry of `out`,
    /// and `members` ends up listing exactly those entries. Members
    /// resolve in ascending id order, the order the reference arithmetic
    /// fills them in, and the engine is bitwise that arithmetic.
    fn refill(
        &mut self,
        npods: usize,
        flows: &[ActiveFlowView],
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.resize(flows.len(), 0.0);
        self.members.clear();
        self.member_slots.clear();
        self.pods_total += npods;
        for pod in 0..npods {
            if self.cache_valid[pod] {
                continue;
            }
            self.cache_valid[pod] = true;
            self.pods_recomputed += 1;
            let start = self.members.len();
            for id in &self.pod_members[pod] {
                let i = flows
                    .binary_search_by(|v| v.id.cmp(id))
                    .expect("pod member missing from the active slice");
                self.members.push(i);
                self.member_slots.push(flows[i].slot);
            }
            let members = &self.members[start..];
            let slots = &self.member_slots[start..];
            waterfill_bucket(&self.caps, members, slots, &self.routes, out, ws);
            for (&i, &slot) in members.iter().zip(slots) {
                self.slot_rate[slot as usize] = out[i];
            }
        }
    }

    /// Every pod-mode allocation once its delta has been observed. A
    /// live core-crossing flow couples pods, so the whole fabric is
    /// filled instead. Otherwise the dirty pods are refilled; a sparse
    /// allocation stops there, and a dense one gathers every live
    /// flow's rate from `slot_rate`.
    fn emit(
        &mut self,
        npods: usize,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
        allow_sparse: bool,
    ) {
        if self.caps.is_empty() {
            topo.capacities_into(&mut self.caps);
        }
        if self.cross_pod_live > 0 {
            // The fabric fill overwrites every live flow's applied rate,
            // including clean pods' — a later sparse apply would never
            // repair those, so the next pod-mode allocation must emit
            // densely. Touched pods stay dirty, so pod mode resumes
            // exactly when the crossing flows drain. Every flow in id
            // order through the pod engine is bitwise the unweighted,
            // zero-floor `waterfill_dense` (DESIGN §10.3).
            self.emit_all = true;
            self.pods_total += npods;
            self.pods_recomputed += npods;
            self.members.clear();
            self.members.extend(0..flows.len());
            self.member_slots.clear();
            self.member_slots.extend(flows.iter().map(|v| v.slot));
            out.resize(flows.len(), 0.0);
            waterfill_bucket(
                &self.caps,
                &self.members,
                &self.member_slots,
                &self.routes,
                out,
                ws,
            );
            return;
        }
        self.refill(npods, flows, ws, out);
        if allow_sparse && !self.emit_all {
            self.sparse_report = true;
        } else {
            self.emit_all = false;
            for (rate, v) in out.iter_mut().zip(flows) {
                *rate = self.slot_rate[v.slot as usize];
            }
        }
    }

    /// Shared body of the incremental entry points. `allow_sparse`
    /// licenses a stale-entry output buffer (see
    /// [`RatePolicy::allocate_dense_incremental_sparse`]); with it false
    /// the buffer is always fully populated.
    #[allow(clippy::too_many_arguments)]
    fn allocate_incremental_inner(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
        allow_sparse: bool,
    ) {
        let Some((npods, _)) = topo.pod_partition() else {
            self.allocate_dense(now, flows, topo, ws, out);
            return;
        };
        let npods = npods as usize;
        self.sparse_report = false;
        self.ensure_pods(npods);
        let position = |id: &FlowId| flows.binary_search_by(|v| v.id.cmp(id)).ok();
        if delta.arrived.len() >= flows.len()
            && delta
                .arrived
                .iter()
                .filter(|id| position(id).is_some())
                .count()
                == flows.len()
        {
            self.reset();
        }
        // An arrival missing from the flow slice arrived *and* departed
        // within this delta: it was never allocated, its pod is
        // net-unchanged, and it is skipped here and in `depart`.
        for id in &delta.arrived {
            if let Some(i) = position(id) {
                self.arrive(&flows[i], topo);
            }
        }
        for id in &delta.departed {
            self.depart(id);
        }
        self.emit(npods, flows, topo, ws, out, allow_sparse);
    }
}

impl RatePolicy for PodMaxMinPolicy {
    /// The full recompute: the delta in which every live flow arrived.
    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.sparse_report = false;
        let Some((npods, _)) = topo.pod_partition() else {
            out.clear();
            out.resize(flows.len(), 0.0);
            waterfill_dense(topo, flows, None, out, ws);
            return;
        };
        let npods = npods as usize;
        self.ensure_pods(npods);
        self.reset();
        for v in flows {
            self.arrive(v, topo);
        }
        self.emit(npods, flows, topo, ws, out, false);
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
        self.allocate_incremental_inner(now, flows, delta, topo, ws, out, false);
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
        self.allocate_incremental_inner(now, flows, delta, topo, ws, out, true);
        self.sparse_report
    }

    /// Any fault may change link capacities, and a pod's stored rates
    /// bake those in: dirty every pod *and* drop the capacity snapshot
    /// (it feeds every pod and fabric fill and must be re-read from the
    /// post-fault topology).
    fn on_fault(&mut self, _now: SimTime, _fault: &FaultKind) {
        self.cache_valid.fill(false);
        self.caps.clear();
    }

    fn name(&self) -> &'static str {
        "pod-fair-sharing"
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        Some((self.pods_recomputed, self.pods_total))
    }

    fn changed_indices(&self) -> Option<&[usize]> {
        self.sparse_report.then_some(self.members.as_slice())
    }
}

/// Results of a completed flow simulation.
#[derive(Debug, Clone)]
pub struct FlowOutcomes {
    completions: BTreeMap<FlowId, FlowCompletion>,
    trace: FlowTrace,
    makespan: SimTime,
    stats: DriveStats,
}

impl FlowOutcomes {
    /// Completion record of a flow.
    pub fn completion(&self, id: FlowId) -> Option<&FlowCompletion> {
        self.completions.get(&id)
    }

    /// Finish time of a flow.
    pub fn finish(&self, id: FlowId) -> Option<SimTime> {
        self.completions.get(&id).map(|c| c.finish)
    }

    /// All completions keyed by flow id.
    pub fn completions(&self) -> &BTreeMap<FlowId, FlowCompletion> {
        &self.completions
    }

    /// The recorded rate/event trace.
    pub fn trace(&self) -> &FlowTrace {
        &self.trace
    }

    /// Time the last flow finished.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Driver counters: allocations, event batching and faults.
    pub fn drive_stats(&self) -> DriveStats {
        self.stats
    }

    /// Mean flow completion time.
    pub fn mean_fct(&self) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.completions.values().map(|c| c.fct()).sum::<f64>() / self.completions.len() as f64
    }
}

/// Runs `demands` to completion under `policy` on `topology`, using the
/// full-recompute path. Shorthand for [`run_flows_with`] with
/// [`RecomputeMode::Full`].
pub fn run_flows(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
) -> FlowOutcomes {
    run_flows_with(topology, demands, policy, RecomputeMode::Full)
}

/// The static-demand [`WorkloadSource`]: flows release at fixed times and
/// nothing else ever happens, so every event the driver allocates at is
/// a release, a completion or a fault.
struct DemandSource {
    /// Ascending (release, id); `cursor` marks the next unreleased demand.
    pending: Vec<FlowDemand>,
    cursor: usize,
    /// Flat append-only completion log: each flow completes exactly once
    /// (demand ids are unique), so `len()` doubles as the completed
    /// count and the id-keyed map is built once after the drive instead
    /// of paying a B-tree insert per completion on the hot path.
    completed: Vec<FlowCompletion>,
    total: usize,
}

impl WorkloadSource for DemandSource {
    fn expected_flows(&self) -> Option<usize> {
        Some(self.total)
    }

    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, trace: &mut FlowTrace) {
        while self.cursor < self.pending.len() {
            let d = &self.pending[self.cursor];
            if !d.release.at_or_before(now) {
                break;
            }
            trace.record(now, d.id, TraceEventKind::Released);
            net.release(d);
            self.cursor += 1;
        }
    }

    fn finished(&self) -> bool {
        self.completed.len() == self.total
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        self.pending
            .get(self.cursor)
            .map(|d| (d.release - now).max(0.0))
    }

    fn on_flow_completions(
        &mut self,
        _now: SimTime,
        done: &[FlowCompletion],
        _net: &mut FluidNetwork,
        _trace: &mut FlowTrace,
    ) {
        self.completed.extend_from_slice(done);
    }
}

/// Runs `demands` to completion under `policy` on `topology`.
///
/// # Panics
///
/// Panics if the policy ever returns an infeasible allocation or a rate
/// for a flow outside the active set, or if the simulation stops making
/// progress while flows remain (a policy that starves all flows forever).
pub fn run_flows_with(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
) -> FlowOutcomes {
    run_flows_faulted(topology, demands, policy, mode, &FaultPlan::empty())
}

/// [`run_flows_with`] under an injected [`FaultPlan`]: link churn and
/// component outages strike at their scheduled times while the static
/// demand set plays out (see [`crate::fault`]).
///
/// # Panics
///
/// Panics under the same conditions as [`run_flows_with`], plus the
/// deadlock panic if the plan downs a link forever while unfinished flows
/// depend on it.
pub fn run_flows_faulted(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
) -> FlowOutcomes {
    run_flows_faulted_configured(
        topology,
        demands,
        policy,
        mode,
        plan,
        DriveConfig::default(),
    )
}

/// [`run_flows_with`] with explicit [`DriveConfig`] engine knobs and no
/// faults.
pub fn run_flows_configured(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    config: DriveConfig,
) -> FlowOutcomes {
    run_flows_faulted_configured(topology, demands, policy, mode, &FaultPlan::empty(), config)
}

/// [`run_flows_faulted`] with explicit [`DriveConfig`] engine knobs
/// (next-completion backend, feasibility checks, trace recording). All
/// config combinations are bit-identical on the trace-visible outcomes;
/// the differential suites pin this.
pub fn run_flows_faulted_configured(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    mode: RecomputeMode,
    plan: &FaultPlan,
    config: DriveConfig,
) -> FlowOutcomes {
    let mut pending = demands;
    // Ascending release order, ties by id for determinism.
    pending.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.cmp(&b.id)));
    let total = pending.len();
    let mut source = DemandSource {
        pending,
        cursor: 0,
        completed: Vec::with_capacity(total),
        total,
    };
    let outcome = drive_faulted_configured(topology, &mut source, policy, mode, plan, config);

    FlowOutcomes {
        completions: source.completed.into_iter().map(|c| (c.id, c)).collect(),
        trace: outcome.trace,
        makespan: outcome.end,
        stats: outcome.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn demand(id: u64, src: u32, dst: u32, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(src),
            NodeId(dst),
            size,
            SimTime::new(release),
        )
    }

    #[test]
    fn fair_sharing_two_equal_flows() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(4.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
        assert!(out.makespan().approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn staggered_releases_fair_sharing() {
        // The fair-sharing half of the paper's Fig. 2 geometry: three 2B
        // flows over a B=1 link, released at t = 1, 2, 3.
        let topo = Topology::chain(2, 1.0);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut MaxMinPolicy,
        );
        // Worked out by hand: f0 finishes at 4.5, f1 at 6.5, f2 at 7.0.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(4.5)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(6.5)));
        assert!(out.finish(FlowId(2)).unwrap().approx_eq(SimTime::new(7.0)));
    }

    #[test]
    fn trace_conserves_bytes() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 0, 1, 2.0, 3.0),
        ];
        let out = run_flows(&topo, demands, &mut MaxMinPolicy);
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert!(
                (out.trace().delivered_bytes(id) - 2.0).abs() < 1e-6,
                "flow {id} delivered {} of 2.0",
                out.trace().delivered_bytes(id)
            );
        }
    }

    #[test]
    fn mean_fct_reported() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_flows(&topo, vec![demand(0, 0, 1, 1.0, 0.0)], &mut MaxMinPolicy);
        assert!((out.mean_fct() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_demand_set() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_flows(&topo, vec![], &mut MaxMinPolicy);
        assert_eq!(out.completions().len(), 0);
        assert_eq!(out.makespan(), SimTime::ZERO);
    }

    #[test]
    fn identical_runs_identical_traces() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
            ]
        };
        let a = run_flows(&topo, demands(), &mut MaxMinPolicy);
        let b = run_flows(&topo, demands(), &mut MaxMinPolicy);
        assert_eq!(a.trace().events(), b.trace().events());
    }

    /// With the trace off, no event kind is recorded (releases included),
    /// and the completions are those of the traced run.
    #[test]
    fn trace_off_records_no_event() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
            ]
        };
        let run = |trace| {
            run_flows_faulted_configured(
                &topo,
                demands(),
                &mut MaxMinPolicy,
                RecomputeMode::Full,
                &FaultPlan::empty(),
                DriveConfig {
                    trace,
                    ..DriveConfig::default()
                },
            )
        };
        let (on, off) = (run(true), run(false));
        assert!(!on.trace().events().is_empty());
        assert!(
            off.trace().events().is_empty(),
            "{:?}",
            off.trace().events()
        );
        assert_eq!(off.completions(), on.completions());
    }

    #[test]
    fn full_and_incremental_modes_agree_for_default_policy() {
        // The default allocate_dense_incremental falls back to
        // allocate_dense, so the two modes must be trivially bit-identical.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
                demand(3, 3, 1, 0.5, 1.0),
            ]
        };
        let a = run_flows_with(&topo, demands(), &mut MaxMinPolicy, RecomputeMode::Full);
        let b = run_flows_with(
            &topo,
            demands(),
            &mut MaxMinPolicy,
            RecomputeMode::Incremental,
        );
        assert_eq!(a.trace().events(), b.trace().events());
    }

    #[test]
    fn downed_link_stalls_flow_until_restore() {
        // One flow over a unit link; the link dies at t=1 and comes back
        // at t=3. The flow moves 1 byte, stalls 2 s, then finishes: t=4.
        let topo = Topology::big_switch_uniform(2, 1.0);
        let r = crate::ids::ResourceId(0); // host0 egress
        let plan = FaultPlan::empty()
            .with(SimTime::new(1.0), FaultKind::LinkDown(r))
            .with(SimTime::new(3.0), FaultKind::LinkRestore(r));
        let out = run_flows_faulted(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(4.0)));
        let stats = out.drive_stats();
        assert_eq!(stats.fault_events, 2);
        assert!(stats.fault_recomputes >= 2);
        assert!((stats.stall_flow_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_link_slows_flow_proportionally() {
        // 2 bytes at rate 1, degraded to 0.25 from t=1: 1 byte done by
        // t=1, the rest at 0.25 → finishes at 1 + 1/0.25 = 5.
        let topo = Topology::big_switch_uniform(2, 1.0);
        let r = crate::ids::ResourceId(0);
        let plan = FaultPlan::empty().with(SimTime::new(1.0), FaultKind::LinkDegrade(r, 0.25));
        let out = run_flows_faulted(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(5.0)));
        assert_eq!(out.drive_stats().stall_flow_seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn never_restored_link_deadlocks() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let plan = FaultPlan::empty().with(
            SimTime::new(1.0),
            FaultKind::LinkDown(crate::ids::ResourceId(0)),
        );
        let _ = run_flows_faulted(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            RecomputeMode::Full,
            &plan,
        );
    }

    #[test]
    fn fault_breaks_until_flow_change_certificate() {
        // MaxMin certifies UntilFlowChange; a degrade mid-flight must
        // still be honoured (the driver resets the certificate), so the
        // finish time reflects the new capacity.
        let topo = Topology::big_switch_uniform(2, 1.0);
        let r = crate::ids::ResourceId(0);
        let plan = FaultPlan::empty().with(SimTime::new(1.0), FaultKind::LinkDegrade(r, 0.5));
        for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
            let out = run_flows_faulted(
                &topo,
                vec![demand(0, 0, 1, 2.0, 0.0)],
                &mut MaxMinPolicy,
                mode,
                &plan,
            );
            // 1 byte by t=1, then 1 byte at 0.5 → t=3.
            assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(3.0)));
        }
    }

    /// Pod-local demands on a k=4 fat tree: hosts 0..4 are pod 0,
    /// hosts 4..8 pod 1.
    fn pod_local_demands() -> Vec<FlowDemand> {
        vec![
            demand(0, 0, 1, 2.0, 0.0),
            demand(1, 0, 2, 2.0, 0.0),
            demand(2, 3, 1, 1.5, 0.5),
            demand(3, 4, 5, 2.0, 0.0),
            demand(4, 6, 5, 1.0, 1.0),
            demand(5, 7, 4, 0.5, 1.5),
        ]
    }

    #[test]
    fn pod_policy_incremental_matches_full_recompute() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let incremental = run_flows_with(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
        );
        let full = run_flows_with(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Full,
        );
        assert_eq!(incremental.trace().events(), full.trace().events());
        // The incremental path must actually have skipped pods: releases
        // in one pod leave the other pod clean.
        let stats = incremental.drive_stats();
        assert!(stats.pods_total > 0);
        assert!(
            stats.pods_recomputed < stats.pods_total,
            "no pod was ever skipped: {}/{}",
            stats.pods_recomputed,
            stats.pods_total
        );
        assert!(stats.pod_recompute_fraction() < 1.0);
    }

    #[test]
    fn pod_policy_core_crossing_flow_forces_fallback() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let mut demands = pod_local_demands();
        demands.push(demand(6, 0, 7, 2.0, 0.25)); // pod 0 → pod 1
        let incremental = run_flows_with(
            &topo,
            demands.clone(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
        );
        let full = run_flows_with(
            &topo,
            demands,
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Full,
        );
        assert_eq!(incremental.trace().events(), full.trace().events());
        assert_eq!(incremental.completions().len(), 7);
    }

    /// A policy reused for a second run must behave like a fresh one. The
    /// driver never delivers the departures of flows finishing at a run's
    /// final instant, so the second run's first allocation (where every
    /// live flow arrives) must forget them instead of resolving them, and
    /// a link the first run left degraded must not leak its capacity.
    #[test]
    fn reused_pod_policy_matches_a_fresh_one() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let degraded = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::LinkDegrade(crate::ids::ResourceId(0), 0.25),
        );
        let first = || vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 2.0, 0.0)];
        let second = || vec![demand(10, 0, 1, 1.0, 0.0)];
        for plan in [FaultPlan::empty(), degraded] {
            for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
                let mut reused = PodMaxMinPolicy::new();
                run_flows_faulted(&topo, first(), &mut reused, mode, &plan);
                let again = run_flows_with(&topo, second(), &mut reused, mode);
                let fresh = run_flows_with(&topo, second(), &mut PodMaxMinPolicy::new(), mode);
                assert_eq!(again.trace().events(), fresh.trace().events(), "{mode:?}");
                assert!(again
                    .finish(FlowId(10))
                    .unwrap()
                    .approx_eq(SimTime::new(1.0)));
            }
        }
    }

    #[test]
    fn pod_policy_matches_maxmin_on_podless_topology() {
        // Without pods the policy *is* the whole-fabric waterfill.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
            ]
        };
        let pod = run_flows_with(
            &topo,
            demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
        );
        let maxmin = run_flows(&topo, demands(), &mut MaxMinPolicy);
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert_eq!(
                pod.finish(id).unwrap().secs().to_bits(),
                maxmin.finish(id).unwrap().secs().to_bits()
            );
        }
        assert_eq!(pod.drive_stats().pods_total, 0);
        assert_eq!(pod.drive_stats().pod_recompute_fraction(), 0.0);
    }

    #[test]
    fn pod_policy_survives_faults_with_cache_invalidation() {
        // Degrade a pod-0 edge link mid-run: the stored pod rates must be
        // dropped, keeping the incremental path bitwise the full one.
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let r = crate::ids::ResourceId(0); // host 0 up-link (pod 0)
        let plan = FaultPlan::empty()
            .with(SimTime::new(0.75), FaultKind::LinkDegrade(r, 0.25))
            .with(SimTime::new(2.0), FaultKind::LinkRestore(r));
        let run = |mode| {
            run_flows_faulted(
                &topo,
                pod_local_demands(),
                &mut PodMaxMinPolicy::new(),
                mode,
                &plan,
            )
        };
        let incremental = run(RecomputeMode::Incremental);
        let full = run(RecomputeMode::Full);
        assert_eq!(incremental.trace().events(), full.trace().events());
    }

    /// A policy that (incorrectly) writes one rate more than there are
    /// active flows; the network must reject the buffer loudly instead of
    /// silently applying a misaligned allocation.
    struct OverlongPolicy;

    impl RatePolicy for OverlongPolicy {
        fn allocate_dense(
            &mut self,
            _now: SimTime,
            flows: &[ActiveFlowView],
            _topo: &Topology,
            _ws: &mut AllocScratch,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.resize(flows.len() + 1, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dense allocation covers")]
    fn policy_writing_a_misaligned_buffer_is_rejected() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        run_flows(&topo, vec![demand(0, 0, 1, 1.0, 0.0)], &mut OverlongPolicy);
    }
}
