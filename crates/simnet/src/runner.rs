//! Self-contained flow simulation loop for static demand sets.
//!
//! [`run_flows`] drives a static set of [`FlowDemand`]s to completion under
//! a [`RatePolicy`] and a [`RunConfig`] (faults and engine knobs). The
//! driver recomputes rates at every event batch that has active flows:
//! releases, completions and faults (the fluid model's only rate-change
//! points for static demand sets). Each
//! recompute is one call of [`RatePolicy::allocate_dense_incremental_sparse`]
//! with the [`FlowDelta`] accumulated since the previous allocation, so
//! stateful schedulers patch cached group structure instead of
//! re-deriving it.
//!
//! [`FullRecompute`] wraps a policy so that every allocation re-derives
//! everything from the flow slice through [`RatePolicy::allocate_dense`]
//! instead. It is the reference the differential suites (starting with
//! `tests/differential.rs`) hold every delta path to, bit for bit.
//!
//! The event-loop skeleton itself lives in [`crate::driver`]; this module
//! contributes only the static-demand [`WorkloadSource`] (release flows at
//! fixed times, collect completions) and remains the workhorse for
//! scheduler unit tests and the pure-network experiments. Layers with
//! *dynamic* demands (compute units emitting flows, chunked transport,
//! cluster arrivals) plug their own sources into the same driver.

use crate::alloc::{
    alloc_via_dense, grow, waterfill_bucket, waterfill_dense, AllocScratch, FillIndex, FillScope,
    RateAlloc,
};
use crate::driver::{drive, DriveConfig, DriveStats, WorkloadSource};
use crate::fault::{FaultKind, FaultPlan};
use crate::flow::{ActiveFlowView, FlowCompletion, FlowDemand};
use crate::fluid::{FlowDelta, FluidNetwork};
use crate::ids::FlowId;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{FlowTrace, TraceEventKind};
use std::collections::BTreeMap;
use std::ops::DerefMut;

/// A bandwidth allocation policy: the single extension point all
/// schedulers implement.
///
/// The driver has one entry: at every event batch with active flows it
/// calls [`Self::allocate_dense_incremental_sparse`] with the delta since
/// its previous call, and the policy must write a feasible rate for every
/// active flow. Policies may keep internal state (e.g. coflow orderings
/// computed on arrival).
///
/// [`Self::allocate_dense`] is the one required method: the from-scratch
/// answer, which [`FullRecompute`] drives as the differentials' reference.
/// Every other entry point has a provided default built on it: the delta
/// entries ignore the delta, and the map-based [`Self::allocate`] and
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
    /// Called by [`crate::driver::drive`] *after* link capacity
    /// changes have been applied to the driver's network but *before* the
    /// fault-forced reallocation. Policies holding caches whose validity
    /// depends on capacities or coordinator availability must invalidate
    /// them here — the fault differential suite fails bitwise against the
    /// full-recompute reference if they don't. Default: ignore (correct
    /// for policies that re-read capacities on every allocation).
    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let _ = (now, fault);
    }

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

/// Ignored; the benchmark still passes it. Every run allocates through
/// the delta entry, and [`FullRecompute`] is the from-scratch reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Formerly the from-scratch path.
    Full,
    /// Formerly the delta path.
    Incremental,
}

/// Runs the wrapped policy from scratch at every allocation, the
/// differential suites' reference for the delta path. It overrides only
/// [`RatePolicy::allocate_dense`], so both delta entries take their
/// defaults: the wrapped policy's `allocate_dense`, answered densely.
/// Faults, the name and the counters are forwarded. `P` is any mutable
/// handle to a policy (`&mut P`, `Box<dyn RatePolicy>`).
pub struct FullRecompute<P>(pub P);

impl<P, T> RatePolicy for FullRecompute<P>
where
    P: DerefMut<Target = T>,
    T: RatePolicy + ?Sized,
{
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.0.allocate_dense(now, flows, topo, ws, out);
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        self.0.on_fault(now, fault);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        self.0.pod_stats()
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.0.book_stats()
    }
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

/// Sentinel pod id for flows the [`FillIndex`] does not hold: a route
/// with more hops than an arena slot holds, or an arena slot another
/// live view holds. A flow arena builds neither, but a caller-built view
/// may carry any route and slot: such a flow counts as a core crosser,
/// and while one is live the fabric fallback fills from the views'
/// routes.
const UNINDEXED: u32 = u32::MAX - 1;

/// Binary search for `id` in the id-sorted `flows[from..]`, returning an
/// index into `flows`. It probes forward from `from` at doubling steps
/// first, so a target `d` entries ahead costs O(log d), not O(log n).
fn search_from(flows: &[ActiveFlowView], from: usize, id: FlowId) -> Result<usize, usize> {
    // Every entry before `lo` has a smaller id.
    let (mut lo, mut step) = (from, 1);
    while lo + step <= flows.len() && flows[lo + step - 1].id < id {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(flows.len());
    flows[lo..hi]
        .binary_search_by(|v| v.id.cmp(&id))
        .map(|k| lo + k)
        .map_err(|k| lo + k)
}

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
/// width run one engine, the bucket-queue waterfill, over one link index
/// that each arrival and departure patches and each fault re-keys, and
/// that keeps its live links grouped by round-1 state, so a fill pays for
/// its rounds and not for re-deriving that index or its classes
/// ([`Self::verify_index`] checks both against a rebuild). The
/// differential suites pin the plain policy and the policy through
/// [`FullRecompute`] bitwise against an independent pod-sequential
/// reference.
///
/// On topologies without pods the policy always uses the whole-fabric
/// waterfill and reports no pod work.
#[derive(Debug, Default, Clone)]
pub struct PodMaxMinPolicy {
    /// Pod ([`CROSS_POD`] for core-crossing flows) and arena slot of
    /// each live flow; needed to dirty the right pod and patch the index
    /// on departures, whose views are gone from the flow slice by
    /// allocation time.
    pod_of_flow: BTreeMap<FlowId, (u32, u32)>,
    /// Live core-crossing flows; nonzero forces the global fallback.
    cross_pod_live: usize,
    /// Live [`UNINDEXED`] flows, counted in `cross_pod_live` too.
    unindexed_live: usize,
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
    /// Rate per arena slot, written by the whole-fabric fallback's
    /// fills, which must leave the clean pods' `slot_rate` entries be.
    fabric_rate: Vec<f64>,
    /// Scratch: output indices of the members of the pods the latest
    /// pod-mode allocation refilled, in ascending pod order — after a
    /// sparse allocation, exactly the rewritten entries.
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
    /// The bucket engine's link index over every live flow whose route
    /// fits an arena slot, core crossers included: patched at every
    /// arrival and departure (routes are fixed for a flow's lifetime),
    /// made stale by every fault (capacities are the only fault-mutable
    /// input) and emptied by every reset, and re-keyed from the
    /// topology before the next fill when stale.
    index: FillIndex,
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

    /// Checks the link index the policy patches delta by delta against
    /// one built from scratch over `flows` on `topo`: the same members,
    /// routes, keepers' kept links, crosser counts, capacities, live
    /// links and per-pod groups of live links, with intact internal
    /// links. Call it after an allocation
    /// over `flows`; on a topology without pods there is no index and
    /// the check passes. It costs a full build, so it is for tests.
    pub fn verify_index(&self, flows: &[ActiveFlowView], topo: &Topology) -> Result<(), String> {
        if topo.pod_partition().is_none() {
            return Ok(());
        }
        let mut fresh = FillIndex::new();
        for v in flows {
            // A view the policy's index refuses is refused here too.
            let _ = fresh.arrive(v.slot, v.route.iter().map(|r| r.0));
        }
        fresh.rekey_all(topo);
        self.index.check_against(&fresh)
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
    /// a reused policy would otherwise resolve, and empties the link
    /// index, whose capacities a previous run may have read from a
    /// degraded link or another fabric.
    fn reset(&mut self) {
        for (pod, members) in self.pod_members.iter_mut().enumerate() {
            if !members.is_empty() {
                members.clear();
                self.cache_valid[pod] = false;
            }
        }
        self.pod_of_flow.clear();
        self.cross_pod_live = 0;
        self.unindexed_live = 0;
        self.index.clear();
    }

    /// Observes `v` arriving: indexes its route once (routes are fixed
    /// for the flow's lifetime and a slot is recycled only through a
    /// departure + arrival) and dirties its pod. A flow already live
    /// changes nothing. An arrival on a slot the index still holds means
    /// a delta omitted the holder's departure: every live flow missing
    /// from `flows` departs first.
    fn arrive(&mut self, v: &ActiveFlowView, flows: &[ActiveFlowView], topo: &Topology) {
        if self.index.is_member(v.slot) && !self.pod_of_flow.contains_key(&v.id) {
            self.depart_missing(flows);
        }
        let std::collections::btree_map::Entry::Vacant(entry) = self.pod_of_flow.entry(v.id) else {
            return;
        };
        let slot = v.slot as usize;
        if slot >= self.slot_rate.len() {
            grow(&mut self.slot_rate, slot + 1, 0.0);
        }
        let pod = if self.index.arrive(v.slot, v.route.iter().map(|r| r.0)) {
            Self::classify(topo, v.src, v.dst)
        } else {
            self.unindexed_live += 1;
            UNINDEXED
        };
        entry.insert((pod, v.slot));
        if pod == CROSS_POD || pod == UNINDEXED {
            self.cross_pod_live += 1;
            return;
        }
        self.cache_valid[pod as usize] = false;
        let pm = &mut self.pod_members[pod as usize];
        if let Err(p) = pm.binary_search(&v.id) {
            pm.insert(p, v.id);
        }
    }

    /// Observes a departure, dirtying the flow's pod and taking it out
    /// of the index. An id never seen arriving — it arrived and departed
    /// within one delta, so it was never allocated — changes nothing.
    fn depart(&mut self, id: &FlowId) {
        let Some((pod, slot)) = self.pod_of_flow.remove(id) else {
            return;
        };
        match pod {
            CROSS_POD => self.cross_pod_live -= 1,
            UNINDEXED => {
                self.cross_pod_live -= 1;
                self.unindexed_live -= 1;
                return;
            }
            pod => {
                self.cache_valid[pod as usize] = false;
                let pm = &mut self.pod_members[pod as usize];
                if let Ok(p) = pm.binary_search(id) {
                    pm.remove(p);
                }
            }
        }
        self.index.depart(slot);
    }

    /// Departs every live flow missing from `flows`. The driver always
    /// reports departures, but a caller-built delta need not; without
    /// this, the index would keep filling a flow that is gone.
    fn depart_missing(&mut self, flows: &[ActiveFlowView]) {
        let missing: Vec<FlowId> = self
            .pod_of_flow
            .keys()
            .filter(|id| flows.binary_search_by(|v| v.id.cmp(id)).is_err())
            .copied()
            .collect();
        for id in &missing {
            self.depart(id);
        }
    }

    /// Refills every dirty pod: resolves its members from `pod_members`,
    /// runs the bucket engine over them and the pod's slice of the index,
    /// which stores their rates in `slot_rate`, and copies each member's
    /// rate to its entry of `out`; `members` ends up listing exactly
    /// those entries.
    ///
    /// Every member is in `flows` once the delta's departures and
    /// [`Self::depart_missing`] have run, unless a caller-built delta
    /// also omitted an arrival; a member missing from `flows` has no
    /// rate to write and is skipped.
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
            // Members and flows both ascend by id, so each member is
            // searched for past the previous one's position.
            let mut from = 0;
            for &id in &self.pod_members[pod] {
                match search_from(flows, from, id) {
                    Ok(i) => {
                        self.members.push(i);
                        self.member_slots.push(flows[i].slot);
                        from = i + 1;
                    }
                    Err(i) => from = i,
                }
            }
            let slots = &self.member_slots[start..];
            let scope = FillScope::Pod(pod as u32, slots);
            waterfill_bucket(&self.index, scope, &mut self.slot_rate, ws);
            for (&i, &slot) in self.members[start..].iter().zip(slots) {
                out[i] = self.slot_rate[slot as usize];
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
            out.clear();
            if self.unindexed_live > 0 {
                // Some route is not in the arena: fill from the views.
                out.resize(flows.len(), 0.0);
                waterfill_dense(topo, flows, None, out, ws);
                return;
            }
            // The fill writes by arena slot, beside the clean pods'
            // cached rates, and every flow's rate is gathered once.
            if self.fabric_rate.len() < self.slot_rate.len() {
                grow(&mut self.fabric_rate, self.slot_rate.len(), 0.0);
            }
            waterfill_bucket(&self.index, FillScope::Fabric, &mut self.fabric_rate, ws);
            out.extend(flows.iter().map(|v| self.fabric_rate[v.slot as usize]));
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
        // Departures first, so that an arrival may take a slot freed in
        // the same delta. An arrival missing from the flow slice arrived
        // *and* departed within this delta: it was never allocated, its
        // pod is net-unchanged, and `depart` skips it as well as here.
        for id in &delta.departed {
            self.depart(id);
        }
        for id in &delta.arrived {
            if let Some(i) = position(id) {
                self.arrive(&flows[i], flows, topo);
            }
        }
        if self.pod_of_flow.len() > flows.len() {
            self.depart_missing(flows);
        }
        self.index.rekey_all(topo);
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
            self.arrive(v, flows, topo);
        }
        self.index.rekey_all(topo);
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
    /// bake those in: dirty every pod *and* make the index stale (its
    /// capacities, and with them its keepers, must be re-read from the
    /// post-fault topology before the next fill).
    fn on_fault(&mut self, _now: SimTime, _fault: &FaultKind) {
        self.cache_valid.fill(false);
        self.index.invalidate();
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

/// Everything a run takes besides its workload and policy: the faults
/// injected while it plays out and the engine knobs. The default is a
/// fault-free run at [`DriveConfig::default`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunConfig {
    /// Faults injected while the run plays out (see [`crate::fault`]);
    /// empty by default.
    pub faults: FaultPlan,
    /// Engine knobs for the drive.
    pub drive: DriveConfig,
}

impl From<FaultPlan> for RunConfig {
    /// `faults` at the default engine knobs.
    fn from(faults: FaultPlan) -> RunConfig {
        RunConfig {
            faults,
            drive: DriveConfig::default(),
        }
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

/// Runs `demands` to completion under `policy` on `topology`, with
/// `config`'s fault plan and engine knobs (see [`drive`]).
///
/// # Panics
///
/// Panics if the policy ever returns an infeasible allocation or a rate
/// for a flow outside the active set, or if the simulation stops making
/// progress while flows remain (a policy that starves all flows forever,
/// or a plan that downs a link forever while unfinished flows depend on
/// it).
pub fn run_flows(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    config: &RunConfig,
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
    let outcome = drive(topology, &mut source, policy, config);

    FlowOutcomes {
        completions: source.completed.into_iter().map(|c| (c.id, c)).collect(),
        trace: outcome.trace,
        makespan: outcome.end,
        stats: outcome.stats,
    }
}

/// [`run_flows`] with its plan and config passed apart; `mode` is
/// ignored. Kept for the benchmark.
pub fn run_flows_faulted_configured(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    _mode: RecomputeMode,
    plan: &FaultPlan,
    config: DriveConfig,
) -> FlowOutcomes {
    run_flows(
        topology,
        demands,
        policy,
        &RunConfig {
            faults: plan.clone(),
            drive: config,
        },
    )
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

    /// `search_from` finds what a whole-slice binary search finds, from
    /// any start at or before the target's position.
    #[test]
    fn search_from_matches_binary_search() {
        for n in [0usize, 1, 2, 5, 17, 64] {
            let flows: Vec<ActiveFlowView> = (0..n as u64)
                .map(|i| ActiveFlowView {
                    id: FlowId(3 * i + i % 2),
                    slot: i as u32,
                    src: NodeId(0),
                    dst: NodeId(1),
                    size: 1.0,
                    remaining: 1.0,
                    release: SimTime::ZERO,
                    route: Vec::new(),
                })
                .collect();
            for id in (0..3 * n as u64 + 3).map(FlowId) {
                let want = flows.binary_search_by(|v| v.id.cmp(&id));
                let pos = want.unwrap_or_else(|p| p);
                for from in 0..=pos {
                    assert_eq!(
                        search_from(&flows, from, id),
                        want,
                        "n {n} id {id} from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn fair_sharing_two_equal_flows() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            &RunConfig::default(),
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
            &RunConfig::default(),
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
        let out = run_flows(&topo, demands, &mut MaxMinPolicy, &RunConfig::default());
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
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0)],
            &mut MaxMinPolicy,
            &RunConfig::default(),
        );
        assert!((out.mean_fct() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_demand_set() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_flows(&topo, vec![], &mut MaxMinPolicy, &RunConfig::default());
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
        let a = run_flows(&topo, demands(), &mut MaxMinPolicy, &RunConfig::default());
        let b = run_flows(&topo, demands(), &mut MaxMinPolicy, &RunConfig::default());
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
            let mut config = RunConfig::default();
            config.drive.trace = trace;
            run_flows(&topo, demands(), &mut MaxMinPolicy, &config)
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
        // allocate_dense, so the two paths must be trivially bit-identical.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
                demand(3, 3, 1, 0.5, 1.0),
            ]
        };
        let a = run_flows(
            &topo,
            demands(),
            &mut FullRecompute(&mut MaxMinPolicy),
            &RunConfig::default(),
        );
        let b = run_flows(&topo, demands(), &mut MaxMinPolicy, &RunConfig::default());
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
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            &RunConfig::from(plan),
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
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            &RunConfig::from(plan),
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
        let _ = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0)],
            &mut MaxMinPolicy,
            &RunConfig::from(plan),
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
        let config = RunConfig::from(plan);
        let mut full = FullRecompute(&mut MaxMinPolicy);
        for policy in [&mut MaxMinPolicy as &mut dyn RatePolicy, &mut full] {
            let out = run_flows(&topo, vec![demand(0, 0, 1, 2.0, 0.0)], policy, &config);
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
        let incremental = run_flows(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            &RunConfig::default(),
        );
        let mut reference = PodMaxMinPolicy::new();
        let full = run_flows(
            &topo,
            pod_local_demands(),
            &mut FullRecompute(&mut reference),
            &RunConfig::default(),
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
        let config = RunConfig::default();
        let mut demands = pod_local_demands();
        demands.push(demand(6, 0, 7, 2.0, 0.25)); // pod 0 → pod 1
        let incremental = run_flows(&topo, demands.clone(), &mut PodMaxMinPolicy::new(), &config);
        let mut reference = PodMaxMinPolicy::new();
        let full = run_flows(&topo, demands, &mut FullRecompute(&mut reference), &config);
        assert_eq!(incremental.trace().events(), full.trace().events());
        assert_eq!(incremental.completions().len(), 7);
    }

    /// A policy reused for a second run must behave like a fresh one. The
    /// driver never delivers the departures of flows finishing at a run's
    /// final instant, so the second run's first allocation (where every
    /// live flow arrives) must forget them instead of resolving them, and
    /// a link the first run left degraded must not leak its capacity.
    /// First runs: pod-local flows on k = 4, with and without a degrade;
    /// a k = 8 run that ends with a core crosser still live (it finishes
    /// last) behind a degraded link, then a k = 4 run; and a k = 4 run
    /// followed by a k = 8 one.
    #[test]
    fn reused_pod_policy_matches_a_fresh_one() {
        let (k4, k8) = (
            crate::fattree::FatTree::new(4).build_fabric(),
            crate::fattree::FatTree::new(8).build_fabric(),
        );
        let degraded = FaultPlan::empty().with(
            SimTime::new(0.5),
            FaultKind::LinkDegrade(crate::ids::ResourceId(0), 0.25),
        );
        let degraded = RunConfig::from(degraded);
        let first = || vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 2.0, 0.0)];
        // Host 0 (pod 0) to host 20 (pod 1) on k = 8, across host 0's
        // degraded up-link.
        let crossing = || {
            let mut d = first();
            d.push(demand(2, 0, 20, 4.0, 0.0));
            d
        };
        let second = || vec![demand(10, 0, 1, 1.0, 0.0)];
        let cases = [
            (&k4, first(), RunConfig::default(), &k4),
            (&k4, first(), degraded.clone(), &k4),
            (&k8, crossing(), degraded, &k4),
            (&k4, first(), RunConfig::default(), &k8),
        ];
        let run = |topo, demands, policy: &mut PodMaxMinPolicy, config, full| {
            if full {
                run_flows(topo, demands, &mut FullRecompute(policy), config)
            } else {
                run_flows(topo, demands, policy, config)
            }
        };
        let none = RunConfig::default();
        for (case, (topo, demands, config, then)) in cases.iter().enumerate() {
            for full in [false, true] {
                let mut reused = PodMaxMinPolicy::new();
                let out = run(topo, demands.clone(), &mut reused, config, full);
                if case == 2 {
                    // The crosser finishes last, so it is still live in
                    // the reused policy.
                    assert!(out.makespan().approx_eq(out.finish(FlowId(2)).unwrap()));
                    assert_eq!(reused.cross_pod_live, 1);
                }
                let again = run(then, second(), &mut reused, &none, full);
                let fresh = run(then, second(), &mut PodMaxMinPolicy::new(), &none, full);
                assert_eq!(
                    again.trace().events(),
                    fresh.trace().events(),
                    "case {case}, full {full}"
                );
                assert!(again
                    .finish(FlowId(10))
                    .unwrap()
                    .approx_eq(SimTime::new(1.0)));
            }
        }
    }

    /// Inputs the driver never builds do not panic the pod policy: a
    /// delta that omits a departure, a view whose route does not fit an
    /// arena slot, and two views on one slot. Each way the rates are the
    /// ones a fresh policy computes over the same views.
    #[test]
    fn pod_policy_survives_caller_built_inputs() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let view = |id: u64, slot: u32, src: u32, dst: u32| {
            let (src, dst) = (NodeId(src), NodeId(dst));
            ActiveFlowView {
                id: FlowId(id),
                slot,
                src,
                dst,
                size: 1.0,
                remaining: 1.0,
                release: SimTime::ZERO,
                route: topo.route(src, dst),
            }
        };
        let fresh = |flows: &[ActiveFlowView]| {
            let mut out = Vec::new();
            let mut policy = PodMaxMinPolicy::new();
            policy.allocate_dense(
                SimTime::ZERO,
                flows,
                &topo,
                &mut AllocScratch::new(),
                &mut out,
            );
            out
        };
        let arrived = |flows: &[ActiveFlowView]| FlowDelta {
            arrived: flows.iter().map(|v| v.id).collect(),
            departed: Vec::new(),
        };
        let mut policy = PodMaxMinPolicy::new();
        let mut ws = AllocScratch::new();
        let mut out = Vec::new();
        // Flow 0 leaves pod 0 without a departure in the next delta.
        let both = [view(0, 0, 0, 1), view(1, 1, 0, 2)];
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &both,
            &arrived(&both),
            &topo,
            &mut ws,
            &mut out,
        );
        let rest = [view(1, 1, 0, 2), view(2, 2, 3, 1)];
        let only_2 = arrived(&rest[1..]);
        policy.allocate_dense_incremental(SimTime::ZERO, &rest, &only_2, &topo, &mut ws, &mut out);
        assert_eq!(out, fresh(&rest));
        // An 8-hop route forces the fabric fallback until it departs.
        let mut long = view(3, 3, 4, 5);
        long.route = (0..8).map(crate::ids::ResourceId).collect();
        let with_long = [rest[0].clone(), rest[1].clone(), long];
        let delta = arrived(&with_long[2..]);
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &with_long,
            &delta,
            &topo,
            &mut ws,
            &mut out,
        );
        assert_eq!(out, fresh(&with_long));
        let mut dense = vec![0.0; with_long.len()];
        waterfill_dense(&topo, &with_long, None, &mut dense, &mut ws);
        assert_eq!(out, dense);
        let departed = FlowDelta {
            arrived: Vec::new(),
            departed: vec![FlowId(3)],
        };
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &rest,
            &departed,
            &topo,
            &mut ws,
            &mut out,
        );
        assert_eq!(out, fresh(&rest));
        assert_eq!((policy.cross_pod_live, policy.unindexed_live), (0, 0));
        // Two live views on one arena slot: the index holds the first, the
        // second forces the fabric fallback until it departs.
        let twin = ActiveFlowView {
            id: FlowId(4),
            ..rest[1].clone()
        };
        let with_twin = [rest[0].clone(), rest[1].clone(), twin];
        let delta = arrived(&with_twin[2..]);
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &with_twin,
            &delta,
            &topo,
            &mut ws,
            &mut out,
        );
        let mut dense = vec![0.0; with_twin.len()];
        waterfill_dense(&topo, &with_twin, None, &mut dense, &mut ws);
        assert_eq!(out, dense);
        assert_eq!(policy.unindexed_live, 1);
        let departed = FlowDelta {
            arrived: Vec::new(),
            departed: vec![FlowId(4)],
        };
        policy.allocate_dense_incremental(
            SimTime::ZERO,
            &rest,
            &departed,
            &topo,
            &mut ws,
            &mut out,
        );
        assert_eq!(out, fresh(&rest));
        policy.verify_index(&rest, &topo).unwrap();
    }

    #[test]
    fn pod_policy_matches_maxmin_on_podless_topology() {
        // Without pods the policy *is* the whole-fabric waterfill.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let config = RunConfig::default();
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.5),
                demand(2, 0, 3, 3.0, 1.0),
            ]
        };
        let pod = run_flows(&topo, demands(), &mut PodMaxMinPolicy::new(), &config);
        let maxmin = run_flows(&topo, demands(), &mut MaxMinPolicy, &config);
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
        let config = RunConfig::from(plan);
        let run =
            |policy: &mut dyn RatePolicy| run_flows(&topo, pod_local_demands(), policy, &config);
        let incremental = run(&mut PodMaxMinPolicy::new());
        let full = run(&mut FullRecompute(&mut PodMaxMinPolicy::new()));
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
        run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0)],
            &mut OverlongPolicy,
            &RunConfig::default(),
        );
    }
}
