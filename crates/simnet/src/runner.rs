//! Self-contained flow simulation loop for static demand sets.
//!
//! [`run_flows`] drives a static set of [`FlowDemand`]s to completion under
//! a [`RatePolicy`], recomputing rates at every flow release and completion
//! (the fluid model's only rate-change points for static demand sets).
//! Iterations where the flow set did not change (e.g. an advance that lands
//! just short of a release) skip the allocation entirely — the previous
//! rates are still valid.
//!
//! [`run_flows_with`] additionally selects a [`RecomputeMode`]: `Full`
//! calls [`RatePolicy::allocate`] (the naive reference path, re-deriving
//! everything from the flow slice), `Incremental` calls
//! [`RatePolicy::allocate_incremental`] with the [`FlowDelta`] accumulated
//! since the previous allocation, letting stateful schedulers reuse cached
//! group structure. Both modes must produce bit-identical traces; the
//! differential tests in `tests/differential.rs` enforce this.
//!
//! The event-loop skeleton itself lives in [`crate::driver`]; this module
//! contributes only the static-demand [`WorkloadSource`] (release flows at
//! fixed times, collect completions) and remains the workhorse for
//! scheduler unit tests and the pure-network experiments. Layers with
//! *dynamic* demands (compute units emitting flows, chunked transport,
//! cluster arrivals) plug their own sources into the same driver.

use crate::alloc::{
    alloc_to_dense, waterfill_dense, waterfill_pod_bucket, waterfill_subset_dense, AllocScratch,
    RateAlloc,
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
/// `allocate` is called whenever the set of active flows changes (or, for
/// interval-driven coordinators, on a timer) and must return a feasible
/// allocation. Policies may keep internal state (e.g. coflow orderings
/// computed on arrival).
pub trait RatePolicy {
    /// Computes rates for the currently active flows.
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc;

    /// Incremental entry point: like [`Self::allocate`], but additionally
    /// told which flows arrived/departed since the previous call, so
    /// stateful policies can patch cached group structure instead of
    /// re-deriving it from `flows`.
    ///
    /// The default implementation ignores the delta and falls back to the
    /// full recompute, so plain policies stay correct for free.
    /// Implementations must be *observationally identical* to `allocate`:
    /// given the same event sequence, both paths must return bit-identical
    /// allocations. Callers must report every arrival and departure through
    /// `delta` exactly once across the sequence of incremental calls.
    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        let _ = delta;
        self.allocate(now, flows, topo)
    }

    /// Dense full recompute: writes `out[i]` for `flows[i]` (the id-sorted
    /// active slice), reusing the caller-owned scratch so steady-state
    /// allocations touch no heap. The default adapts [`Self::allocate`];
    /// dense-native policies override this (and usually reimplement the
    /// map-based entry points as adapters over it).
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let _ = ws;
        let alloc = self.allocate(now, flows, topo);
        alloc_to_dense(flows, &alloc, out);
    }

    /// Dense incremental recompute: like [`Self::allocate_dense`] with the
    /// flow delta. The default adapts [`Self::allocate_incremental`].
    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let _ = ws;
        let alloc = self.allocate_incremental(now, flows, delta, topo);
        alloc_to_dense(flows, &alloc, out);
    }

    /// How long the allocation just computed remains *certifiably* valid:
    /// until when would recomputing with an unchanged flow set return the
    /// bit-identical answer? Queried by the driver right after each
    /// allocation when the workload opted into
    /// [`crate::driver::RecomputeCadence::PolicyHorizon`]; events inside
    /// the horizon skip the recompute entirely.
    ///
    /// `rates` are the applied rates (`rates[i]` for `flows[i]`), i.e. the
    /// speeds flows will drain at during the horizon. Implementations must
    /// be conservative: claiming validity the recompute would not honour
    /// breaks the differential bit-identity guarantee, while
    /// under-claiming merely costs a recompute. The default claims
    /// nothing. Policies whose rates depend on remaining bytes (the
    /// MADD family) must stay with [`AllocHorizon::NextEvent`]: their
    /// recompute is only a fixed point in exact arithmetic, not bitwise.
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

/// A policy's self-certified validity window for its latest allocation
/// (see [`RatePolicy::horizon`]). A flow-set change always ends the
/// window, whatever the variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocHorizon {
    /// No certification: recompute at the next event.
    NextEvent,
    /// Valid until the active flow set changes (the allocation does not
    /// depend on time or remaining bytes — e.g. fixed priority orders).
    UntilFlowChange,
    /// Valid until the given absolute time (or a flow-set change,
    /// whichever comes first) — e.g. until an SRPT ordering crossing or a
    /// coordinator's next scheduled decision.
    Until(SimTime),
}

/// Which `RatePolicy` entry point the simulation loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputeMode {
    /// Call [`RatePolicy::allocate`] — re-derive everything per event.
    #[default]
    Full,
    /// Call [`RatePolicy::allocate_incremental`] with the flow delta.
    Incremental,
}

/// Max-min fair sharing: the paper's baseline (Fig. 2a).
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxMinPolicy;

impl RatePolicy for MaxMinPolicy {
    fn allocate(&mut self, _now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        crate::alloc::max_min_rates(topo, flows)
    }

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
        waterfill_dense(topo, flows, None, None, out, ws);
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        _delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.allocate_dense(now, flows, topo, ws, out);
    }

    /// Max-min rates depend only on routes and capacities, so the
    /// allocation stays bit-identical until the flow set changes.
    fn horizon(&self, _now: SimTime, _flows: &[ActiveFlowView], _rates: &[f64]) -> AllocHorizon {
        AllocHorizon::UntilFlowChange
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
/// pods are filled in ascending pod order via
/// [`waterfill_subset_dense`], each seeding residuals from its own links
/// only. (This is the policy's own reference arithmetic — it is max-min
/// fair per pod, but not bit-identical to [`MaxMinPolicy`]'s whole-fabric
/// round structure.)
///
/// With `caching` enabled, the incremental path recomputes only pods
/// whose flow set changed since the previous allocation (dirty pods from
/// the [`FlowDelta`]) and replays cached rates for the rest — exact,
/// because a pod's rates are a pure function of its flow set and link
/// capacities. Any fault invalidates every pod's cache
/// ([`RatePolicy::on_fault`]), and any live core-crossing flow forces
/// the conservative whole-fabric fallback until it drains. The
/// differential suites pin caching on/off (and Full vs Incremental)
/// bit-identical.
///
/// On topologies without pods the policy always uses the whole-fabric
/// waterfill and reports no pod work.
#[derive(Debug, Default, Clone)]
pub struct PodMaxMinPolicy {
    caching: bool,
    /// Pod of each live flow ([`CROSS_POD`] for core-crossing flows);
    /// needed to dirty the right pod on departures, whose views are gone
    /// from the flow slice by allocation time.
    pod_of_flow: BTreeMap<FlowId, u32>,
    /// Live core-crossing flows; nonzero forces the global fallback.
    cross_pod_live: usize,
    /// Cached rate per arena slot, written when the owning pod is
    /// recomputed. Valid for a live flow iff `cache_valid[pod]`: a clean
    /// pod's membership is unchanged since its last recompute (arrivals
    /// and departures both dirty their pod), so every member's slot was
    /// written then. Slot recycling is safe for the same reason — reuse
    /// implies a departure and an arrival, each dirtying its pod.
    slot_rate: Vec<f64>,
    /// Pod tag per arena slot, maintained on arrival in the incremental
    /// path (the full path classifies from the topology instead).
    pod_of_slot: Vec<u32>,
    cache_valid: Vec<bool>,
    pods_recomputed: usize,
    pods_total: usize,
    /// Scratch: member indices per pod, rebuilt for recomputed pods.
    members: Vec<Vec<usize>>,
    /// Scratch: per-pod "must recompute" mask for the current allocation.
    fresh: Vec<bool>,
    /// Live member ids per pod (ascending), maintained on every
    /// incremental delta — lets a sparse allocation resolve a dirty
    /// pod's members without scanning the whole flow slice.
    pod_members: Vec<Vec<FlowId>>,
    /// Output indices rewritten by the most recent sparse allocation.
    changed_idx: Vec<usize>,
    /// True when `changed_idx` describes the most recent allocation
    /// (see [`RatePolicy::changed_indices`]).
    sparse_report: bool,
    /// Force the next incremental allocation to emit every live flow
    /// densely: set when a whole-fabric fallback overwrote clean pods'
    /// applied rates, which a sparse apply would otherwise never repair.
    emit_all: bool,
    /// One-time pod-local link relabeling (see [`Self::build_ranks`]).
    ranks_built: bool,
    /// Global resource id → rank within its owning pod. Ranks ascend
    /// with global id inside each pod, so rank order preserves the
    /// ascending-global iteration order the waterfill arithmetic pins.
    rank_of_link: Vec<u32>,
    /// Ascending global link ids per pod (rank → global id).
    pod_links: Vec<Vec<u32>>,
    /// Rank-indexed capacity snapshot per pod; empty = stale. Rebuilt
    /// lazily from the topology and cleared on every fault (capacities
    /// are the only fault-mutable input).
    pod_caps: Vec<Vec<f64>>,
    /// Per arena slot: the flow's route translated to pod-local ranks,
    /// written once at arrival (routes are fixed for a flow's lifetime,
    /// slots recycle only through a departure + arrival). Flat arena of
    /// [`ROUTE_STRIDE`] entries per slot — one cache line, no pointer
    /// chase — with `route_rank_len` holding each slot's live prefix.
    /// Unset for core-crossing flows, which are never pod members.
    route_ranks: Vec<u32>,
    /// Live entries of `route_ranks` per slot.
    route_rank_len: Vec<u8>,
    /// Scratch parallel to `members` (indexed by pod): each member's
    /// arena slot, captured during member resolution so the waterfill
    /// and the rate write-back never re-stride the view structs.
    /// Per-pod storage lets recomputes of different pods run
    /// concurrently without sharing a scratch buffer.
    member_slots: Vec<Vec<u32>>,
    /// Scratch: pods needing a recompute in the current sparse
    /// allocation, in ascending pod order.
    dirty_pods: Vec<usize>,
    /// Worker-thread budget for per-pod recomputes; 0 = not yet
    /// resolved from [`crate::sweep::configured_threads`]. Resolved
    /// once per policy instance so the hot path never re-reads the
    /// environment.
    threads: usize,
    /// Pods recomputed on worker threads (0 = every recompute so far
    /// ran on the serial path). Non-vacuity probe for the parallel
    /// digest gates.
    pods_threaded: usize,
}

/// Entries per arena slot in [`PodMaxMinPolicy::route_ranks`]; see
/// [`crate::alloc::ROUTE_RANK_STRIDE`].
const ROUTE_STRIDE: usize = crate::alloc::ROUTE_RANK_STRIDE;

/// Minimum total members across the pods being recomputed before the
/// per-pod waterfills fan out to worker threads. Spawning a scoped
/// thread costs tens of microseconds; a pod recompute below this many
/// members finishes faster than the spawn, so small allocations (the
/// common single-dirty-pod incremental step) stay on the serial path.
#[cfg(feature = "parallel")]
const POD_PARALLEL_MIN_MEMBERS: usize = 128;

/// Runs one waterfill per pod in `pods` on `threads` workers (the
/// caller participates, so `threads - 1` are spawned) and merges the
/// results into `out` in pod-list order.
///
/// Determinism contract: pods partition the fabric's links, so their
/// member sets and touched links are disjoint and each pod's waterfill
/// is a pure function of inputs no other task writes. Tasks are
/// claimed from an atomic counter (claim order never influences
/// output), every task writes only its own index-addressed slot, each
/// worker runs `compute` with a private [`AllocScratch`] and a private
/// dense buffer, and the merge applies member rates in `pods` order —
/// byte-identical to running the same waterfills serially, regardless
/// of thread count or scheduling.
#[cfg(feature = "parallel")]
fn waterfill_pods_threaded<F>(
    pods: &[usize],
    members: &[Vec<usize>],
    nflows: usize,
    threads: usize,
    out: &mut [f64],
    compute: F,
) where
    F: Fn(usize, &mut [f64], &mut AllocScratch) + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Vec<f64>>>> = pods.iter().map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut ws = AllocScratch::new();
        // The waterfills write only their members' entries and read
        // none, so the buffer is reused across claimed pods without
        // clearing.
        let mut buf = vec![0.0; nflows];
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= pods.len() {
                break;
            }
            let pod = pods[t];
            compute(pod, &mut buf, &mut ws);
            let rates: Vec<f64> = members[pod].iter().map(|&i| buf[i]).collect();
            *slots[t].lock().expect("pod waterfill slot poisoned") = Some(rates);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..threads - 1 {
            scope.spawn(work);
        }
        work();
    });
    for (t, slot) in slots.into_iter().enumerate() {
        let rates = slot
            .into_inner()
            .expect("pod waterfill slot poisoned")
            .expect("pod waterfill task skipped its slot");
        for (j, &i) in members[pods[t]].iter().enumerate() {
            out[i] = rates[j];
        }
    }
}

impl PodMaxMinPolicy {
    /// A caching pod-decomposed policy (the intended configuration).
    pub fn new() -> PodMaxMinPolicy {
        PodMaxMinPolicy {
            caching: true,
            ..PodMaxMinPolicy::default()
        }
    }

    /// Caching disabled: every allocation recomputes every pod through
    /// the same pod-sequential arithmetic. The differential reference
    /// for [`PodMaxMinPolicy::new`].
    pub fn without_caching() -> PodMaxMinPolicy {
        PodMaxMinPolicy::default()
    }

    /// Pins the worker-thread budget for per-pod recomputes, which is
    /// otherwise resolved once from the environment (see
    /// [`crate::sweep::configured_threads`]). Determinism gates use
    /// this to compare exact thread counts; `1` forces the serial path.
    pub fn with_threads(mut self, threads: usize) -> PodMaxMinPolicy {
        self.threads = threads.max(1);
        self
    }

    /// Pods recomputed on worker threads over this policy's lifetime
    /// (always 0 when the serial path handled everything, e.g. with a
    /// one-thread budget or without the `parallel` feature). The
    /// parallel-vs-serial digest gates assert this is nonzero on the
    /// threaded side so the comparison is never vacuous.
    pub fn threaded_pods(&self) -> usize {
        self.pods_threaded
    }

    /// The pod of a flow, or [`CROSS_POD`] when its endpoints differ.
    fn classify(topo: &Topology, src: crate::ids::NodeId, dst: crate::ids::NodeId) -> u32 {
        match (topo.host_pod(src), topo.host_pod(dst)) {
            (Some(a), Some(b)) if a == b => a,
            _ => CROSS_POD,
        }
    }

    /// One-time pod-local link relabeling: every resource belongs to
    /// exactly one pod, so each pod's links get dense ranks `0..n_p` in
    /// ascending global order. Sparse recomputes then run entirely on
    /// rank-indexed pod-sized arrays — no per-call union building or
    /// scattered accesses into fabric-sized tables.
    fn build_ranks(&mut self, npods: usize, pod_of_res: &[u32]) {
        if self.ranks_built {
            return;
        }
        self.ranks_built = true;
        self.rank_of_link = vec![0; pod_of_res.len()];
        self.pod_links = vec![Vec::new(); npods];
        for (r, &p) in pod_of_res.iter().enumerate() {
            let pl = &mut self.pod_links[p as usize];
            self.rank_of_link[r] = pl.len() as u32;
            pl.push(r as u32);
        }
        self.pod_caps = vec![Vec::new(); npods];
    }

    /// Recomputes + caches (or replays) every pod into `out`; shared by
    /// the full and incremental dense paths once dirtiness is decided.
    ///
    /// One pass over the flow slice routes each flow: members of a pod
    /// marked fresh are collected for recompute, everyone else replays
    /// their cached rate straight from the slot-indexed table — O(live)
    /// with a single gather, no per-flow binary search. `full_pass`
    /// selects the variant: the full path (which may never have seen an
    /// arrival delta) classifies pods from the topology and treats every
    /// pod as dirty; the incremental path reads the arrival-maintained
    /// `pod_of_slot` table and honours per-pod cache validity.
    fn fill_pods(
        &mut self,
        npods: usize,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
        full_pass: bool,
    ) {
        self.members.resize(npods, Vec::new());
        self.fresh.clear();
        self.fresh.resize(npods, false);
        let all_fresh = full_pass || !self.caching;
        for pod in 0..npods {
            let fresh = all_fresh || !self.cache_valid[pod];
            self.fresh[pod] = fresh;
            if fresh {
                self.members[pod].clear();
            }
        }
        out.clear();
        out.resize(flows.len(), 0.0);
        for (i, v) in flows.iter().enumerate() {
            let pod = if full_pass {
                Self::classify(topo, v.src, v.dst)
            } else {
                self.pod_of_slot[v.slot as usize]
            };
            debug_assert_ne!(pod, CROSS_POD, "fill_pods requires pod-local flows only");
            if self.fresh[pod as usize] {
                self.members[pod as usize].push(i);
            } else {
                out[i] = self.slot_rate[v.slot as usize];
            }
        }
        self.pods_total += npods;
        #[cfg(feature = "parallel")]
        let threaded = self.try_fresh_parallel(npods, flows, topo, out);
        #[cfg(not(feature = "parallel"))]
        let threaded = false;
        if !threaded {
            for pod in 0..npods {
                if self.fresh[pod] {
                    waterfill_subset_dense(topo, flows, &self.members[pod], out, ws);
                }
            }
        }
        for pod in 0..npods {
            if self.fresh[pod] {
                self.pods_recomputed += 1;
                if self.caching {
                    for &i in &self.members[pod] {
                        let slot = flows[i].slot as usize;
                        if slot >= self.slot_rate.len() {
                            self.slot_rate.resize(slot + 1, 0.0);
                        }
                        self.slot_rate[slot] = out[i];
                    }
                    self.cache_valid[pod] = true;
                }
            }
        }
    }

    /// Threaded branch of [`Self::fill_pods`]: recomputes the fresh
    /// pods on worker threads when there are at least two of them
    /// carrying [`POD_PARALLEL_MIN_MEMBERS`] members in total and the
    /// configured pool has at least two threads. Returns false (serial
    /// fallback) otherwise — including whenever the effective thread
    /// count is one. A live core-crossing flow never reaches this
    /// branch: both callers take the whole-fabric fallback first.
    ///
    /// Bit-identity with the serial loop holds because each fresh pod
    /// runs the identical [`waterfill_subset_dense`] call on the same
    /// member list (scratch state never influences results) and the
    /// merge writes disjoint member entries; see
    /// [`waterfill_pods_threaded`] for the full contract.
    #[cfg(feature = "parallel")]
    fn try_fresh_parallel(
        &mut self,
        npods: usize,
        flows: &[ActiveFlowView],
        topo: &Topology,
        out: &mut [f64],
    ) -> bool {
        let mut nfresh = 0usize;
        let mut work = 0usize;
        for pod in 0..npods {
            if self.fresh[pod] {
                nfresh += 1;
                work += self.members[pod].len();
            }
        }
        if nfresh < 2 || work < POD_PARALLEL_MIN_MEMBERS || self.pool_threads() < 2 {
            return false;
        }
        let pods: Vec<usize> = (0..npods).filter(|&p| self.fresh[p]).collect();
        let threads = self.threads.min(pods.len());
        self.pods_threaded += pods.len();
        let members = &self.members;
        waterfill_pods_threaded(&pods, members, flows.len(), threads, out, |pod, buf, ws| {
            waterfill_subset_dense(topo, flows, &members[pod], buf, ws);
        });
        true
    }

    /// Sparse counterpart of [`Self::fill_pods`]: recomputes only the
    /// invalid pods, resolving their members from the incrementally
    /// maintained `pod_members` lists instead of scanning the whole
    /// flow slice, and records every rewritten output index in
    /// `changed_idx`. Untouched entries of `out` are left stale — the
    /// caller applies through `FluidNetwork::set_rates_sparse`, which
    /// never reads them. Bit-identity with the dense path holds because
    /// members resolve in ascending id order (the same order the dense
    /// scan collects them) and the per-pod engine is bitwise the subset
    /// waterfill over the same members.
    fn fill_pods_sparse(
        &mut self,
        npods: usize,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.members.resize(npods, Vec::new());
        self.member_slots.resize(npods, Vec::new());
        self.changed_idx.clear();
        out.resize(flows.len(), 0.0);
        let mut dirty = std::mem::take(&mut self.dirty_pods);
        dirty.clear();
        for pod in 0..npods {
            self.pods_total += 1;
            if !self.cache_valid[pod] {
                dirty.push(pod);
            }
        }
        // Pass 1: resolve each dirty pod's members, slots, and capacity
        // snapshot. Pass 2 runs the waterfills — serially, or on worker
        // threads when the dirty set is wide enough.
        for &pod in &dirty {
            let m = &mut self.members[pod];
            let ms = &mut self.member_slots[pod];
            m.clear();
            ms.clear();
            for id in &self.pod_members[pod] {
                let i = flows
                    .binary_search_by(|v| v.id.cmp(id))
                    .expect("pod member missing from the active slice");
                m.push(i);
                ms.push(flows[i].slot);
            }
            if self.pod_caps[pod].is_empty() {
                let caps = &mut self.pod_caps[pod];
                caps.reserve(self.pod_links[pod].len());
                for &r in &self.pod_links[pod] {
                    caps.push(topo.capacity(crate::ids::ResourceId(r)));
                }
            }
        }
        #[cfg(feature = "parallel")]
        let threaded = self.try_sparse_parallel(&dirty, flows.len(), out);
        #[cfg(not(feature = "parallel"))]
        let threaded = false;
        if !threaded {
            for &pod in &dirty {
                waterfill_pod_bucket(
                    &self.pod_caps[pod],
                    &self.members[pod],
                    &self.member_slots[pod],
                    &self.route_ranks,
                    &self.route_rank_len,
                    out,
                    ws,
                );
            }
        }
        for &pod in &dirty {
            self.pods_recomputed += 1;
            for (j, &i) in self.members[pod].iter().enumerate() {
                let slot = self.member_slots[pod][j] as usize;
                if slot >= self.slot_rate.len() {
                    self.slot_rate.resize(slot + 1, 0.0);
                }
                self.slot_rate[slot] = out[i];
            }
            self.cache_valid[pod] = true;
            self.changed_idx.extend_from_slice(&self.members[pod]);
        }
        self.dirty_pods = dirty;
    }

    /// Threaded branch of [`Self::fill_pods_sparse`], gated exactly
    /// like [`Self::try_fresh_parallel`] (≥2 dirty pods, enough total
    /// members, pool ≥ 2 threads; a core-crossing flow structurally
    /// never reaches here). The typical single-dirty-pod incremental
    /// step returns false immediately — the gate is one length check.
    #[cfg(feature = "parallel")]
    fn try_sparse_parallel(&mut self, dirty: &[usize], nflows: usize, out: &mut [f64]) -> bool {
        if dirty.len() < 2 {
            return false;
        }
        let work: usize = dirty.iter().map(|&p| self.members[p].len()).sum();
        if work < POD_PARALLEL_MIN_MEMBERS || self.pool_threads() < 2 {
            return false;
        }
        let threads = self.threads.min(dirty.len());
        self.pods_threaded += dirty.len();
        let members = &self.members;
        let member_slots = &self.member_slots;
        let pod_caps = &self.pod_caps;
        let route_ranks = &self.route_ranks;
        let route_rank_len = &self.route_rank_len;
        waterfill_pods_threaded(dirty, members, nflows, threads, out, |pod, buf, ws| {
            waterfill_pod_bucket(
                &pod_caps[pod],
                &members[pod],
                &member_slots[pod],
                route_ranks,
                route_rank_len,
                buf,
                ws,
            );
        });
        true
    }

    /// Worker-thread budget for per-pod recomputes, resolved once per
    /// policy instance from the sweep knob (`RAYON_NUM_THREADS`, else
    /// available parallelism).
    #[cfg(feature = "parallel")]
    fn pool_threads(&mut self) -> usize {
        if self.threads == 0 {
            self.threads = crate::sweep::configured_threads().max(1);
        }
        self.threads
    }

    /// Grows the per-pod bookkeeping to `npods` entries.
    fn ensure_pods(&mut self, npods: usize) {
        if self.cache_valid.len() < npods {
            self.cache_valid.resize(npods, false);
        }
        if self.pod_members.len() < npods {
            self.pod_members.resize(npods, Vec::new());
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
        self.sparse_report = false;
        let Some((npods, pod_of_res)) = topo.pod_partition() else {
            self.allocate_dense(now, flows, topo, ws, out);
            return;
        };
        let npods = npods as usize;
        self.build_ranks(npods, pod_of_res);
        self.ensure_pods(npods);
        // Dirty exactly the pods the delta touched. An arrival missing
        // from the flow slice arrived *and* departed within this delta:
        // it was never allocated, the pod's set is net-unchanged, and it
        // is skipped here and in the departure loop below.
        for &id in &delta.arrived {
            let Ok(i) = flows.binary_search_by(|v| v.id.cmp(&id)) else {
                continue;
            };
            let pod = Self::classify(topo, flows[i].src, flows[i].dst);
            self.pod_of_flow.insert(id, pod);
            let slot = flows[i].slot as usize;
            if slot >= self.pod_of_slot.len() {
                self.pod_of_slot.resize(slot + 1, CROSS_POD);
                self.route_ranks.resize((slot + 1) * ROUTE_STRIDE, 0);
                self.route_rank_len.resize(slot + 1, 0);
            }
            self.pod_of_slot[slot] = pod;
            if pod == CROSS_POD {
                self.cross_pod_live += 1;
            } else {
                // Translate the route to pod-local ranks once: routes are
                // fixed for the flow's lifetime and the slot can only be
                // recycled through a departure + arrival.
                let route = &flows[i].route;
                assert!(
                    route.len() <= ROUTE_STRIDE,
                    "pod-local route longer than ROUTE_STRIDE ({} hops)",
                    route.len()
                );
                let base = slot * ROUTE_STRIDE;
                for (k, r) in route.iter().enumerate() {
                    self.route_ranks[base + k] = self.rank_of_link[r.0 as usize];
                }
                self.route_rank_len[slot] = route.len() as u8;
                self.cache_valid[pod as usize] = false;
                let pm = &mut self.pod_members[pod as usize];
                if let Err(p) = pm.binary_search(&id) {
                    pm.insert(p, id);
                }
            }
        }
        for id in &delta.departed {
            match self.pod_of_flow.remove(id) {
                Some(CROSS_POD) => self.cross_pod_live -= 1,
                Some(pod) => {
                    self.cache_valid[pod as usize] = false;
                    let pm = &mut self.pod_members[pod as usize];
                    if let Ok(p) = pm.binary_search(id) {
                        pm.remove(p);
                    }
                }
                None => {} // arrived+departed within this delta
            }
        }
        if self.cross_pod_live > 0 {
            // A core-crossing flow couples pods: conservative fallback.
            // Per-pod caches were already invalidated above for every
            // touched pod, so pod mode resumes exactly when it drains.
            // The fabric waterfill overwrites every live flow's applied
            // rate, including clean pods' — a later sparse apply would
            // never repair those, so the next pod-mode allocation must
            // emit densely.
            self.emit_all = true;
            self.pods_total += npods;
            self.pods_recomputed += npods;
            out.clear();
            out.resize(flows.len(), 0.0);
            waterfill_dense(topo, flows, None, None, out, ws);
        } else if !self.caching {
            self.fill_pods(npods, flows, topo, ws, out, false);
        } else if self.emit_all {
            // One dense emission replays clean pods' cached rates over
            // whatever the fallback applied; sparse mode resumes after.
            self.emit_all = false;
            self.fill_pods(npods, flows, topo, ws, out, false);
        } else if allow_sparse {
            self.fill_pods_sparse(npods, flows, topo, ws, out);
            self.sparse_report = true;
        } else {
            self.fill_pods(npods, flows, topo, ws, out, false);
        }
    }
}

impl RatePolicy for PodMaxMinPolicy {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        let mut ws = AllocScratch::new();
        let mut out = Vec::new();
        self.allocate_dense(now, flows, topo, &mut ws, &mut out);
        crate::alloc::dense_to_alloc(flows, &out)
    }

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
            waterfill_dense(topo, flows, None, None, out, ws);
            return;
        };
        let npods = npods as usize;
        self.ensure_pods(npods);
        // The full path re-derives everything: if any live flow crosses
        // the core, fall back to the whole fabric, else refill each pod.
        let crossing = flows
            .iter()
            .any(|v| Self::classify(topo, v.src, v.dst) == CROSS_POD);
        if crossing {
            self.pods_total += npods;
            self.pods_recomputed += npods;
            out.clear();
            out.resize(flows.len(), 0.0);
            waterfill_dense(topo, flows, None, None, out, ws);
        } else {
            self.fill_pods(npods, flows, topo, ws, out, true);
        }
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

    /// Pod rates depend only on routes and capacities: bit-identical
    /// until the flow set changes.
    fn horizon(&self, _now: SimTime, _flows: &[ActiveFlowView], _rates: &[f64]) -> AllocHorizon {
        AllocHorizon::UntilFlowChange
    }

    /// Any fault may change link capacities, and a pod's cached rates
    /// bake those in: drop every pod's rate cache *and* capacity
    /// snapshot (the snapshots feed the ranked waterfill and must be
    /// re-read from the post-fault topology).
    fn on_fault(&mut self, _now: SimTime, _fault: &FaultKind) {
        self.cache_valid.fill(false);
        for caps in &mut self.pod_caps {
            caps.clear();
        }
    }

    fn name(&self) -> &'static str {
        "pod-fair-sharing"
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        Some((self.pods_recomputed, self.pods_total))
    }

    fn changed_indices(&self) -> Option<&[usize]> {
        self.sparse_report.then_some(self.changed_idx.as_slice())
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

    /// Driver counters: allocations performed and horizon skips.
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
/// nothing else ever happens. The driver's dirty-flag skip applies — the
/// flow set only changes at releases and completions, so allocations are
/// skipped while the pending delta is empty.
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

    #[test]
    fn full_and_incremental_modes_agree_for_default_policy() {
        // The default allocate_incremental falls back to allocate, so the
        // two modes must be trivially bit-identical.
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
    fn pod_policy_caching_is_bit_identical_to_recompute() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let cached = run_flows_with(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
        );
        let plain = run_flows_with(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::without_caching(),
            RecomputeMode::Incremental,
        );
        let full = run_flows_with(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Full,
        );
        assert_eq!(cached.trace().events(), plain.trace().events());
        assert_eq!(cached.trace().events(), full.trace().events());
        // Caching must actually have skipped pod recomputes: releases in
        // one pod leave the other pod's cache valid.
        let stats = cached.drive_stats();
        assert!(stats.pods_total > 0);
        assert!(
            stats.pods_recomputed < stats.pods_total,
            "caching never skipped a pod: {}/{}",
            stats.pods_recomputed,
            stats.pods_total
        );
        assert!(stats.pod_recompute_fraction() < 1.0);
        let plain_stats = plain.drive_stats();
        assert_eq!(plain_stats.pods_recomputed, plain_stats.pods_total);
    }

    #[test]
    fn pod_policy_core_crossing_flow_forces_fallback() {
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let mut demands = pod_local_demands();
        demands.push(demand(6, 0, 7, 2.0, 0.25)); // pod 0 → pod 1
        let cached = run_flows_with(
            &topo,
            demands.clone(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
        );
        let plain = run_flows_with(
            &topo,
            demands,
            &mut PodMaxMinPolicy::without_caching(),
            RecomputeMode::Incremental,
        );
        assert_eq!(cached.trace().events(), plain.trace().events());
        assert_eq!(cached.completions().len(), 7);
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
        // Degrade a pod-0 edge link mid-run: the cached pod rates must be
        // dropped, keeping caching bitwise-equal to plain recompute.
        let topo = crate::fattree::FatTree::new(4).build_fabric();
        let r = crate::ids::ResourceId(0); // host 0 up-link (pod 0)
        let plan = FaultPlan::empty()
            .with(SimTime::new(0.75), FaultKind::LinkDegrade(r, 0.25))
            .with(SimTime::new(2.0), FaultKind::LinkRestore(r));
        let cached = run_flows_faulted(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::new(),
            RecomputeMode::Incremental,
            &plan,
        );
        let plain = run_flows_faulted(
            &topo,
            pod_local_demands(),
            &mut PodMaxMinPolicy::without_caching(),
            RecomputeMode::Incremental,
            &plan,
        );
        assert_eq!(cached.trace().events(), plain.trace().events());
    }

    /// A policy that (incorrectly) hands a rate to a flow id outside the
    /// active set; the network must reject it loudly instead of silently
    /// dropping the rate.
    struct GhostRatePolicy;

    impl RatePolicy for GhostRatePolicy {
        fn allocate(
            &mut self,
            _now: SimTime,
            flows: &[ActiveFlowView],
            topo: &Topology,
        ) -> RateAlloc {
            let mut alloc = crate::alloc::max_min_rates(topo, flows);
            alloc.insert(FlowId(9999), 0.0);
            alloc
        }
    }

    #[test]
    #[should_panic(expected = "unknown flow")]
    fn policy_rating_inactive_flow_is_rejected() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        run_flows(&topo, vec![demand(0, 0, 1, 1.0, 0.0)], &mut GhostRatePolicy);
    }
}
