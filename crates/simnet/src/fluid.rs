//! The active-flow table of the fluid model.
//!
//! [`FluidNetwork`] holds every released-but-unfinished flow together with
//! its current rate. The surrounding simulation loop alternates between:
//!
//! 1. asking a policy for a dense rate buffer over the current flows
//!    (`rates[i]` for `views()[i]`),
//! 2. applying it with [`FluidNetwork::set_rates_dense`]
//!    (feasibility-checked),
//! 3. advancing to the next event with [`FluidNetwork::advance`], using
//!    [`FluidNetwork::next_completion_in`] to bound the step.
//!
//! Byte conservation is enforced: a flow finishes exactly when its
//! remaining size crosses zero (within epsilon), and `advance` never
//! overshoots a completion.
//!
//! ## Incremental scheduling support
//!
//! The table is vec-backed and id-sorted, so [`FluidNetwork::views`] is a
//! borrow, not a per-event allocation. Arrivals and departures since the
//! last [`FluidNetwork::take_delta`] are accumulated in a [`FlowDelta`],
//! which incremental policies use to update cached group state instead of
//! re-deriving it from the full flow set at every event.

use crate::alloc::FeasibilityAudit;
use crate::calendar::CalendarQueue;
use crate::flow::{ActiveFlowView, FlowArena, FlowCompletion, FlowDemand};
use crate::ids::{FlowId, ResourceId};
use crate::time::{SimTime, EPS};
use crate::topology::Topology;

/// How [`FluidNetwork::next_completion_in`] finds the earliest due flow.
///
/// Both backends read the same absolute due times, which are rewritten
/// only when a flow's rate changes bitwise — so they return
/// bit-identical `(flow, dt)` answers and whole simulations evolve
/// identically under either (pinned by `tests/calendar_queue.rs` and the
/// differential suites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NextCompletionMode {
    /// O(F) id-order scan of the due times — the naive reference.
    Scan,
    /// Bucketed calendar queue ([`CalendarQueue`]) — O(1)-ish queries
    /// and per-flow updates; the default.
    #[default]
    Calendar,
}

/// The set of flows that arrived and departed since the last
/// [`FluidNetwork::take_delta`], in event order.
///
/// Ids are unique per run, so a flow never appears in `arrived` after
/// `departed`; consumers should apply arrivals before departures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowDelta {
    /// Flows released since the last drain.
    pub arrived: Vec<FlowId>,
    /// Flows completed since the last drain.
    pub departed: Vec<FlowId>,
}

impl FlowDelta {
    /// True when nothing arrived or departed.
    pub fn is_empty(&self) -> bool {
        self.arrived.is_empty() && self.departed.is_empty()
    }
}

/// The set of in-flight flows and their currently assigned rates.
///
/// Flows are stored in ascending id order; `rates[i]` is the rate of
/// `views[i]`.
#[derive(Debug)]
pub struct FluidNetwork {
    topology: Topology,
    views: Vec<ActiveFlowView>,
    rates: Vec<f64>,
    now: SimTime,
    delta: FlowDelta,
    /// Slot identity + route-buffer recycling for the active set.
    arena: FlowArena,
    /// Absolute predicted completion time of `views[i]` (`INFINITY` for
    /// a non-progressing flow). Rewritten *only* when the flow's rate
    /// changes bitwise — a bit-identical rate reapplication leaves it
    /// untouched, so reallocating an unchanged answer never perturbs a
    /// completion time.
    due_pos: Vec<f64>,
    /// Position-indexed completion threshold, `EPS.max(size * 1e-12)`
    /// precomputed at release (a pure function of the flow's size, so
    /// the bits match computing it in the sweep).
    thresh: Vec<f64>,
    /// Calendar mirror of the finite entries of `due_pos` (keyed by arena
    /// slot), maintained when `mode` is [`NextCompletionMode::Calendar`].
    calendar: CalendarQueue,
    mode: NextCompletionMode,
    /// When false, [`Self::set_rates_dense`] skips the infeasibility
    /// panic (an O(F·route) safety scan over the links in use, with no
    /// arithmetic effect) — the scale benches disable it after the
    /// differential suites have pinned the allocator.
    feasibility_checks: bool,
    /// The audit and its copy of the current capacities, built at the
    /// first check and dropped when checks are switched off.
    audit: Option<FeasibilityAudit>,
    /// Construction-time capacities, the reference point fault factors
    /// scale from (see [`Self::apply_capacity_factor`]).
    base_caps: Vec<f64>,
    /// Resources currently at (effectively) zero capacity.
    down: Vec<bool>,
    /// Number of `true` entries in `down` — gates the stall scan.
    down_count: usize,
    /// Accumulated flow-seconds spent stalled on a downed resource.
    stall_seconds: f64,
    /// Reused scratch: indices of flows completing in the current
    /// [`Self::advance`] call.
    completed_scratch: Vec<usize>,
}

impl FluidNetwork {
    /// Creates an empty network over `topology` at time zero, with the
    /// calendar-backed next-completion queue.
    pub fn new(topology: Topology) -> FluidNetwork {
        FluidNetwork::with_next_completion(topology, NextCompletionMode::default())
    }

    /// Creates an empty network with an explicit next-completion backend
    /// (the differential suites run both and require bitwise agreement).
    pub fn with_next_completion(topology: Topology, mode: NextCompletionMode) -> FluidNetwork {
        let num_resources = topology.num_resources();
        let mut base_caps = Vec::new();
        topology.capacities_into(&mut base_caps);
        FluidNetwork {
            topology,
            views: Vec::new(),
            rates: Vec::new(),
            now: SimTime::ZERO,
            delta: FlowDelta::default(),
            arena: FlowArena::new(),
            due_pos: Vec::new(),
            thresh: Vec::new(),
            calendar: CalendarQueue::new(),
            mode,
            feasibility_checks: true,
            audit: None,
            base_caps,
            down: vec![false; num_resources],
            down_count: 0,
            stall_seconds: 0.0,
            completed_scratch: Vec::new(),
        }
    }

    /// Scales resource `r` to `factor` × its construction-time capacity —
    /// the fault-injection capacity path (`0.0` = link down, `1.0` = full
    /// restore, anything between = degradation). Factors always compose
    /// against the *base* capacity, so repeated degradations do not decay
    /// multiplicatively and a restore is exact.
    ///
    /// Rates applied before the change are left untouched and may now be
    /// infeasible for the shrunk capacity: the caller must recompute and
    /// re-apply rates before the next [`Self::advance`] (the driver forces
    /// exactly that at every fault instant). The due table is derived
    /// from rates, not capacities — but the calendar's memoized minimum
    /// is still force-invalidated here, so every capacity mutation
    /// re-derives the next completion from the buckets instead of
    /// trusting that reasoning (the fault-differential suite pins the
    /// two paths bit-identical). Invalidation of *policy-side* caches
    /// happens via [`crate::runner::RatePolicy::on_fault`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `factor` is negative or
    /// non-finite.
    pub fn apply_capacity_factor(&mut self, r: ResourceId, factor: f64) {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "bad capacity factor {factor}"
        );
        let ri = r.0 as usize;
        assert!(ri < self.base_caps.len(), "resource {r} out of range");
        let cap = self.base_caps[ri] * factor;
        self.topology.set_capacity(r, cap);
        if let Some(audit) = &mut self.audit {
            audit.set_capacity(r, cap);
        }
        self.calendar.invalidate_min();
        let is_down = cap <= EPS;
        match (self.down[ri], is_down) {
            (false, true) => self.down_count += 1,
            (true, false) => self.down_count -= 1,
            _ => {}
        }
        self.down[ri] = is_down;
    }

    /// True while resource `r` is at zero capacity from a fault.
    pub fn is_down(&self, r: ResourceId) -> bool {
        self.down[r.0 as usize]
    }

    /// Number of resources currently downed by faults.
    pub fn down_count(&self) -> usize {
        self.down_count
    }

    /// Accumulated flow-seconds spent stalled: each second a flow whose
    /// route crosses a downed resource sits active contributes one
    /// flow-second, summed over [`Self::advance`] calls.
    pub fn stall_flow_seconds(&self) -> f64 {
        self.stall_seconds
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of active flows.
    pub fn active_count(&self) -> usize {
        self.views.len()
    }

    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.views.binary_search_by(|v| v.id.cmp(&id)).ok()
    }

    /// Releases a flow into the network at the current time.
    ///
    /// The demand's `release` must not be in the future (the caller's event
    /// loop is responsible for holding flows until their release time).
    ///
    /// # Panics
    ///
    /// Panics on duplicate ids or a future release time.
    pub fn release(&mut self, demand: &FlowDemand) {
        assert!(
            demand.release.at_or_before(self.now),
            "flow {} released at {:?} before its release time {:?}",
            demand.id,
            self.now,
            demand.release
        );
        let pos = match self.views.binary_search_by(|v| v.id.cmp(&demand.id)) {
            Ok(_) => panic!("duplicate flow id {}", demand.id),
            Err(pos) => pos,
        };
        let (slot, mut route) = self.arena.acquire();
        self.topology.route_into(demand.src, demand.dst, &mut route);
        self.views.insert(
            pos,
            ActiveFlowView {
                id: demand.id,
                slot,
                src: demand.src,
                dst: demand.dst,
                size: demand.size,
                remaining: demand.size,
                release: demand.release,
                route,
            },
        );
        self.rates.insert(pos, 0.0);
        self.due_pos.insert(pos, f64::INFINITY);
        self.thresh.insert(pos, EPS.max(demand.size * 1e-12));
        self.delta.arrived.push(demand.id);
    }

    /// High-water arena slot count: the peak number of concurrently
    /// active flows so far (the size of the dense per-slot side tables).
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// The configured next-completion backend.
    pub fn next_completion_mode(&self) -> NextCompletionMode {
        self.mode
    }

    /// Enables/disables the dense-allocation feasibility panic (on by
    /// default). Disabling skips only a safety scan — no arithmetic
    /// depends on it, so traces are unaffected; the scale benches turn
    /// it off after the differential suites have pinned the allocator.
    pub fn set_feasibility_checks(&mut self, on: bool) {
        self.feasibility_checks = on;
        if !on {
            self.audit = None;
        }
    }

    /// Audits `rates` (`rates[i]` for `views()[i]`; `None` for the live
    /// table) when checks are on.
    ///
    /// # Panics
    ///
    /// Panics if the allocation is infeasible for the current capacities.
    fn audit(&mut self, rates: Option<&[f64]>) {
        if !self.feasibility_checks {
            return;
        }
        let topology = &self.topology;
        let audit = self
            .audit
            .get_or_insert_with(|| FeasibilityAudit::new(topology));
        if let Err(msg) = audit.check(&self.views, rates.unwrap_or(&self.rates)) {
            panic!("infeasible rate allocation: {msg}");
        }
    }

    /// Pre-sizes every per-flow structure for up to `n` concurrently
    /// active flows (flow table, rate/due/threshold tables, calendar
    /// slots, and the route arena), so a run whose workload size is
    /// known up front never reallocates them mid-drive. A hint, not a
    /// limit.
    pub fn reserve(&mut self, n: usize) {
        self.views.reserve(n);
        self.rates.reserve(n);
        self.due_pos.reserve(n);
        self.thresh.reserve(n);
        self.calendar.reserve(n);
        self.arena.reserve(n);
    }

    /// Snapshot of all active flows in ascending id order, as handed to
    /// rate policies. A borrow of the live table — no per-event allocation.
    pub fn views(&self) -> &[ActiveFlowView] {
        &self.views
    }

    /// Active flows paired with their current rates, in ascending id order.
    pub fn flows_with_rates(&self) -> impl Iterator<Item = (&ActiveFlowView, f64)> {
        self.views.iter().zip(self.rates.iter().copied())
    }

    /// Drains the arrivals/departures accumulated since the last call.
    pub fn take_delta(&mut self) -> FlowDelta {
        std::mem::take(&mut self.delta)
    }

    /// Re-derives flow `i`'s absolute due time from its (just-changed)
    /// rate and current remaining bytes, mirroring it into the calendar.
    fn update_due(&mut self, i: usize) {
        let v = &self.views[i];
        let rate = self.rates[i];
        let due = if rate > EPS {
            self.now.secs() + v.remaining / rate
        } else {
            f64::INFINITY
        };
        self.due_pos[i] = due;
        if self.mode == NextCompletionMode::Calendar {
            self.calendar.set(v.slot, v.id, due);
        }
    }

    /// Applies a dense rate allocation (`rates[i]` for `views()[i]`, the
    /// hot-path currency), checking feasibility unless it was switched
    /// off.
    ///
    /// If every rate is bit-identical to the current one, the call is a
    /// no-op that preserves the incrementally maintained next-completion
    /// estimate, so a run evolves bit-identically however often it
    /// reapplies unchanged rates.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len() != active_count()` or the allocation is
    /// infeasible for the topology.
    pub fn set_rates_dense(&mut self, rates: &[f64]) {
        assert_eq!(
            rates.len(),
            self.views.len(),
            "dense allocation covers {} flows but {} are active",
            rates.len(),
            self.views.len()
        );
        self.audit(Some(rates));
        for (i, &r) in rates.iter().enumerate() {
            let new = r.max(0.0);
            if new.to_bits() != self.rates[i].to_bits() {
                self.rates[i] = new;
                self.update_due(i);
            }
        }
    }

    /// Sparse variant of [`Self::set_rates_dense`]: applies only the
    /// entries of `rates` listed in `changed` — every other flow's
    /// current rate stays in force, and the corresponding `rates`
    /// entries are never read (the caller may have left them stale).
    /// The per-entry application is bitwise identical to the dense
    /// path's, so a sparse apply whose `changed` set covers all bitwise
    /// differences produces an identical network state.
    ///
    /// Feasibility (when enabled) is checked on the live rate table
    /// *after* application — the dense path checks the full buffer
    /// up front, which a sparse buffer cannot support.
    pub fn set_rates_sparse(&mut self, rates: &[f64], changed: &[usize]) {
        assert_eq!(
            rates.len(),
            self.views.len(),
            "sparse allocation buffer covers {} flows but {} are active",
            rates.len(),
            self.views.len()
        );
        for &i in changed {
            let new = rates[i].max(0.0);
            if new.to_bits() != self.rates[i].to_bits() {
                self.rates[i] = new;
                self.update_due(i);
            }
        }
        self.audit(None);
    }

    /// Current rate of a flow (zero if inactive).
    pub fn rate_of(&self, id: FlowId) -> f64 {
        self.index_of(id).map(|i| self.rates[i]).unwrap_or(0.0)
    }

    /// Current rates in ascending flow-id order (`rates()[i]` belongs to
    /// `views()[i]`). A borrow of the live table — no allocation.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The earliest `(flow, absolute due)` pair under the configured
    /// backend, ties broken by smallest flow id in both.
    fn earliest(&mut self) -> Option<(FlowId, f64)> {
        match self.mode {
            NextCompletionMode::Scan => {
                let mut best: Option<(FlowId, f64)> = None;
                for (v, &due) in self.views.iter().zip(&self.due_pos) {
                    if due.is_finite() && best.is_none_or(|(_, b)| due < b) {
                        best = Some((v.id, due));
                    }
                }
                best
            }
            NextCompletionMode::Calendar => self.calendar.min(),
        }
    }

    /// The earliest-finishing flow and the seconds until it completes at
    /// current rates, or `None` if no flow is making progress. Both
    /// backends answer from the same due times, so Scan and Calendar
    /// modes agree bitwise (flow id *and* dt).
    pub fn next_completion(&mut self) -> Option<(FlowId, f64)> {
        let now = self.now.secs();
        self.earliest().map(|(id, due)| (id, (due - now).max(0.0)))
    }

    /// Seconds until the earliest flow completion at current rates, or
    /// `None` if no flow is making progress.
    ///
    /// Flows carry absolute predicted due times that change only when
    /// their rate bits change, so an advance — with or without
    /// completions — never triggers a rescan: survivors' dues are simply
    /// still valid. The old implementation rescanned all F flows after
    /// every completion, the dominant cost at high flow counts.
    pub fn next_completion_in(&mut self) -> Option<f64> {
        let now = self.now.secs();
        self.earliest().map(|(_, due)| (due - now).max(0.0))
    }

    /// Advances the clock by `dt` seconds at current rates, transferring
    /// bytes and collecting any flows that finish.
    ///
    /// Completions are returned in ascending flow-id order; their `finish`
    /// time is the new clock value. `dt` must not overshoot the earliest
    /// completion by more than epsilon (use [`Self::next_completion_in`]).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or overshoots a completion (which would
    /// silently destroy bytes).
    pub fn advance(&mut self, dt: f64) -> Vec<FlowCompletion> {
        assert!(dt >= -EPS, "cannot advance by negative dt {dt}");
        let dt = dt.max(0.0);
        if let Some(first) = self.next_completion_in() {
            assert!(
                dt <= first + 1e-6,
                "advance overshoots earliest completion: dt={dt} first={first}"
            );
        }
        if self.down_count > 0 && dt > 0.0 {
            // Stall accounting: every active flow whose route crosses a
            // downed resource sits at rate 0 for this whole step.
            for v in &self.views {
                if v.route.iter().any(|r| self.down[r.0 as usize]) {
                    self.stall_seconds += dt;
                }
            }
        }
        self.now += dt;
        let now = self.now;
        let now_secs = now.secs();
        // Single pass — clamped byte transfer plus completion test. The
        // clamp keeps FP drift across many tiny steps from pushing
        // remaining negative (tests/invariants.rs). A flow finishes when
        // its bytes run out *or* its predicted due time arrives — the
        // due re-derives the completion instant from the rate-change
        // point, so accumulated per-step subtraction drift cannot strand
        // a flow with an epsilon of phantom bytes past its due. Indices
        // collect in ascending order, which is ascending flow-id order
        // (the live table is id-sorted).
        self.completed_scratch.clear();
        let n = self.views.len();
        for i in 0..n {
            let rate = self.rates[i];
            let v = &mut self.views[i];
            let remaining = (v.remaining - rate * dt).max(0.0);
            v.remaining = remaining;
            // `thresh` is a position-indexed mirror of
            // `EPS.max(size * 1e-12)` — a sequential read instead of a
            // struct-field load.
            if remaining <= self.thresh[i] || self.due_pos[i] <= now_secs {
                self.completed_scratch.push(i);
            }
        }
        if self.completed_scratch.is_empty() {
            return Vec::new();
        }
        // Unwind completed flows' slots and calendar entries, and
        // recycle their route buffers before removal. Survivors' dues
        // are untouched and still valid — no rescan.
        let mut done = Vec::with_capacity(self.completed_scratch.len());
        for k in 0..self.completed_scratch.len() {
            let i = self.completed_scratch[k];
            let slot = self.views[i].slot;
            let route = std::mem::take(&mut self.views[i].route);
            let v = &self.views[i];
            done.push(FlowCompletion {
                id: v.id,
                release: v.release,
                finish: now,
                size: v.size,
            });
            if self.mode == NextCompletionMode::Calendar {
                self.calendar.remove(slot);
            }
            self.arena.release(slot, route);
        }
        // Remove completed entries preserving order. The common case is
        // a single completion, where `Vec::remove` is one tail memmove —
        // far cheaper than the old per-survivor swap compaction. Reverse
        // order keeps the collected indices valid.
        for k in (0..self.completed_scratch.len()).rev() {
            let i = self.completed_scratch[k];
            self.views.remove(i);
            self.rates.remove(i);
            self.due_pos.remove(i);
            self.thresh.remove(i);
        }
        self.delta.departed.extend(done.iter().map(|c| c.id));
        done
    }

    /// Aggregate bytes/second currently flowing.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{waterfill_dense, AllocScratch};
    use crate::ids::NodeId;

    /// Applies the max-min fair allocation over the active flows.
    fn apply_fair(net: &mut FluidNetwork) {
        let mut rates = vec![0.0; net.active_count()];
        let mut ws = AllocScratch::new();
        waterfill_dense(net.topology(), net.views(), None, &mut rates, &mut ws);
        net.set_rates_dense(&rates);
    }

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
    fn single_flow_runs_to_completion() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        apply_fair(&mut net);
        let dt = net.next_completion_in().unwrap();
        assert!((dt - 2.0).abs() < 1e-9);
        let done = net.advance(dt);
        assert_eq!(done.len(), 1);
        assert!(done[0].finish.approx_eq(SimTime::new(2.0)));
        assert_eq!(net.active_count(), 0);
    }

    #[test]
    fn two_flows_fair_share_finish_together() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        net.release(&demand(1, 0, 1, 2.0, 0.0));
        apply_fair(&mut net);
        let dt = net.next_completion_in().unwrap();
        assert!((dt - 4.0).abs() < 1e-9);
        let done = net.advance(dt);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn partial_advance_conserves_bytes() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        apply_fair(&mut net);
        let done = net.advance(0.5);
        assert!(done.is_empty());
        let views = net.views();
        assert!((views[0].remaining - 1.5).abs() < 1e-9);
        assert!((views[0].progress() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_flow_never_completes() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        // No rates applied: flow sits idle.
        assert!(net.next_completion_in().is_none());
        let done = net.advance(10.0);
        assert!(done.is_empty());
        assert_eq!(net.active_count(), 1);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_rates_rejected() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        net.set_rates_dense(&[5.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn duplicate_release_rejected() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "overshoots")]
    fn overshooting_advance_rejected() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 1.0, 0.0));
        apply_fair(&mut net);
        net.advance(5.0);
    }

    #[test]
    fn rate_changes_mid_flight() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        net.set_rates_dense(&[0.5]);
        net.advance(2.0); // 1.0 bytes left
        net.set_rates_dense(&[1.0]);
        let dt = net.next_completion_in().unwrap();
        assert!((dt - 1.0).abs() < 1e-9);
        let done = net.advance(dt);
        assert!(done[0].finish.approx_eq(SimTime::new(3.0)));
        assert!((done[0].fct() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn advance_returns_each_completion_once() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(3, 1.0));
        net.release(&demand(1, 2, 1, 1.0, 0.0));
        net.release(&demand(0, 0, 1, 1.0, 0.0));
        net.release(&demand(2, 0, 2, 3.0, 0.0));
        apply_fair(&mut net);
        let dt = net.next_completion_in().unwrap();
        let done = net.advance(dt);
        // Same-instant completions come back in ascending id order.
        let ids: Vec<FlowId> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![FlowId(0), FlowId(1)]);
        assert!(done.iter().all(|c| c.finish == net.now()));
        apply_fair(&mut net);
        let dt = net.next_completion_in().unwrap();
        let done = net.advance(dt);
        let ids: Vec<FlowId> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![FlowId(2)]);
        assert_eq!(net.active_count(), 0);
    }

    #[test]
    fn total_rate_sums_active_rates() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(3, 1.0));
        net.release(&demand(0, 0, 2, 1.0, 0.0));
        net.release(&demand(1, 1, 2, 1.0, 0.0));
        apply_fair(&mut net);
        assert!((net.total_rate() - 1.0).abs() < 1e-9); // n2 ingress bound
    }

    #[test]
    fn views_stay_sorted_under_out_of_order_release() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(4, 1.0));
        net.release(&demand(5, 0, 1, 1.0, 0.0));
        net.release(&demand(1, 1, 2, 1.0, 0.0));
        net.release(&demand(3, 2, 3, 1.0, 0.0));
        let ids: Vec<FlowId> = net.views().iter().map(|v| v.id).collect();
        assert_eq!(ids, vec![FlowId(1), FlowId(3), FlowId(5)]);
    }

    #[test]
    fn capacity_factor_scales_from_base_and_tracks_down_set() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 2.0));
        let r = crate::ids::ResourceId(0);
        net.apply_capacity_factor(r, 0.5);
        assert_eq!(net.topology().capacity(r), 1.0);
        assert!(!net.is_down(r));
        // Degrade again: factors compose against the base, not the
        // current value — 0.25 of 2.0, not 0.25 of 1.0.
        net.apply_capacity_factor(r, 0.25);
        assert_eq!(net.topology().capacity(r), 0.5);
        net.apply_capacity_factor(r, 0.0);
        assert!(net.is_down(r));
        assert_eq!(net.down_count(), 1);
        net.apply_capacity_factor(r, 1.0);
        assert_eq!(net.topology().capacity(r), 2.0);
        assert!(!net.is_down(r));
        assert_eq!(net.down_count(), 0);
    }

    #[test]
    fn stalled_flow_seconds_accumulate_on_downed_routes() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(3, 1.0));
        net.release(&demand(0, 0, 1, 4.0, 0.0)); // crosses host0 egress
        net.release(&demand(1, 2, 1, 4.0, 0.0)); // does not
        net.apply_capacity_factor(crate::ids::ResourceId(0), 0.0);
        net.set_rates_dense(&[0.0, 0.5]);
        net.advance(2.0);
        // Only flow 0 crosses the downed egress: 2.0 flow-seconds.
        assert!((net.stall_flow_seconds() - 2.0).abs() < 1e-9);
        net.apply_capacity_factor(crate::ids::ResourceId(0), 1.0);
        net.advance(2.0);
        assert!((net.stall_flow_seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn shrunk_capacity_rejects_stale_scale_rates() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
        net.release(&demand(0, 0, 1, 2.0, 0.0));
        net.apply_capacity_factor(crate::ids::ResourceId(0), 0.25);
        net.set_rates_dense(&[1.0]); // feasible pre-fault, not post
    }

    /// A capacity change reaches an audit that is already built: after a
    /// feasible apply, downing the flow's link makes the same rates
    /// panic with the reference check's message, on both apply paths.
    #[test]
    fn downed_link_reaches_a_built_audit() {
        use crate::alloc::check_feasible_dense;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for sparse in [false, true] {
            let mut net = FluidNetwork::new(Topology::big_switch_uniform(2, 1.0));
            net.release(&demand(0, 0, 1, 2.0, 0.0));
            net.set_rates_dense(&[1.0]);
            net.apply_capacity_factor(crate::ids::ResourceId(0), 0.0);
            let want = check_feasible_dense(net.topology(), net.views(), &[1.0], &mut Vec::new())
                .expect_err("the downed link is oversubscribed");
            let panic = catch_unwind(AssertUnwindSafe(|| {
                if sparse {
                    net.set_rates_sparse(&[1.0], &[]);
                } else {
                    net.set_rates_dense(&[1.0]);
                }
            }))
            .expect_err("the stale allocation must be rejected");
            let got = panic.downcast_ref::<String>().expect("formatted panic");
            assert_eq!(*got, format!("infeasible rate allocation: {want}"));
        }
    }

    #[test]
    fn delta_tracks_arrivals_and_departures() {
        let mut net = FluidNetwork::new(Topology::big_switch_uniform(3, 1.0));
        net.release(&demand(0, 0, 1, 1.0, 0.0));
        net.release(&demand(1, 2, 1, 4.0, 0.0));
        let d = net.take_delta();
        assert_eq!(d.arrived, vec![FlowId(0), FlowId(1)]);
        assert!(d.departed.is_empty());

        apply_fair(&mut net);
        let dt = net.next_completion_in().unwrap();
        net.advance(dt);
        let d = net.take_delta();
        assert!(d.arrived.is_empty());
        assert_eq!(d.departed, vec![FlowId(0)]);
        // Draining twice yields an empty delta.
        assert!(net.take_delta().is_empty());
    }
}
