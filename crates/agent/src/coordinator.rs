//! The global Coordinator (paper §5, Fig. 7).
//!
//! The coordinator receives EchelonFlow requests from the per-job agents
//! and computes bandwidth allocations with the heuristic adapted from
//! Coflow scheduling ([`EchelonMadd`]). Two practicality knobs from the
//! paper's discussion are modelled:
//!
//! - **Scheduling interval**: "Such algorithms would rerun per EchelonFlow
//!   arrival/departure or per scheduling interval." With
//!   [`CoordinatorConfig::trigger`] set to [`Trigger::Interval`], the
//!   coordinator only
//!   re-derives its *decision* (a global flow priority order) every
//!   interval; between decisions the agents keep enforcing the cached
//!   order, so newly arrived flows are served at stale priorities until
//!   the next recomputation — trading decision freshness for coordinator
//!   load, the scalability lever the paper proposes to exploit for
//!   iterative DDLT jobs. Under `PerGroupChange` and `Interval` a
//!   decision's own rates stand until the flow set changes, a fault
//!   strikes or the next decision may come due, however many other
//!   events (computation completions, say) pass in between.
//! - **Control latency**: flows younger than
//!   [`CoordinatorConfig::control_latency`] have not completed the
//!   agent → coordinator round-trip yet; until then they receive only
//!   backfilled (fair-share leftover) bandwidth.
//!
//! [`CoordinatedPolicy`] allocates in the simulator's dense rate currency
//! (`out[i]` rates `flows[i]` of the id-sorted active slice; see
//! [`echelon_simnet::alloc`]): the engine writes straight into the
//! driver's buffer with the driver's scratch, and the decision cache, the
//! held decision and the fresh-flow backfill stay dense too. The map
//! entry points of [`RatePolicy`] are adapters over the dense ones.

use crate::api::EchelonRequest;
use echelon_core::echelon::EchelonFlow;
use echelon_core::EchelonId;
use echelon_sched::echelon::{EchelonMadd, InterOrder, IntraMode};
use echelon_simnet::alloc::{
    alloc_via_dense, priority_fill_dense, waterfill_dense, AllocScratch, RateAlloc,
};
use echelon_simnet::fault::FaultKind;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// When the coordinator re-runs its heuristic (§5: "such algorithms
/// would rerun per EchelonFlow arrival/departure or per scheduling
/// interval").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Recompute at every flow release/completion (the precise mode).
    PerEvent,
    /// Recompute only when the set of *active EchelonFlows* changes — the
    /// paper's "per EchelonFlow arrival/departure". Within one
    /// EchelonFlow's lifetime the cached decision is reused, exploiting
    /// the iterative repetitiveness of DDLT jobs.
    PerGroupChange,
    /// Recompute at most every `dt` seconds of simulated time.
    Interval(f64),
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// Decision recomputation trigger.
    pub trigger: Trigger,
    /// Agent → coordinator → agent round-trip: flows younger than this
    /// receive only leftover bandwidth.
    pub control_latency: f64,
    /// Inter-EchelonFlow ordering used by the heuristic.
    pub inter: InterOrder,
    /// Intra-EchelonFlow discipline used by the heuristic.
    pub intra: IntraMode,
    /// Admission gate for open-loop operation: the most requests the
    /// coordinator will hold pending (pre-policy) or queue for live
    /// registration (post-policy) at once. Requests beyond it are
    /// rejected and counted, never silently dropped. The default is
    /// effectively unbounded, preserving closed-loop behaviour.
    pub pending_limit: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            trigger: Trigger::PerEvent,
            control_latency: 0.0,
            inter: InterOrder::EarliestDeadline,
            intra: IntraMode::FinishEarly,
            pending_limit: usize::MAX,
        }
    }
}

/// The global coordinator: request registry + decision engine.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordinatorConfig,
    registered: Vec<EchelonFlow>,
    rejected: usize,
    decisions_computed: usize,
}

impl Coordinator {
    /// Creates a coordinator with the given knobs.
    pub fn new(config: CoordinatorConfig) -> Coordinator {
        Coordinator {
            config,
            registered: Vec::new(),
            rejected: 0,
            decisions_computed: 0,
        }
    }

    /// Registers one EchelonFlow request (agents call this).
    ///
    /// Unconditional: closed-loop callers pre-register a known job set
    /// and a silent drop would corrupt the experiment. Open-loop callers
    /// use [`Self::try_submit`].
    pub fn submit(&mut self, request: EchelonRequest) {
        self.registered.push(request.echelon);
    }

    /// Gated registration: refuses (returning `false` and counting the
    /// rejection) once [`CoordinatorConfig::pending_limit`] requests are
    /// already held.
    pub fn try_submit(&mut self, request: EchelonRequest) -> bool {
        if self.registered.len() >= self.config.pending_limit {
            self.rejected += 1;
            return false;
        }
        self.submit(request);
        true
    }

    /// Registers a batch of requests from any iterable source — a `Vec`,
    /// a draining iterator, or a borrowed slice via `.iter().cloned()` —
    /// without forcing callers to materialize an intermediate vector.
    pub fn submit_all<I>(&mut self, requests: I)
    where
        I: IntoIterator<Item = EchelonRequest>,
    {
        for r in requests {
            self.submit(r);
        }
    }

    /// Number of registered EchelonFlows.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Requests refused by [`Self::try_submit`]'s admission gate.
    pub fn rejected_count(&self) -> usize {
        self.rejected
    }

    /// How many times the decision engine ran (the scalability metric the
    /// interval knob trades against).
    pub fn decisions_computed(&self) -> usize {
        self.decisions_computed
    }

    /// Finalizes registration into a live scheduling policy. Moves the
    /// registered requests into the engine — no copy of the registry.
    pub fn into_policy(self) -> CoordinatedPolicy {
        let engine = EchelonMadd::new(self.registered)
            .with_inter(self.config.inter)
            .with_intra(self.config.intra);
        CoordinatedPolicy {
            config: self.config,
            engine,
            cached_order: Vec::new(),
            last_decision: None,
            last_groups: Vec::new(),
            first_seen: BTreeMap::new(),
            decisions_computed: 0,
            group_counts: BTreeMap::new(),
            counts_valid: false,
            held: HeldDecision::default(),
            outage: false,
            pending_register: Vec::new(),
            rejected_registrations: 0,
            known: Vec::new(),
            known_pos: Vec::new(),
            fresh: Vec::new(),
            known_rates: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// The last decision's rates and the flows they were computed for. Its
/// buffers persist across decisions, so recording one reuses their
/// capacity.
#[derive(Debug, Default)]
struct HeldDecision {
    /// Allocations before this time (seconds) over the same flows serve
    /// `rates` unchanged; `None` when nothing is held.
    until: Option<f64>,
    ids: Vec<FlowId>,
    rates: Vec<f64>,
}

/// The coordinator's scheduling decision applied as a [`RatePolicy`].
#[derive(Debug)]
pub struct CoordinatedPolicy {
    config: CoordinatorConfig,
    engine: EchelonMadd,
    /// Decision cache: every flow the last decision rated, as a global
    /// flow priority order — higher allocated rate first, then id,
    /// approximating the engine's serve order. Allocations between
    /// decisions enforce it; flows absent from it queue behind it in id
    /// order.
    cached_order: Vec<(FlowId, f64)>,
    last_decision: Option<SimTime>,
    /// Active EchelonFlow set at the last decision (for PerGroupChange).
    last_groups: Vec<EchelonId>,
    /// When each flow was first seen, for the control-latency split.
    /// Stays empty without control latency: every flow is known at once.
    first_seen: BTreeMap<FlowId, SimTime>,
    decisions_computed: usize,
    /// Incremental state: active member count per EchelonFlow, maintained
    /// from flow deltas so `active_groups` need not rescan every flow.
    group_counts: BTreeMap<EchelonId, usize>,
    /// Whether `group_counts` has been initialised from a full scan.
    counts_valid: bool,
    /// The decision the agents keep enforcing between triggers (see
    /// [`Self::hold`]). Every fault voids it, and so does
    /// [`RatePolicy::release_held`].
    held: HeldDecision,
    /// True between [`FaultKind::CoordinatorDown`] and
    /// [`FaultKind::CoordinatorUp`]: no decisions are computed and every
    /// flow gets plain fair-share bandwidth (the agents' local fallback —
    /// a stale priority order must not be enforced forever while the
    /// coordinator cannot refresh it).
    outage: bool,
    /// Live registrations queued since the last allocation: under
    /// backlog, any number of [`Self::register`] calls are absorbed in
    /// one batch at the next allocation instead of perturbing the
    /// decision cadence per request. Registration is allocation-neutral
    /// until the group's first flow releases, so batching cannot change
    /// any decision.
    pending_register: Vec<EchelonFlow>,
    /// Registrations refused at the full pending queue.
    rejected_registrations: usize,
    /// The control-latency split of the current allocation, written by
    /// [`Self::split_known`]: the fresh flows' ids, and — only when there
    /// are any — the known flows' views and their positions in the
    /// active slice.
    known: Vec<ActiveFlowView>,
    known_pos: Vec<usize>,
    fresh: Vec<FlowId>,
    /// Reused buffers: the known flows' rates while fresh flows exist,
    /// and the priority order served between decisions.
    known_rates: Vec<f64>,
    order: Vec<FlowId>,
}

impl CoordinatedPolicy {
    /// How many times the full heuristic ran.
    pub fn decisions_computed(&self) -> usize {
        self.decisions_computed
    }

    /// Queues a live EchelonFlow registration (open-loop admission after
    /// [`Coordinator::into_policy`]). Bounded by
    /// [`CoordinatorConfig::pending_limit`]: returns `false` and counts
    /// the rejection when the queue is full.
    pub fn register(&mut self, echelon: EchelonFlow) -> bool {
        if self.pending_register.len() >= self.config.pending_limit {
            self.rejected_registrations += 1;
            return false;
        }
        self.pending_register.push(echelon);
        true
    }

    /// Queues a batch of live registrations; returns how many were
    /// accepted before the pending queue filled.
    pub fn register_batch<I>(&mut self, echelons: I) -> usize
    where
        I: IntoIterator<Item = EchelonFlow>,
    {
        echelons
            .into_iter()
            .filter(|h| self.register(h.clone()))
            .count()
    }

    /// Registrations refused by the bounded pending queue.
    pub fn rejected_registrations(&self) -> usize {
        self.rejected_registrations
    }

    /// Evicts a completed EchelonFlow from the live engine, refusing
    /// (`false`) while any member flow is still active. On success the
    /// group's per-flow bookkeeping (`first_seen` aging stamps) is
    /// dropped too, keeping coordinator memory proportional to *live*
    /// jobs on an unbounded stream.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        self.flush_pending();
        let member_ids: Vec<FlowId> = match self.engine.book().get(id) {
            Some(h) => h.flows().map(|f| f.id).collect(),
            None => return false,
        };
        if !self.engine.evict(id, active) {
            return false;
        }
        for f in member_ids {
            self.first_seen.remove(&f);
        }
        self.group_counts.remove(&id);
        true
    }

    /// Current and peak engine-book occupancy (see
    /// [`RatePolicy::book_stats`]).
    pub fn book_occupancy(&self) -> (usize, usize) {
        (
            self.engine.book().occupancy(),
            self.engine.book().peak_occupancy(),
        )
    }

    /// Absorbs every queued live registration into the engine — one
    /// batch per allocation, whatever the backlog.
    fn flush_pending(&mut self) {
        for h in self.pending_register.drain(..) {
            self.engine.register(h);
        }
    }

    /// Whether the heuristic must run now. `active_groups` yields the
    /// active EchelonFlows in id order; only `PerGroupChange` reads it.
    fn decision_due(&self, now: SimTime, active_groups: impl Iterator<Item = EchelonId>) -> bool {
        let Some(t0) = self.last_decision else {
            return true;
        };
        match self.config.trigger {
            Trigger::PerEvent => true,
            Trigger::PerGroupChange => !self.last_groups.iter().copied().eq(active_groups),
            Trigger::Interval(dt) => now.secs() - t0.secs() + 1e-12 >= dt,
        }
    }

    /// The distinct EchelonFlows with at least one active flow, in id
    /// order (solo flows are ignored — they come and go constantly).
    fn active_groups(&self, flows: &[ActiveFlowView]) -> Vec<EchelonId> {
        let mut groups: Vec<EchelonId> = flows
            .iter()
            .filter_map(|v| self.engine.book().echelon_of(v.id).map(|h| h.id()))
            .collect();
        groups.sort();
        groups.dedup();
        groups
    }

    /// Maintains `group_counts` from the event delta (full scan on the
    /// first call), so the active-group set is read off the map keys
    /// instead of re-derived from every flow.
    fn update_group_counts(&mut self, flows: &[ActiveFlowView], delta: &FlowDelta) {
        if !self.counts_valid {
            self.group_counts.clear();
            for v in flows {
                if let Some(h) = self.engine.book().echelon_of(v.id) {
                    *self.group_counts.entry(h.id()).or_insert(0) += 1;
                }
            }
            self.counts_valid = true;
            return;
        }
        for &id in &delta.arrived {
            if flows.binary_search_by(|v| v.id.cmp(&id)).is_err() {
                continue; // arrived and departed without ever being seen
            }
            if let Some(h) = self.engine.book().echelon_of(id) {
                *self.group_counts.entry(h.id()).or_insert(0) += 1;
            }
        }
        for &id in &delta.departed {
            if delta.arrived.contains(&id) {
                // Arrived and departed within this same delta: the arrival
                // loop above never counted it (it is absent from `flows`),
                // so decrementing here would steal a count from a flow
                // that is still active in the same EchelonFlow.
                continue;
            }
            if let Some(h) = self.engine.book().echelon_of(id) {
                let gid = h.id();
                if let Some(c) = self.group_counts.get_mut(&gid) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.group_counts.remove(&gid);
                    }
                }
            }
        }
    }

    /// A due decision: runs the heuristic on the known flows — from the
    /// engine's delta-maintained caches when `cached`, else from scratch
    /// — caches the implied priority order, and lets fresh flows (present
    /// only when `any_fresh`) ride the leftover bandwidth.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        any_fresh: bool,
        cached: bool,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.last_decision = Some(now);
        self.decisions_computed += 1;
        debug_assert!(!(cached && any_fresh), "the engine cache covers every flow");
        if any_fresh {
            self.engine
                .allocate_dense(now, &self.known, topo, ws, &mut self.known_rates);
        } else if cached {
            self.engine.allocate_cached(now, flows, topo, ws, out);
        } else {
            self.engine.allocate_dense(now, flows, topo, ws, out);
        }
        let (known, rates): (&[ActiveFlowView], &[f64]) = if any_fresh {
            (&self.known, &self.known_rates)
        } else {
            (flows, out)
        };
        self.cached_order.clear();
        self.cached_order
            .extend(known.iter().map(|v| v.id).zip(rates.iter().copied()));
        self.cached_order
            .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if any_fresh {
            self.backfill_fresh(flows, topo, ws, out);
        }
        self.hold(now, flows, out);
    }

    /// Records a decision's `rates` for `flows` as the answer the agents
    /// keep enforcing until the flow set changes, a fault strikes, or the
    /// trigger may fire:
    ///
    /// - `PerGroupChange`: no decision can come due while the flows stay
    ///   the same;
    /// - `Interval(dt)`: until just before the next decision is due (the
    ///   1 µs margin keeps clear of `decision_due`'s own rounding);
    /// - `PerEvent`, or any trigger with control latency: nothing is
    ///   held, since every event may bring a decision or a flow
    ///   graduating from fresh to known.
    ///
    /// The cached order's priority fill differs from the decision's rates
    /// for the same flows, so holding is a choice, not a cache. Every
    /// other allocation is a deterministic function of the flows, the
    /// known/fresh split and the link capacities, so it is recomputed.
    fn hold(&mut self, now: SimTime, flows: &[ActiveFlowView], rates: &[f64]) {
        let until = if self.config.control_latency > 0.0 {
            None
        } else {
            match self.config.trigger {
                Trigger::PerEvent => None,
                Trigger::PerGroupChange => Some(f64::INFINITY),
                Trigger::Interval(dt) => Some(now.secs() + dt - 1e-6),
            }
        };
        let held = &mut self.held;
        held.until = until;
        if until.is_some() {
            held.ids.clear();
            held.ids.extend(flows.iter().map(|v| v.id));
            held.rates.clear();
            held.rates.extend_from_slice(rates);
        }
    }

    /// Serves the held decision into `out` if it covers this allocation:
    /// the same flows as when it was made, no fault since, and the
    /// trigger's window still open.
    fn serve_held(&self, now: SimTime, flows: &[ActiveFlowView], out: &mut Vec<f64>) -> bool {
        let held = &self.held;
        let covered = held.until.is_some_and(|t| now.secs() < t)
            && flows.len() == held.ids.len()
            && flows.iter().zip(&held.ids).all(|(v, &id)| v.id == id);
        if covered {
            out.clone_from(&held.rates);
        }
        covered
    }

    /// Control-latency split: stamps first-seen times and sorts the
    /// active flows into known to the coordinator (aged past the
    /// round-trip) and fresh (still in flight to it). Returns whether any
    /// flow is fresh. Only then are the known flows copied out (into
    /// `known`, with their positions in `known_pos`); otherwise the known
    /// set is `flows` itself. `fresh` always ends up holding the fresh
    /// flows' ids.
    fn split_known(&mut self, now: SimTime, flows: &[ActiveFlowView]) -> bool {
        self.fresh.clear();
        if self.config.control_latency <= 0.0 {
            return false;
        }
        self.known_pos.clear();
        for (i, v) in flows.iter().enumerate() {
            let seen = *self.first_seen.entry(v.id).or_insert(now);
            if now.secs() - seen.secs() + 1e-12 >= self.config.control_latency {
                self.known_pos.push(i);
            } else {
                self.fresh.push(v.id);
            }
        }
        if self.fresh.is_empty() {
            return false;
        }
        self.known.clear();
        self.known
            .extend(self.known_pos.iter().map(|&i| flows[i].clone()));
        true
    }

    /// Between decisions: enforce the cached order by priority filling
    /// the known flows, then let fresh flows (present only when
    /// `any_fresh`) ride the leftover bandwidth.
    fn between_decisions(
        &mut self,
        flows: &[ActiveFlowView],
        any_fresh: bool,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let known: &[ActiveFlowView] = if any_fresh { &self.known } else { flows };
        // Every known flow follows the cached order in id order. Priority
        // filling serves a flow at its first mention only, so the cached
        // flows keep their slots and the flows the order does not mention
        // queue behind it in id order.
        self.order.clear();
        self.order
            .extend(self.cached_order.iter().map(|&(id, _)| id));
        self.order.extend(known.iter().map(|v| v.id));
        let rates = if any_fresh {
            &mut self.known_rates
        } else {
            &mut *out
        };
        rates.clear();
        rates.resize(known.len(), 0.0);
        priority_fill_dense(topo, known, &self.order, None, rates, ws);
        if any_fresh {
            self.backfill_fresh(flows, topo, ws, out);
        }
    }

    /// Fresh flows get leftover bandwidth only: the known flows' rates
    /// (`known_rates`, placed at `known_pos`) are the waterfill floor, and
    /// fresh flows start from zero.
    fn backfill_fresh(
        &self,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(flows.len(), 0.0);
        for (&p, &rate) in self.known_pos.iter().zip(&self.known_rates) {
            out[p] = rate;
        }
        waterfill_dense(topo, flows, None, None, out, ws);
    }

    /// The outage allocation: plain fair-share waterfill over every
    /// active flow, ignoring the cached decision entirely. Used by both
    /// the full and incremental paths so they stay bit-identical.
    fn fair_share(
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(flows.len(), 0.0);
        waterfill_dense(topo, flows, None, None, out, ws);
    }
}

impl RatePolicy for CoordinatedPolicy {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
        })
    }

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

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        if self.serve_held(now, flows, out) {
            return;
        }
        // Queued live registrations land before the observation pass so
        // a head flow releasing this very event still binds its group's
        // reference.
        self.flush_pending();
        // Reference binding tracks the data plane, not the decision
        // cadence: a head flow that starts and finishes between two
        // interval decisions (or during an outage) must still bind its
        // EchelonFlow's reference, exactly as the incremental path's
        // per-delta observation does. Skipping this was a stale-state
        // divergence: Full mode bound the reference from a later
        // surviving member and ranked the group differently after
        // recovery.
        self.engine.observe(now, flows);
        if self.outage {
            // Coordinator unreachable: do not consult or refresh the
            // decision; agents fall back to fair sharing. Flows arriving
            // during the outage are first seen (for control-latency
            // aging) once the coordinator is back.
            return Self::fair_share(flows, topo, ws, out);
        }
        let any_fresh = self.split_known(now, flows);
        let groups = self.active_groups(flows);
        if self.decision_due(now, groups.iter().copied()) {
            // Full heuristic run: rates for known flows, and the implied
            // global priority order becomes the cached decision.
            self.last_groups = groups;
            return self.decide(now, flows, any_fresh, false, topo, ws, out);
        }
        self.between_decisions(flows, any_fresh, topo, ws, out);
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
        if self.serve_held(now, flows, out) {
            return;
        }
        self.flush_pending();
        self.update_group_counts(flows, delta);
        // Without control latency every flow is immediately known, so the
        // known set is exactly `flows` and the engine's incremental path
        // applies. Feed the engine its delta at *every* event — not just
        // when a decision is due — so its caches never go stale across
        // skipped decisions (this also holds through a coordinator
        // outage: the engine keeps absorbing deltas it will need when the
        // coordinator returns). With control latency the known set
        // changes as flows age in ways a flow delta does not capture, so
        // the engine runs its full path on the known subset; group
        // counting still applies. Observe
        // the *whole* slice first (fresh flows included) so reference
        // binding matches the naive path, which observes every event.
        let cached = self.config.control_latency <= 0.0;
        if cached {
            self.engine.apply_delta(now, flows, delta);
        } else {
            self.engine.observe(now, flows);
        }
        if self.outage {
            return Self::fair_share(flows, topo, ws, out);
        }
        let any_fresh = self.split_known(now, flows);
        if self.decision_due(now, self.group_counts.keys().copied()) {
            self.last_groups.clear();
            self.last_groups.extend(self.group_counts.keys().copied());
            return self.decide(now, flows, any_fresh, cached, topo, ws, out);
        }
        self.between_decisions(flows, any_fresh, topo, ws, out);
    }

    /// Every fault voids the held decision: link faults change the
    /// capacities it was computed against, and a coordinator outage
    /// switches agents to fair share. Recovery also forces a fresh
    /// decision at the next allocation.
    fn on_fault(&mut self, _now: SimTime, fault: &FaultKind) {
        self.held.until = None;
        match fault {
            FaultKind::CoordinatorDown => self.outage = true,
            FaultKind::CoordinatorUp => {
                self.outage = false;
                // The recovered coordinator has no trustworthy decision:
                // force a fresh one at the next allocation, whatever the
                // trigger.
                self.last_decision = None;
            }
            FaultKind::LinkDown(_)
            | FaultKind::LinkRestore(_)
            | FaultKind::LinkDegrade(..)
            | FaultKind::WorkerSlowdown { .. } => {}
        }
    }

    fn release_held(&mut self) {
        self.held.until = None;
    }

    fn name(&self) -> &'static str {
        "coordinated-echelon"
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        Some(self.book_occupancy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::requests_from_dag;
    use echelon_core::JobId;
    use echelon_paradigms::config::PpConfig;
    use echelon_paradigms::ids::IdAlloc;
    use echelon_paradigms::pp::build_pp_gpipe;
    use echelon_paradigms::runtime::run_job;

    fn fig2_dag() -> echelon_paradigms::dag::JobDag {
        let mut alloc = IdAlloc::new();
        build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc)
    }

    /// Id-sorted views of every flow the dag's echelons declare, as if all
    /// were released at t=0 with full remaining bytes.
    fn views_of(dag: &echelon_paradigms::dag::JobDag, topo: &Topology) -> Vec<ActiveFlowView> {
        let mut v: Vec<ActiveFlowView> = dag
            .echelons
            .iter()
            .flat_map(|e| e.flows())
            .map(|f| ActiveFlowView {
                id: f.id,
                src: f.src,
                dst: f.dst,
                size: f.size,
                remaining: f.size,
                release: SimTime::ZERO,
                route: topo.route(f.src, f.dst),
                slot: f.id.0 as u32,
            })
            .collect();
        v.sort_by_key(|x| x.id);
        v.dedup_by(|a, b| a.id == b.id);
        v
    }

    fn policy_with(
        cfg: CoordinatorConfig,
        dag: &echelon_paradigms::dag::JobDag,
    ) -> CoordinatedPolicy {
        let mut coord = Coordinator::new(cfg);
        coord.submit_all(requests_from_dag(dag));
        coord.into_policy()
    }

    #[test]
    fn coordinator_registers_requests() {
        let dag = fig2_dag();
        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(requests_from_dag(&dag));
        assert_eq!(coord.registered_count(), 2);
    }

    /// The full system path (API → coordinator → policy) reproduces the
    /// direct EchelonMadd result on the Fig. 2 job.
    #[test]
    fn system_path_matches_direct_scheduling() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);

        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(requests_from_dag(&dag));
        let mut policy = coord.into_policy();
        let via_system = run_job(&topo, &dag, &mut policy);

        let mut direct = EchelonMadd::new(dag.echelons.clone());
        let via_direct = run_job(&topo, &dag, &mut direct);

        assert!(via_system.makespan.approx_eq(via_direct.makespan));
        assert!(via_system
            .comp_finish_time()
            .approx_eq(via_direct.comp_finish_time()));
    }

    /// A long recompute interval reduces decision count but still
    /// completes the job.
    #[test]
    fn interval_mode_reduces_decisions() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);

        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(requests_from_dag(&dag));
        let mut precise = coord.into_policy();
        let _ = run_job(&topo, &dag, &mut precise);
        let precise_decisions = precise.decisions_computed();

        let mut coord = Coordinator::new(CoordinatorConfig {
            trigger: Trigger::Interval(5.0),
            ..CoordinatorConfig::default()
        });
        coord.submit_all(requests_from_dag(&dag));
        let mut lazy = coord.into_policy();
        let out = run_job(&topo, &dag, &mut lazy);
        assert!(lazy.decisions_computed() < precise_decisions);
        assert!(out.makespan.secs() > 0.0);
    }

    /// Control latency delays coordinated service but the job still
    /// finishes (new flows ride on backfilled bandwidth).
    #[test]
    fn control_latency_degrades_gracefully() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);

        let mut coord = Coordinator::new(CoordinatorConfig {
            control_latency: 0.5,
            ..CoordinatorConfig::default()
        });
        coord.submit_all(requests_from_dag(&dag));
        let mut policy = coord.into_policy();
        let with_latency = run_job(&topo, &dag, &mut policy);

        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(requests_from_dag(&fig2_dag()));
        // (fresh dag has identical ids since it uses a fresh IdAlloc)
        let mut policy0 = coord.into_policy();
        let without = run_job(&topo, &dag, &mut policy0);

        assert!(with_latency.makespan.secs() + 1e-9 >= without.makespan.secs());
    }

    /// The incremental entry point produces bit-identical traces to the
    /// naive full-recompute path for every trigger, with and without
    /// control latency.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_paradigms::runtime::run_job_with;
        use echelon_simnet::runner::RecomputeMode;

        let configs = [
            CoordinatorConfig::default(),
            CoordinatorConfig {
                trigger: Trigger::PerGroupChange,
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                trigger: Trigger::Interval(3.0),
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                control_latency: 0.5,
                ..CoordinatorConfig::default()
            },
            CoordinatorConfig {
                trigger: Trigger::Interval(3.0),
                control_latency: 0.5,
                ..CoordinatorConfig::default()
            },
        ];
        let topo = Topology::chain(2, 1.0);
        for cfg in configs {
            let dag = fig2_dag();

            let mut coord = Coordinator::new(cfg);
            coord.submit_all(requests_from_dag(&dag));
            let mut naive = coord.into_policy();
            let full = run_job_with(&topo, &dag, &mut naive, RecomputeMode::Full);

            let mut coord = Coordinator::new(cfg);
            coord.submit_all(requests_from_dag(&dag));
            let mut inc = coord.into_policy();
            let fast = run_job_with(&topo, &dag, &mut inc, RecomputeMode::Incremental);

            assert_eq!(
                full.trace.events(),
                fast.trace.events(),
                "trace mismatch for {:?}",
                cfg
            );
            assert_eq!(naive.decisions_computed(), inc.decisions_computed());
        }
    }

    /// With `Trigger::Interval`, the very first event must still produce a
    /// decision (the `last_decision.is_none()` guard), no matter how long
    /// the interval: there is nothing cached to serve yet.
    #[test]
    fn interval_trigger_decides_on_first_event() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::Interval(1e6),
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        assert_eq!(policy.decisions_computed(), 0);
        let rates = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        assert!(!rates.is_empty());
    }

    /// The interval predicate `now - t0 + 1e-12 >= dt` fires exactly on
    /// the boundary (and within epsilon below it), but not clearly before.
    #[test]
    fn interval_decision_fires_on_epsilon_boundary() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::Interval(5.0),
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        // Clearly inside the interval: served from the cached order.
        let _ = policy.allocate(SimTime::new(4.999999), &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);
        // Within float epsilon below the boundary: counts as due.
        let _ = policy.allocate(SimTime::new(5.0 - 1e-13), &views, &topo);
        assert_eq!(policy.decisions_computed(), 2);
        // Exactly on the next boundary (relative to the refreshed t0).
        let t0 = 5.0 - 1e-13;
        let _ = policy.allocate(SimTime::new(t0 + 5.0), &views, &topo);
        assert_eq!(policy.decisions_computed(), 3);
    }

    /// A flow that arrives *and* departs within one delta was never added
    /// to the incremental group counts, so its departure must not subtract
    /// one — otherwise a still-active sibling's EchelonFlow vanishes from
    /// the active set and `PerGroupChange` fires a spurious decision.
    #[test]
    fn group_counts_survive_arrive_depart_within_one_delta() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        // Keep one member of the first echelon active; pick a sibling from
        // the same echelon as the blip flow.
        let first = dag.echelons[0].flows().next().unwrap().id;
        let sibling = dag.echelons[0]
            .flows()
            .map(|f| f.id)
            .find(|&id| id != first)
            .expect("fig2 echelon has >= 2 flows");
        let active: Vec<ActiveFlowView> = views.iter().filter(|v| v.id == first).cloned().collect();

        // control_latency > 0 drives the engine-full incremental branch,
        // which exercises `update_group_counts` without requiring the
        // engine to see a globally consistent delta stream.
        let mut policy = policy_with(
            CoordinatorConfig {
                trigger: Trigger::PerGroupChange,
                control_latency: 0.5,
                ..CoordinatorConfig::default()
            },
            &dag,
        );
        let delta0 = FlowDelta {
            arrived: vec![first],
            departed: vec![],
        };
        let _ = policy.allocate_incremental(SimTime::ZERO, &active, &delta0, &topo);
        assert_eq!(policy.decisions_computed(), 1);

        // The sibling arrives and departs entirely inside this delta: the
        // active flow set is unchanged, so no new decision may fire.
        let blip = FlowDelta {
            arrived: vec![sibling],
            departed: vec![sibling],
        };
        let _ = policy.allocate_incremental(SimTime::new(0.1), &active, &blip, &topo);
        assert_eq!(
            policy.decisions_computed(),
            1,
            "blip flow corrupted the incremental group counts"
        );
    }

    /// Between triggers the agents keep the decision: a `PerGroupChange`
    /// decision's rates are held while the flows stay the same, although
    /// the cached order's priority fill differs from them. A fault or
    /// [`RatePolicy::release_held`] voids the held decision without
    /// forcing a new one.
    #[test]
    fn decision_is_held_while_flows_are_unchanged() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let cfg = CoordinatorConfig {
            trigger: Trigger::PerGroupChange,
            intra: IntraMode::Equalize,
            ..CoordinatorConfig::default()
        };
        let slowdown = FaultKind::WorkerSlowdown {
            worker: views[0].src,
            factor: 2.0,
        };
        let mut policy = policy_with(cfg, &dag);
        let decided = policy.allocate(SimTime::ZERO, &views, &topo);
        let held = policy.allocate(SimTime::new(0.5), &views, &topo);
        assert_eq!(held, decided, "the decision was not held");
        policy.on_fault(SimTime::new(0.5), &slowdown);
        let filled = policy.allocate(SimTime::new(0.5), &views, &topo);
        assert_ne!(filled, decided, "priority fill matched the decision");
        assert_eq!(policy.decisions_computed(), 1);

        let mut policy = policy_with(cfg, &dag);
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        policy.release_held();
        let released = policy.allocate(SimTime::new(0.5), &views, &topo);
        assert_eq!(released, filled);
        assert_eq!(policy.decisions_computed(), 1);
    }

    /// During a coordinator outage the policy serves plain fair share (no
    /// stale priority order), and recovery forces a fresh decision.
    #[test]
    fn outage_serves_fair_share_and_recovery_redecides() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let mut policy = policy_with(CoordinatorConfig::default(), &dag);

        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.decisions_computed(), 1);

        policy.on_fault(SimTime::new(1.0), &FaultKind::CoordinatorDown);
        let rates = policy.allocate(SimTime::new(1.0), &views, &topo);
        let fair = echelon_simnet::alloc::max_min_rates(&topo, &views);
        assert_eq!(rates, fair, "outage allocation is not plain fair share");
        // No decision ran during the outage.
        assert_eq!(policy.decisions_computed(), 1);

        policy.on_fault(SimTime::new(2.0), &FaultKind::CoordinatorUp);
        let _ = policy.allocate(SimTime::new(2.0), &views, &topo);
        assert_eq!(
            policy.decisions_computed(),
            2,
            "recovery must force a fresh decision"
        );
    }

    /// The pre-policy admission gate: submissions beyond `pending_limit`
    /// are refused and counted, never silently dropped.
    #[test]
    fn try_submit_respects_pending_limit() {
        let dag = fig2_dag();
        let mut coord = Coordinator::new(CoordinatorConfig {
            pending_limit: 1,
            ..CoordinatorConfig::default()
        });
        let requests = requests_from_dag(&dag);
        assert!(requests.len() >= 2);
        let mut accepted = 0;
        for r in requests {
            if coord.try_submit(r) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 1);
        assert_eq!(coord.registered_count(), 1);
        assert_eq!(coord.rejected_count(), 1);
    }

    /// `submit_all` accepts any iterable — borrowed requests included —
    /// and registers them all.
    #[test]
    fn submit_all_takes_any_iterator() {
        let dag = fig2_dag();
        let requests = requests_from_dag(&dag);
        let mut coord = Coordinator::new(CoordinatorConfig::default());
        coord.submit_all(requests.iter().cloned());
        assert_eq!(coord.registered_count(), requests.len());
        let mut coord2 = Coordinator::new(CoordinatorConfig::default());
        coord2.submit_all(requests);
        assert_eq!(coord2.registered_count(), coord.registered_count());
    }

    /// Live registration is batched (absorbed at the next allocation)
    /// and bounded; eviction of a completed group succeeds, frees its
    /// aging stamps, and is refused while a member flow is active.
    #[test]
    fn live_register_evict_lifecycle() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);
        let first_group = dag.echelons[0].id();

        // Start empty; register the whole job live.
        let mut policy = Coordinator::new(CoordinatorConfig::default()).into_policy();
        assert_eq!(policy.book_occupancy(), (0, 0));
        let accepted = policy.register_batch(dag.echelons.iter().cloned());
        assert_eq!(accepted, dag.echelons.len());
        // Still queued: nothing in the book until an allocation flushes.
        assert_eq!(policy.book_occupancy().0, 0);
        let _ = policy.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(policy.book_occupancy().0, dag.echelons.len());

        // Eviction is refused while the group's flows are active…
        assert!(!policy.evict(first_group, &views));
        // …succeeds once they are gone, and unknown ids are refused.
        assert!(policy.evict(first_group, &[]));
        assert!(!policy.evict(first_group, &[]));
        assert_eq!(policy.book_occupancy().0, dag.echelons.len() - 1);
        // Peak keeps the high-water mark.
        assert_eq!(policy.book_occupancy().1, dag.echelons.len());
    }

    /// The live-registration queue honours the pending limit.
    #[test]
    fn live_register_bounded_queue_rejects() {
        let dag = fig2_dag();
        let mut policy = Coordinator::new(CoordinatorConfig {
            pending_limit: 1,
            ..CoordinatorConfig::default()
        })
        .into_policy();
        let accepted = policy.register_batch(dag.echelons.iter().cloned());
        assert_eq!(accepted, 1);
        assert_eq!(policy.rejected_registrations(), dag.echelons.len() - 1);
    }

    /// Registering a group before its flows release, and evicting it
    /// after they complete, must not change any allocation: the decision
    /// trace with lifecycle management matches the pre-registered run.
    #[test]
    fn lifecycle_management_is_allocation_neutral() {
        let dag = fig2_dag();
        let topo = Topology::chain(2, 1.0);
        let views = views_of(&dag, &topo);

        // Reference: everything pre-registered, nothing evicted.
        let mut reference = policy_with(CoordinatorConfig::default(), &dag);
        let want = reference.allocate(SimTime::ZERO, &views, &topo);

        // Lifecycle path: the same groups registered live (batched, so
        // they land in one flush at the first allocation).
        let mut live = Coordinator::new(CoordinatorConfig::default()).into_policy();
        live.register_batch(dag.echelons.iter().cloned());
        let got0 = live.allocate(SimTime::ZERO, &views, &topo);
        assert_eq!(got0, want, "live registration changed the allocation");
        let got1 = live.allocate(SimTime::new(0.5), &views, &topo);
        let want1 = reference.allocate(SimTime::new(0.5), &views, &topo);
        assert_eq!(
            got1, want1,
            "lifecycle policy diverged on the second decision"
        );
    }

    /// Full and incremental paths stay bit-identical through a coordinator
    /// outage window injected mid-job.
    #[test]
    fn outage_window_preserves_differential_identity() {
        use echelon_paradigms::runtime::run_jobs_faulted;
        use echelon_simnet::fault::FaultPlan;
        use echelon_simnet::runner::RecomputeMode;

        let topo = Topology::chain(2, 1.0);
        let plan = FaultPlan::empty()
            .with(SimTime::new(1.0), FaultKind::CoordinatorDown)
            .with(SimTime::new(3.0), FaultKind::CoordinatorUp);
        let configs = [
            CoordinatorConfig::default(),
            CoordinatorConfig {
                trigger: Trigger::Interval(2.0),
                ..CoordinatorConfig::default()
            },
        ];
        for cfg in configs {
            let dag = fig2_dag();
            let mut naive = policy_with(cfg, &dag);
            let full = run_jobs_faulted(&topo, &[&dag], &mut naive, RecomputeMode::Full, &plan);
            let mut inc = policy_with(cfg, &dag);
            let fast =
                run_jobs_faulted(&topo, &[&dag], &mut inc, RecomputeMode::Incremental, &plan);
            assert_eq!(
                full.trace.events(),
                fast.trace.events(),
                "outage trace mismatch for {:?}",
                cfg
            );
        }
    }
}
