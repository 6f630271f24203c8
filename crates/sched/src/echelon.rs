//! The one MADD engine: the EchelonFlow scheduler (the paper's
//! contribution, §3.3 Property 4) and, under the least-work ranking over
//! coflows, Varys.
//!
//! Property 4 states Coflow algorithms adapt to EchelonFlow scheduling by
//! swapping the metric: *"in intra-EchelonFlow scheduling, we estimate the
//! latest flow that has the largest tardiness, rather than the longest
//! flow completion time as for Coflow; in inter-EchelonFlow scheduling, we
//! rank EchelonFlows by each EchelonFlow's tardiness"*. [`EchelonMadd`] is
//! that adaptation of Varys/MADD:
//!
//! - **Intra-EchelonFlow**: stages are served in ideal-finish-time order
//!   (earliest due date — on a single resource, preemptive EDD provably
//!   minimizes the maximum lateness, i.e. the EchelonFlow's tardiness,
//!   Eq. 2). Flows *within* a stage share one ideal finish time (a Coflow
//!   stage, e.g. one FSDP all-gather) and receive MADD rate shaping so
//!   they finish together — exactly Varys' intra behaviour, recovering it
//!   on degenerate (Coflow-compliant) inputs.
//! - **Inter-EchelonFlow**: EchelonFlows are ranked by their projected
//!   tardiness (Eq. 2 under isolation), with alternative orderings
//!   (least-work, earliest-deadline, BSSI) available as ablations.
//! - **Work conservation**: leftover bandwidth is backfilled max-min, so
//!   flows may finish *before* their ideal times — tardiness, unlike a
//!   deadline, rewards early finishes (the `FinishEarly` default). The
//!   `Equalize` mode instead shapes rates so every flow targets
//!   `d_j + τ*` (the literal constant-tardiness echelon), the behaviour
//!   sketched in the paper's Fig. 6.
//!
//! Varys is this engine under a ranking, not a second type. Property 2
//! embeds a Coflow as a one-stage EchelonFlow (`Coflow::into_echelon`,
//! Eq. 5): every member shares one ideal finish time, so the engine
//! serves each coflow as one MADD stage in id order, which is Varys'
//! intra behaviour. Property 4 then makes Varys' inter-coflow order one
//! of the engine's rankings: SEBF is [`InterOrder::LeastWork`] and
//! Sincronia's BSSI is [`InterOrder::Bssi`]. The coflow scheduler is
//! `EchelonMadd::new(coflows.into_iter().map(Coflow::into_echelon).collect())
//! .with_inter(InterOrder::LeastWork)`; flows of no coflow are singleton
//! groups.
//!
//! There is one allocation path. Group membership, each member's arena
//! slot and the earliest-deadline serve order are cached and patched
//! from flow deltas ([`EchelonMadd::sync`]); a full recompute rebuilds
//! that cache from the flow slice. Either way one serve pass follows
//! ([`EchelonMadd::serve`]): it ranks the groups afresh, or follows a
//! ranking the caller holds (the coordinator between decisions), and may
//! leave groups the caller does not know yet to the backfill. The
//! map-based reference the differential suites check this engine against
//! lives in test support.

use crate::book::EchelonBook;
use crate::scratch::{GroupCsr, Residual};
use crate::sincronia::{bssi_order, GroupLoad};
use echelon_core::echelon::EchelonFlow;
use echelon_core::EchelonId;
use echelon_simnet::alloc::{waterfill_dense, AllocScratch};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::linkload::LinkLoad;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::{SimTime, EPS};
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// Inter-EchelonFlow ordering discipline.
///
/// The default is [`InterOrder::EarliestDeadline`]: the deadline-faithful
/// reading of the tardiness metric — the group whose computation pattern
/// needs service soonest is served first. Across the bundled experiments
/// it never does worse than Coflow scheduling and strictly improves every
/// non-compliant paradigm; [`InterOrder::LeastWork`] (the literal SEBF
/// analog) can shave a few more percent of *aggregate* tardiness on some
/// multi-tenant mixes at the cost of occasionally starving an urgent
/// pipeline behind small background groups (see experiment E11f).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterOrder {
    /// Rank by weighted projected tardiness, largest first (the literal
    /// "rank EchelonFlows by each EchelonFlow's tardiness" reading).
    MostTardy,
    /// Smallest isolation bottleneck first (Varys' SEBF).
    LeastWork,
    /// Earliest ideal finish time among active flows first. Default.
    EarliestDeadline,
    /// Sincronia BSSI over group loads.
    Bssi,
}

/// Intra-EchelonFlow rate discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraMode {
    /// Serve stages earliest-due-date at full residual rate (work
    /// conserving; optimal max-lateness on a single resource). Default.
    FinishEarly,
    /// Shape every flow to finish at `d_j + τ*` where `τ*` is the
    /// EchelonFlow's projected tardiness: the literal echelon formation.
    Equalize,
}

/// Group key: declared EchelonFlow or implicit singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupKey {
    /// A declared EchelonFlow.
    Echelon(EchelonId),
    /// A flow of no EchelonFlow, served as a group of one.
    Solo(FlowId),
}

/// The group order a serve pass follows ([`EchelonMadd::serve`]).
#[derive(Debug)]
pub enum GroupOrder<'a> {
    /// Rank the groups afresh under the engine's [`InterOrder`] (a
    /// decision), writing the ranking into the buffer when one is given.
    Rank(Option<&'a mut Vec<GroupKey>>),
    /// Follow a held ranking: the groups it lists first, in its order,
    /// then every other group in the kept serve order.
    Held(&'a [GroupKey]),
}

/// A cached group member: ideal finish time, flow id, arena slot.
type Member = (SimTime, FlowId, u32);

/// The EchelonFlow scheduler: tardiness-metric MADD per Property 4.
#[derive(Debug, Clone)]
pub struct EchelonMadd {
    book: EchelonBook,
    inter: InterOrder,
    intra: IntraMode,
    backfill: bool,
    // `(head deadline, key, EDF-ordered members)` per active group, in
    // the earliest-deadline serve order. Ideal finish times are static
    // once an echelon's reference is bound, so only groups whose flows
    // arrived or departed need touching; a group moves when its head does.
    serve: Vec<(SimTime, GroupKey, Vec<Member>)>,
    // The flow the member cache holds in each arena slot, and how many
    // it holds, fed the same deltas. Checking the flow slice against it
    // is the cache's O(F) guard; on a mismatch the conservative fallback
    // rebuilds everything from the flow table (see DESIGN.md §8.1).
    held: Vec<Option<FlowId>>,
    held_len: usize,
    // Reusable flat group structure, per-link accumulator and sorted
    // arrivals buffer: steady-state events allocate nothing.
    scratch: GroupCsr,
    load: LinkLoad,
    arrived: Vec<FlowId>,
}

impl EchelonMadd {
    /// Creates the scheduler over the declared EchelonFlows with the
    /// defaults: earliest-deadline inter ordering, EDD intra discipline,
    /// work-conserving backfill.
    pub fn new(echelons: Vec<EchelonFlow>) -> EchelonMadd {
        EchelonMadd {
            book: EchelonBook::new(echelons),
            inter: InterOrder::EarliestDeadline,
            intra: IntraMode::FinishEarly,
            backfill: true,
            serve: Vec::new(),
            held: Vec::new(),
            held_len: 0,
            scratch: GroupCsr::default(),
            load: LinkLoad::new(),
            arrived: Vec::new(),
        }
    }

    /// Selects the inter-EchelonFlow ordering.
    pub fn with_inter(mut self, inter: InterOrder) -> EchelonMadd {
        self.inter = inter;
        self
    }

    /// Selects the intra-EchelonFlow discipline.
    pub fn with_intra(mut self, intra: IntraMode) -> EchelonMadd {
        self.intra = intra;
        self
    }

    /// Enables/disables work-conserving backfill.
    pub fn with_backfill(mut self, backfill: bool) -> EchelonMadd {
        self.backfill = backfill;
        self
    }

    /// Access the underlying book (for inspection in experiments).
    pub fn book(&self) -> &EchelonBook {
        &self.book
    }

    /// Registers one more EchelonFlow into the live scheduler (open-loop
    /// admission; see [`EchelonBook::register`]). Safe — i.e. provably
    /// allocation-neutral — any time before the echelon's head flow is
    /// released.
    ///
    /// # Panics
    ///
    /// Panics if the id or any member flow is already claimed.
    pub fn register(&mut self, echelon: EchelonFlow) {
        self.book.register(echelon);
    }

    /// Evicts a completed EchelonFlow, refusing (returning `false`) while
    /// any member flow is still active. The member cache may still list
    /// the group's departed flows when the last allocation was a full
    /// recompute (its departures reach the cache only at the next
    /// rebuild), so the group's serve-order entry goes with it; the
    /// held-slot table then no longer matches the flow slice and the next
    /// allocation rebuilds.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        if !self.book.evict(id, active) {
            return false;
        }
        let key = GroupKey::Echelon(id);
        if let Some(at) = self.serve.iter().position(|e| e.1 == key) {
            self.serve.remove(at);
        }
        true
    }

    /// Brings the group cache up to the id-sorted active `flows`: patched
    /// from the event's `delta`, or rebuilt from the slice when `delta` is
    /// `None` (a full recompute). A cache that still misses the active set
    /// (a missed delta) is rebuilt too.
    ///
    /// Syncing also binds the reference time of every EchelonFlow whose
    /// head flow just became active. That is an *observation* of the data
    /// plane (the paper's `r = s_0`), not a scheduling decision, so a
    /// caller that serves no MADD at some event (a coordinator in an
    /// outage) still syncs it, or a head flow that finishes before the
    /// next serve pass silently binds the reference from a later member.
    pub fn sync(&mut self, now: SimTime, flows: &[ActiveFlowView], delta: Option<&FlowDelta>) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        match delta {
            Some(delta) => self.apply_delta(now, flows, delta),
            None => self.rebuild_cache(now, flows),
        }
        // One pass: the cache guard, and each slot's position in `flows`.
        let slot_pos = &mut self.scratch.slot_pos;
        let mut holds_flows = self.held_len == flows.len();
        for (i, v) in flows.iter().enumerate() {
            let s = v.slot as usize;
            slot_pos.resize(slot_pos.len().max(s + 1), 0);
            slot_pos[s] = i as u32;
            holds_flows &= self.held.get(s) == Some(&Some(v.id));
        }
        if !holds_flows {
            self.rebuild_cache(now, flows);
        }
        debug_assert!(
            self.serve
                .iter()
                .all(|e| e.2.first().map(|m| m.0) == Some(e.0))
                && self
                    .serve
                    .windows(2)
                    .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "the kept serve order is not sorted by (head deadline, key)"
        );
    }

    /// The groups with an active flow, in the kept serve order (earliest
    /// head deadline first), as of the last [`Self::sync`].
    pub fn active_groups(&self) -> impl Iterator<Item = GroupKey> + '_ {
        self.serve.iter().map(|e| e.1)
    }

    fn group_of(&self, flow: FlowId) -> GroupKey {
        match self.book.echelon_of(flow) {
            Some(h) => GroupKey::Echelon(h.id()),
            None => GroupKey::Solo(flow),
        }
    }

    fn weight_of(&self, key: GroupKey) -> f64 {
        match key {
            GroupKey::Echelon(id) => self.book.get(id).map(|h| h.weight()).unwrap_or(1.0),
            GroupKey::Solo(_) => 1.0,
        }
    }

    /// A member's ideal finish time. Solo flows use their release time,
    /// making their tardiness their FCT.
    fn deadline_of(&self, key: GroupKey, view: &ActiveFlowView) -> SimTime {
        match key {
            GroupKey::Echelon(_) => self
                .book
                .ideal_finish(view.id)
                .expect("member of bound echelon"),
            GroupKey::Solo(_) => view.release,
        }
    }

    /// Updates the cached groups, their serve order and the held-slot
    /// table for the flows that arrived or departed since the last call.
    ///
    /// `flows` is the *current* id-sorted active set (as produced by the
    /// fluid network). Every arrival and departure should be reported
    /// exactly once across the sequence of calls; missed reports cost a
    /// rebuild, here when an arrival lands in a slot the cache still
    /// holds (its earlier occupant's departure never arrived, as when an
    /// engine is reused for a second run) and otherwise in
    /// [`Self::sync`].
    fn apply_delta(&mut self, now: SimTime, flows: &[ActiveFlowView], delta: &FlowDelta) {
        // Reference binding driven by the delta alone: O(arrivals), not
        // O(active flows); debug builds assert agreement with the full
        // scan inside `observe_delta`.
        self.book.observe_delta(now, flows, delta);
        // Departures first: an arrival of the same delta may take the
        // arena slot a departure freed.
        for &id in &delta.departed {
            let key = self.group_of(id);
            let Some(at) = self.serve.iter().position(|e| e.1 == key) else {
                continue;
            };
            let Some(i) = self.serve[at].2.iter().position(|m| m.1 == id) else {
                continue;
            };
            let slot = self.serve[at].2.remove(i).2 as usize;
            if self.held[slot] == Some(id) {
                self.held[slot] = None;
                self.held_len -= 1;
            }
            self.reseat(at);
        }
        // Arrivals in ascending id order: reference binding is first-touch,
        // and the rebuild observes the id-sorted flow slice.
        self.arrived.clone_from(&delta.arrived);
        self.arrived.sort_unstable();
        for k in 0..self.arrived.len() {
            let id = self.arrived[k];
            let Ok(idx) = flows.binary_search_by(|v| v.id.cmp(&id)) else {
                continue; // arrived and departed without ever being served
            };
            if !self.admit(&flows[idx]) {
                // Its slot is held already: the occupant's departure never
                // arrived, so the cache is stale.
                self.rebuild_cache(now, flows);
                return;
            }
        }
    }

    /// Caches flow `v` in its group, in its arena slot and in the serve
    /// order; `false`, caching nothing, if the slot is held already.
    fn admit(&mut self, v: &ActiveFlowView) -> bool {
        let s = v.slot as usize;
        if self.held.get(s).is_some_and(Option::is_some) {
            return false;
        }
        self.held.resize(self.held.len().max(s + 1), None);
        self.held[s] = Some(v.id);
        self.held_len += 1;
        let key = self.group_of(v.id);
        let deadline = self.deadline_of(key, v);
        let at = match self.serve.iter().position(|e| e.1 == key) {
            Some(at) => at,
            None => {
                let at = self.serve.partition_point(|e| (e.0, e.1) < (deadline, key));
                self.serve.insert(at, (deadline, key, Vec::new()));
                at
            }
        };
        let list = &mut self.serve[at].2;
        let i = list.partition_point(|&(d, f, _)| (d, f) < (deadline, v.id));
        list.insert(i, (deadline, v.id, v.slot));
        self.reseat(at);
        true
    }

    /// Re-derives the cache, the held-slot table and the serve order from
    /// the flow slice: the full recompute, and the conservative fallback
    /// when a delta was missed.
    fn rebuild_cache(&mut self, now: SimTime, flows: &[ActiveFlowView]) {
        self.book.observe(now, flows);
        self.serve.clear();
        self.held.fill(None);
        self.held_len = 0;
        for v in flows {
            let cached = self.admit(v);
            debug_assert!(cached, "flow {} shares arena slot {}", v.id, v.slot);
        }
    }

    /// Restores the serve order after the member list of `serve[at]`
    /// changed: an emptied group leaves it, and a group whose head
    /// deadline moved is moved with it.
    fn reseat(&mut self, at: usize) {
        let head = self.serve[at].2.first().map(|m| m.0);
        if head.is_some_and(|h| h.cmp(&self.serve[at].0).is_eq()) {
            return;
        }
        let mut entry = self.serve.remove(at);
        if let Some(head) = head {
            entry.0 = head;
            let to = self.serve.partition_point(|e| (e.0, e.1) < (head, entry.1));
            self.serve.insert(to, entry);
        }
    }

    /// Projected tardiness of a member set under isolation: serve EDD at
    /// full capacity; the answer is the max over EDD prefixes and
    /// resources of `now + prefix_occupancy − deadline`. The per-link
    /// sums accumulate into the reusable [`LinkLoad`].
    fn projected_tardiness_csr(
        now: SimTime,
        flows: &[ActiveFlowView],
        pos: &[usize],
        deadline: &[SimTime],
        topo: &Topology,
        load: &mut LinkLoad,
    ) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        load.begin(topo.num_resources());
        for (&p, d) in pos.iter().zip(deadline) {
            let v = &flows[p];
            for r in &v.route {
                load.add(*r, v.remaining / topo.capacity(*r));
            }
            let finish_lb = v.route.iter().map(|r| load.get(*r)).fold(0.0f64, f64::max);
            worst = worst.max(now.secs() + finish_lb - d.secs());
        }
        worst
    }

    /// Isolation bottleneck Γ of a member slice (Varys' effective
    /// bottleneck): max of the per-link occupancy sums, folded over the
    /// ascending touched-link list.
    fn isolation_gamma_csr(
        flows: &[ActiveFlowView],
        pos: &[usize],
        topo: &Topology,
        load: &mut LinkLoad,
    ) -> f64 {
        load.begin(topo.num_resources());
        for &p in pos {
            let v = &flows[p];
            for r in &v.route {
                load.add(*r, v.remaining / topo.capacity(*r));
            }
        }
        load.sort_touched();
        let mut gamma = 0.0f64;
        for i in 0..load.touched().len() {
            gamma = gamma.max(load.get(load.touched()[i]));
        }
        gamma
    }

    /// Inter-group ordering over the flat group structure, built in the
    /// earliest-deadline order, so that ranking sorts nothing. Every other
    /// but BSSI sorts one `(rank, key, group)` per group: a strict
    /// total order, blind to the order the groups arrive in.
    fn order_groups(
        &self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        sc: &mut GroupCsr,
        load: &mut LinkLoad,
    ) {
        let groups = sc.keys.len();
        sc.order.clear();
        if self.inter == InterOrder::EarliestDeadline {
            sc.order.extend(0..groups);
            return;
        }
        if self.inter == InterOrder::Bssi {
            // Non-default ablation: keep the map-based load build (the
            // BSSI solve itself dominates). BSSI numbers the groups, so
            // they enter it in key order. Accumulate in ascending id
            // order — member positions index the id-sorted flow slice, so
            // sorting positions ascending is ascending id order.
            let mut by_key: Vec<usize> = (0..groups).collect();
            by_key.sort_unstable_by_key(|&g| sc.keys[g]);
            let loads: Vec<GroupLoad> = (0..groups)
                .map(|i| {
                    let g = by_key[i];
                    let mut by_id: Vec<usize> = sc.pos[sc.starts[g]..sc.starts[g + 1]].to_vec();
                    by_id.sort_unstable();
                    let mut load = BTreeMap::new();
                    for p in by_id {
                        let v = &flows[p];
                        for r in &v.route {
                            *load.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
                        }
                    }
                    GroupLoad {
                        id: EchelonId(i as u64),
                        weight: self.weight_of(sc.keys[g]),
                        load,
                    }
                })
                .collect();
            let order = bssi_order(&loads).into_iter();
            sc.order.extend(order.map(|id| by_key[id.0 as usize]));
            return;
        }
        sc.ranked.clear();
        for g in 0..groups {
            let (start, end) = (sc.starts[g], sc.starts[g + 1]);
            let (pos, deadline) = (&sc.pos[start..end], &sc.deadline[start..end]);
            let rank = match self.inter {
                // Largest weighted tardiness first: the weighted objective
                // (Eq. 4) makes a unit of lateness on a heavy EchelonFlow
                // cost `weight` units. Negation reverses the total order.
                InterOrder::MostTardy => {
                    let tau = Self::projected_tardiness_csr(now, flows, pos, deadline, topo, load);
                    -(self.weight_of(sc.keys[g]) * tau)
                }
                InterOrder::LeastWork => Self::isolation_gamma_csr(flows, pos, topo, load),
                InterOrder::EarliestDeadline | InterOrder::Bssi => unreachable!("ordered above"),
            };
            sc.ranked.push((rank, sc.keys[g], g));
        }
        sc.ranked
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sc.order.extend(sc.ranked.iter().map(|r| r.2));
    }

    /// MADD over one deadline-stage given as CSR member positions against
    /// residual capacity: all flows of the stage finish together at the
    /// stage's residual bottleneck. A starved stage — one crossing a link
    /// at or below `EPS` — writes nothing, so the load pass returns at its
    /// first such hop (seeding a residual is idempotent, so the reads it
    /// skips change nothing).
    fn serve_stage_csr(
        stage: &[usize],
        flows: &[ActiveFlowView],
        topo: &Topology,
        residual: &mut Residual,
        rates: &mut [f64],
        caps: Option<&[f64]>,
        load: &mut LinkLoad,
    ) {
        load.begin(topo.num_resources());
        for &p in stage {
            let v = &flows[p];
            for r in &v.route {
                if *residual.at(topo, *r) <= EPS {
                    return;
                }
                load.add(*r, v.remaining);
            }
        }
        // γ folds over the touched links unsorted: a max over non-NaN
        // values is order-free.
        let mut gamma: f64 = 0.0;
        for i in 0..load.touched().len() {
            let r = load.touched()[i];
            gamma = gamma.max(load.get(r) / *residual.at(topo, r));
        }
        if !gamma.is_finite() || gamma <= EPS {
            return;
        }
        for &p in stage {
            let v = &flows[p];
            let mut rate = v.remaining / gamma;
            if let Some(caps) = caps {
                rate = rate.min(caps[p]);
            }
            rates[p] = rate;
            for r in &v.route {
                let res = residual.at(topo, *r);
                *res = (*res - rate).max(0.0);
            }
        }
    }

    /// Serving pass over the flat group structure: each group in serve
    /// order, its stages EDD, then the backfill. Equalize caps land in a
    /// dense per-flow buffer written just before each group's stages are
    /// served (entries of other groups are stale and never read).
    #[allow(clippy::too_many_arguments)]
    fn serve_csr(
        &self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        sc: &mut GroupCsr,
        load: &mut LinkLoad,
        rates: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        sc.residual.begin(topo.num_resources());
        rates.clear();
        rates.resize(flows.len(), 0.0);

        for oi in 0..sc.order.len() {
            let g = sc.order[oi];
            let (start, end) = (sc.starts[g], sc.starts[g + 1]);
            let use_caps = match self.intra {
                IntraMode::FinishEarly => false,
                IntraMode::Equalize => {
                    let tau = Self::projected_tardiness_csr(
                        now,
                        flows,
                        &sc.pos[start..end],
                        &sc.deadline[start..end],
                        topo,
                        load,
                    )
                    .max(0.0);
                    if sc.caps.len() < flows.len() {
                        sc.caps.resize(flows.len(), f64::INFINITY);
                    }
                    for m in start..end {
                        let p = sc.pos[m];
                        let target = sc.deadline[m].secs() + tau;
                        let horizon = (target - now.secs()).max(EPS);
                        sc.caps[p] = flows[p].remaining / horizon;
                    }
                    true
                }
            };
            // Partition into deadline stages (EDD order is already
            // sorted) and MADD each stage against the residual.
            let mut i = start;
            while i < end {
                let d = sc.deadline[i];
                let mut j = i;
                while j < end && sc.deadline[j].approx_eq(d) {
                    j += 1;
                }
                Self::serve_stage_csr(
                    &sc.pos[i..j],
                    flows,
                    topo,
                    &mut sc.residual,
                    rates,
                    use_caps.then_some(&sc.caps),
                    load,
                );
                i = j;
            }
        }

        if self.backfill {
            // The MADD rates become the waterfill floor in place: leftover
            // capacity is shared max-min on top of them.
            waterfill_dense(topo, flows, None, rates, ws);
        }
    }

    /// The one serve pass over the cache as of the last [`Self::sync`]
    /// with the same `flows`, written densely into `out` (`out[i]` rates
    /// `flows[i]`): the groups in `order`, each group's stages EDD, then
    /// the backfill. Only the groups `known` admits take MADD service;
    /// the flows of the others ride the backfill alone.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        order: GroupOrder<'_>,
        known: impl Fn(GroupKey) -> bool,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let mut sc = std::mem::take(&mut self.scratch);
        let mut load = std::mem::take(&mut self.load);
        self.build_csr(flows, &mut sc, known);
        match order {
            GroupOrder::Rank(ranking) => {
                self.order_groups(now, flows, topo, &mut sc, &mut load);
                if let Some(ranking) = ranking {
                    ranking.clear();
                    ranking.extend(sc.order.iter().map(|&g| sc.keys[g]));
                }
            }
            GroupOrder::Held(ranking) => Self::follow(ranking, &mut sc),
        }
        self.serve_csr(now, flows, topo, ws, &mut sc, &mut load, out);
        self.scratch = sc;
        self.load = load;
    }

    /// Orders the groups by a held `ranking`: the groups it lists first,
    /// in its order, then the rest in the kept serve order.
    fn follow(ranking: &[GroupKey], sc: &mut GroupCsr) {
        let keys = &sc.keys;
        // Key lookups run against the group indices sorted by key.
        sc.order.clear();
        sc.order.extend(0..keys.len());
        sc.order.sort_unstable_by_key(|&g| keys[g]);
        sc.held_rank.clear();
        sc.held_rank.resize(keys.len(), usize::MAX);
        for (rank, key) in ranking.iter().enumerate() {
            if let Ok(i) = sc.order.binary_search_by_key(key, |&g| keys[g]) {
                sc.held_rank[sc.order[i]] = rank;
            }
        }
        let held_rank = &sc.held_rank;
        sc.order.sort_unstable_by_key(|&g| (held_rank[g], g));
    }

    /// Flattens the cached member lists of the `known` groups into the
    /// CSR workspace in the kept serve order, members in their cached EDD
    /// order, each member's position in the flow slice read from the slot
    /// table.
    fn build_csr(
        &self,
        flows: &[ActiveFlowView],
        sc: &mut GroupCsr,
        known: impl Fn(GroupKey) -> bool,
    ) {
        sc.clear_groups();
        for (_, key, members) in &self.serve {
            if !known(*key) {
                continue;
            }
            sc.keys.push(*key);
            for &(deadline, id, slot) in members {
                let p = sc.slot_pos[slot as usize] as usize;
                assert!(
                    flows.get(p).is_some_and(|v| v.id == id),
                    "cached flow {id} is not the active flow in slot {slot}"
                );
                sc.pos.push(p);
                sc.deadline.push(deadline);
            }
            sc.starts.push(sc.pos.len());
        }
    }
}

impl RatePolicy for EchelonMadd {
    /// The full recompute: the "everything changed" delta, i.e. a cache
    /// rebuild followed by the shared ranking and serving pass.
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.sync(now, flows, None);
        self.serve(now, flows, GroupOrder::Rank(None), |_| true, topo, ws, out);
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
        self.sync(now, flows, Some(delta));
        self.serve(now, flows, GroupOrder::Rank(None), |_| true, topo, ws, out);
    }

    fn name(&self) -> &'static str {
        use InterOrder as I;
        match (self.inter, self.intra) {
            (I::EarliestDeadline, IntraMode::FinishEarly) => "echelon-madd",
            (I::EarliestDeadline, IntraMode::Equalize) => "echelon-madd(equalize)",
            (I::MostTardy, _) => "echelon-madd(most-tardy)",
            (I::LeastWork, _) => "echelon-madd(least-work)",
            (I::Bssi, _) => "echelon-madd(bssi)",
        }
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        Some((self.book.occupancy(), self.book.peak_occupancy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_core::arrangement::ArrangementFn;
    use echelon_core::coflow::Coflow;
    use echelon_core::echelon::FlowRef;
    use echelon_core::JobId;
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::{run_flows, RunConfig};

    fn fr(id: u64, src: u32, dst: u32, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), size)
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

    fn fig2_echelon() -> EchelonFlow {
        EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        )
    }

    fn fig2_demands() -> Vec<FlowDemand> {
        vec![
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 0, 1, 2.0, 3.0),
        ]
    }

    /// The EchelonFlow half of the paper's Fig. 2c: staggered full-rate
    /// transmissions finishing at t = 3, 5, 7.
    #[test]
    fn fig2c_staggered_finishes() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![fig2_echelon()]);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(3.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
        assert!(out.finish(FlowId(2)).unwrap().approx_eq(SimTime::new(7.0)));
    }

    /// On a single resource the scheduler achieves the EDD-optimal maximum
    /// tardiness (Jackson's rule): for Fig. 2 that is 4.
    #[test]
    fn fig2c_max_tardiness_is_edd_optimal() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![fig2_echelon()]);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        // Ideal finishes with r = 1, T = 1: d = 1, 2, 3.
        let tardiness = [
            out.finish(FlowId(0)).unwrap().secs() - 1.0,
            out.finish(FlowId(1)).unwrap().secs() - 2.0,
            out.finish(FlowId(2)).unwrap().secs() - 3.0,
        ];
        let max = tardiness.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert!((max - 4.0).abs() < 1e-9, "max tardiness {max}");
    }

    /// Degenerate input (Coflow arrangement): EchelonMadd reproduces
    /// Varys' simultaneous finish at t = 7 (Property 2 / Property 4).
    #[test]
    fn coflow_compliant_input_recovers_varys() {
        let topo = Topology::chain(2, 1.0);
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
            ArrangementFn::Coflow,
        );
        let mut policy = EchelonMadd::new(vec![h]);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert!(
                out.finish(id).unwrap().approx_eq(SimTime::new(7.0)),
                "flow {id} at {:?}",
                out.finish(id)
            );
        }
    }

    /// Equalize mode shapes rates toward d_j + τ* instead of finishing
    /// early; the head flow is *delayed* relative to FinishEarly but the
    /// last flow still finishes at 7 and max tardiness stays 4.
    #[test]
    fn equalize_mode_constant_tardiness() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![fig2_echelon()]).with_intra(IntraMode::Equalize);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        let e2 = out.finish(FlowId(2)).unwrap();
        assert!(e2.at_or_before(SimTime::new(7.0 + 1e-6)), "e2 = {e2:?}");
        // Work conservation: total bytes 6 over a unit link starting at
        // t = 1 cannot finish before 7 either.
        assert!(SimTime::new(7.0 - 1e-6).at_or_before(e2));
    }

    #[test]
    fn solo_flows_default_edf_ties_by_id() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 3.0, 0.0), demand(1, 0, 1, 1.0, 0.0)],
            &mut policy,
            &RunConfig::default(),
        );
        // Solo deadlines are the (equal) release times; the EDF tie
        // breaks by group key, so f0 runs first.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(3.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn least_work_order_prefers_short_group() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![]).with_inter(InterOrder::LeastWork);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 3.0, 0.0), demand(1, 0, 1, 1.0, 0.0)],
            &mut policy,
            &RunConfig::default(),
        );
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn most_tardy_order_prefers_long_group() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![]).with_inter(InterOrder::MostTardy);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 3.0, 0.0), demand(1, 0, 1, 1.0, 0.0)],
            &mut policy,
            &RunConfig::default(),
        );
        // Both solo: projected tardiness = projected FCT; the long flow
        // is "most tardy" and goes first under this ordering.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(3.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
    }

    #[test]
    fn two_pipelines_share_fairly_by_tardiness() {
        // Two identical pipeline EchelonFlows on disjoint source links
        // but a shared destination ingress: the scheduler must interleave
        // them without starving either.
        let topo = Topology::big_switch_uniform(3, 1.0);
        let h0 = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 2, 1.0), fr(1, 0, 2, 1.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        );
        let h1 = EchelonFlow::from_flows(
            EchelonId(1),
            JobId(1),
            vec![fr(10, 1, 2, 1.0), fr(11, 1, 2, 1.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        );
        let mut policy = EchelonMadd::new(vec![h0, h1]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 2, 1.0, 0.0),
                demand(1, 0, 2, 1.0, 1.0),
                demand(10, 1, 2, 1.0, 0.0),
                demand(11, 1, 2, 1.0, 1.0),
            ],
            &mut policy,
            &RunConfig::default(),
        );
        // All four must finish by 4 (total 4 bytes through the shared
        // ingress) and each pipeline's last flow no earlier than 2.
        let last = out.makespan();
        assert!(last.approx_eq(SimTime::new(4.0)), "makespan {last:?}");
        for id in [FlowId(0), FlowId(1), FlowId(10), FlowId(11)] {
            assert!(out.finish(id).is_some());
        }
    }

    #[test]
    fn backfill_off_leaves_slack() {
        // One echelon on one link; second solo flow on a disjoint link
        // still runs (it is its own group), but backfill-off means the
        // echelon's later stages do not exceed their MADD rates.
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(vec![fig2_echelon()]).with_backfill(false);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        assert!(out.finish(FlowId(2)).unwrap().approx_eq(SimTime::new(7.0)));
    }

    /// The delta-patched cache must allocate bit-identically to the cache
    /// rebuilt at every call (through `FullRecompute`) across every inter/intra
    /// combination. The sweep against the map-based reference lives in
    /// `tests/differential.rs` at the workspace root.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_simnet::runner::FullRecompute;
        let topo = Topology::big_switch_uniform(3, 1.0);
        let config = RunConfig::default();
        let make = |inter, intra| {
            let h0 = fig2_echelon();
            let h1 = EchelonFlow::from_flows(
                EchelonId(1),
                JobId(1),
                vec![fr(10, 1, 2, 1.0), fr(11, 1, 2, 2.0)],
                ArrangementFn::Staggered { gap: 0.5 },
            );
            EchelonMadd::new(vec![h0, h1])
                .with_inter(inter)
                .with_intra(intra)
        };
        let mut demands = fig2_demands();
        demands.push(demand(10, 1, 2, 1.0, 0.5));
        demands.push(demand(11, 1, 2, 2.0, 1.5));
        demands.push(demand(20, 2, 0, 0.7, 0.2)); // solo flow
        for inter in [
            InterOrder::MostTardy,
            InterOrder::LeastWork,
            InterOrder::EarliestDeadline,
            InterOrder::Bssi,
        ] {
            for intra in [IntraMode::FinishEarly, IntraMode::Equalize] {
                let mut full = FullRecompute(&mut make(inter, intra));
                let a = run_flows(&topo, demands.clone(), &mut full, &config);
                let b = run_flows(&topo, demands.clone(), &mut make(inter, intra), &config);
                assert_eq!(
                    a.trace().events(),
                    b.trace().events(),
                    "trace mismatch for {inter:?}/{intra:?}"
                );
            }
        }
    }

    /// A run's final-instant completions never reach the policy (no
    /// allocation follows them), so an engine reused for a second run
    /// still holds them when the second run re-announces the same ids in
    /// its first delta. It must rebuild and then allocate exactly as a
    /// fresh engine does.
    #[test]
    fn reused_engine_matches_a_fresh_one() {
        use echelon_simnet::runner::FullRecompute;
        let topo = Topology::big_switch_uniform(3, 1.0);
        let config = RunConfig::default();
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.0),
                demand(2, 0, 2, 3.0, 0.0),
            ]
        };
        let engines: [fn() -> Box<dyn RatePolicy>; 2] = [
            || Box::new(EchelonMadd::new(vec![])),
            || Box::new(EchelonMadd::new(vec![]).with_inter(InterOrder::LeastWork)),
        ];
        for make in engines {
            for full in [false, true] {
                let run = |policy: &mut dyn RatePolicy| {
                    if full {
                        run_flows(&topo, demands(), &mut FullRecompute(policy), &config)
                    } else {
                        run_flows(&topo, demands(), policy, &config)
                    }
                };
                let mut reused = make();
                run(reused.as_mut());
                let again = run(reused.as_mut());
                let fresh = run(make().as_mut());
                assert_eq!(
                    again.trace().events(),
                    fresh.trace().events(),
                    "{}, full {full}",
                    reused.name()
                );
                assert_eq!(again.completions().len(), 3);
            }
        }
    }

    /// The serving residual is seeded per allocation, not per engine: an
    /// engine reused across allocations, with a link its members cross
    /// degraded and then restored between them, allocates bitwise as a
    /// fresh engine does at every step, backfill on and off.
    #[test]
    fn reused_engine_sees_capacity_changes_between_allocations() {
        let mut topo = Topology::big_switch_uniform(4, 1.0);
        let h0 = fig2_echelon();
        let h1 = EchelonFlow::from_flows(
            EchelonId(1),
            JobId(1),
            vec![fr(10, 0, 2, 1.0), fr(11, 3, 2, 2.0)],
            ArrangementFn::Coflow,
        );
        let now = SimTime::new(3.0);
        let views: Vec<ActiveFlowView> = [
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 0, 1, 2.0, 3.0),
            demand(10, 0, 2, 1.0, 0.5),
            demand(11, 3, 2, 2.0, 0.5),
            demand(20, 1, 3, 0.7, 0.2),
        ]
        .iter()
        .map(|d| ActiveFlowView {
            id: d.id,
            src: d.src,
            dst: d.dst,
            size: d.size,
            remaining: d.size,
            release: d.release,
            route: topo.route(d.src, d.dst),
            slot: d.id.0 as u32,
        })
        .collect();
        // Host 0's egress: every flow of `h0` and `f10` crosses it.
        let link = views[0].route[0];
        for backfill in [true, false] {
            let make = || EchelonMadd::new(vec![h0.clone(), h1.clone()]).with_backfill(backfill);
            let mut reused = make();
            for cap in [1.0, 0.3, 1.0, 0.0, 1.0] {
                topo.set_capacity(link, cap);
                let mut ws = AllocScratch::new();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                reused.allocate_dense(now, &views, &topo, &mut ws, &mut got);
                make().allocate_dense(now, &views, &topo, &mut ws, &mut want);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "backfill {backfill}, capacity {cap}: {got:?} != {want:?}"
                );
            }
        }
    }

    /// Arena slots recycle: a slot a flow leaves is the next one a new
    /// flow takes. Member positions come from the slot table, so the
    /// cache must never read a slot's new occupant as its old one. Each
    /// case allocates once over `BEFORE`, then over its flows after its
    /// delta, and must match a fresh engine bitwise under every ranking:
    ///
    /// - one delta in which a flow departs and another arrives into its
    ///   slot (a solo flow's, then the echelon head's);
    /// - a missed departure whose slot a reported arrival reuses;
    /// - a missed departure whose slot an unreported arrival reuses, so
    ///   only the allocation's guard sees it: same length, same slots;
    /// - a missed departure and an unreported arrival into a fresh slot:
    ///   same length.
    #[test]
    fn recycled_slots_match_a_fresh_engine() {
        type Case = (&'static [(u64, u32)], &'static [u64], &'static [u64]);
        const BEFORE: &[(u64, u32)] = &[(0, 0), (1, 1), (2, 4), (10, 2), (11, 3)];
        const CASES: [Case; 5] = [
            (&[(0, 0), (2, 4), (3, 1), (10, 2), (11, 3)], &[3], &[1]),
            (&[(0, 0), (1, 1), (2, 4), (3, 2), (11, 3)], &[3], &[10]),
            (&[(0, 0), (2, 4), (3, 1), (10, 2), (11, 3)], &[3], &[]),
            (&[(0, 0), (2, 4), (3, 1), (10, 2), (11, 3)], &[], &[]),
            (&[(0, 0), (2, 4), (3, 5), (10, 2), (11, 3)], &[], &[]),
        ];
        let topo = Topology::big_switch_uniform(4, 1.0);
        // `(src, dst, remaining, release)`; both echelon members release
        // at 0, so either binds the same reference.
        let spec = |id: u64| match id {
            0 => (0, 1, 2.0, 0.3),
            1 => (0, 2, 1.0, 0.1),
            2 => (3, 1, 1.5, 0.2),
            3 => (2, 1, 0.5, 0.05),
            10 => (0, 1, 2.5, 0.0),
            _ => (3, 2, 1.0, 0.0),
        };
        let views = |flows: &[(u64, u32)]| -> Vec<ActiveFlowView> {
            flows
                .iter()
                .map(|&(id, slot)| {
                    let (src, dst, remaining, release) = spec(id);
                    let (src, dst) = (NodeId(src), NodeId(dst));
                    ActiveFlowView {
                        id: FlowId(id),
                        src,
                        dst,
                        size: remaining,
                        remaining,
                        release: SimTime::new(release),
                        route: topo.route(src, dst),
                        slot,
                    }
                })
                .collect()
        };
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(10, 0, 1, 2.5), fr(11, 3, 2, 1.0)],
            ArrangementFn::Staggered { gap: 0.5 },
        );
        let ids = |ids: &[u64]| ids.iter().map(|&i| FlowId(i)).collect();
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let now = SimTime::new(1.0);
        for inter in [
            InterOrder::MostTardy,
            InterOrder::LeastWork,
            InterOrder::EarliestDeadline,
            InterOrder::Bssi,
        ] {
            let make = || EchelonMadd::new(vec![h.clone()]).with_inter(inter);
            for (i, &(after, arrived, departed)) in CASES.iter().enumerate() {
                let mut ws = AllocScratch::new();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut engine = make();
                engine.allocate_dense(now, &views(BEFORE), &topo, &mut ws, &mut got);
                let delta = FlowDelta {
                    arrived: ids(arrived),
                    departed: ids(departed),
                };
                let after = views(after);
                engine.allocate_dense_incremental(now, &after, &delta, &topo, &mut ws, &mut got);
                make().allocate_dense(now, &after, &topo, &mut ws, &mut want);
                assert_eq!(bits(&got), bits(&want), "{inter:?}, case {i}");
            }
        }
    }

    /// BSSI breaks a tie between equally loaded groups by the number it
    /// gives them (the smaller is placed last), so the groups enter it in
    /// key order, not in the earliest-deadline order the group structure
    /// is built in. Solo flows 0 and 1 load one link equally; flow 1's
    /// earlier release puts it first by deadline, flow 0 is first by key
    /// and so is placed last.
    #[test]
    fn bssi_numbers_groups_in_key_order() {
        let topo = Topology::chain(2, 1.0);
        let views: Vec<ActiveFlowView> = [(0, 0.5), (1, 0.0)]
            .map(|(id, release)| ActiveFlowView {
                id: FlowId(id),
                src: NodeId(0),
                dst: NodeId(1),
                size: 1.0,
                remaining: 1.0,
                release: SimTime::new(release),
                route: topo.route(NodeId(0), NodeId(1)),
                slot: id as u32,
            })
            .into();
        let mut rates = Vec::new();
        EchelonMadd::new(vec![])
            .with_inter(InterOrder::Bssi)
            .with_backfill(false)
            .allocate_dense(
                SimTime::new(1.0),
                &views,
                &topo,
                &mut AllocScratch::new(),
                &mut rates,
            );
        assert_eq!(rates, [0.0, 1.0]);
    }

    /// Fig. 2 at t = 3 with all three 2B flows released on a B = 1 link
    /// and nothing sent yet: EDD prefixes finish at 5, 7, 9 against
    /// deadlines 1, 2, 3, so the projected tardiness is max(4, 5, 6).
    #[test]
    fn projected_tardiness_matches_fig2_hand_calc() {
        let topo = Topology::chain(2, 1.0);
        let views: Vec<ActiveFlowView> = (0..3)
            .map(|i| ActiveFlowView {
                id: FlowId(i),
                src: NodeId(0),
                dst: NodeId(1),
                size: 2.0,
                remaining: 2.0,
                release: SimTime::new(1.0 + i as f64),
                route: topo.route(NodeId(0), NodeId(1)),
                slot: i as u32,
            })
            .collect();
        let deadlines = [1.0, 2.0, 3.0].map(SimTime::new);
        let tau = EchelonMadd::projected_tardiness_csr(
            SimTime::new(3.0),
            &views,
            &[0, 1, 2],
            &deadlines,
            &topo,
            &mut LinkLoad::new(),
        );
        assert!((tau - 6.0).abs() < 1e-9, "tau = {tau}");
    }

    #[test]
    fn earliest_deadline_inter_order() {
        let topo = Topology::chain(2, 1.0);
        let h0 = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0)],
            ArrangementFn::Coflow,
        );
        let h1 = EchelonFlow::from_flows(
            EchelonId(1),
            JobId(1),
            vec![fr(1, 0, 1, 2.0)],
            ArrangementFn::Coflow,
        );
        let mut policy = EchelonMadd::new(vec![h0, h1]).with_inter(InterOrder::EarliestDeadline);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 0, 1, 2.0, 0.5)],
            &mut policy,
            &RunConfig::default(),
        );
        // h0's deadline (reference 0) precedes h1's (reference 0.5).
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
    }

    /// The coflow half of the paper's Fig. 2: three 2B flows released at
    /// t = 1, 2, 3 on a B = 1 link, formulated as one coflow and ranked
    /// by SEBF. MADD with remaining bytes converges to the published rates
    /// (B/6, B/3, B/2) after the third arrival, and all finish at t = 7.
    #[test]
    fn coflow_fig2b_rates_and_simultaneous_finish() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy =
            EchelonMadd::new(vec![coflow.into_echelon()]).with_inter(InterOrder::LeastWork);
        let out = run_flows(&topo, fig2_demands(), &mut policy, &RunConfig::default());
        for (id, rate) in [(0, 1.0 / 6.0), (1, 1.0 / 3.0), (2, 1.0 / 2.0)] {
            let id = FlowId(id);
            assert!(out.finish(id).unwrap().approx_eq(SimTime::new(7.0)));
            let last = out
                .trace()
                .rate_series(id)
                .iter()
                .rev()
                .find(|(_, r)| *r > 0.0)
                .unwrap()
                .1;
            assert!((last - rate).abs() < 1e-9, "flow {id} last rate {last}");
        }
    }

    /// SEBF and BSSI both serve the small coflow first.
    #[test]
    fn coflow_rankings_serve_small_coflow_first() {
        let topo = Topology::chain(2, 1.0);
        for inter in [InterOrder::LeastWork, InterOrder::Bssi] {
            let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
            let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
            let mut policy =
                EchelonMadd::new(vec![big.into_echelon(), small.into_echelon()]).with_inter(inter);
            let out = run_flows(
                &topo,
                vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
                &mut policy,
                &RunConfig::default(),
            );
            assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
            assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
        }
    }

    /// MADD shapes a whole coflow to its bottleneck: a 2B flow and a 1B
    /// flow on disjoint ports both finish at Γ = 2 with backfill off,
    /// while backfill lets the small one finish at 1.
    #[test]
    fn coflow_backfill_accelerates_non_bottleneck_flow() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        for (backfill, small_finish) in [(false, 2.0), (true, 1.0)] {
            let coflow = Coflow::new(
                EchelonId(0),
                JobId(0),
                vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
            );
            let mut policy = EchelonMadd::new(vec![coflow.into_echelon()])
                .with_inter(InterOrder::LeastWork)
                .with_backfill(backfill);
            let out = run_flows(
                &topo,
                vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
                &mut policy,
                &RunConfig::default(),
            );
            assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
            let small = out.finish(FlowId(1)).unwrap();
            assert!(
                small.approx_eq(SimTime::new(small_finish)),
                "{backfill}: {small:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn overlapping_coflows_rejected() {
        let a = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let b = Coflow::new(EchelonId(1), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let _ = EchelonMadd::new(vec![a.into_echelon(), b.into_echelon()]);
    }
}
