//! The EchelonFlow scheduler (the paper's contribution, §3.3 Property 4).
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

use crate::book::EchelonBook;
use crate::scratch::GroupCsr;
use crate::sincronia::{bssi_order, GroupLoad};
use echelon_core::echelon::EchelonFlow;
use echelon_core::EchelonId;
use echelon_simnet::alloc::{alloc_via_dense, waterfill_dense, AllocScratch, RateAlloc};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::linkindex::{LinkIndex, LinkLoad};
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
    /// Smallest *current-stage* bottleneck first, ties broken by earliest
    /// deadline: SEBF at the granularity the EchelonFlow is actually
    /// consumed (its next unfinished stage), so a long pipeline is not
    /// penalized for work that is not due yet.
    StageLeastWork,
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

/// Grouping key: declared EchelonFlow or implicit singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Echelon(EchelonId),
    Solo(FlowId),
}

/// A member flow with its resolved ideal finish time.
struct Member<'a> {
    view: &'a ActiveFlowView,
    deadline: SimTime,
}

/// Projected tardiness of a member set under isolation: serve EDD at full
/// capacity; the answer is the max over EDD prefixes and resources of
/// `now + prefix_occupancy − deadline`.
fn projected_tardiness(now: SimTime, members: &[Member<'_>], topo: &Topology) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
    for m in members {
        for r in &m.view.route {
            *per_resource.entry(r.0).or_insert(0.0) += m.view.remaining / topo.capacity(*r);
        }
        let finish_lb = m
            .view
            .route
            .iter()
            .map(|r| per_resource[&r.0])
            .fold(0.0f64, f64::max);
        worst = worst.max(now.secs() + finish_lb - m.deadline.secs());
    }
    worst
}

/// The EchelonFlow scheduler: tardiness-metric MADD per Property 4.
#[derive(Debug, Clone)]
pub struct EchelonMadd {
    book: EchelonBook,
    inter: InterOrder,
    intra: IntraMode,
    backfill: bool,
    // Incremental state: EDD-ordered `(deadline, id)` member list per
    // active group. Ideal finish times are static once an echelon's
    // reference is bound, so these orderings survive across events; only
    // groups whose flows arrived or departed need touching. Maintained by
    // `apply_delta`, consumed by `allocate_cached`; the naive `allocate`
    // path neither reads nor writes it.
    cached_members: BTreeMap<GroupKey, Vec<(SimTime, FlowId)>>,
    // Link↔flow adjacency maintained in lockstep with `cached_members`
    // from the same deltas. Its O(F) consistency check guards both; when
    // it fails, the conservative fallback rebuilds everything from the
    // flow table (see DESIGN.md §8).
    links: LinkIndex,
    // Reusable flat group structure + per-link accumulator for the
    // cached allocation path: steady-state events allocate nothing.
    scratch: GroupCsr<GroupKey>,
    load: LinkLoad,
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
            cached_members: BTreeMap::new(),
            links: LinkIndex::default(),
            scratch: GroupCsr::default(),
            load: LinkLoad::new(),
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
    /// any member flow is still active. The active-flow guard also
    /// guarantees the incremental member cache holds no entry for the
    /// group, so no cache surgery is needed.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        let evicted = self.book.evict(id, active);
        debug_assert!(
            !evicted || !self.cached_members.contains_key(&GroupKey::Echelon(id)),
            "evicted echelon {id} still has cached members"
        );
        evicted
    }

    /// Binds reference times for any EchelonFlow whose head flow has just
    /// become active, without computing an allocation.
    ///
    /// Reference binding is an *observation* of the data plane (the
    /// paper's `r = s_0` — when the head flow started), not a scheduling
    /// decision: callers that do not run the heuristic at every event
    /// (e.g. a coordinator between interval decisions, or one serving a
    /// fallback during an outage) must still observe each event, or a
    /// head flow that finishes before the next heuristic run silently
    /// binds the reference from a later member.
    pub fn observe(&mut self, now: SimTime, flows: &[ActiveFlowView]) {
        self.book.observe(now, flows);
    }

    fn group_of(&self, flow: FlowId) -> GroupKey {
        match self.book.echelon_of(flow) {
            Some(h) => GroupKey::Echelon(h.id()),
            None => GroupKey::Solo(flow),
        }
    }

    /// Resolves members with deadlines for one group. Solo flows use
    /// their release time as deadline, making their tardiness their FCT.
    fn members<'a>(&self, key: GroupKey, flows: &[&'a ActiveFlowView]) -> Vec<Member<'a>> {
        let mut members: Vec<Member<'a>> = flows
            .iter()
            .map(|v| {
                let deadline = match key {
                    GroupKey::Echelon(_) => self
                        .book
                        .ideal_finish(v.id)
                        .expect("member of bound echelon"),
                    GroupKey::Solo(_) => v.release,
                };
                Member { view: v, deadline }
            })
            .collect();
        members.sort_by(|a, b| a.deadline.cmp(&b.deadline).then(a.view.id.cmp(&b.view.id)));
        members
    }

    fn weight_of(&self, key: GroupKey) -> f64 {
        match key {
            GroupKey::Echelon(id) => self.book.get(id).map(|h| h.weight()).unwrap_or(1.0),
            GroupKey::Solo(_) => 1.0,
        }
    }

    fn isolation_gamma(members: &[Member<'_>], topo: &Topology) -> f64 {
        let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
        for m in members {
            for r in &m.view.route {
                *per_resource.entry(r.0).or_insert(0.0) += m.view.remaining / topo.capacity(*r);
            }
        }
        per_resource.values().fold(0.0f64, |a, &b| a.max(b))
    }

    fn serve_order(
        &self,
        now: SimTime,
        groups: &BTreeMap<GroupKey, Vec<&ActiveFlowView>>,
        topo: &Topology,
    ) -> Vec<GroupKey> {
        let mut keys: Vec<GroupKey> = groups.keys().copied().collect();
        match self.inter {
            InterOrder::MostTardy => {
                // Rank by *weighted* projected tardiness: the weighted sum
                // objective (Eq. 4) makes a unit of lateness on a heavy
                // EchelonFlow cost `weight` units, so heavier groups are
                // proportionally more urgent.
                keys.sort_by(|a, b| {
                    let ta = self.weight_of(*a)
                        * projected_tardiness(now, &self.members(*a, &groups[a]), topo);
                    let tb = self.weight_of(*b)
                        * projected_tardiness(now, &self.members(*b, &groups[b]), topo);
                    tb.total_cmp(&ta).then(a.cmp(b))
                });
            }
            InterOrder::LeastWork => {
                keys.sort_by(|a, b| {
                    let ga = Self::isolation_gamma(&self.members(*a, &groups[a]), topo);
                    let gb = Self::isolation_gamma(&self.members(*b, &groups[b]), topo);
                    ga.total_cmp(&gb).then(a.cmp(b))
                });
            }
            InterOrder::StageLeastWork => {
                let stage_key = |k: &GroupKey| -> (f64, SimTime) {
                    let members = self.members(*k, &groups[k]);
                    let head_deadline = members[0].deadline;
                    let stage: Vec<_> = members
                        .iter()
                        .take_while(|m| m.deadline.approx_eq(head_deadline))
                        .collect();
                    let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
                    for m in &stage {
                        for r in &m.view.route {
                            *per_resource.entry(r.0).or_insert(0.0) +=
                                m.view.remaining / topo.capacity(*r);
                        }
                    }
                    let gamma = per_resource.values().fold(0.0f64, |a, &b| a.max(b));
                    (gamma, head_deadline)
                };
                keys.sort_by(|a, b| {
                    let (ga, da) = stage_key(a);
                    let (gb, db) = stage_key(b);
                    ga.total_cmp(&gb).then(da.cmp(&db)).then(a.cmp(b))
                });
            }
            InterOrder::EarliestDeadline => {
                keys.sort_by(|a, b| {
                    let da = self.members(*a, &groups[a])[0].deadline;
                    let db = self.members(*b, &groups[b])[0].deadline;
                    da.cmp(&db).then(a.cmp(b))
                });
            }
            InterOrder::Bssi => {
                let mut key_for_id = BTreeMap::new();
                let loads: Vec<GroupLoad> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        let id = EchelonId(i as u64);
                        key_for_id.insert(id, k);
                        let mut load = BTreeMap::new();
                        for v in &groups[&k] {
                            for r in &v.route {
                                *load.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
                            }
                        }
                        GroupLoad {
                            id,
                            weight: self.weight_of(k),
                            load,
                        }
                    })
                    .collect();
                keys = bssi_order(&loads)
                    .into_iter()
                    .map(|id| key_for_id[&id])
                    .collect();
            }
        }
        keys
    }

    /// MADD over one deadline-stage against residual capacity: all flows
    /// of the stage finish together at the stage's residual bottleneck.
    /// Rates land in the dense `rates` slice (indexed like `flows`); the
    /// slice starts zeroed, so a starved stage writes nothing.
    fn serve_stage(
        stage: &[Member<'_>],
        flows: &[ActiveFlowView],
        residual: &mut [f64],
        rates: &mut [f64],
        rate_caps: Option<&BTreeMap<FlowId, f64>>,
    ) {
        let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
        for m in stage {
            for r in &m.view.route {
                *per_resource.entry(r.0).or_insert(0.0) += m.view.remaining;
            }
        }
        let mut gamma: f64 = 0.0;
        for (&r, &bytes) in &per_resource {
            let res = residual[r as usize];
            if res <= EPS {
                gamma = f64::INFINITY;
                break;
            }
            gamma = gamma.max(bytes / res);
        }
        if !gamma.is_finite() || gamma <= EPS {
            return;
        }
        for m in stage {
            let v = m.view;
            let mut rate = v.remaining / gamma;
            if let Some(caps) = rate_caps {
                if let Some(&cap) = caps.get(&v.id) {
                    rate = rate.min(cap);
                }
            }
            let idx = flows
                .binary_search_by(|f| f.id.cmp(&v.id))
                .expect("served flow is active");
            rates[idx] = rate;
            for r in &v.route {
                residual[r.0 as usize] = (residual[r.0 as usize] - rate).max(0.0);
            }
        }
    }

    /// Serves pre-ordered groups against residual capacity and backfills,
    /// writing the dense allocation (indexed like the id-sorted `flows`)
    /// into `rates`. Shared tail of the naive and incremental allocation
    /// paths; member lists must be EDD-ordered (deadline, then id).
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        now: SimTime,
        order: &[GroupKey],
        members_of: &BTreeMap<GroupKey, Vec<Member<'_>>>,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        rates: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        let mut residual: Vec<f64> = (0..topo.num_resources())
            .map(|r| topo.capacity(echelon_simnet::ids::ResourceId(r as u32)))
            .collect();
        rates.clear();
        rates.resize(flows.len(), 0.0);

        for key in order {
            let members = &members_of[key];
            // In Equalize mode, cap every flow at the rate that makes it
            // finish exactly at d_j + τ*; in FinishEarly mode, no caps.
            let rate_caps: Option<BTreeMap<FlowId, f64>> = match self.intra {
                IntraMode::FinishEarly => None,
                IntraMode::Equalize => {
                    let tau = projected_tardiness(now, members, topo).max(0.0);
                    Some(
                        members
                            .iter()
                            .map(|m| {
                                let target = m.deadline.secs() + tau;
                                let horizon = (target - now.secs()).max(EPS);
                                (m.view.id, m.view.remaining / horizon)
                            })
                            .collect(),
                    )
                }
            };
            // Partition into deadline stages (EDD order is already sorted).
            let mut i = 0;
            while i < members.len() {
                let d = members[i].deadline;
                let mut j = i;
                while j < members.len() && members[j].deadline.approx_eq(d) {
                    j += 1;
                }
                Self::serve_stage(
                    &members[i..j],
                    flows,
                    &mut residual,
                    rates,
                    rate_caps.as_ref(),
                );
                i = j;
            }
        }

        if self.backfill {
            // The MADD rates become the waterfill floor in place: leftover
            // capacity is shared max-min on top of them.
            waterfill_dense(topo, flows, None, None, rates, ws);
        }
    }

    fn deadline_of(&self, key: GroupKey, view: &ActiveFlowView) -> SimTime {
        match key {
            GroupKey::Echelon(_) => self
                .book
                .ideal_finish(view.id)
                .expect("member of bound echelon"),
            GroupKey::Solo(_) => view.release,
        }
    }

    /// Updates the cached group membership/EDD orderings for the flows
    /// that arrived or departed since the previous call.
    ///
    /// `flows` is the *current* id-sorted active set (as produced by the
    /// fluid network). Every arrival and departure must be reported
    /// exactly once across the sequence of calls; [`Self::allocate_cached`]
    /// self-heals from missed reports by rebuilding, at full cost.
    pub fn apply_delta(&mut self, now: SimTime, flows: &[ActiveFlowView], delta: &FlowDelta) {
        // Reference binding driven by the delta alone: O(arrivals), not
        // O(active flows); debug builds assert agreement with the full
        // scan inside `observe_delta`.
        self.book.observe_delta(now, flows, delta);
        // Arrivals in ascending id order: reference binding is first-touch,
        // and the naive path observes the id-sorted flow slice.
        let mut arrived = delta.arrived.clone();
        arrived.sort_unstable();
        for id in arrived {
            let Ok(idx) = flows.binary_search_by(|v| v.id.cmp(&id)) else {
                continue; // arrived and departed without ever being served
            };
            let view = &flows[idx];
            let key = self.group_of(id);
            let deadline = self.deadline_of(key, view);
            let list = self.cached_members.entry(key).or_default();
            let pos = list.partition_point(|&(d, f)| (d, f) < (deadline, id));
            list.insert(pos, (deadline, id));
        }
        for &id in &delta.departed {
            let key = self.group_of(id);
            if let Some(list) = self.cached_members.get_mut(&key) {
                if let Some(pos) = list.iter().position(|&(_, f)| f == id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.cached_members.remove(&key);
                }
            }
        }
        // The link index receives exactly the same delta stream, so one
        // O(F) consistency check covers both caches.
        self.links.apply_delta(flows, delta);
    }

    /// True when the cache covers exactly the given active set. Checked
    /// through the link index (updated in lockstep with `cached_members`
    /// from the same deltas): an O(F) id-set walk instead of a per-flow
    /// binary-search sweep.
    fn cache_consistent(&self, flows: &[ActiveFlowView]) -> bool {
        self.links.consistent(flows)
    }

    /// Re-derives the cache (and the link index) from scratch — the
    /// conservative fallback when a delta was missed. Identical grouping
    /// and ordering to the naive path.
    fn rebuild_cache(&mut self, now: SimTime, flows: &[ActiveFlowView]) {
        self.book.observe(now, flows);
        self.cached_members.clear();
        for v in flows {
            let key = self.group_of(v.id);
            let deadline = self.deadline_of(key, v);
            self.cached_members
                .entry(key)
                .or_default()
                .push((deadline, v.id));
        }
        for list in self.cached_members.values_mut() {
            list.sort_unstable();
        }
        self.links.rebuild(flows);
    }

    /// [`projected_tardiness`] over CSR member slices, accumulating into
    /// the reusable [`LinkLoad`] instead of a transient `BTreeMap`. The
    /// running per-link sums build in the same member order with the same
    /// first-touch semantics, so the result is bit-identical.
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

    /// [`Self::isolation_gamma`] over a CSR member slice: max of the
    /// per-link load sums, folded over the ascending touched-link list
    /// exactly as the map-based fold enumerates its keys.
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

    /// Inter-group ordering over the flat group structure: each group's
    /// ranking value is computed once into a reusable rank buffer, then
    /// `order` is sorted with a strict total order (deterministic key
    /// tie-break), yielding exactly the naive path's order.
    fn order_groups(
        &self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        sc: &mut GroupCsr<GroupKey>,
        load: &mut LinkLoad,
    ) {
        let groups = sc.keys.len();
        sc.order.clear();
        sc.order.extend(0..groups);
        match self.inter {
            InterOrder::MostTardy => {
                sc.rank.clear();
                for g in 0..groups {
                    let tau = Self::projected_tardiness_csr(
                        now,
                        flows,
                        &sc.pos[sc.starts[g]..sc.starts[g + 1]],
                        &sc.deadline[sc.starts[g]..sc.starts[g + 1]],
                        topo,
                        load,
                    );
                    sc.rank.push(self.weight_of(sc.keys[g]) * tau);
                }
                let GroupCsr {
                    keys, order, rank, ..
                } = sc;
                order.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]).then(keys[a].cmp(&keys[b])));
            }
            InterOrder::LeastWork => {
                sc.rank.clear();
                for g in 0..groups {
                    sc.rank.push(Self::isolation_gamma_csr(
                        flows,
                        &sc.pos[sc.starts[g]..sc.starts[g + 1]],
                        topo,
                        load,
                    ));
                }
                let GroupCsr {
                    keys, order, rank, ..
                } = sc;
                order.sort_by(|&a, &b| rank[a].total_cmp(&rank[b]).then(keys[a].cmp(&keys[b])));
            }
            InterOrder::StageLeastWork => {
                sc.rank.clear();
                sc.rank_time.clear();
                for g in 0..groups {
                    let pos = &sc.pos[sc.starts[g]..sc.starts[g + 1]];
                    let deadline = &sc.deadline[sc.starts[g]..sc.starts[g + 1]];
                    let head_deadline = deadline[0];
                    let stage_len = deadline
                        .iter()
                        .take_while(|d| d.approx_eq(head_deadline))
                        .count();
                    sc.rank.push(Self::isolation_gamma_csr(
                        flows,
                        &pos[..stage_len],
                        topo,
                        load,
                    ));
                    sc.rank_time.push(head_deadline);
                }
                let GroupCsr {
                    keys,
                    order,
                    rank,
                    rank_time,
                    ..
                } = sc;
                order.sort_by(|&a, &b| {
                    rank[a]
                        .total_cmp(&rank[b])
                        .then(rank_time[a].cmp(&rank_time[b]))
                        .then(keys[a].cmp(&keys[b]))
                });
            }
            InterOrder::EarliestDeadline => {
                sc.rank_time.clear();
                for g in 0..groups {
                    sc.rank_time.push(sc.deadline[sc.starts[g]]);
                }
                let GroupCsr {
                    keys,
                    order,
                    rank_time,
                    ..
                } = sc;
                order.sort_by(|&a, &b| rank_time[a].cmp(&rank_time[b]).then(keys[a].cmp(&keys[b])));
            }
            InterOrder::Bssi => {
                // Non-default ablation: keep the map-based load build (the
                // BSSI solve itself dominates). Accumulate in ascending id
                // order — member positions index the id-sorted flow slice,
                // so sorting positions ascending is ascending id order —
                // to match the naive path's float summation bit-for-bit.
                let mut key_for_id = BTreeMap::new();
                let loads: Vec<GroupLoad> = (0..groups)
                    .map(|g| {
                        let id = EchelonId(g as u64);
                        key_for_id.insert(id, g);
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
                            id,
                            weight: self.weight_of(sc.keys[g]),
                            load,
                        }
                    })
                    .collect();
                sc.order.clear();
                sc.order
                    .extend(bssi_order(&loads).into_iter().map(|id| key_for_id[&id]));
            }
        }
    }

    /// MADD over one deadline-stage given as CSR member positions: the
    /// flat mirror of [`Self::serve_stage`], with the per-link byte sums
    /// in the reusable [`LinkLoad`] (gamma folds over the ascending
    /// touched-link list, exactly the map iteration order) and member
    /// positions used directly instead of re-finding each flow by binary
    /// search.
    fn serve_stage_csr(
        stage: &[usize],
        flows: &[ActiveFlowView],
        residual: &mut [f64],
        rates: &mut [f64],
        caps: Option<&[f64]>,
        load: &mut LinkLoad,
    ) {
        load.begin(residual.len());
        for &p in stage {
            let v = &flows[p];
            for r in &v.route {
                load.add(*r, v.remaining);
            }
        }
        load.sort_touched();
        let mut gamma: f64 = 0.0;
        for i in 0..load.touched().len() {
            let r = load.touched()[i];
            let res = residual[r.0 as usize];
            if res <= EPS {
                gamma = f64::INFINITY;
                break;
            }
            gamma = gamma.max(load.get(r) / res);
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
                residual[r.0 as usize] = (residual[r.0 as usize] - rate).max(0.0);
            }
        }
    }

    /// Serving pass over the flat group structure: the allocation-free
    /// mirror of [`Self::serve`]. Equalize caps land in a dense per-flow
    /// buffer written just before each group's stages are served (entries
    /// of other groups are stale and never read).
    #[allow(clippy::too_many_arguments)]
    fn serve_csr(
        &self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        sc: &mut GroupCsr<GroupKey>,
        load: &mut LinkLoad,
        rates: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        topo.capacities_into(&mut sc.residual);
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
            waterfill_dense(topo, flows, None, None, rates, ws);
        }
    }

    /// Allocation from the cached group structure maintained by
    /// [`Self::apply_delta`], written densely into `out` (`out[i]` rates
    /// `flows[i]`). Requires `flows` sorted by ascending id (the fluid
    /// network's view order). Observationally identical to the naive
    /// [`RatePolicy::allocate_dense`]; if the cache does not cover the
    /// active set (a missed delta), it is rebuilt from scratch first.
    pub fn allocate_cached(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        if !self.cache_consistent(flows) {
            self.rebuild_cache(now, flows);
        }
        let mut sc = std::mem::take(&mut self.scratch);
        let mut load = std::mem::take(&mut self.load);
        self.build_csr(flows, &mut sc);
        self.order_groups(now, flows, topo, &mut sc, &mut load);
        self.serve_csr(now, flows, topo, ws, &mut sc, &mut load, out);
        self.scratch = sc;
        self.load = load;
    }

    /// Flattens the cached member lists into the CSR workspace, resolving
    /// each member's position in the id-sorted flow slice once. Groups
    /// land in ascending key order (the member cache's `BTreeMap`
    /// iteration order), members in their cached EDD order.
    fn build_csr(&self, flows: &[ActiveFlowView], sc: &mut GroupCsr<GroupKey>) {
        sc.clear_groups();
        for (k, list) in &self.cached_members {
            sc.keys.push(*k);
            for &(deadline, id) in list {
                let idx = flows
                    .binary_search_by(|v| v.id.cmp(&id))
                    .expect("cached flow is active");
                sc.pos.push(idx);
                sc.deadline.push(deadline);
            }
            sc.starts.push(sc.pos.len());
        }
    }
}

impl RatePolicy for EchelonMadd {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
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
        self.book.observe(now, flows);

        let mut groups: BTreeMap<GroupKey, Vec<&ActiveFlowView>> = BTreeMap::new();
        for v in flows {
            groups.entry(self.group_of(v.id)).or_default().push(v);
        }
        let order = self.serve_order(now, &groups, topo);
        let members_of: BTreeMap<GroupKey, Vec<Member<'_>>> = groups
            .iter()
            .map(|(k, vs)| (*k, self.members(*k, vs)))
            .collect();
        self.serve(now, &order, &members_of, flows, topo, ws, out);
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

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.apply_delta(now, flows, delta);
        self.allocate_cached(now, flows, topo, ws, out);
    }

    fn name(&self) -> &'static str {
        match (self.inter, self.intra) {
            (InterOrder::EarliestDeadline, IntraMode::FinishEarly) => "echelon-madd",
            (InterOrder::EarliestDeadline, IntraMode::Equalize) => "echelon-madd(equalize)",
            (InterOrder::MostTardy, _) => "echelon-madd(most-tardy)",
            (InterOrder::LeastWork, _) => "echelon-madd(least-work)",
            (InterOrder::StageLeastWork, _) => "echelon-madd(stage-least-work)",
            (InterOrder::Bssi, _) => "echelon-madd(bssi)",
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
    use echelon_core::echelon::FlowRef;
    use echelon_core::JobId;
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::run_flows;

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
        let out = run_flows(&topo, fig2_demands(), &mut policy);
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
        let out = run_flows(&topo, fig2_demands(), &mut policy);
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
        let out = run_flows(&topo, fig2_demands(), &mut policy);
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
        let out = run_flows(&topo, fig2_demands(), &mut policy);
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
        let out = run_flows(&topo, fig2_demands(), &mut policy);
        assert!(out.finish(FlowId(2)).unwrap().approx_eq(SimTime::new(7.0)));
    }

    /// The incremental path must be bit-identical to the naive one across
    /// every inter/intra combination (the broad differential sweep lives
    /// in `tests/differential.rs` at the workspace root).
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};
        let topo = Topology::big_switch_uniform(3, 1.0);
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
            InterOrder::StageLeastWork,
            InterOrder::EarliestDeadline,
            InterOrder::Bssi,
        ] {
            for intra in [IntraMode::FinishEarly, IntraMode::Equalize] {
                let a = run_flows(&topo, demands.clone(), &mut make(inter, intra));
                let b = run_flows_with(
                    &topo,
                    demands.clone(),
                    &mut make(inter, intra),
                    RecomputeMode::Incremental,
                );
                assert_eq!(
                    a.trace().events(),
                    b.trace().events(),
                    "trace mismatch for {inter:?}/{intra:?}"
                );
            }
        }
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
        );
        // h0's deadline (reference 0) precedes h1's (reference 0.5).
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
    }
}
