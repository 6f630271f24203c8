//! The one MADD engine: the EchelonFlow scheduler (the paper's
//! contribution, §3.3 Property 4) and, under a coflow ranking, Varys.
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
//! Varys is the same engine with a different ranking: a coflow enters
//! the book as a one-stage EchelonFlow (`Coflow::into_echelon`, Eq. 5),
//! so all its members share one ideal finish time and form one MADD
//! stage, and [`crate::varys::CoflowOrder`] picks the group ranking.
//!
//! There is one allocation path. Group membership is cached and patched
//! from flow deltas ([`EchelonMadd::apply_delta`]); a full recompute
//! rebuilds that cache from the flow slice and then runs the same
//! ranking and serving pass. The map-based reference the differential
//! suites check this engine against lives in test support.

use crate::book::EchelonBook;
use crate::scratch::GroupCsr;
use crate::sincronia::{bssi_order, GroupLoad};
use crate::varys::CoflowOrder;
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

/// The engine's group ranking (Property 4's swapped metric): an
/// EchelonFlow order, or a coflow order when the engine runs as Varys.
/// SEBF ranks exactly as [`InterOrder::LeastWork`] and both BSSIs are
/// one solve; only the coflow arrival order has no EchelonFlow twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ranking {
    /// Set by [`EchelonMadd::with_inter`].
    Echelon(InterOrder),
    /// Set by [`crate::varys::VarysMadd::with_order`].
    Coflow(CoflowOrder),
}

/// Grouping key: declared EchelonFlow or implicit singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum GroupKey {
    Echelon(EchelonId),
    Solo(FlowId),
}

/// The EchelonFlow scheduler: tardiness-metric MADD per Property 4.
#[derive(Debug, Clone)]
pub struct EchelonMadd {
    book: EchelonBook,
    ranking: Ranking,
    intra: IntraMode,
    backfill: bool,
    // EDF-ordered `(deadline, id)` member list per active group. Ideal
    // finish times are static once an echelon's reference is bound, so
    // these orderings survive across events; only groups whose flows
    // arrived or departed need touching.
    cached_members: BTreeMap<GroupKey, Vec<(SimTime, FlowId)>>,
    // First-seen time of each group: the `now` of its first allocation.
    // Kept only under the coflow arrival ranking, its only reader; a solo
    // flow's entry leaves with the flow.
    arrivals: BTreeMap<GroupKey, SimTime>,
    // Id-sorted `(id, slot)` of the flows the member cache holds, fed the
    // same deltas. Comparing it with the flow slice is the cache's O(F)
    // guard; on a mismatch the conservative fallback rebuilds everything
    // from the flow table (see DESIGN.md §8.1).
    held: Vec<(FlowId, u32)>,
    // Reusable flat group structure + per-link accumulator: steady-state
    // events allocate nothing.
    scratch: GroupCsr,
    load: LinkLoad,
}

impl EchelonMadd {
    /// Creates the scheduler over the declared EchelonFlows with the
    /// defaults: earliest-deadline inter ordering, EDD intra discipline,
    /// work-conserving backfill.
    pub fn new(echelons: Vec<EchelonFlow>) -> EchelonMadd {
        EchelonMadd {
            book: EchelonBook::new(echelons),
            ranking: Ranking::Echelon(InterOrder::EarliestDeadline),
            intra: IntraMode::FinishEarly,
            backfill: true,
            cached_members: BTreeMap::new(),
            arrivals: BTreeMap::new(),
            held: Vec::new(),
            scratch: GroupCsr::default(),
            load: LinkLoad::new(),
        }
    }

    /// Selects the inter-EchelonFlow ordering.
    pub fn with_inter(self, inter: InterOrder) -> EchelonMadd {
        self.with_ranking(Ranking::Echelon(inter))
    }

    pub(crate) fn with_ranking(mut self, ranking: Ranking) -> EchelonMadd {
        self.ranking = ranking;
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
    /// rebuild), so the group's entry goes with it; the held-flow list then
    /// no longer matches the flow slice and the next allocation rebuilds.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        let evicted = self.book.evict(id, active);
        if evicted {
            self.cached_members.remove(&GroupKey::Echelon(id));
            self.arrivals.remove(&GroupKey::Echelon(id));
        }
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

    fn stamps_arrivals(&self) -> bool {
        self.ranking == Ranking::Coflow(CoflowOrder::Arrival)
    }

    /// Updates the cached group membership/EDD orderings for the flows
    /// that arrived or departed since the previous call.
    ///
    /// `flows` is the *current* id-sorted active set (as produced by the
    /// fluid network). Every arrival and departure should be reported
    /// exactly once across the sequence of calls; missed reports cost a
    /// rebuild, here when an arrival is already held (its earlier
    /// departure never arrived, as when an engine is reused for a second
    /// run) and otherwise in [`Self::allocate_cached`].
    pub fn apply_delta(&mut self, now: SimTime, flows: &[ActiveFlowView], delta: &FlowDelta) {
        // Reference binding driven by the delta alone: O(arrivals), not
        // O(active flows); debug builds assert agreement with the full
        // scan inside `observe_delta`.
        self.book.observe_delta(now, flows, delta);
        let stamp = self.stamps_arrivals();
        // Arrivals in ascending id order: reference binding is first-touch,
        // and the rebuild observes the id-sorted flow slice.
        let mut arrived = delta.arrived.clone();
        arrived.sort_unstable();
        for id in arrived {
            let Ok(idx) = flows.binary_search_by(|v| v.id.cmp(&id)) else {
                continue; // arrived and departed without ever being served
            };
            let Err(at) = self.held.binary_search_by(|&(f, _)| f.cmp(&id)) else {
                // Held already: its departure never arrived, so the cache
                // is stale and caching the flow again would list it twice.
                self.rebuild_cache(now, flows);
                return;
            };
            self.held.insert(at, (id, flows[idx].slot));
            let key = self.group_of(id);
            let deadline = self.deadline_of(key, &flows[idx]);
            if stamp {
                self.arrivals.entry(key).or_insert(now);
            }
            let list = self.cached_members.entry(key).or_default();
            let pos = list.partition_point(|&(d, f)| (d, f) < (deadline, id));
            list.insert(pos, (deadline, id));
        }
        for &id in &delta.departed {
            if let Ok(at) = self.held.binary_search_by(|&(f, _)| f.cmp(&id)) {
                self.held.remove(at);
            }
            let key = self.group_of(id);
            if matches!(key, GroupKey::Solo(_)) {
                self.arrivals.remove(&key);
            }
            if let Some(list) = self.cached_members.get_mut(&key) {
                if let Some(pos) = list.iter().position(|&(_, f)| f == id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.cached_members.remove(&key);
                }
            }
        }
    }

    /// Re-derives the cache (and the held-flow list) from the flow slice:
    /// the full recompute, and the conservative fallback when a delta was
    /// missed.
    fn rebuild_cache(&mut self, now: SimTime, flows: &[ActiveFlowView]) {
        self.book.observe(now, flows);
        self.cached_members.clear();
        let stamp = self.stamps_arrivals();
        if stamp {
            self.arrivals.retain(|k, _| match k {
                GroupKey::Solo(id) => flows.binary_search_by(|v| v.id.cmp(id)).is_ok(),
                GroupKey::Echelon(_) => true,
            });
        }
        for v in flows {
            let key = self.group_of(v.id);
            let deadline = self.deadline_of(key, v);
            if stamp {
                self.arrivals.entry(key).or_insert(now);
            }
            self.cached_members
                .entry(key)
                .or_default()
                .push((deadline, v.id));
        }
        for list in self.cached_members.values_mut() {
            list.sort_unstable();
        }
        self.held.clear();
        self.held.extend(flows.iter().map(|v| (v.id, v.slot)));
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

    /// Inter-group ordering over the flat group structure. Every ranking
    /// but BSSI computes one `(rank, time)` pair per group into reusable
    /// buffers; `order` is then sorted by rank, time and group key (a
    /// strict total order, so the result is deterministic).
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
        if let Ranking::Echelon(InterOrder::Bssi) | Ranking::Coflow(CoflowOrder::Bssi) =
            self.ranking
        {
            // Non-default ablation: keep the map-based load build (the
            // BSSI solve itself dominates). Accumulate in ascending id
            // order — member positions index the id-sorted flow slice, so
            // sorting positions ascending is ascending id order.
            let loads: Vec<GroupLoad> = (0..groups)
                .map(|g| {
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
                        id: EchelonId(g as u64),
                        weight: self.weight_of(sc.keys[g]),
                        load,
                    }
                })
                .collect();
            sc.order
                .extend(bssi_order(&loads).into_iter().map(|id| id.0 as usize));
            return;
        }
        sc.order.extend(0..groups);
        sc.rank.clear();
        sc.rank_time.clear();
        for g in 0..groups {
            let (start, end) = (sc.starts[g], sc.starts[g + 1]);
            let (pos, deadline) = (&sc.pos[start..end], &sc.deadline[start..end]);
            let (rank, time) = match self.ranking {
                // Largest weighted tardiness first: the weighted objective
                // (Eq. 4) makes a unit of lateness on a heavy EchelonFlow
                // cost `weight` units. Negation reverses the total order.
                Ranking::Echelon(InterOrder::MostTardy) => {
                    let tau = Self::projected_tardiness_csr(now, flows, pos, deadline, topo, load);
                    (-(self.weight_of(sc.keys[g]) * tau), SimTime::ZERO)
                }
                Ranking::Echelon(InterOrder::LeastWork) | Ranking::Coflow(CoflowOrder::Sebf) => (
                    Self::isolation_gamma_csr(flows, pos, topo, load),
                    SimTime::ZERO,
                ),
                Ranking::Echelon(InterOrder::StageLeastWork) => {
                    let head = deadline[0];
                    let stage = deadline.iter().take_while(|d| d.approx_eq(head)).count();
                    (
                        Self::isolation_gamma_csr(flows, &pos[..stage], topo, load),
                        head,
                    )
                }
                Ranking::Echelon(InterOrder::EarliestDeadline) => (0.0, deadline[0]),
                Ranking::Coflow(CoflowOrder::Arrival) => {
                    (0.0, self.arrivals.get(&sc.keys[g]).copied().unwrap_or(now))
                }
                Ranking::Echelon(InterOrder::Bssi) | Ranking::Coflow(CoflowOrder::Bssi) => {
                    unreachable!("BSSI returned above")
                }
            };
            sc.rank.push(rank);
            sc.rank_time.push(time);
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

    /// MADD over one deadline-stage given as CSR member positions against
    /// residual capacity: all flows of the stage finish together at the
    /// stage's residual bottleneck (gamma folds over the ascending
    /// touched-link list). A starved stage writes nothing.
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
            waterfill_dense(topo, flows, None, rates, ws);
        }
    }

    /// Allocation from the cached group structure maintained by
    /// [`Self::apply_delta`], written densely into `out` (`out[i]` rates
    /// `flows[i]`). Requires `flows` sorted by ascending id (the fluid
    /// network's view order). If the cache does not cover the active set
    /// (a missed delta), it is rebuilt from scratch first.
    /// [`RatePolicy::allocate_dense`] is this call after a forced rebuild.
    pub fn allocate_cached(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(flows.windows(2).all(|w| w[0].id < w[1].id));
        let holds_flows = self
            .held
            .iter()
            .copied()
            .eq(flows.iter().map(|v| (v.id, v.slot)));
        if !holds_flows {
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
    fn build_csr(&self, flows: &[ActiveFlowView], sc: &mut GroupCsr) {
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
        self.rebuild_cache(now, flows);
        self.allocate_cached(now, flows, topo, ws, out);
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
        use InterOrder as I;
        match (self.ranking, self.intra) {
            (Ranking::Echelon(I::EarliestDeadline), IntraMode::FinishEarly) => "echelon-madd",
            (Ranking::Echelon(I::EarliestDeadline), IntraMode::Equalize) => {
                "echelon-madd(equalize)"
            }
            (Ranking::Echelon(I::MostTardy), _) => "echelon-madd(most-tardy)",
            (Ranking::Echelon(I::LeastWork), _) => "echelon-madd(least-work)",
            (Ranking::Echelon(I::StageLeastWork), _) => "echelon-madd(stage-least-work)",
            (Ranking::Echelon(I::Bssi), _) => "echelon-madd(bssi)",
            (Ranking::Coflow(CoflowOrder::Sebf), _) => "varys-madd(sebf)",
            (Ranking::Coflow(CoflowOrder::Bssi), _) => "varys-madd(bssi)",
            (Ranking::Coflow(CoflowOrder::Arrival), _) => "varys-madd(arrival)",
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

    /// The delta-patched cache must allocate bit-identically to the cache
    /// rebuilt at every call (Full mode) across every inter/intra
    /// combination. The sweep against the map-based reference lives in
    /// `tests/differential.rs` at the workspace root.
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

    /// A run's final-instant completions never reach the policy (no
    /// allocation follows them), so an engine reused for a second run
    /// still holds them when the second run re-announces the same ids in
    /// its first delta. It must rebuild and then allocate exactly as a
    /// fresh engine does.
    #[test]
    fn reused_engine_matches_a_fresh_one() {
        use crate::varys::VarysMadd;
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};
        let topo = Topology::big_switch_uniform(3, 1.0);
        let demands = || {
            vec![
                demand(0, 0, 1, 2.0, 0.0),
                demand(1, 2, 1, 1.0, 0.0),
                demand(2, 0, 2, 3.0, 0.0),
            ]
        };
        let engines: [fn() -> Box<dyn RatePolicy>; 2] = [
            || Box::new(EchelonMadd::new(vec![])),
            || Box::new(VarysMadd::new(vec![])),
        ];
        for make in engines {
            for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
                let mut reused = make();
                run_flows_with(&topo, demands(), reused.as_mut(), mode);
                let again = run_flows_with(&topo, demands(), reused.as_mut(), mode);
                let fresh = run_flows_with(&topo, demands(), make().as_mut(), mode);
                assert_eq!(
                    again.trace().events(),
                    fresh.trace().events(),
                    "{} {mode:?}",
                    reused.name()
                );
                assert_eq!(again.completions().len(), 3);
            }
        }
    }

    /// Under the coflow arrival ranking the first-seen map drops a solo
    /// flow's entry with the flow: over a long solo-flow stream it never
    /// holds more than the live solo flows plus the registered coflows,
    /// on the delta path and on the rebuild alike.
    #[test]
    fn arrival_map_stays_bounded_by_live_groups() {
        use crate::varys::VarysMadd;
        use echelon_core::coflow::Coflow;
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};

        struct Probe(EchelonMadd);
        impl Probe {
            fn check(&self, flows: &[ActiveFlowView]) {
                let solo = flows
                    .iter()
                    .filter(|v| self.0.book.echelon_of(v.id).is_none())
                    .count();
                let bound = solo + self.0.book.occupancy();
                assert!(
                    self.0.arrivals.len() <= bound,
                    "{} arrival entries, {bound} live solo flows and coflows",
                    self.0.arrivals.len()
                );
            }
        }
        impl RatePolicy for Probe {
            fn allocate_dense(
                &mut self,
                now: SimTime,
                f: &[ActiveFlowView],
                t: &Topology,
                ws: &mut AllocScratch,
                out: &mut Vec<f64>,
            ) {
                self.0.allocate_dense(now, f, t, ws, out);
                self.check(f);
            }
            fn allocate_dense_incremental(
                &mut self,
                now: SimTime,
                f: &[ActiveFlowView],
                delta: &FlowDelta,
                t: &Topology,
                ws: &mut AllocScratch,
                out: &mut Vec<f64>,
            ) {
                self.0.allocate_dense_incremental(now, f, delta, t, ws, out);
                self.check(f);
            }
        }

        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 1.0), fr(1, 0, 1, 1.0)],
        );
        let demands: Vec<FlowDemand> = (0..200)
            .map(|i| demand(i, 0, 1, 1.0, 0.6 * i as f64))
            .collect();
        for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
            let varys = VarysMadd::new(vec![coflow.clone()]).with_order(CoflowOrder::Arrival);
            let mut probe = Probe(varys.into());
            let out = run_flows_with(&topo, demands.clone(), &mut probe, mode);
            assert_eq!(out.completions().len(), 200);
            // The coflow, and at most the last solo flow: no allocation
            // follows its departure.
            assert!(
                probe.0.arrivals.len() <= 2,
                "{mode:?}: {:?}",
                probe.0.arrivals
            );
        }
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
        );
        // h0's deadline (reference 0) precedes h1's (reference 0.5).
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
    }
}
