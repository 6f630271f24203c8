//! Varys-style Coflow scheduling: inter-coflow ordering + intra-coflow
//! MADD (the paper's Fig. 2b contender).
//!
//! MADD (Minimum Allocation for Desired Duration, Varys SIGCOMM '14) gives
//! every flow of a coflow exactly the rate that makes it finish at the
//! coflow's bottleneck completion time Γ, so all flows finish
//! *simultaneously* — the behaviour the paper shows is harmful for
//! pipeline-shaped DDLT traffic. Inter-coflow, coflows are served
//! by SEBF (smallest effective bottleneck first), BSSI (Sincronia's
//! ordering), or arrival order; unused bandwidth is backfilled for work
//! conservation.
//!
//! Rates are recomputed at every flow arrival/departure with *remaining*
//! bytes, which on the paper's Fig. 2 instance reproduces the published
//! schedule exactly: the three staggered 2B flows converge to rates
//! (B/6, B/3, B/2) and all finish at t = 7.

use crate::scratch::GroupCsr;
use crate::sincronia::{bssi_order, GroupLoad};
use echelon_core::coflow::Coflow;
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

/// Inter-coflow ordering discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoflowOrder {
    /// Smallest effective bottleneck (isolation Γ) first — Varys' SEBF.
    Sebf,
    /// Sincronia's BSSI primal-dual ordering.
    Bssi,
    /// Coflow arrival order (first member flow seen first).
    Arrival,
}

/// Grouping key: declared coflow or an implicit singleton for a flow that
/// belongs to no coflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Co(EchelonId),
    Solo(FlowId),
}

/// The Varys-style coflow scheduler.
#[derive(Debug, Clone)]
pub struct VarysMadd {
    coflows: BTreeMap<EchelonId, Coflow>,
    by_flow: BTreeMap<FlowId, EchelonId>,
    order: CoflowOrder,
    backfill: bool,
    /// High-water mark of registered coflows (open-loop memory witness).
    peak_occupancy: usize,
    arrivals: BTreeMap<GroupKey, SimTime>,
    // Incremental state: id-ordered member list per active group, patched
    // by `apply_delta` and consumed by `allocate_cached`. The naive
    // `allocate` path neither reads nor writes it.
    cached_members: BTreeMap<GroupKey, Vec<FlowId>>,
    // Link-indexed adjacency over the active set, maintained from the
    // same delta stream as `cached_members` (so one consistency check
    // covers both).
    links: LinkIndex,
    // Reusable flat workspaces for the cached allocation path.
    scratch: GroupCsr<GroupKey>,
    load: LinkLoad,
}

impl VarysMadd {
    /// Creates a scheduler over the declared coflows with SEBF ordering
    /// and backfill (Varys defaults).
    ///
    /// # Panics
    ///
    /// Panics if coflows share ids or flows.
    pub fn new(coflows: Vec<Coflow>) -> VarysMadd {
        let mut map = BTreeMap::new();
        let mut by_flow = BTreeMap::new();
        for c in coflows {
            for f in c.flows() {
                let prev = by_flow.insert(f.id, c.id());
                assert!(prev.is_none(), "flow {} claimed by two coflows", f.id);
            }
            let id = c.id();
            assert!(map.insert(id, c).is_none(), "duplicate coflow id {id}");
        }
        let peak = map.len();
        VarysMadd {
            coflows: map,
            by_flow,
            order: CoflowOrder::Sebf,
            backfill: true,
            peak_occupancy: peak,
            arrivals: BTreeMap::new(),
            cached_members: BTreeMap::new(),
            links: LinkIndex::default(),
            scratch: GroupCsr::default(),
            load: LinkLoad::default(),
        }
    }

    /// Registers one more coflow into the live scheduler (open-loop
    /// admission). Allocation-neutral any time before the coflow's first
    /// flow is released: a group with no active flows is never served.
    ///
    /// # Panics
    ///
    /// Panics if the id or any member flow is already claimed.
    pub fn register(&mut self, coflow: Coflow) {
        for f in coflow.flows() {
            let prev = self.by_flow.insert(f.id, coflow.id());
            assert!(prev.is_none(), "flow {} claimed by two coflows", f.id);
        }
        let id = coflow.id();
        assert!(
            self.coflows.insert(id, coflow).is_none(),
            "duplicate coflow id {id}"
        );
        self.peak_occupancy = self.peak_occupancy.max(self.coflows.len());
    }

    /// Evicts a completed coflow, refusing (returning `false`) while any
    /// member flow is still in `active`. Evicting after the last member
    /// completion changes no later allocation: departed flows are never
    /// consulted again. Unknown ids are a no-op returning `false`.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        if !self.coflows.contains_key(&id) {
            return false;
        }
        if active.iter().any(|v| self.by_flow.get(&v.id) == Some(&id)) {
            return false;
        }
        let c = self.coflows.remove(&id).expect("checked above");
        for f in c.flows() {
            self.by_flow.remove(&f.id);
        }
        self.arrivals.remove(&GroupKey::Co(id));
        debug_assert!(
            !self.cached_members.contains_key(&GroupKey::Co(id)),
            "evicted coflow {id} still has cached members"
        );
        true
    }

    /// Number of coflows currently registered.
    pub fn occupancy(&self) -> usize {
        self.coflows.len()
    }

    /// High-water mark of registered coflows over the scheduler's life.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Selects the inter-coflow ordering.
    pub fn with_order(mut self, order: CoflowOrder) -> VarysMadd {
        self.order = order;
        self
    }

    /// Enables/disables work-conserving backfill.
    pub fn with_backfill(mut self, backfill: bool) -> VarysMadd {
        self.backfill = backfill;
        self
    }

    fn group_of(&self, flow: FlowId) -> GroupKey {
        match self.by_flow.get(&flow) {
            Some(id) => GroupKey::Co(*id),
            None => GroupKey::Solo(flow),
        }
    }

    fn weight_of(&self, key: GroupKey) -> f64 {
        match key {
            GroupKey::Co(id) => self.coflows[&id].weight(),
            GroupKey::Solo(_) => 1.0,
        }
    }

    /// Isolation bottleneck Γ of a group: max over resources of the
    /// group's remaining seconds of occupancy.
    fn gamma(members: &[&ActiveFlowView], topo: &Topology) -> f64 {
        let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
        for v in members {
            for r in &v.route {
                *per_resource.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
            }
        }
        per_resource.values().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Computes the serve order over the currently active groups.
    fn serve_order(
        &self,
        now: SimTime,
        groups: &BTreeMap<GroupKey, Vec<&ActiveFlowView>>,
        topo: &Topology,
    ) -> Vec<GroupKey> {
        let mut keys: Vec<GroupKey> = groups.keys().copied().collect();
        match self.order {
            CoflowOrder::Sebf => {
                keys.sort_by(|a, b| {
                    let ga = Self::gamma(&groups[a], topo);
                    let gb = Self::gamma(&groups[b], topo);
                    ga.total_cmp(&gb).then(a.cmp(b))
                });
            }
            CoflowOrder::Arrival => {
                keys.sort_by(|a, b| {
                    let ta = self.arrivals.get(a).copied().unwrap_or(now);
                    let tb = self.arrivals.get(b).copied().unwrap_or(now);
                    ta.cmp(&tb).then(a.cmp(b))
                });
            }
            CoflowOrder::Bssi => {
                // Map group keys into the BSSI id space deterministically.
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

    /// [`Self::gamma`] over a CSR member slice: per-link sums accumulate
    /// into the reusable [`LinkLoad`] in the same member order with the
    /// same first-touch semantics as the map build, and the max folds
    /// over the ascending touched-link list exactly as the map fold
    /// enumerates its keys — bit-identical by construction.
    fn gamma_csr(
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

    /// Inter-coflow ordering over the flat group structure: each group's
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
        match self.order {
            CoflowOrder::Sebf => {
                sc.rank.clear();
                for g in 0..groups {
                    sc.rank.push(Self::gamma_csr(
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
            CoflowOrder::Arrival => {
                sc.rank_time.clear();
                for g in 0..groups {
                    sc.rank_time
                        .push(self.arrivals.get(&sc.keys[g]).copied().unwrap_or(now));
                }
                let GroupCsr {
                    keys,
                    order,
                    rank_time,
                    ..
                } = sc;
                order.sort_by(|&a, &b| rank_time[a].cmp(&rank_time[b]).then(keys[a].cmp(&keys[b])));
            }
            CoflowOrder::Bssi => {
                // Non-default ablation: keep the map-based load build (the
                // BSSI solve itself dominates). Member positions index the
                // id-sorted flow slice and the cached lists are id-sorted,
                // so the pos slice already enumerates members in ascending
                // id order — the naive path's float summation order.
                let mut key_for_id = BTreeMap::new();
                let loads: Vec<GroupLoad> = (0..groups)
                    .map(|g| {
                        let id = EchelonId(g as u64);
                        key_for_id.insert(id, g);
                        let mut load = BTreeMap::new();
                        for &p in &sc.pos[sc.starts[g]..sc.starts[g + 1]] {
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

    /// Serving pass over the flat group structure: the allocation-free
    /// mirror of [`Self::serve`]. Member positions are used directly
    /// instead of re-finding each flow by binary search, and the per-link
    /// byte sums live in the reusable [`LinkLoad`] (gamma folds over the
    /// ascending touched-link list, exactly the map iteration order).
    fn serve_csr(
        &self,
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
            let members = &sc.pos[sc.starts[g]..sc.starts[g + 1]];
            // Γ against residual capacity.
            load.begin(sc.residual.len());
            for &p in members {
                let v = &flows[p];
                for r in &v.route {
                    load.add(*r, v.remaining);
                }
            }
            load.sort_touched();
            let mut gamma: f64 = 0.0;
            for i in 0..load.touched().len() {
                let r = load.touched()[i];
                let res = sc.residual[r.0 as usize];
                if res <= EPS {
                    gamma = f64::INFINITY;
                    break;
                }
                gamma = gamma.max(load.get(r) / res);
            }
            if !gamma.is_finite() || gamma <= EPS {
                continue; // dense rates are already zero
            }
            for &p in members {
                let v = &flows[p];
                let rate = v.remaining / gamma;
                rates[p] = rate;
                for r in &v.route {
                    sc.residual[r.0 as usize] = (sc.residual[r.0 as usize] - rate).max(0.0);
                }
            }
        }

        if self.backfill {
            // Work conservation: flows may exceed their MADD rate using
            // leftover capacity, shared max-min — the MADD rates become
            // the waterfill floor in place.
            waterfill_dense(topo, flows, None, None, rates, ws);
        }
    }

    /// Serves pre-ordered groups: MADD against residual capacity, then
    /// optional backfill. The dense allocation (indexed like the
    /// id-sorted `flows`) lands in `rates`. Shared tail of the naive and
    /// incremental paths; member lists must be in ascending id order.
    fn serve(
        &self,
        order: &[GroupKey],
        groups: &BTreeMap<GroupKey, Vec<&ActiveFlowView>>,
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
        let idx_of = |id: FlowId| {
            flows
                .binary_search_by(|v| v.id.cmp(&id))
                .expect("served flow is active")
        };
        for key in order {
            let members = &groups[key];
            // Γ against residual capacity.
            let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
            for v in members {
                for r in &v.route {
                    *per_resource.entry(r.0).or_insert(0.0) += v.remaining;
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
                continue; // dense rates are already zero
            }
            for v in members {
                let rate = v.remaining / gamma;
                rates[idx_of(v.id)] = rate;
                for r in &v.route {
                    residual[r.0 as usize] = (residual[r.0 as usize] - rate).max(0.0);
                }
            }
        }

        if self.backfill {
            // Work conservation: flows may exceed their MADD rate using
            // leftover capacity, shared max-min — the MADD rates become
            // the waterfill floor in place.
            waterfill_dense(topo, flows, None, None, rates, ws);
        }
    }

    /// Updates the cached group membership for the flows that arrived or
    /// departed since the previous call. `flows` is the current id-sorted
    /// active set; every arrival/departure must be reported exactly once
    /// across the sequence of calls ([`Self::allocate_cached`] self-heals
    /// from missed reports by rebuilding).
    pub fn apply_delta(&mut self, now: SimTime, flows: &[ActiveFlowView], delta: &FlowDelta) {
        let mut arrived = delta.arrived.clone();
        arrived.sort_unstable();
        for id in arrived {
            if flows.binary_search_by(|v| v.id.cmp(&id)).is_err() {
                continue; // arrived and departed without ever being served
            }
            let key = self.group_of(id);
            self.arrivals.entry(key).or_insert(now);
            let list = self.cached_members.entry(key).or_default();
            let pos = list.partition_point(|&f| f < id);
            list.insert(pos, id);
        }
        for &id in &delta.departed {
            let key = self.group_of(id);
            if let Some(list) = self.cached_members.get_mut(&key) {
                if let Ok(pos) = list.binary_search(&id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.cached_members.remove(&key);
                }
            }
        }
        self.links.apply_delta(flows, delta);
    }

    /// True when the cache covers exactly the given active set. The link
    /// index is fed from the same delta stream as the member cache, so
    /// its O(F) flow-table walk vouches for both.
    fn cache_consistent(&self, flows: &[ActiveFlowView]) -> bool {
        self.links.consistent(flows)
    }

    fn rebuild_cache(&mut self, now: SimTime, flows: &[ActiveFlowView]) {
        self.cached_members.clear();
        for v in flows {
            let key = self.group_of(v.id);
            self.arrivals.entry(key).or_insert(now);
            self.cached_members.entry(key).or_default().push(v.id);
        }
        self.links.rebuild(flows);
    }

    /// Allocation from the cached group structure maintained by
    /// [`Self::apply_delta`], written densely into `out` (`out[i]` rates
    /// `flows[i]`). Requires `flows` sorted by ascending id.
    /// Observationally identical to the naive
    /// [`RatePolicy::allocate_dense`].
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
        self.serve_csr(flows, topo, ws, &mut sc, &mut load, out);
        self.scratch = sc;
        self.load = load;
    }

    /// Flattens the cached member lists into the CSR workspace, resolving
    /// each member's position in the id-sorted flow slice once. Groups
    /// land in ascending key order (the member cache's `BTreeMap`
    /// iteration order), members in ascending id order.
    fn build_csr(&self, flows: &[ActiveFlowView], sc: &mut GroupCsr<GroupKey>) {
        sc.clear_groups();
        for (k, ids) in &self.cached_members {
            sc.keys.push(*k);
            for id in ids {
                let idx = flows
                    .binary_search_by(|v| v.id.cmp(id))
                    .expect("cached flow is active");
                sc.pos.push(idx);
            }
            sc.starts.push(sc.pos.len());
        }
    }
}

impl RatePolicy for VarysMadd {
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
        // Group active flows; record first-seen arrival per group.
        let mut groups: BTreeMap<GroupKey, Vec<&ActiveFlowView>> = BTreeMap::new();
        for v in flows {
            let key = self.group_of(v.id);
            self.arrivals.entry(key).or_insert(now);
            groups.entry(key).or_default().push(v);
        }

        let order = self.serve_order(now, &groups, topo);
        self.serve(&order, &groups, flows, topo, ws, out);
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
        match self.order {
            CoflowOrder::Sebf => "varys-madd(sebf)",
            CoflowOrder::Bssi => "varys-madd(bssi)",
            CoflowOrder::Arrival => "varys-madd(arrival)",
        }
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        Some((self.occupancy(), self.peak_occupancy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The coflow half of the paper's Fig. 2: three 2B flows released at
    /// t = 1, 2, 3 on a B = 1 link, formulated as one coflow. MADD with
    /// remaining bytes makes them all finish simultaneously at t = 7.
    #[test]
    fn fig2b_all_flows_finish_at_7() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert!(
                out.finish(id).unwrap().approx_eq(SimTime::new(7.0)),
                "flow {id} finished at {:?}",
                out.finish(id)
            );
        }
    }

    /// The published rate sequence of Fig. 2b: after the third arrival the
    /// flows proceed at B/6, B/3, B/2.
    #[test]
    fn fig2b_final_rates_match_figure() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        // Last RateSet before completion for each flow.
        let last_rate = |id: FlowId| -> f64 {
            out.trace()
                .rate_series(id)
                .iter()
                .rev()
                .find(|(_, r)| *r > 0.0)
                .map(|(_, r)| *r)
                .unwrap()
        };
        assert!((last_rate(FlowId(0)) - 1.0 / 6.0).abs() < 1e-9);
        assert!((last_rate(FlowId(1)) - 1.0 / 3.0).abs() < 1e-9);
        assert!((last_rate(FlowId(2)) - 1.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sebf_serves_small_coflow_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn arrival_order_serves_first_come_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Arrival);
        let out = run_flows(
            &topo,
            vec![demand(1, 0, 1, 4.0, 0.0), demand(0, 0, 1, 1.0, 0.5)],
            &mut policy,
        );
        // Big arrived first and is not preempted by the small one.
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn bssi_order_also_finishes_small_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Bssi);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn coflow_flows_on_disjoint_ports_finish_together() {
        // MADD shapes the whole coflow to its bottleneck: a coflow with a
        // 2B flow and a 1B flow on disjoint ports finishes both at Γ = 2
        // ... unless backfill accelerates the small one. With backfill off
        // they finish together.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]).with_backfill(false);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn backfill_accelerates_non_bottleneck_flow() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]); // backfill on
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn unaffiliated_flows_become_singletons() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = VarysMadd::new(vec![]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 2.0, 0.0)],
            &mut policy,
        );
        // SEBF over singletons = SRPT-ish: short one first.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(3.0)));
    }

    /// The incremental path must be bit-identical to the naive one for
    /// every coflow ordering.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};
        let topo = Topology::big_switch_uniform(4, 1.0);
        let make = |order| {
            let c0 = Coflow::new(
                EchelonId(0),
                JobId(0),
                vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 2, 1, 1.0)],
            );
            let c1 = Coflow::new(EchelonId(1), JobId(1), vec![fr(10, 1, 3, 4.0)]);
            VarysMadd::new(vec![c0, c1]).with_order(order)
        };
        let demands = vec![
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 2, 1, 1.0, 0.0),
            demand(10, 1, 3, 4.0, 0.5),
            demand(20, 3, 0, 0.7, 0.2), // solo flow
        ];
        for order in [CoflowOrder::Sebf, CoflowOrder::Bssi, CoflowOrder::Arrival] {
            let a = run_flows(&topo, demands.clone(), &mut make(order));
            let b = run_flows_with(
                &topo,
                demands.clone(),
                &mut make(order),
                RecomputeMode::Incremental,
            );
            assert_eq!(
                a.trace().events(),
                b.trace().events(),
                "trace mismatch for {order:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn overlapping_coflows_rejected() {
        let a = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let b = Coflow::new(EchelonId(1), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let _ = VarysMadd::new(vec![a, b]);
    }
}
