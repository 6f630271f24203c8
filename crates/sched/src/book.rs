//! Shared EchelonFlow bookkeeping for schedulers.
//!
//! Schedulers are constructed with the declared EchelonFlows of the
//! workload (the paper's agents report them before their flows start,
//! §5). At allocation time the book:
//!
//! - binds each EchelonFlow's **reference time** the first time one of its
//!   flows becomes active (Definition 3.1: `r = s_0`, the head flow's
//!   start time — the runner recomputes rates at every release, so "first
//!   seen active" is exactly the head flow's start);
//! - resolves per-flow **ideal finish times** through the arrangement
//!   function, from which the MADD engine projects each EchelonFlow's
//!   **tardiness under isolation**, the quantity Property 4 ranks by.

use echelon_core::echelon::EchelonFlow;
use echelon_core::EchelonId;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::time::SimTime;
use std::collections::BTreeMap;

/// Registry of declared EchelonFlows with lazy reference binding.
///
/// The book supports an open-loop lifecycle: EchelonFlows may be
/// [`Self::register`]ed as their jobs are admitted and [`Self::evict`]ed
/// once every member flow has finished, keeping occupancy proportional to
/// *live* jobs rather than all jobs ever seen. [`Self::peak_occupancy`]
/// is the memory-bound witness asserted by the open-loop drives.
#[derive(Debug, Clone)]
pub struct EchelonBook {
    echelons: BTreeMap<EchelonId, EchelonFlow>,
    by_flow: BTreeMap<FlowId, EchelonId>,
    peak_occupancy: usize,
}

impl EchelonBook {
    /// Builds a book from declared EchelonFlows.
    ///
    /// # Panics
    ///
    /// Panics if two EchelonFlows share an id or claim the same flow.
    pub fn new(echelons: Vec<EchelonFlow>) -> EchelonBook {
        // Both maps are built in one pass from sorted pairs; duplicates
        // sit next to each other once sorted.
        let mut claims: Vec<(FlowId, EchelonId)> =
            Vec::with_capacity(echelons.iter().map(EchelonFlow::num_flows).sum());
        for h in &echelons {
            claims.extend(h.flows().map(|f| (f.id, h.id())));
        }
        claims.sort_unstable_by_key(|&(f, _)| f);
        if let Some(w) = claims.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("flow {} claimed by two EchelonFlows", w[0].0);
        }
        let mut groups: Vec<(EchelonId, EchelonFlow)> =
            echelons.into_iter().map(|h| (h.id(), h)).collect();
        groups.sort_unstable_by_key(|&(id, _)| id);
        if let Some(w) = groups.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate EchelonFlow id {}", w[0].0);
        }
        let peak = groups.len();
        EchelonBook {
            echelons: groups.into_iter().collect(),
            by_flow: claims.into_iter().collect(),
            peak_occupancy: peak,
        }
    }

    /// Registers one more EchelonFlow into a live book (open-loop
    /// admission). Registration any time before the EchelonFlow's head
    /// flow is released is allocation-neutral: an echelon with no active
    /// member flows contributes nothing to any serve order.
    ///
    /// # Panics
    ///
    /// Panics if the id or any member flow is already claimed.
    pub fn register(&mut self, echelon: EchelonFlow) {
        for f in echelon.flows() {
            let prev = self.by_flow.insert(f.id, echelon.id());
            assert!(prev.is_none(), "flow {} claimed by two EchelonFlows", f.id);
        }
        let id = echelon.id();
        let prev = self.echelons.insert(id, echelon);
        assert!(prev.is_none(), "duplicate EchelonFlow id {id}");
        self.peak_occupancy = self.peak_occupancy.max(self.echelons.len());
    }

    /// Evicts a completed EchelonFlow (open-loop retirement), refusing —
    /// returning `false` and leaving the book untouched — when any member
    /// flow is still in `active`. Evicting only after the last member
    /// completion is allocation-neutral: a departed flow is never
    /// consulted again, so dropping its group changes no later decision.
    /// Unknown ids are a no-op returning `false`. `active` is id-sorted,
    /// so each member is looked up by binary search.
    pub fn evict(&mut self, id: EchelonId, active: &[ActiveFlowView]) -> bool {
        debug_assert!(active.windows(2).all(|w| w[0].id < w[1].id));
        let Some(h) = self.echelons.get(&id) else {
            return false;
        };
        if h.flows()
            .any(|f| active.binary_search_by_key(&f.id, |v| v.id).is_ok())
        {
            return false;
        }
        let h = self.echelons.remove(&id).expect("checked above");
        for f in h.flows() {
            self.by_flow.remove(&f.id);
        }
        true
    }

    /// Number of EchelonFlows currently registered.
    pub fn occupancy(&self) -> usize {
        self.echelons.len()
    }

    /// High-water mark of registered EchelonFlows over the book's life.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Binds reference times for every EchelonFlow whose first flow has
    /// just appeared. Call at the top of each allocation.
    ///
    /// This full scan over the active slice is the Full-mode reference;
    /// the incremental path uses [`Self::observe_delta`], which binds from
    /// the arrivals alone.
    pub fn observe(&mut self, now: SimTime, active: &[ActiveFlowView]) {
        for v in active {
            self.observe_one(now, v);
        }
    }

    fn observe_one(&mut self, now: SimTime, v: &ActiveFlowView) {
        if let Some(hid) = self.by_flow.get(&v.id) {
            let h = self.echelons.get_mut(hid).expect("indexed echelon");
            if h.reference().is_none() {
                // The head flow starts the EchelonFlow; if rates are
                // recomputed at every release, the first observation of
                // any member flow is the head's start. Use the flow's
                // own release time to be robust to batched releases.
                h.bind_reference(v.release.min(now));
            }
        }
    }

    /// Delta-driven variant of [`Self::observe`]: binds references only
    /// for the flows that just arrived, so reference maintenance costs
    /// O(arrivals · log flows) per allocation instead of O(active flows).
    /// `active` is the id-sorted active slice; arrivals no longer in it
    /// (released and finished within one drain) are skipped — such a flow
    /// can never be the *first* observation of a live EchelonFlow the full
    /// scan would have bound.
    ///
    /// Debug builds re-run the full scan on a copy and assert both paths
    /// bound the same references, so an unreported arrival cannot
    /// silently diverge from a from-scratch observation.
    pub fn observe_delta(&mut self, now: SimTime, active: &[ActiveFlowView], delta: &FlowDelta) {
        if !delta.arrived.is_empty() {
            // Ascending id order: binding is first-touch, and the full
            // scan observes the id-sorted slice — same member must win
            // when several flows of one EchelonFlow arrive together.
            let mut arrived = delta.arrived.clone();
            arrived.sort_unstable();
            for id in arrived {
                if let Ok(idx) = active.binary_search_by(|v| v.id.cmp(&id)) {
                    self.observe_one(now, &active[idx]);
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut full = self.clone();
            full.observe(now, active);
            let bound = |b: &EchelonBook| -> Vec<(EchelonId, Option<SimTime>)> {
                b.echelons
                    .iter()
                    .map(|(id, h)| (*id, h.reference()))
                    .collect()
            };
            assert_eq!(
                bound(self),
                bound(&full),
                "delta-driven reference binding diverged from the full scan at {now:?}"
            );
        }
    }

    /// The EchelonFlow a flow belongs to.
    pub fn echelon_of(&self, flow: FlowId) -> Option<&EchelonFlow> {
        self.by_flow.get(&flow).and_then(|id| self.echelons.get(id))
    }

    /// Ideal finish time of a flow, if it belongs to a *bound*
    /// EchelonFlow.
    pub fn ideal_finish(&self, flow: FlowId) -> Option<SimTime> {
        let h = self.echelon_of(flow)?;
        h.reference()?;
        h.ideal_finish_of_flow(flow)
    }

    /// All registered EchelonFlows in id order.
    pub fn echelons(&self) -> impl Iterator<Item = &EchelonFlow> {
        self.echelons.values()
    }

    /// Look up by id.
    pub fn get(&self, id: EchelonId) -> Option<&EchelonFlow> {
        self.echelons.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_core::arrangement::ArrangementFn;
    use echelon_core::echelon::FlowRef;
    use echelon_core::JobId;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::topology::Topology;

    fn fr(id: u64, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(0), NodeId(1), size)
    }

    fn view(id: u64, size: f64, remaining: f64, release: f64, topo: &Topology) -> ActiveFlowView {
        ActiveFlowView {
            id: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            remaining,
            release: SimTime::new(release),
            route: topo.route(NodeId(0), NodeId(1)),
            slot: id as u32,
        }
    }

    fn pipeline_book() -> EchelonBook {
        EchelonBook::new(vec![EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 2.0), fr(1, 2.0), fr(2, 2.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        )])
    }

    #[test]
    fn observe_binds_reference_to_head_release() {
        let topo = Topology::chain(2, 1.0);
        let mut book = pipeline_book();
        assert!(book.ideal_finish(FlowId(0)).is_none());
        let active = vec![view(0, 2.0, 2.0, 1.0, &topo)];
        book.observe(SimTime::new(1.0), &active);
        assert!(book
            .ideal_finish(FlowId(0))
            .unwrap()
            .approx_eq(SimTime::new(1.0)));
        assert!(book
            .ideal_finish(FlowId(2))
            .unwrap()
            .approx_eq(SimTime::new(3.0)));
    }

    #[test]
    fn observe_is_idempotent() {
        let topo = Topology::chain(2, 1.0);
        let mut book = pipeline_book();
        let active = vec![view(0, 2.0, 2.0, 1.0, &topo)];
        book.observe(SimTime::new(1.0), &active);
        // Later observations with more flows must not move the reference.
        let later = vec![view(0, 2.0, 1.0, 1.0, &topo), view(1, 2.0, 2.0, 2.0, &topo)];
        book.observe(SimTime::new(2.0), &later);
        assert_eq!(
            book.get(EchelonId(0)).unwrap().reference(),
            Some(SimTime::new(1.0))
        );
    }

    #[test]
    fn observe_delta_binds_like_full_scan() {
        let topo = Topology::chain(2, 1.0);
        let mut by_delta = pipeline_book();
        let mut by_scan = pipeline_book();
        // Flows 1 and 0 arrive in the same drain, reported out of id
        // order: first-touch binding must still pick the same member the
        // id-ordered full scan would.
        let active = vec![view(0, 2.0, 2.0, 1.5, &topo), view(1, 2.0, 2.0, 1.0, &topo)];
        let delta = FlowDelta {
            arrived: vec![FlowId(1), FlowId(0)],
            departed: vec![],
        };
        by_delta.observe_delta(SimTime::new(1.5), &active, &delta);
        by_scan.observe(SimTime::new(1.5), &active);
        assert_eq!(
            by_delta.get(EchelonId(0)).unwrap().reference(),
            by_scan.get(EchelonId(0)).unwrap().reference(),
        );
    }

    #[test]
    fn observe_delta_skips_arrivals_already_gone() {
        let topo = Topology::chain(2, 1.0);
        let mut book = pipeline_book();
        // Flow 0 arrived and departed within one drain: it is in the
        // delta but not in the active slice, so nothing binds.
        let active = vec![view(99, 2.0, 2.0, 1.0, &topo)]; // non-member
        let delta = FlowDelta {
            arrived: vec![FlowId(0)],
            departed: vec![FlowId(0)],
        };
        book.observe_delta(SimTime::new(1.0), &active, &delta);
        assert!(book.get(EchelonId(0)).unwrap().reference().is_none());
    }

    #[test]
    fn observe_delta_empty_is_noop() {
        let topo = Topology::chain(2, 1.0);
        let mut book = pipeline_book();
        let active = vec![view(0, 2.0, 2.0, 1.0, &topo)];
        book.observe(SimTime::new(1.0), &active);
        // A later empty delta must not move the bound reference.
        book.observe_delta(SimTime::new(5.0), &active, &FlowDelta::default());
        assert_eq!(
            book.get(EchelonId(0)).unwrap().reference(),
            Some(SimTime::new(1.0))
        );
    }

    #[test]
    fn register_then_evict_tracks_occupancy() {
        let topo = Topology::chain(2, 1.0);
        let mut book = EchelonBook::new(vec![]);
        assert_eq!(book.occupancy(), 0);
        book.register(EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 2.0)],
            ArrangementFn::Coflow,
        ));
        book.register(EchelonFlow::from_flows(
            EchelonId(1),
            JobId(1),
            vec![fr(1, 2.0)],
            ArrangementFn::Coflow,
        ));
        assert_eq!(book.occupancy(), 2);
        assert_eq!(book.peak_occupancy(), 2);
        let active = vec![view(1, 2.0, 2.0, 0.0, &topo)];
        assert!(book.evict(EchelonId(0), &active));
        assert_eq!(book.occupancy(), 1);
        // Peak is a high-water mark: eviction must not lower it.
        assert_eq!(book.peak_occupancy(), 2);
        // The evicted echelon's flows are unclaimed again.
        assert!(book.echelon_of(FlowId(0)).is_none());
    }

    #[test]
    fn evict_refused_while_member_flow_active() {
        let topo = Topology::chain(2, 1.0);
        let mut book = pipeline_book();
        // Head flow 0 is still active: eviction must refuse and leave
        // the registration untouched.
        let active = vec![view(0, 2.0, 1.0, 1.0, &topo)];
        book.observe(SimTime::new(1.0), &active);
        assert!(!book.evict(EchelonId(0), &active));
        assert_eq!(book.occupancy(), 1);
        assert!(book.echelon_of(FlowId(0)).is_some());
        // Once the member set drains, eviction succeeds.
        assert!(book.evict(EchelonId(0), &[]));
        assert_eq!(book.occupancy(), 0);
    }

    #[test]
    fn evict_checks_members_against_a_large_active_slice() {
        let topo = Topology::chain(2, 1.0);
        let mut book = EchelonBook::new(vec![EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(500, 1.0), fr(1500, 1.0)],
            ArrangementFn::Coflow,
        )]);
        // One member among a thousand non-members.
        let with_member: Vec<ActiveFlowView> =
            (0..1000).map(|id| view(id, 1.0, 1.0, 0.0, &topo)).collect();
        assert!(!book.evict(EchelonId(0), &with_member));
        assert_eq!(book.occupancy(), 1);
        let without: Vec<ActiveFlowView> = with_member
            .into_iter()
            .filter(|v| v.id != FlowId(500))
            .collect();
        assert!(book.evict(EchelonId(0), &without));
        assert_eq!(book.occupancy(), 0);
    }

    #[test]
    fn evict_unknown_id_is_noop() {
        let mut book = pipeline_book();
        assert!(!book.evict(EchelonId(99), &[]));
        assert_eq!(book.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn register_rejects_claimed_flow() {
        let mut book = pipeline_book();
        book.register(EchelonFlow::from_flows(
            EchelonId(7),
            JobId(7),
            vec![fr(0, 1.0)], // flow 0 already claimed by EchelonId(0)
            ArrangementFn::Coflow,
        ));
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn overlapping_echelons_rejected() {
        let h0 = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 1.0)],
            ArrangementFn::Coflow,
        );
        let h1 = EchelonFlow::from_flows(
            EchelonId(1),
            JobId(0),
            vec![fr(0, 1.0)],
            ArrangementFn::Coflow,
        );
        let _ = EchelonBook::new(vec![h0, h1]);
    }
}
