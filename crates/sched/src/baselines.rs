//! Per-flow baseline policies.
//!
//! These are the application-agnostic schedulers the paper positions
//! EchelonFlow against (§1): plain bandwidth fair sharing, FIFO, and
//! SRPT — the preemptive shortest-remaining-processing-time discipline
//! that per-flow schedulers like pFabric approximate.

use echelon_simnet::alloc::{alloc_via_dense, priority_fill_dense, AllocScratch, RateAlloc};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

/// Max-min fair sharing (re-exported from the substrate for symmetry).
pub type FairPolicy = echelon_simnet::runner::MaxMinPolicy;

/// First-in-first-out: strict priority by release time (ties by id), with
/// the greedy filling making it work conserving.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoPolicy;

impl RatePolicy for FifoPolicy {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
        })
    }

    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let mut order: Vec<&ActiveFlowView> = flows.iter().collect();
        order.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.cmp(&b.id)));
        let ids: Vec<FlowId> = order.into_iter().map(|f| f.id).collect();
        out.clear();
        out.resize(flows.len(), 0.0);
        priority_fill_dense(topo, flows, &ids, None, out, ws);
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

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Preemptive shortest-remaining-processing-time: strict priority by
/// remaining bytes (ties by id). Minimizes mean FCT on a single resource;
/// the canonical "flow scheduling without application semantics" point of
/// comparison.
#[derive(Debug, Default, Clone, Copy)]
pub struct SrptPolicy;

impl RatePolicy for SrptPolicy {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
        })
    }

    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        let mut order: Vec<&ActiveFlowView> = flows.iter().collect();
        order.sort_by(|a, b| a.remaining.total_cmp(&b.remaining).then(a.id.cmp(&b.id)));
        let ids: Vec<FlowId> = order.into_iter().map(|f| f.id).collect();
        out.clear();
        out.resize(flows.len(), 0.0);
        priority_fill_dense(topo, flows, &ids, None, out, ws);
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

    fn name(&self) -> &'static str {
        "srpt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::run_flows;

    fn demand(id: u64, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(0),
            NodeId(1),
            size,
            SimTime::new(release),
        )
    }

    #[test]
    fn fifo_serves_in_release_order() {
        let topo = Topology::chain(2, 1.0);
        let out = run_flows(
            &topo,
            vec![demand(0, 2.0, 0.0), demand(1, 1.0, 0.5)],
            &mut FifoPolicy,
        );
        // f0 runs [0,2] at full rate despite f1 being shorter.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(3.0)));
    }

    #[test]
    fn srpt_preempts_for_shorter_flow() {
        let topo = Topology::chain(2, 1.0);
        let out = run_flows(
            &topo,
            vec![demand(0, 2.0, 0.0), demand(1, 0.5, 1.0)],
            &mut SrptPolicy,
        );
        // At t=1, f0 has 1.0 left, f1 has 0.5 → f1 wins, finishes at 1.5;
        // f0 resumes and finishes at 2.5.
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.5)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.5)));
    }

    #[test]
    fn srpt_ties_broken_by_id() {
        let topo = Topology::chain(2, 1.0);
        let out = run_flows(
            &topo,
            vec![demand(1, 1.0, 0.0), demand(0, 1.0, 0.0)],
            &mut SrptPolicy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn fifo_is_work_conserving_across_ports() {
        // Two flows on disjoint ports both run at full rate.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = vec![
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(2), NodeId(3), 1.0, SimTime::ZERO),
        ];
        let out = run_flows(&topo, demands, &mut FifoPolicy);
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.0)));
    }
}
