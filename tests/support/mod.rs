//! The test-only pod-sequential reference shared by the differential suites.

use echelonflow::simnet::alloc::{
    alloc_via_dense, waterfill_dense, waterfill_subset_dense, AllocScratch, RateAlloc,
};
use echelonflow::simnet::flow::ActiveFlowView;
use echelonflow::simnet::runner::RatePolicy;
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

/// The pod-sequential reference for `PodMaxMinPolicy`, re-derived from
/// the flow slice on every call with no state at all: every flow is
/// classified from the topology, and each pod's members are filled with
/// `waterfill_subset_dense` in ascending pod order. Any core-crossing
/// flow (or a topology without pods) takes the whole-fabric
/// `waterfill_dense` instead.
#[derive(Debug, Default)]
pub struct PodReference;

impl RatePolicy for PodReference {
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
        out.clear();
        out.resize(flows.len(), 0.0);
        let Some((npods, _)) = topo.pod_partition() else {
            waterfill_dense(topo, flows, None, None, out, ws);
            return;
        };
        let mut members = vec![Vec::new(); npods as usize];
        for (i, v) in flows.iter().enumerate() {
            match (topo.host_pod(v.src), topo.host_pod(v.dst)) {
                (Some(a), Some(b)) if a == b => members[a as usize].push(i),
                _ => {
                    waterfill_dense(topo, flows, None, None, out, ws);
                    return;
                }
            }
        }
        for pod in &members {
            waterfill_subset_dense(topo, flows, pod, out, ws);
        }
    }
}
