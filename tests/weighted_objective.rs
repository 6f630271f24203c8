//! The weighted objective (paper Eq. 4's extension: "the weighted sum of
//! individual EchelonFlows' tardiness, should there be a proper way to
//! assign weights to different DDLT jobs").
//!
//! Two identical pipeline EchelonFlows contend on one link; one carries
//! 8× the weight. Under the weight-aware `MostTardy` ordering the heavy
//! group is served first and accumulates less tardiness; the weighted
//! objective strictly improves versus uniform weights.

use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::tardiness::echelon_tardiness;
use echelonflow::core::{EchelonId, JobId};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::runner::{run_flows, RunConfig};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use std::collections::BTreeMap;

fn pipeline(id: u64, job: u32, base_flow: u64, weight: f64) -> EchelonFlow {
    let flows: Vec<FlowRef> = (0..3)
        .map(|m| FlowRef::new(FlowId(base_flow + m), NodeId(0), NodeId(1), 2.0))
        .collect();
    EchelonFlow::from_flows(
        EchelonId(id),
        JobId(job),
        flows,
        ArrangementFn::Staggered { gap: 1.0 },
    )
    .with_weight(weight)
}

fn demands() -> Vec<FlowDemand> {
    // Both jobs release identical flow trains at t = 0, 1, 2.
    let mut out = Vec::new();
    for (base, _) in [(0u64, 0), (10u64, 1)] {
        for m in 0..3u64 {
            out.push(FlowDemand::new(
                FlowId(base + m),
                NodeId(0),
                NodeId(1),
                2.0,
                SimTime::new(m as f64),
            ));
        }
    }
    out
}

fn weighted_objective(h0: &EchelonFlow, h1: &EchelonFlow, w0: f64, w1: f64) -> f64 {
    let topo = Topology::chain(2, 1.0);
    let mut policy = EchelonMadd::new(vec![pipeline(0, 0, 0, w0), pipeline(1, 1, 10, w1)])
        .with_inter(InterOrder::MostTardy);
    let out = run_flows(&topo, demands(), &mut policy, &RunConfig::default());
    let finishes: BTreeMap<FlowId, SimTime> = out
        .completions()
        .iter()
        .map(|(&id, c)| (id, c.finish))
        .collect();
    let mut b0 = h0.clone();
    let mut b1 = h1.clone();
    b0.bind_reference(SimTime::ZERO);
    b1.bind_reference(SimTime::ZERO);
    w0 * echelon_tardiness(&b0, &finishes).max(0.0)
        + w1 * echelon_tardiness(&b1, &finishes).max(0.0)
}

#[test]
fn weights_steer_the_most_tardy_ordering() {
    let h0 = pipeline(0, 0, 0, 1.0);
    let h1 = pipeline(1, 1, 10, 1.0);
    // Uniform weights: symmetric jobs, some total W.
    let uniform = weighted_objective(&h0, &h1, 1.0, 1.0);
    // Weight job 0 by 8: the scheduler should favor it, reducing the
    // weighted objective versus treating both alike.
    let weighted = weighted_objective(&h0, &h1, 8.0, 1.0);
    // Normalize: compare weighted objective under the weighted policy
    // against what uniform scheduling would give those same weights.
    // Run uniform policy but evaluate with weights (8, 1):
    let topo = Topology::chain(2, 1.0);
    let mut uniform_policy =
        EchelonMadd::new(vec![pipeline(0, 0, 0, 1.0), pipeline(1, 1, 10, 1.0)])
            .with_inter(InterOrder::MostTardy);
    let out = run_flows(&topo, demands(), &mut uniform_policy, &RunConfig::default());
    let finishes: BTreeMap<FlowId, SimTime> = out
        .completions()
        .iter()
        .map(|(&id, c)| (id, c.finish))
        .collect();
    let mut b0 = h0.clone();
    let mut b1 = h1.clone();
    b0.bind_reference(SimTime::ZERO);
    b1.bind_reference(SimTime::ZERO);
    let uniform_eval_weighted = 8.0 * echelon_tardiness(&b0, &finishes).max(0.0)
        + 1.0 * echelon_tardiness(&b1, &finishes).max(0.0);

    assert!(
        weighted <= uniform_eval_weighted + 1e-9,
        "weight-aware scheduling {weighted} worse than weight-blind {uniform_eval_weighted}"
    );
    assert!(uniform.is_finite() && uniform > 0.0);
}

#[test]
fn heavy_group_finishes_first_under_most_tardy() {
    let topo = Topology::chain(2, 1.0);
    let mut policy = EchelonMadd::new(vec![
        pipeline(0, 0, 0, 1.0),
        pipeline(1, 1, 10, 8.0), // heavy
    ])
    .with_inter(InterOrder::MostTardy);
    let out = run_flows(&topo, demands(), &mut policy, &RunConfig::default());
    // The heavy group's last flow beats the light group's last flow.
    let light_last = out.finish(FlowId(2)).unwrap();
    let heavy_last = out.finish(FlowId(12)).unwrap();
    assert!(
        heavy_last < light_last,
        "heavy {heavy_last:?} should finish before light {light_last:?}"
    );
}
