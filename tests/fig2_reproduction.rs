//! Experiment E1 — exact reproduction of the paper's Fig. 2.
//!
//! The motivating example: a two-stage GPipe pipeline, three micro-batches
//! of forward computation (T = 1 per micro-batch per stage), activations
//! of size 2B over a B = 1 link. The paper reports computation finish
//! times of **8.5 (fair sharing), 10 (Coflow scheduling), 8 (EchelonFlow
//! scheduling, optimal)** — these tests pin all three to 1e-6, plus the
//! flow-level schedules behind them.

use echelonflow::cluster::scenario::SchedulerKind;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::dag::CompKind;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::{run_jobs, RunResult};
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

/// Finish time of the last forward unit on the consuming stage — the
/// "comp finish time" the figure annotates.
fn forward_finish(out: &RunResult) -> SimTime {
    out.timeline_of(NodeId(1))
        .iter()
        .filter(|e| e.kind == CompKind::Forward)
        .map(|e| e.end)
        .max()
        .expect("forward units on stage 1")
}

fn fig2_run(kind: SchedulerKind) -> RunResult {
    let topo = Topology::chain(2, 1.0);
    let config = RunConfig::default();
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
    run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config)
}

#[test]
fn fig2a_fair_sharing_comp_finish_8_5() {
    let out = fig2_run(SchedulerKind::Fair);
    assert!(
        forward_finish(&out).approx_eq(SimTime::new(8.5)),
        "fair sharing comp finish = {:?}, paper says 8.5",
        forward_finish(&out)
    );
}

#[test]
fn fig2b_coflow_comp_finish_10() {
    let out = fig2_run(SchedulerKind::Coflow);
    assert!(
        forward_finish(&out).approx_eq(SimTime::new(10.0)),
        "coflow comp finish = {:?}, paper says 10",
        forward_finish(&out)
    );
}

#[test]
fn fig2c_echelon_comp_finish_8() {
    let out = fig2_run(SchedulerKind::Echelon);
    assert!(
        forward_finish(&out).approx_eq(SimTime::new(8.0)),
        "echelon comp finish = {:?}, paper says 8 (optimal)",
        forward_finish(&out)
    );
}

/// The flow-level schedule of Fig. 2a: fair sharing finishes the three
/// activation flows at 4.5, 6.5 and 7.
#[test]
fn fig2a_flow_finishes() {
    let out = fig2_run(SchedulerKind::Fair);
    let forward_flows = forward_flow_finishes(&out);
    assert!(forward_flows[0].approx_eq(SimTime::new(4.5)));
    assert!(forward_flows[1].approx_eq(SimTime::new(6.5)));
    assert!(forward_flows[2].approx_eq(SimTime::new(7.0)));
}

/// Fig. 2b: the Coflow schedule finishes all three flows simultaneously
/// at t = 7.
#[test]
fn fig2b_flows_finish_simultaneously_at_7() {
    let out = fig2_run(SchedulerKind::Coflow);
    for t in forward_flow_finishes(&out) {
        assert!(t.approx_eq(SimTime::new(7.0)), "finish {t:?} != 7");
    }
}

/// Fig. 2c: the EchelonFlow schedule staggers finishes at 3, 5, 7.
#[test]
fn fig2c_flows_finish_staggered_3_5_7() {
    let out = fig2_run(SchedulerKind::Echelon);
    let finishes = forward_flow_finishes(&out);
    assert!(finishes[0].approx_eq(SimTime::new(3.0)));
    assert!(finishes[1].approx_eq(SimTime::new(5.0)));
    assert!(finishes[2].approx_eq(SimTime::new(7.0)));
}

/// The forward (stage-0 → stage-1) activation flows' finish times in
/// release order. The first three released flows are the forward ones
/// (backward flows release later by construction).
fn forward_flow_finishes(out: &RunResult) -> Vec<SimTime> {
    let mut releases: Vec<(SimTime, echelonflow::simnet::ids::FlowId)> =
        out.flow_releases.iter().map(|(&id, &t)| (t, id)).collect();
    releases.sort();
    releases
        .into_iter()
        .take(3)
        .map(|(_, id)| out.flow_finishes[&id])
        .collect()
}

/// The ordering claim of the caption: coflow is worse than fair sharing,
/// and echelon is optimal (no schedule can beat 8: the last activation
/// cannot arrive before 7, and one more computation unit takes 1).
#[test]
fn fig2_ordering_coflow_worse_than_fair_echelon_best() {
    let fair = forward_finish(&fig2_run(SchedulerKind::Fair));
    let coflow = forward_finish(&fig2_run(SchedulerKind::Coflow));
    let echelon = forward_finish(&fig2_run(SchedulerKind::Echelon));
    assert!(echelon < fair, "echelon {echelon:?} !< fair {fair:?}");
    assert!(fair < coflow, "fair {fair:?} !< coflow {coflow:?}");
}
