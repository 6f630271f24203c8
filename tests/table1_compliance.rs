//! Experiment E2 — Table 1, computed programmatically.
//!
//! For every paradigm we check two things against running code:
//!
//! 1. the *declared* EchelonFlow arrangement matches the paper's row
//!    (same finish time ⇔ Coflow-compliant, staggered otherwise), and
//! 2. the *behavioural* claim: for Coflow-compliant paradigms, Coflow
//!    scheduling performs as well as EchelonFlow scheduling; for the
//!    non-compliant ones (PP, FSDP) there exist instances where
//!    EchelonFlow scheduling is strictly better.

use echelonflow::cluster::scenario::SchedulerKind;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::{DpConfig, FsdpConfig, PpConfig, TpConfig};
use echelonflow::paradigms::dp::{build_dp_allreduce, build_dp_ps};
use echelonflow::paradigms::fsdp::build_fsdp;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::paradigms::tp::build_tp;
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::topology::Topology;

fn comp_finish(
    dag: &echelonflow::paradigms::dag::JobDag,
    topo: &Topology,
    kind: SchedulerKind,
) -> f64 {
    let config = RunConfig::default();
    run_jobs(topo, &[dag], kind.policy(&[dag]).as_mut(), &config)
        .comp_finish_time()
        .secs()
}

#[test]
fn dp_allreduce_is_coflow_compliant() {
    let mut alloc = IdAlloc::new();
    let dag = build_dp_allreduce(
        JobId(0),
        &DpConfig {
            placement: vec![NodeId(0), NodeId(1), NodeId(2)],
            ps: None,
            bucket_bytes: vec![3.0, 3.0],
            fwd_time: 1.0,
            bwd_time_per_bucket: 0.5,
            iterations: 1,
        },
        &mut alloc,
    );
    // Declared arrangement: same flow finish time.
    assert!(dag.echelons.iter().all(|h| h.is_coflow_compliant()));
    // Behaviour: Coflow scheduling is as good as EchelonFlow scheduling.
    let topo = Topology::big_switch_uniform(3, 1.0);
    let c = comp_finish(&dag, &topo, SchedulerKind::Coflow);
    let e = comp_finish(&dag, &topo, SchedulerKind::Echelon);
    assert!((c - e).abs() < 1e-6, "coflow {c} vs echelon {e}");
}

#[test]
fn dp_ps_is_coflow_compliant() {
    let mut alloc = IdAlloc::new();
    let dag = build_dp_ps(
        JobId(0),
        &DpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            ps: Some(NodeId(2)),
            bucket_bytes: vec![2.0, 2.0],
            fwd_time: 1.0,
            bwd_time_per_bucket: 0.5,
            iterations: 1,
        },
        &mut alloc,
    );
    assert!(dag.echelons.iter().all(|h| h.is_coflow_compliant()));
    let topo = Topology::big_switch_uniform(3, 1.0);
    let c = comp_finish(&dag, &topo, SchedulerKind::Coflow);
    let e = comp_finish(&dag, &topo, SchedulerKind::Echelon);
    assert!((c - e).abs() < 1e-6, "coflow {c} vs echelon {e}");
}

#[test]
fn tp_is_coflow_compliant() {
    let mut alloc = IdAlloc::new();
    let dag = build_tp(
        JobId(0),
        &TpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 2,
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 1.0,
            activation_bytes: 2.0,
            iterations: 1,
        },
        &mut alloc,
    );
    assert!(dag.echelons.iter().all(|h| h.is_coflow_compliant()));
    let topo = Topology::big_switch_uniform(2, 1.0);
    let c = comp_finish(&dag, &topo, SchedulerKind::Coflow);
    let e = comp_finish(&dag, &topo, SchedulerKind::Echelon);
    assert!((c - e).abs() < 1e-6, "coflow {c} vs echelon {e}");
}

#[test]
fn pp_is_not_coflow_compliant() {
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
    // Declared arrangement: staggered flow finish time.
    assert!(dag.echelons.iter().all(|h| !h.is_coflow_compliant()));
    // Behaviour (Fig. 2): Coflow scheduling is strictly worse.
    let topo = Topology::chain(2, 1.0);
    let c = comp_finish(&dag, &topo, SchedulerKind::Coflow);
    let e = comp_finish(&dag, &topo, SchedulerKind::Echelon);
    assert!(e + 1e-6 < c, "echelon {e} must beat coflow {c}");
}

#[test]
fn fsdp_is_not_coflow_compliant() {
    // Heterogeneous layers: the early (first-needed) layers are large, so
    // Coflow's size-based ordering (smallest-bottleneck first) serves the
    // *later* layers first and breaks the Eq. 7 computation pattern.
    let mut alloc = IdAlloc::new();
    let dag = build_fsdp(
        JobId(0),
        &FsdpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 3,
            shard_bytes: 1.0,
            layer_shard_bytes: Some(vec![3.0, 2.0, 1.0]),
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 1.0,
            iterations: 1,
        },
        &mut alloc,
    );
    // Declared arrangement: staggered Coflow finish time (one phased
    // EchelonFlow among the groups).
    assert!(dag.echelons.iter().any(|h| !h.is_coflow_compliant()));
    let topo = Topology::big_switch_uniform(2, 1.0);
    let c = comp_finish(&dag, &topo, SchedulerKind::Coflow);
    let e = comp_finish(&dag, &topo, SchedulerKind::Echelon);
    assert!(
        e + 1e-6 < c,
        "echelon {e} must beat coflow {c} on heterogeneous FSDP"
    );
}
