//! End-to-end runs on the datacenter fabric: every paradigm, the full
//! agent/coordinator path, and the hybrid job on an oversubscribed
//! k = 4 fat-tree.

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig};
use echelonflow::cluster::scenario::SchedulerKind;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::{DpConfig, FsdpConfig, PpConfig, TpConfig};
use echelonflow::paradigms::dp::build_dp_allreduce;
use echelonflow::paradigms::fsdp::build_fsdp;
use echelonflow::paradigms::hybrid::{build_hybrid, HybridConfig};
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::paradigms::tp::build_tp;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::{MaxMinPolicy, RunConfig};

fn fabric() -> echelonflow::simnet::topology::Topology {
    FatTree::new(4).with_oversubscription(4.0).build_fabric()
}

/// Every paradigm completes on the fat-tree with cross-pod placement.
#[test]
fn all_paradigms_run_cross_pod() {
    let topo = fabric();
    // Hosts 0, 4, 8, 12 are in four different pods.
    let cross_pod: Vec<NodeId> = [0u32, 4, 8, 12].map(NodeId).to_vec();

    let mut alloc = IdAlloc::new();
    let dags = [
        build_dp_allreduce(
            JobId(0),
            &DpConfig {
                placement: cross_pod.clone(),
                ps: None,
                bucket_bytes: vec![2.0],
                fwd_time: 1.0,
                bwd_time_per_bucket: 0.5,
                iterations: 1,
            },
            &mut alloc,
        ),
        build_pp_gpipe(
            JobId(1),
            &PpConfig {
                placement: vec![NodeId(1), NodeId(5)],
                micro_batches: 3,
                fwd_time: 1.0,
                bwd_time: 1.0,
                activation_bytes: 1.0,
                iterations: 1,
            },
            &mut alloc,
        ),
        build_tp(
            JobId(2),
            &TpConfig {
                placement: vec![NodeId(2), NodeId(6)],
                layers: 2,
                fwd_time_per_layer: 1.0,
                bwd_time_per_layer: 1.0,
                activation_bytes: 1.0,
                iterations: 1,
            },
            &mut alloc,
        ),
        build_fsdp(
            JobId(3),
            &FsdpConfig {
                placement: vec![NodeId(3), NodeId(7)],
                layers: 2,
                shard_bytes: 1.0,
                layer_shard_bytes: None,
                fwd_time_per_layer: 1.0,
                bwd_time_per_layer: 1.0,
                iterations: 1,
            },
            &mut alloc,
        ),
    ];
    let dag_refs: Vec<&_> = dags.iter().collect();
    let mut policy = SchedulerKind::Echelon.policy(&dag_refs);
    let out = run_jobs(&topo, &dag_refs, policy.as_mut(), &RunConfig::default());
    for job in 0..4u32 {
        assert!(
            out.job_makespans.contains_key(&JobId(job)),
            "job {job} never finished"
        );
    }
}

/// The hybrid DP×PP job placed rack-aware (replicas within pods,
/// gradient sync across the core) completes, and EchelonFlow scheduling
/// does not lose to fair sharing.
#[test]
fn hybrid_rack_aware_on_fattree() {
    let topo = fabric();
    let cfg = HybridConfig {
        // Replica 0 in pod 0, replica 1 in pod 1: pipeline traffic stays
        // in-pod; only gradient all-reduce crosses the core.
        replicas: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(4), NodeId(5)]],
        micro_batches: 3,
        fwd_time: 1.0,
        bwd_time: 1.0,
        activation_bytes: 1.0,
        stage_grad_bytes: 2.0,
        iterations: 1,
    };
    let mut alloc = IdAlloc::new();
    let dag = build_hybrid(JobId(0), &cfg, &mut alloc);

    let fair = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
    // EchelonMadd is a heuristic for an NP-hard problem (Property 3):
    // strict group-priority service can interact badly with the chained
    // ring-all-reduce stages. On this fabric EDF finishes at 18.0 and
    // fair sharing at 18.33; a tree that routed every cross-pod flow
    // through one core link made EDF trail by one compute unit (25 vs
    // 24). Bound the gap rather than hiding the instance.
    let mut policy = SchedulerKind::Echelon.policy(&[&dag]);
    let echelon = run_jobs(&topo, &[&dag], policy.as_mut(), &RunConfig::default());
    let gap = echelon.comp_finish_time().secs() / fair.comp_finish_time().secs();
    assert!(
        gap <= 1.1,
        "echelon {:?} too far behind fair {:?}",
        echelon.comp_finish_time(),
        fair.comp_finish_time()
    );
    // Everything still completes and conserves work.
    assert_eq!(echelon.flow_finishes.len(), dag.all_flows().len());
}

/// The coordinator path works unchanged on the fat-tree.
#[test]
fn coordinator_path_on_fattree() {
    let topo = fabric();
    let mut alloc = IdAlloc::new();
    let mk = |job, a: u32, b: u32, alloc: &mut IdAlloc| {
        build_pp_gpipe(
            job,
            &PpConfig {
                placement: vec![NodeId(a), NodeId(b)],
                micro_batches: 3,
                fwd_time: 1.0,
                bwd_time: 1.0,
                activation_bytes: 2.0,
                iterations: 1,
            },
            alloc,
        )
    };
    // Both pipelines cross pods: they contend on the oversubscribed core.
    let dags = vec![
        mk(JobId(0), 0, 4, &mut alloc),
        mk(JobId(1), 1, 5, &mut alloc),
    ];
    let dag_refs: Vec<&_> = dags.iter().collect();

    let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    for dag in &dags {
        EchelonAgent::from_dag(dag).report_to(&mut coordinator);
    }
    let mut policy = coordinator.into_policy();
    let out = run_jobs(&topo, &dag_refs, &mut policy, &RunConfig::default());
    assert!(out.job_makespans[&JobId(0)].secs() > 0.0);
    assert!(out.job_makespans[&JobId(1)].secs() > 0.0);
    assert!(policy.decisions_computed() > 0);
}
