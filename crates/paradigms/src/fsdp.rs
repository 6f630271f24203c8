//! Fully-sharded data parallelism (ZeRO / FSDP), paper Fig. 3.
//!
//! Parameters are sharded across workers; computation and communication
//! proceed layer-wise. Before layer `l`'s forward (and again before its
//! backward) every worker gathers the layer's shards with an
//! **all-gather**; after the backward, a **reduce-scatter** dispatches
//! gradient shards for synchronization.
//!
//! Per §4 Case III, the flows of each all-gather form a Coflow, and the
//! `2n` all-gather Coflows along the computation timeline form a single
//! **EchelonFlow** with the Eq. 7 `Phased` arrangement (`T_fwd` gaps in
//! the forward phase, `T_bwd` gaps in the backward phase) — the
//! "staggered Coflow finish time" row of Table 1. The reduce-scatters are
//! equivalent to DP gradient synchronizations: plain Coflows.

use crate::config::FsdpConfig;
use crate::dag::{CompKind, CompLabel, DagBuilder, JobDag};
use crate::ids::{CommId, CompId, IdAlloc};
use echelon_collectives::{CollectiveOp, Style};
use echelon_core::arrangement::ArrangementFn;
use echelon_core::echelon::FlowRef;
use echelon_core::JobId;

/// Builds a ZeRO/FSDP job.
pub fn build_fsdp(job: JobId, cfg: &FsdpConfig, alloc: &mut IdAlloc) -> JobDag {
    assert!(cfg.placement.len() >= 2, "FSDP needs at least 2 workers");
    assert!(cfg.layers >= 1, "FSDP needs at least one layer");
    assert!(cfg.iterations >= 1, "need at least one iteration");
    let mut b = DagBuilder::new(job, alloc);
    let workers = &cfg.placement;
    let n = cfg.layers;

    if let Some(per_layer) = &cfg.layer_shard_bytes {
        assert_eq!(
            per_layer.len(),
            n,
            "layer_shard_bytes must have one entry per layer"
        );
    }
    let bytes_of = |l: usize| -> f64 {
        cfg.layer_shard_bytes
            .as_ref()
            .map(|v| v[l])
            .unwrap_or(cfg.shard_bytes)
    };

    let mut prev_update: Vec<CompId> = Vec::new();
    for iter in 0..cfg.iterations {
        // ZeRO prefetches: all 2n all-gathers become releasable at the
        // start of the iteration and the *network scheduler* is what
        // staggers them — exactly the situation Eq. 7's arrangement
        // function describes. Computations consume them in layer order.
        let mut ag_stage_flows: Vec<Vec<FlowRef>> = Vec::with_capacity(2 * n);

        let gather = |b: &mut DagBuilder<'_>,
                      stage_flows: &mut Vec<Vec<FlowRef>>,
                      deps_comp: &[CompId],
                      bytes: f64| {
            let ag = b.comm_op(
                &CollectiveOp::AllGather {
                    participants: workers.clone(),
                    bytes,
                },
                Style::Direct,
                deps_comp,
                &[],
            );
            stage_flows.push(b.flows_of(ag));
            ag
        };

        // Forward: AG_l → F_l per worker.
        let mut fwd_comps: Vec<Vec<CompId>> = Vec::with_capacity(n);
        for l in 0..n {
            let ag = gather(&mut b, &mut ag_stage_flows, &prev_update, bytes_of(l));
            let comps: Vec<CompId> = workers
                .iter()
                .map(|&node| {
                    b.comp(
                        node,
                        cfg.fwd_time_per_layer,
                        CompKind::Forward,
                        CompLabel::from("F").index(l + 1).iteration(iter),
                        &[],
                        &[ag],
                    )
                })
                .collect();
            fwd_comps.push(comps);
        }

        // Backward: AG'_l → B_l → RS_l, deepest layer first.
        let mut rs_comms: Vec<CommId> = Vec::with_capacity(n);
        for l in (0..n).rev() {
            let ag = gather(&mut b, &mut ag_stage_flows, &prev_update, bytes_of(l));
            let comps: Vec<CompId> = workers
                .iter()
                .map(|&node| {
                    b.comp(
                        node,
                        cfg.bwd_time_per_layer,
                        CompKind::Backward,
                        CompLabel::from("B").index(l + 1).iteration(iter),
                        &[],
                        &[ag],
                    )
                })
                .collect();
            let rs = b.comm_op(
                &CollectiveOp::ReduceScatter {
                    participants: workers.clone(),
                    bytes: bytes_of(l),
                },
                Style::Direct,
                &comps,
                &[],
            );
            let flows = b.flows_of(rs);
            b.declare_coflow(flows.clone());
            // RS Coflows are "equivalent to gradient synchronizations in
            // DP": degenerate EchelonFlows.
            b.declare_echelon(vec![flows], ArrangementFn::Coflow);
            rs_comms.push(rs);
        }

        // The 2n all-gathers form ONE EchelonFlow with the Eq. 7 Phased
        // arrangement — and 2n separate Coflows in the Coflow view.
        for flows in &ag_stage_flows {
            b.declare_coflow(flows.clone());
        }
        b.declare_echelon(
            ag_stage_flows,
            ArrangementFn::Phased {
                fwd_gap: cfg.fwd_time_per_layer,
                bwd_gap: cfg.bwd_time_per_layer,
                fwd_count: n,
            },
        );

        // Update barrier: all reduce-scatters done.
        prev_update = workers
            .iter()
            .map(|&node| {
                b.comp(
                    node,
                    0.0,
                    CompKind::Update,
                    CompLabel::from("U").iteration(iter),
                    &[],
                    &rs_comms,
                )
            })
            .collect();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_jobs;
    use echelon_core::coflow::Coflow;
    use echelon_sched::echelon::{EchelonMadd, InterOrder};
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::topology::Topology;

    fn cfg() -> FsdpConfig {
        FsdpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 3,
            shard_bytes: 1.0,
            layer_shard_bytes: None,
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 2.0,
            iterations: 1,
        }
    }

    #[test]
    fn dag_shape_matches_fig3() {
        let mut alloc = IdAlloc::new();
        let dag = build_fsdp(JobId(0), &cfg(), &mut alloc);
        // Comms: 2n all-gathers + n reduce-scatters = 9.
        assert_eq!(dag.comms.len(), 9);
        // Coflow view: one coflow per collective = 9.
        assert_eq!(dag.coflows.len(), 9);
        // EchelonFlow view: one phased EchelonFlow (all-gathers) + n
        // degenerate ones (reduce-scatters) = 4.
        assert_eq!(dag.echelons.len(), 4);
        let phased = dag
            .echelons
            .iter()
            .find(|h| !h.is_coflow_compliant())
            .expect("the AG EchelonFlow");
        assert_eq!(phased.num_stages(), 6);
        // Eq. 7 offsets with T_fwd = 1, T_bwd = 2, n = 3:
        // 0, 1, 2, 4, 6, 8.
        assert_eq!(
            phased.arrangement().offsets(6),
            vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn runs_under_fair_sharing() {
        let mut alloc = IdAlloc::new();
        let dag = build_fsdp(JobId(0), &cfg(), &mut alloc);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // 9 collectives × 2 flows each.
        assert_eq!(out.flow_finishes.len(), 18);
        assert!(out.makespan.secs() > 0.0);
        // Forward layers execute in order on worker 0.
        let labels: Vec<&str> = out
            .timeline_of(NodeId(0))
            .iter()
            .filter(|e| e.kind == CompKind::Forward)
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(labels, vec!["F1(i0)", "F2(i0)", "F3(i0)"]);
    }

    #[test]
    fn echelon_scheduling_beats_or_ties_coflow() {
        // The paper's FSDP claim: the staggered-Coflow EchelonFlow view
        // should never be slower than the flat Coflow view.
        let mut alloc = IdAlloc::new();
        let dag = build_fsdp(JobId(0), &cfg(), &mut alloc);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let mut pe = EchelonMadd::new(dag.echelons.clone());
        let out_e = run_jobs(&topo, &[&dag], &mut pe, &RunConfig::default());
        let mut alloc2 = IdAlloc::new();
        let dag2 = build_fsdp(JobId(0), &cfg(), &mut alloc2);
        let coflows = dag2.coflows.iter().cloned().map(Coflow::into_echelon);
        let mut pc = EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork);
        let out_c = run_jobs(&topo, &[&dag2], &mut pc, &RunConfig::default());
        assert!(
            out_e.makespan.secs() <= out_c.makespan.secs() + 1e-6,
            "echelon {:?} vs coflow {:?}",
            out_e.makespan,
            out_c.makespan
        );
    }

    #[test]
    fn multi_iteration_fsdp() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg();
        c.iterations = 2;
        let dag = build_fsdp(JobId(0), &c, &mut alloc);
        assert_eq!(dag.comms.len(), 18);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        assert_eq!(out.flow_finishes.len(), 36);
    }
}
